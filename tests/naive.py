"""Independent brute-force oracles used to cross-check the package.

Most of it is written against plain lists and sets, deliberately avoiding
the bitmask machinery of the package under test, so the two routes only
share the input graphs. ``is_two_divisible_oracle``, ``_canonical_key``
(with ``_refined_colors``), ``nonisomorphic_graphs``,
``old_rule_homogeneous_set`` and ``perfect_division_log`` are instead the
slower versions that faster package code replaced, kept so the two can be
compared exactly; ``contracted_set`` states the package's one contraction
rule with the same pair closures, and ``child_rule_homogeneous_set`` the
set that ``find_homogeneous_set`` names.
"""

import functools
import itertools

from graphdiv import Graph, VertexSet, canonical_graph, cycle_graph, induced_subgraph
from graphdiv.core import _bits


def subsets(items, size=None):
    items = list(items)
    if size is not None:
        return itertools.combinations(items, size)
    return itertools.chain.from_iterable(
        itertools.combinations(items, k) for k in range(len(items) + 1)
    )


def is_clique(g: Graph, vertices) -> bool:
    return all(g.has_edge(u, v) for u, v in itertools.combinations(vertices, 2))


def clique_number(g: Graph) -> int:
    return max(len(s) for s in subsets(range(g.n)) if is_clique(g, s))


def max_weight_clique(g: Graph, weights) -> int:
    return max(sum(weights[v] for v in s) for s in subsets(range(g.n)) if is_clique(g, s))


def is_proper(g: Graph, assignment) -> bool:
    return all(assignment[u] != assignment[v] for u, v in g.edges())


def chromatic_number(g: Graph) -> int:
    """Smallest palette admitting a proper assignment, by full enumeration."""
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if k ** g.n > 5_000_000:
            raise ValueError("graph too large for the naive chromatic oracle")
        for assignment in itertools.product(range(k), repeat=g.n):
            if is_proper(g, assignment):
                return k
    raise AssertionError("n colors always suffice")


def induces_pattern(g: Graph, vertices, pattern: Graph) -> bool:
    """Does some ordering of ``vertices`` induce exactly ``pattern``?"""
    for perm in itertools.permutations(vertices):
        if all(
            g.has_edge(perm[i], perm[j]) == pattern.has_edge(i, j)
            for i in range(pattern.n)
            for j in range(i + 1, pattern.n)
        ):
            return True
    return False


def contains_induced(g: Graph, pattern: Graph) -> bool:
    return any(induces_pattern(g, s, pattern) for s in subsets(range(g.n), pattern.n))


def _induces_cycle(g: Graph, vertices) -> bool:
    vertices = list(vertices)
    for v in vertices:
        if sum(1 for u in vertices if u != v and g.has_edge(u, v)) != 2:
            return False
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        v = stack.pop()
        for u in vertices:
            if u not in seen and g.has_edge(u, v):
                seen.add(u)
                stack.append(u)
    return len(seen) == len(vertices)


def first_induced(g: Graph, pattern: Graph):
    """Lexicographically smallest tuple of distinct vertices whose i-th entry
    hosts pattern vertex i in an induced copy, or None: every vertex is
    tried at every slot, in ascending order."""
    image = []

    def extend():
        i = len(image)
        if i == pattern.n:
            return True
        for v in range(g.n):
            if v in image:
                continue
            if all(g.has_edge(v, image[j]) == pattern.has_edge(i, j) for j in range(i)):
                image.append(v)
                if extend():
                    return True
                image.pop()
        return False

    return tuple(image) if extend() else None


def first_odd_hole(g: Graph, vertices=None):
    """The first odd hole of ``g`` restricted to ``vertices`` (all of ``g``
    by default): ``first_induced`` of C_k on that induced subgraph for the
    least odd k >= 5 where it finds one, mapped back to ``g``'s vertices.
    None when there is no odd hole."""
    sub, vmap = induced_subgraph(g, VertexSet.of(g.n, range(g.n) if vertices is None else vertices))
    for k in range(5, sub.n + 1, 2):
        image = first_induced(sub, cycle_graph(k))
        if image is not None:
            return tuple(vmap[v] for v in image)
    return None


def has_induced_cycle(g: Graph, k: int, vertices=None) -> bool:
    """Does ``g`` restricted to ``vertices`` (all of ``g`` by default) hold
    an induced cycle on exactly ``k`` vertices?"""
    vertices = sorted(range(g.n) if vertices is None else vertices)
    return any(_induces_cycle(g, s) for s in itertools.combinations(vertices, k))


def has_odd_hole(g: Graph) -> bool:
    for k in range(5, g.n + 1, 2):
        for s in subsets(range(g.n), k):
            if _induces_cycle(g, s):
                return True
    return False


def has_odd_antihole(g: Graph) -> bool:
    from graphdiv import complement

    return has_odd_hole(complement(g))


def is_perfect(g: Graph) -> bool:
    """Definitional perfection: chromatic number equals clique number on
    every induced vertex subset. Only sensible for very small graphs."""
    from graphdiv import VertexSet, induced_subgraph

    for s in subsets(range(g.n)):
        sub, _ = induced_subgraph(g, VertexSet.of(g.n, s))
        if chromatic_number(sub) != clique_number(sub):
            return False
    return True


def homogeneous_sets(g: Graph) -> list:
    """Every homogeneous set, by checking all vertex subsets."""
    found = []
    for s in subsets(range(g.n)):
        if not 1 < len(s) < g.n:
            continue
        inside = set(s)
        good = True
        for w in range(g.n):
            if w in inside:
                continue
            links = sum(1 for v in inside if g.has_edge(w, v))
            if links not in (0, len(inside)):
                good = False
                break
        if good:
            found.append(frozenset(s))
    return found


def _pair_closure(adj, full: int, u: int, v: int) -> int:
    """The smallest module of the subgraph on ``full`` that holds ``u`` and
    ``v``: grow the pair until no outside vertex has both a neighbor and a
    non-neighbor inside."""
    x = (1 << u) | (1 << v)
    changed = True
    while changed and x != full:
        changed = False
        for w in _bits(full & ~x):
            inside = adj[w] & x
            if inside != 0 and inside != x:
                x |= 1 << w
                changed = True
    return x


def old_rule_homogeneous_set(g: Graph, within: VertexSet = None):
    """The homogeneous set that perfect division contracted before it took
    the children of the modular decomposition's root: the first proper
    pair closure of ``within`` (all of ``g`` by default), over its vertex
    pairs in lexicographic order, or None."""
    full = (1 << g.n) - 1 if within is None else within.mask
    members = list(_bits(full))
    for i, u in enumerate(members[:-1]):
        for v in members[i + 1 :]:
            x = _pair_closure(g.adj, full, u, v)
            if x != full:
                return VertexSet(g.n, x)
    return None


def _parts(full: int, linked) -> list:
    """The classes of ``full`` under the transitive closure of ``linked``,
    each grown from its smallest member."""
    parts = []
    left = full
    while left:
        part = todo = left & -left
        while todo:
            low = todo & -todo
            todo ^= low
            grow = linked(low.bit_length() - 1) & left & ~part
            part |= grow
            todo |= grow
        parts.append(part)
        left &= ~part
    return parts


def contracted_set(g: Graph, within: VertexSet = None):
    """The homogeneous set that perfect division contracts, from plain pair
    closures. Split ``within`` (all of ``g`` by default) into components,
    else anticomponents, else maximal proper modules (the union of the
    proper pair closures through each vertex). Take the first part with
    two or more vertices; else None, and the set, being prime, complete or
    edgeless, takes the base step."""
    full = (1 << g.n) - 1 if within is None else within.mask
    members = list(_bits(full))
    parts = _parts(full, lambda v: g.adj[v])
    if len(parts) == 1:
        parts = _parts(full, lambda v: ~g.adj[v] & ~(1 << v))
    if len(parts) == 1:
        parts = []
        for u in members:
            part = 1 << u
            for v in members:
                closure = _pair_closure(g.adj, full, u, v)
                if closure != full:
                    part |= closure
            if part not in parts:
                parts.append(part)
    for part in parts:
        if part.bit_count() >= 2:
            return VertexSet(g.n, part)
    return None


def child_rule_homogeneous_set(g: Graph, within: VertexSet = None):
    """The homogeneous set that ``find_homogeneous_set`` names: the
    contracted set, else, when ``within`` (all of ``g`` by default) is
    complete or edgeless with three or more vertices, its first two
    vertices; else None."""
    x = contracted_set(g, within)
    members = list(_bits((1 << g.n) - 1 if within is None else within.mask))
    edges = {g.has_edge(u, v) for u, v in itertools.combinations(members, 2)}
    if x is None and len(members) >= 3 and len(edges) == 1:
        return VertexSet.of(g.n, members[:2])
    return x


def perfect_division_log(g: Graph, weights, within: VertexSet = None, rule=contracted_set) -> list:
    """The derivation log of the package's first perfect division, kept as
    the reference for the one that runs on a modular decomposition: every
    step finds its homogeneous set with ``rule`` (by default the package's
    current one), lifts the representative's weight by branch and bound
    over the contracted set, and tests perfection by the exact hole and
    antihole search on the whole non-neighborhood. As in the paper, the
    contracted set is divided only when the quotient puts its
    representative on the P side. Nothing is verified."""
    from graphdiv import WeightFn, imperfection_witness, max_weight_clique

    n = g.n
    full = (1 << n) - 1 if within is None else within.mask
    log = []

    def members(mask):
        return list(_bits(mask))

    def divide(w, mask):
        x = rule(g, VertexSet(n, mask))
        if x is None:
            for v in _bits(mask):
                if imperfection_witness(g, VertexSet(n, mask & ~g.adj[v] & ~(1 << v))) is None:
                    break
            else:
                raise AssertionError("prime graph has no vertex with perfect non-neighborhood")
            p, rest = mask & ~g.adj[v], mask & g.adj[v]
            log.append(
                {
                    "kind": "base-partition",
                    "rule": "perfect-non-neighborhood",
                    "chosen": v,
                    "rejected": members(mask & ((1 << v) - 1)),
                    "p": members(p),
                    "w": members(rest),
                }
            )
            return p, rest
        rep = x.members()[0]
        lifted = list(w)
        lifted[rep] = max_weight_clique(g, WeightFn.of(w), x).value
        quotient = (mask & ~x.mask) | (1 << rep)
        log.append(
            {"kind": "quotient", "x": members(x.mask), "representative": rep, "lifted_weight": lifted[rep], "quotient": members(quotient)}
        )
        q_p, q_w = divide(lifted, quotient)
        if q_w >> rep & 1:
            case, p, rest = "xhat-in-w", q_p, q_w | x.mask
        else:
            i_p, i_w = divide(w, x.mask)
            case, p, rest = "xhat-in-p", (q_p & ~(1 << rep)) | i_p, q_w | i_w
        log.append({"kind": "recombination", "case": case, "x": members(x.mask), "p": members(p), "w": members(rest)})
        return p, rest

    positive = sum(1 << v for v in _bits(full) if weights[v] > 0)
    log.append({"kind": "restrict", "positive": members(positive), "zero": members(full & ~positive)})
    if positive:
        divide(list(weights), positive)
    return log


def is_two_divisible(g: Graph) -> bool:
    """Every induced subgraph with an edge splits into two parts of
    strictly smaller clique number."""
    for s in subsets(range(g.n)):
        if not any(g.has_edge(u, v) for u, v in itertools.combinations(s, 2)):
            continue
        inside = list(s)
        omega = max(
            len(c) for c in subsets(inside) if is_clique(g, c)
        )
        ok = False
        for a in subsets(inside):
            b = [v for v in inside if v not in set(a)]
            wa = max((len(c) for c in subsets(a) if is_clique(g, c)), default=0)
            wb = max((len(c) for c in subsets(b) if is_clique(g, c)), default=0)
            if wa < omega and wb < omega:
                ok = True
                break
        if not ok:
            return False
    return True


def is_two_divisible_oracle(g: Graph):
    """The package's first 2-divisibility oracle, kept as the reference for
    the current one: the same clique-number table, but every subset with an
    edge scans its submasks from the top until one splits it. Returns
    ``(True, None)`` or ``(False, first failing subset)``."""
    n = g.n
    adj = g.adj
    size = 1 << n
    omega = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        v = low.bit_length() - 1
        omega[mask] = max(omega[mask ^ low], 1 + omega[mask & adj[v]])
    for h in range(1, size):
        oh = omega[h]
        if oh < 2:
            continue
        low = h & -h
        found = False
        a = h
        while True:
            if a & low and omega[a] < oh and omega[h ^ a] < oh:
                found = True
                break
            if a == 0:
                break
            a = (a - 1) & h
        if not found:
            return False, VertexSet(n, h)
    return True, None


def _refined_colors(n: int, adj):
    """Stable vertex colors under iterated neighbor-multiset refinement."""
    degrees = [adj[v].bit_count() for v in range(n)]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    colors = [rank[d] for d in degrees]
    while True:
        signatures = [
            (colors[v], tuple(sorted(colors[u] for u in _bits(adj[v])))) for v in range(n)
        ]
        order = {s: i for i, s in enumerate(sorted(set(signatures)))}
        refined = [order[s] for s in signatures]
        if refined == colors:
            return tuple(colors)
        colors = refined


def _canonical_key(n: int, adj):
    """The package's first canonical key of the graph on ``0..n-1`` with the
    rows ``adj``, kept as the reference for the current one: the same
    placements, twin skipping and minimum, but each chunk is built by
    scanning the placed vertices and each prefix is compared by slicing."""
    if n <= 1:
        return (n, (0,) * n)
    colors = _refined_colors(n, adj)
    position_colors = sorted(colors)
    by_color = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)

    best = None
    placed = []
    cur = []
    used = 0

    def is_twin(u, v):
        return adj[u] == adj[v] or (adj[u] ^ (1 << v)) == (adj[v] ^ (1 << u))

    def rec(p):
        nonlocal best, used
        if p == n:
            if best is None or cur < best:
                best = cur.copy()
            return
        tried = []
        for v in by_color[position_colors[p]]:
            if used >> v & 1:
                continue
            if any(is_twin(v, u) for u in tried):
                continue
            tried.append(v)
            row = adj[v]
            chunk = 0
            for i, u in enumerate(placed):
                if row >> u & 1:
                    chunk |= 1 << i
            cur.append(chunk)
            if best is None or cur <= best[: len(cur)]:
                placed.append(v)
                used |= 1 << v
                rec(p + 1)
                placed.pop()
                used ^= 1 << v
            cur.pop()

    rec(0)
    return (n, tuple(best))


@functools.cache
def nonisomorphic_graphs(n: int):
    """The classes on ``n`` vertices, in canonical labeling and sorted by
    canonical key, found the slow way: every class on n-1 vertices gets a
    new vertex with every possible neighborhood, and every extension is
    canonicalized by the reference ``_canonical_key``. Shares only ``Graph``,
    ``_bits`` and the key decoder ``canonical_graph`` with the package."""
    if n <= 1:
        return (Graph(n, (0,) * n),)
    keys = set()
    for base in nonisomorphic_graphs(n - 1):
        for neighborhood in subsets(range(n - 1)):
            edges = list(base.edges()) + [(u, n - 1) for u in neighborhood]
            keys.add(_canonical_key(n, Graph.from_edges(n, edges).adj))
    return tuple(canonical_graph(k) for k in sorted(keys))

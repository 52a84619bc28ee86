"""Forbidden-subgraph finders, perfection testing, and homogeneous sets.

Every finder is exhaustive (no false negatives at the sizes it accepts)
and returns a witness embedding when the pattern is present, so a caller
can always re-check a positive answer independently.

Both searches try only vertices that can extend the partial witness.
``find_induced`` keeps one candidate mask per pattern slot; placing a
vertex narrows the masks of all later slots at once, and a branch ends as
soon as one of them is empty. Where an automorphism of the pattern first
moves slot p, to slot q, the smallest image holds a smaller vertex in p
than in q, so placing p keeps only the vertices above it in q. These
"above" pairs are (0, 4) for P5, (0, 1), (0, 2), (0, 3), (0, 4) and (1, 4)
for C5, and (0, 1) for the bull. The hole and antihole search first splits
the set into pieces, by components and anticomponents of its 2-core, and
keeps only the non-bipartite ones with at least 5 vertices: an odd hole is
connected, anticonnected and an odd cycle, so it lies inside one of them.
It then grows k-subsets in ascending order inside the piece of their first
member and ends a branch as soon as no 2-regular set can complete it
(chordless-cycle pruning in the spirit of Uno & Satoh, arXiv:1404.7610).
Both return the witness of a plain scan in the same order: the
lexicographically smallest image tuple, and the first odd cycle among the
shortest, in ``itertools.combinations`` order.

Homogeneous sets and perfection are read off the modular decomposition of
the subgraph (``_decompose``). ``find_homogeneous_set`` returns the set
that perfect division contracts: a child of the root, or its first two.
One rule decides imperfection: ``imperfection_witness`` runs the hole
search and, on a set with no odd hole, the antihole search from length 7,
since an odd antihole of length 5 is a C5. ``classify`` asks it of the
whole graph, reads its odd hole off the witness and searches C5 only when
that hole has 5 vertices. ``is_perfect`` asks it of each prime quotient
(one representative per child): a graph is perfect iff every such quotient
is (Lovász, Discrete Math. 2, 1972). So ``PERFECTION_BUDGET`` bounds the
largest prime quotient there, while the witness finders count the whole
``within`` set against it.

A cache stays only where traffic hits it (hits / misses in one record
phase of ``bench/run.py``, seed 1). ``find_odd_hole`` is cached on ``(g,
within)``: a perfect division asks it of the same prime quotients again
(3,293 / 1,609 on ``perfect-weighted``, 3,357 / 847 on
``perfect-reach-n16``). ``find_homogeneous_set`` is cached likewise, with
no lookups, for the benchmark tracer that reads its ``cache_info()``.
``lru_cache`` keys ``f(g)`` and ``f(g, None)`` apart, so the package always
passes ``within`` positionally, None included. ``find_p5``, ``find_c5`` and
``find_bull`` remember the last graph, which the class checks after
``classify`` and a coloring's checks after its first one hit (P5 16,018 /
12,346 and C5 12,152 / 7,301 on ``exhaustive-n8``, bull 2,833 / 600 on
``perfect-reach-n16``). The antihole search runs only after a hole search
that found nothing, and is not cached.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .core import (
    Graph,
    VertexSet,
    _bits,
    _check_set,
    _co_rows,
    _mask_anticomponents,
    _mask_components,
    _within_mask,
    complement,
    cycle_graph,
    path_graph,
)
from .errors import BudgetExceededError

PERFECTION_BUDGET = 16

P5_PATTERN = path_graph(5)
C5_PATTERN = cycle_graph(5)
# Triangle 0-1-2 with pendant 3 at 0 and pendant 4 at 1.
BULL_PATTERN = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])


@dataclass(frozen=True)
class Embedding:
    """An induced copy of a named pattern: ``vertices[i]`` hosts pattern vertex i."""

    pattern_name: str
    vertices: tuple

    def to_json(self):
        return {"pattern": self.pattern_name, "vertices": list(self.vertices)}


def embedding_is_valid(g: Graph, pattern: Graph, emb: Embedding) -> bool:
    """Check injectivity and that adjacency matches the pattern exactly."""
    verts = emb.vertices
    if len(verts) != pattern.n or len(set(verts)) != len(verts):
        return False
    if any(not 0 <= v < g.n for v in verts):
        return False
    for i in range(pattern.n):
        for j in range(i + 1, pattern.n):
            if g.has_edge(verts[i], verts[j]) != pattern.has_edge(i, j):
                return False
    return True


def pattern_for_name(name: str) -> Graph:
    """The pattern graph an embedding name refers to."""
    if name == "P5":
        return P5_PATTERN
    if name == "C5":
        return C5_PATTERN
    if name == "bull":
        return BULL_PATTERN
    if name.startswith("odd-hole(") and name.endswith(")"):
        return cycle_graph(int(name[9:-1]))
    if name.startswith("odd-antihole(") and name.endswith(")"):
        return complement(cycle_graph(int(name[13:-1])))
    raise ValueError(f"unknown pattern name: {name}")


def _search_plan(pattern: Graph) -> tuple:
    """For each slot i of ``pattern``, its later slots j with the rows that
    narrow slot j once slot i is placed: 0 for rows and 1 for co-rows, plus
    2 when (i, j) is an above pair; and the kinds above 1 that occur, whose
    rows each search builds.

    (p, q) is an above pair when some automorphism σ fixes the slots before
    p and moves p to q. The copy with the image of σ(i) in slot i first
    differs at slot p, so the smallest image tuple holds a smaller vertex
    in slot p than in slot q (the lex-leader constraint of Crawford,
    Ginsberg, Luks & Roy, KR 1996).
    """
    k, adj = pattern.n, pattern.adj

    def completes(image):
        i = len(image) - 1
        if any((adj[i] >> j & 1) != (adj[image[i]] >> image[j] & 1) for j in range(i)):
            return False
        return i == k - 1 or any(completes(image + [v]) for v in range(k) if v not in image)

    above = {(p, q) for p in range(k) for q in range(p + 1, k) if completes(list(range(p)) + [q])}
    slots = tuple(tuple((j, (not adj[i] >> j & 1) | 2 * ((i, j) in above)) for j in range(i + 1, k)) for i in range(k))
    return slots, tuple({t for slot in slots for _, t in slot if t > 1})


_PLANS = {pattern: _search_plan(pattern) for pattern in (P5_PATTERN, C5_PATTERN, BULL_PATTERN)}


def find_induced(g: Graph, pattern: Graph, name: str = "pattern"):
    """First induced copy of ``pattern`` in ``g`` (lexicographically smallest
    image tuple under the vertex order), or None.

    Every slot keeps one candidate mask. Placing a vertex in slot i narrows
    the mask of every later slot j, by the vertex's row where the pattern
    has the edge ij and by its co-row where it has not, and a branch ends
    as soon as some later mask is empty (forward checking). For an above
    pair (i, j) it also keeps only the vertices above the placed one, since
    the smallest image tuple has them there. Rows and co-rows leave out the
    vertex itself, so no vertex is placed twice. Each slot tries the bits
    of its mask in ascending order, the order of a scan over all vertices
    minus the rejects, so the first complete image is the smallest.
    """
    k = pattern.n
    n = g.n
    if k > n:
        return None
    if k == 0:
        return Embedding(name, ())
    slots, above_rows = _PLANS.get(pattern) or _search_plan(pattern)
    full = (1 << n) - 1
    adj = g.adj
    rows = [adj, _co_rows(adj, full), None, None]
    for t in above_rows:
        rows[t] = [row & -(2 << v) for v, row in enumerate(rows[t & 1])]
    # narrow[i]: each later slot j with the rows through which slot i's
    # vertex narrows it.
    narrow = [[(j, rows[t]) for j, t in slot] for slot in slots]
    # masks[i][j]: slot j's candidates once slots 0 .. i - 1 are placed.
    masks = [[full] * k for _ in range(k)]
    image = [0] * k
    last = k - 1

    def backtrack(i):
        cur = masks[i]
        mask = cur[i]
        if i == last:
            image[i] = (mask & -mask).bit_length() - 1
            return True
        nxt = masks[i + 1]
        rows = narrow[i]
        while mask:
            low = mask & -mask
            mask ^= low
            v = low.bit_length() - 1
            for j, row in rows:
                m = cur[j] & row[v]
                if not m:
                    break
                nxt[j] = m
            else:
                if backtrack(i + 1):
                    image[i] = v
                    return True
        return False

    if backtrack(0):
        return Embedding(name, tuple(image))
    return None


@lru_cache(maxsize=1)
def find_p5(g: Graph):
    return find_induced(g, P5_PATTERN, "P5")


@lru_cache(maxsize=1)
def find_c5(g: Graph):
    """First induced 5-cycle; the image tuple is in cycle order."""
    return find_induced(g, C5_PATTERN, "C5")


@lru_cache(maxsize=1)
def find_bull(g: Graph):
    return find_induced(g, BULL_PATTERN, "bull")


def _induced_cycle_order(adj, combo, mask):
    """Cycle order of ``combo``, the ascending members of ``mask``, where
    each member has two neighbours in ``mask``: the order if they form a
    single cycle, else None.

    Starts at the smallest member and walks toward its smaller neighbor,
    so the returned tuple is canonical for the vertex set.
    """
    k = len(combo)
    start = combo[0]
    nbrs = adj[start] & mask
    second = (nbrs & -nbrs).bit_length() - 1
    order = [start, second]
    prev, cur = start, second
    for _ in range(k - 2):
        nxt_mask = (adj[cur] & mask) ^ (1 << prev)
        nxt = (nxt_mask & -nxt_mask).bit_length() - 1
        order.append(nxt)
        prev, cur = cur, nxt
    if len(set(order)) != k or not adj[order[-1]] >> start & 1:
        return None
    return tuple(order)


def _two_core(adj, mask: int) -> int:
    """The vertices of ``mask`` left after repeatedly dropping those with
    fewer than two neighbours in what is left; only they can lie on a cycle."""
    while True:
        loose = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if (adj[low.bit_length() - 1] & mask).bit_count() < 2:
                loose |= low
        if not loose:
            return mask
        mask ^= loose


def _is_bipartite(adj, mask: int) -> bool:
    """True when the subgraph induced on ``mask`` has no odd cycle: no
    breadth-first layer of any of its components holds an edge."""
    rest = mask
    while rest:
        layer = rest & -rest
        rest ^= layer
        while layer:
            reach = 0
            todo = layer
            while todo:
                low = todo & -todo
                todo ^= low
                row = adj[low.bit_length() - 1]
                if row & layer:
                    return False
                reach |= row
            layer = reach & rest
            rest ^= layer
    return True


def _odd_cycle_pieces(adj, mask: int, shortest: int) -> list:
    """The pieces of ``mask`` that can hold an induced odd cycle of length
    at least ``shortest`` (5 or more), as disjoint masks.

    Such a cycle is connected and anticonnected, each of its vertices has
    two neighbours on it, and it is an odd cycle. So it lies inside one
    piece: take the 2-core, drop it if it has fewer than ``shortest``
    vertices or is bipartite, and split it into components, else into
    anticomponents, until neither splits.
    """
    pieces = []
    todo = [mask]
    while todo:
        part = _two_core(adj, todo.pop())
        if part.bit_count() < shortest or _is_bipartite(adj, part):
            continue
        split = _mask_components(adj, part)
        if len(split) == 1:
            split = _mask_anticomponents(adj, part)
            if len(split) == 1:
                pieces.append(part)
                continue
        todo.extend(split)
    return pieces


def _can_saturate(adj, later: int, zero: int, one: int) -> bool:
    """True when each vertex of ``one`` has a neighbour in ``later`` and each
    vertex of ``zero`` has two."""
    while one:
        u = one & -one
        one ^= u
        if not adj[u.bit_length() - 1] & later:
            return False
    while zero:
        u = zero & -zero
        zero ^= u
        if (adj[u.bit_length() - 1] & later).bit_count() < 2:
            return False
    return True


def _first_odd_cycle(kind: str, adj, full: int, shortest: int = 5):
    """First induced odd cycle of length at least ``shortest`` on ``full``
    under the rows ``adj``, shortest first, in cycle order.

    The search runs on the pieces of ``_odd_cycle_pieces``, one of which
    holds every such cycle. For each odd k, shortest first, it adds members
    in ascending order, and once the first member is chosen the others come
    from its piece only. So the k-subsets come in the order of
    ``itertools.combinations``, minus those that span two pieces or miss
    them. A member with two neighbours in the set is saturated. A branch
    ends when:

    - a member would get three neighbours in the set (a vertex that a
      saturated member sees is never tried);
    - a member short of two neighbours cannot find them among the later
      vertices that no saturated member sees;
    - fewer of those vertices remain than slots.

    Only 2-regular sets are completed, so the first one that is a single
    cycle is the first combination ``_induced_cycle_order`` accepts.
    """
    count = full.bit_count()
    if count > PERFECTION_BUDGET:
        raise BudgetExceededError(f"{kind} search limited to {PERFECTION_BUDGET} vertices, asked for {count}")
    pieces = _odd_cycle_pieces(adj, full, shortest)
    if not pieces:
        return None
    home = [0] * len(adj)
    spread = 0
    for piece in pieces:
        spread |= piece
        for v in _bits(piece):
            home[v] = piece
    chosen = []

    def extend(cand, slots, inside, zero, one, blocked):
        # cand: later vertices no saturated member sees; zero and one: the
        # members with no neighbour and with one neighbour in ``inside``.
        while cand.bit_count() >= slots:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            nbrs = adj[v] & inside
            degree = nbrs.bit_count()
            if degree > 2:
                continue
            now_blocked = blocked
            saturated = nbrs & one
            while saturated:
                u = saturated & -saturated
                saturated ^= u
                now_blocked |= adj[u.bit_length() - 1]
            now_zero = zero & ~nbrs
            now_one = (one & ~nbrs) | (zero & nbrs)
            if degree == 2:
                now_blocked |= adj[v]
            elif degree == 1:
                now_one |= low
            else:
                now_zero |= low
            left = slots - 1
            later = cand & ~now_blocked
            chosen.append(v)
            if left == 1:
                # The last vertex joins the two ends a and b of a path, and
                # the set is one cycle for every such vertex or for none.
                if not now_zero and now_one.bit_count() == 2:
                    a = now_one & -now_one
                    last = later & adj[a.bit_length() - 1] & adj[(now_one ^ a).bit_length() - 1]
                    if last:
                        w = last & -last
                        chosen.append(w.bit_length() - 1)
                        order = _induced_cycle_order(adj, chosen, inside | low | w)
                        if order is not None:
                            return order
                        chosen.pop()
            elif later.bit_count() >= left and _can_saturate(adj, later, now_zero, now_one):
                order = extend(later, left, inside | low, now_zero, now_one, now_blocked)
                if order is not None:
                    return order
            chosen.pop()
        return None

    longest = max(piece.bit_count() for piece in pieces)
    for k in range(shortest, longest + 1, 2):
        rest = spread
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            # The rest of the set comes from the later members of the first
            # member's piece, and two of them must be its neighbours.
            later = home[v] & ~(2 * low - 1)
            if later.bit_count() >= k - 1 and (adj[v] & later).bit_count() >= 2:
                chosen.append(v)
                order = extend(later, k - 1, low, low, 0, 0)
                if order is not None:
                    return Embedding(f"{kind}({k})", order)
                chosen.pop()
    return None


@lru_cache(maxsize=1 << 16)
def find_odd_hole(g: Graph, within: VertexSet = None):
    """First induced odd cycle of length at least 5 in ``g[within]`` (all
    of ``g`` by default), shortest first, in cycle order."""
    return _first_odd_cycle("odd-hole", g.adj, _within_mask(g, within))


def find_odd_antihole(g: Graph, within: VertexSet = None):
    """First induced odd antihole of length at least 5 in ``g[within]``
    (all of ``g`` by default), a C5 included, in complement-cycle order.
    No package code calls it, so it is not cached."""
    full = _within_mask(g, within)
    return _first_odd_cycle("odd-antihole", _co_rows(g.adj, full), full)


def imperfection_witness(g: Graph, within: VertexSet = None):
    """The first odd hole of ``g[within]`` (all of ``g`` by default), else
    its first odd antihole from length 7 (a C5 is reported as a hole), or
    None when that subgraph is perfect."""
    hole = find_odd_hole(g, within)
    if hole is not None:
        return hole
    full = _within_mask(g, within)
    return _first_odd_cycle("odd-antihole", _co_rows(g.adj, full), full, 7)


LEAF = "leaf"
PARALLEL = "parallel"
SERIES = "series"
PRIME = "prime"


class Module(NamedTuple):
    """A node of a modular decomposition: a strong module, its kind, and
    its children's nodes ordered by smallest member.

    A parallel node's children are its components, a series node's its
    anticomponents, and a prime node's its maximal proper modules, between
    which the node's quotient (one representative per child) is prime.
    """

    kind: str
    mask: int
    children: tuple = ()


def _module_closure(adj, mask: int, v: int, x: int) -> int:
    """The smallest module of the subgraph on ``mask`` that holds ``v``
    and the vertices of ``x``: a vertex that tells some member apart from
    ``v`` must join."""
    row = adj[v]
    inside = x | (1 << v)
    todo = x
    while todo:
        low = todo & -todo
        todo ^= low
        grow = (adj[low.bit_length() - 1] ^ row) & mask & ~inside
        inside |= grow
        todo |= grow
    return inside


def _maximal_modules(adj, mask: int) -> list:
    """The maximal proper modules of the subgraph on ``mask``, which must
    be connected and anticonnected, ordered by smallest member; they
    partition ``mask`` (Gallai, 1967).

    With v the smallest member, the maximal modules without v are the
    coarsest partition of the rest into modules: split v's neighbours from
    the others, then split each part by its members' rows outside it until
    every part is a module. The module holding v is everything that cannot
    force its way to a vertex u whose smallest module with v is the whole
    set, where w forces z when z tells w apart from v; the other maximal
    modules are the parts outside it.
    """
    low = mask & -mask
    v = low.bit_length() - 1
    rest = mask ^ low
    parts = []
    todo = [p for p in (rest & adj[v], rest & ~adj[v]) if p]
    while todo:
        part = todo.pop()
        if part & (part - 1):
            out = mask & ~part
            groups = {}
            for x in _bits(part):
                key = adj[x] & out
                groups[key] = groups.get(key, 0) | (1 << x)
            if len(groups) > 1:
                todo.extend(groups.values())
                continue
        parts.append(part)
    inside = low
    for part in parts:
        if part & inside:
            continue
        closure = _module_closure(adj, mask, v, part & -part)
        if closure != mask:
            inside |= closure
            continue
        outside = part
        todo = part
        while todo:
            z = todo & -todo
            todo ^= z
            row = adj[z.bit_length() - 1]
            forcing = (~row if row & low else row) & rest & ~outside
            outside |= forcing
            todo |= forcing
        return sorted([mask & ~outside] + [p for p in parts if p & outside], key=lambda p: p & -p)
    raise AssertionError("the subgraph is connected and anticonnected, so it is not one module")


def _split(adj, mask: int, parent: str = None):
    """The kind of the top node of the decomposition of the subgraph on
    ``mask`` (two or more vertices), and its children's masks. A child of a
    parallel node is connected and a child of a series node anticonnected,
    so the ``parent`` kind skips that test."""
    if parent is not PARALLEL:
        parts = _mask_components(adj, mask)
        if len(parts) > 1:
            return PARALLEL, parts
    if parent is not SERIES:
        parts = _mask_anticomponents(adj, mask)
        if len(parts) > 1:
            return SERIES, parts
    return PRIME, _maximal_modules(adj, mask)


def _decompose(adj, mask: int, parent: str = None) -> Module:
    """The modular decomposition of the subgraph on ``mask``, under a node
    of kind ``parent`` if one is given."""
    rest = mask & (mask - 1)
    if not rest:
        return Module(LEAF, mask)
    if not rest & (rest - 1):
        low = mask ^ rest
        kind = SERIES if adj[low.bit_length() - 1] & rest else PARALLEL
        return Module(kind, mask, (Module(LEAF, low), Module(LEAF, rest)))
    kind, parts = _split(adj, mask, parent)
    return Module(kind, mask, tuple([_decompose(adj, p, kind) for p in parts]))


def _with_child(node: Module, i: int, child: Module, x: int) -> Module:
    """``node`` with its i-th child replaced by ``child``, which has the
    module ``x`` contracted to its smallest member."""
    return Module(node.kind, (node.mask & ~x) | (x & -x), node.children[:i] + (child,) + node.children[i + 1 :])


def _homogeneous_split(root: Module):
    """A homogeneous set of the subgraph that ``root`` decomposes, as
    ``(x's tree, the tree with x contracted to its smallest member)``; None
    when there is none.

    Every child of the root is a proper module (Gallai, 1967), so x is the
    first child with two or more vertices. When every child is a single
    vertex, a series or parallel root with three or more children
    contracts its first two; a prime root, or one with at most two
    vertices, has no homogeneous set.
    """
    for i, child in enumerate(root.children):
        if child.children:
            return child, _with_child(root, i, Module(LEAF, child.mask & -child.mask), child.mask)
    if root.kind != PRIME and len(root.children) >= 3:
        first, second = root.children[:2]
        x_tree = Module(root.kind, first.mask | second.mask, (first, second))
        return x_tree, Module(root.kind, root.mask & ~second.mask, (first,) + root.children[2:])
    return None


def is_perfect(g: Graph, within: VertexSet = None) -> bool:
    """Perfection of ``g``, or of the subgraph induced on ``within``.

    A graph is perfect iff the quotient at every prime node of its modular
    decomposition is (substitution keeps perfection, and an odd hole or
    antihole, being prime, lies inside one child or meets each child of
    some prime node at most once). So ``imperfection_witness`` searches only
    the prime quotients with 5 or more representatives, and the budget
    counts the largest of them; a degenerate quotient is complete or edgeless.
    """
    return _is_perfect_mask(g, _within_mask(g, within))


def _is_perfect_mask(g: Graph, mask: int) -> bool:
    """``is_perfect`` on a mask of ``g``'s vertices. Each prime quotient
    goes to ``imperfection_witness`` as a ``VertexSet``, the key of the
    odd-hole cache."""
    adj = g.adj
    todo = [mask]
    while todo:
        mask = todo.pop()
        if mask.bit_count() < 5:
            continue
        kind, parts = _split(adj, mask)
        if kind == PRIME and len(parts) >= 5:
            quotient = VertexSet(g.n, sum(p & -p for p in parts))
            if imperfection_witness(g, quotient) is not None:
                return False
        todo.extend(parts)
    return True


def is_homogeneous(g: Graph, x: VertexSet, within: VertexSet = None) -> bool:
    """True when ``x`` is a subset of ``within`` (all of ``g`` by default)
    with 1 < |x| < |within|, and every other vertex of ``within`` is
    adjacent to all of ``x`` or to none of it."""
    _check_set(g, x)
    return _is_homogeneous_mask(g.adj, x.mask, _within_mask(g, within))


def _is_homogeneous_mask(adj, x: int, full: int) -> bool:
    """``is_homogeneous`` on masks. A vertex outside ``x`` splits it
    exactly when some member of ``x`` sees it and another does not."""
    if x & ~full or not 1 < x.bit_count() < full.bit_count():
        return False
    seen = 0
    common = -1
    for v in _bits(x):
        seen |= adj[v]
        common &= adj[v]
    return not seen & ~common & full & ~x


@lru_cache(maxsize=1 << 18)
def find_homogeneous_set(g: Graph, within: VertexSet = None):
    """A homogeneous set of ``g[within]`` (all of ``g`` by default), or
    None when that subgraph is prime or has at most two vertices.

    It is the set that ``perfect_divide`` contracts, read off the modular
    decomposition (``_homogeneous_split``): the first child of the root,
    by smallest member, with two or more vertices; when every child is a
    single vertex, the first two children of a series or parallel root
    with three or more.
    """
    split = _homogeneous_split(_decompose(g.adj, _within_mask(g, within)))
    return None if split is None else VertexSet(g.n, split[0].mask)


@dataclass(frozen=True)
class ClassReport:
    """Membership flags for the forbidden-subgraph classes in play.

    Each False flag is backed by a witness embedding; a flag is True
    exactly when its witness slot is None.
    """

    p5_free: bool
    c5_free: bool
    bull_free: bool
    odd_hole_free: bool
    perfect: bool
    p5_witness: Embedding = None
    c5_witness: Embedding = None
    bull_witness: Embedding = None
    odd_hole_witness: Embedding = None
    imperfection: Embedding = None

    def to_json(self):
        payload = {
            "p5_free": self.p5_free,
            "c5_free": self.c5_free,
            "bull_free": self.bull_free,
            "odd_hole_free": self.odd_hole_free,
            "perfect": self.perfect,
        }
        witnesses = {}
        for key, emb in (
            ("p5", self.p5_witness),
            ("c5", self.c5_witness),
            ("bull", self.bull_witness),
            ("odd_hole", self.odd_hole_witness),
            ("imperfection", self.imperfection),
        ):
            if emb is not None:
                witnesses[key] = emb.to_json()
        payload["witnesses"] = witnesses
        return payload


def classify(g: Graph) -> ClassReport:
    """Run all finders and assemble a consistent report. The odd hole is
    the imperfection witness when it is a hole, and C5 is searched only
    when that hole has 5 vertices."""
    imperfection = imperfection_witness(g, None)
    hole = imperfection if imperfection is not None and imperfection.pattern_name.startswith("odd-hole") else None
    p5 = find_p5(g)
    c5 = find_c5(g) if hole is not None and len(hole.vertices) == 5 else None
    bull = find_bull(g)
    return ClassReport(
        p5_free=p5 is None,
        c5_free=c5 is None,
        bull_free=bull is None,
        odd_hole_free=hole is None,
        perfect=imperfection is None,
        p5_witness=p5,
        c5_witness=c5,
        bull_witness=bull,
        odd_hole_witness=hole,
        imperfection=imperfection,
    )

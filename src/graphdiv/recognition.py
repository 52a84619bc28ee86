"""Forbidden-subgraph finders, perfection testing, and homogeneous sets.

Every finder is exhaustive (no false negatives at the sizes it accepts)
and returns a witness embedding when the pattern is present, so a caller
can always re-check a positive answer independently. One rule picks the
witness: the lexicographically smallest image tuple of the pattern, and
for an odd hole or antihole that of the shortest odd cycle. Below the
public entries every search reads only rows and masks of the host.

``find_induced`` runs a search generated for its pattern
(``_search_source``): one ``while`` loop per pattern slot, nested in slot
order, over that slot's candidate mask. Placing a vertex narrows the mask
of every later slot by its row or by its non-neighbours, and the loop
moves on as soon as one of them is empty. Where an automorphism of the
pattern first moves slot p, to slot q, the smallest image holds a smaller
vertex in p than in q, so placing p keeps only the vertices above it in
q. These "above" pairs are (0, 4) for P5, (0, 1), (0, 2), (0, 3), (0, 4)
and (1, 4) for C5, and (0, 1) for the bull. One table, ``_SEARCHES``,
holds the searches of these three, compiled at import, and of each odd
cycle, on first use; any other pattern's is compiled on its call.

The hole and antihole search first splits the set into pieces, by
components and anticomponents of its 2-core, and keeps only the
non-bipartite ones with at least 5 vertices: an odd hole is connected,
anticonnected and an odd cycle, so it lies inside one of them. For each
odd length k, shortest first, it runs the search of C_k on each piece (on
the complement's rows for antiholes), and at the first length with an
image it returns the smallest image of all pieces. The smallest image of
a cycle lists it from its smallest vertex toward that vertex's smaller
neighbour, so a hole's witness is in cycle order.

Homogeneous sets and perfection are read off the modular decomposition of
the subgraph (``_decompose``). Perfect division contracts only a child of
the root with two or more vertices, so a prime, complete or edgeless set
takes the base step; ``find_homogeneous_set`` returns that child, else
the first two vertices of a complete or edgeless set.
One rule decides imperfection, ``_imperfection``: the hole search and, on
a set with no odd hole, the antihole search from length 7, since an odd
antihole of length 5 is a C5. ``classify`` asks ``imperfection_witness``
of the whole graph, reads its odd hole off the witness, and its C5 off
that hole when the hole has 5 vertices. ``is_perfect`` runs the rule on
the mask of each prime quotient (one representative per child), with no
cache: a graph is perfect iff every such quotient is (Lovász, Discrete
Math. 2, 1972). So ``PERFECTION_BUDGET`` bounds the largest prime
quotient there, while the witness finders count the whole ``within`` set
against it.

Caches see only public calls (hits / misses counted over the seed-1
record phase of the benchmark's workloads, with every cache cleared after
set-up; ``bench/run.py`` does not clear them). ``find_odd_hole``
is cached on ``(g, within)``: 600 / 600 on ``perfect-reach-n16``, each hit
a ``divide`` record re-checking the graph its coloring just checked, and
3,277 / 1,601 on ``perfect-weighted``, the same graph under its three
weightings. ``find_homogeneous_set`` is cached likewise, with no lookups,
for the benchmark tracer that reads its ``cache_info()``. ``lru_cache``
keys ``f(g)`` and ``f(g, None)`` apart, so the package always passes
``within`` positionally, None included. ``find_p5``, ``find_c5`` and
``find_bull`` remember the last graph, which the class checks after
``classify`` and after a coloring of the same graph hit (P5 7,732 / 12,346
and C5 3,866 / 3,866 on ``exhaustive-n8``, bull 600 / 600 on
``perfect-reach-n16``). The antihole search is not cached.
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
# Loops per generated function; CPython 3.10 to 3.12 nest at most 20.
_CHAIN = 20

P5_PATTERN = path_graph(5)
C5_PATTERN = cycle_graph(5)
# Triangle 0-1-2 with pendant 3 at 0 and pendant 4 at 1.
BULL_PATTERN = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
_NAMED_PATTERNS = {"P5": P5_PATTERN, "C5": C5_PATTERN, "bull": BULL_PATTERN}


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
    """The pattern graph an embedding name refers to. Only the names that
    the finders emit are accepted: ``P5``, ``C5``, ``bull``, and
    ``odd-hole(k)`` and ``odd-antihole(k)`` for each odd k from 5 to
    ``PERFECTION_BUDGET``, in plain digits. Any other name raises
    ``ValueError``."""
    if name in _NAMED_PATTERNS:
        return _NAMED_PATTERNS[name]
    for k, cycle in _ODD_CYCLES.items():
        if name == f"odd-hole({k})":
            return cycle
        if name == f"odd-antihole({k})":
            return complement(cycle)
    raise ValueError(f"unknown pattern name: {name}")


def _search_plan(pattern: Graph) -> tuple:
    """For each slot i of ``pattern``, its later slots j with what narrows
    slot j once slot i is placed: 0 for the placed vertex's row and 1 for
    its non-neighbours, plus 2 when (i, j) is an above pair.

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
    return tuple(tuple((j, (not adj[i] >> j & 1) | 2 * ((i, j) in above)) for j in range(i + 1, k)) for i in range(k))


def _search_source(pattern: Graph) -> str:
    """Python source of the search that ``find_induced`` runs for
    ``pattern``: ``search(adj, full)`` returns the smallest image tuple of
    an induced copy in the subgraph on the vertices of ``full`` under the
    rows ``adj``, or None. Rows may reach outside ``full``; no vertex
    outside it is ever placed.

    Slot i loops over ``c{i}``, its candidates, in ascending order, the
    order of a scan over all vertices minus the rejects, and the last slot
    takes the lowest bit of its candidates, so the first complete image is
    the smallest. Placing ``v{i}`` (bit ``b{i}``) reads its row once,
    ``a{i}``, and narrows each later slot j in one statement, ``m{i}_{j}``
    from ``m{i-1}_{j}``, or ``c{j}`` when j = i + 1: first the slots of the
    pattern's edges by the row, then those of its non-edges by the
    non-neighbours ``n{i} = ~a{i} ^ b{i}``, and for an above pair (i, j) by
    ``-(b{i} << 1)``, the vertices above ``v{i}``, too. The loop moves on
    as soon as one of them is empty (forward checking). Slot 0 narrows by
    ``full`` too, so later slots hold vertices of ``full`` only. For P5
    (above pair (0, 4)) the loop of slot 1 reads::

        while c1:
            b1 = c1 & -c1
            c1 ^= b1
            v1 = b1.bit_length() - 1
            a1 = adj[v1]
            c2 = m0_2 & a1
            if not c2:
                continue
            n1 = ~a1 ^ b1
            m1_3 = m0_3 & n1
            if not m1_3:
                continue
            m1_4 = m0_4 & n1
            if not m1_4:
                continue
            while c2:
                ...

    where ``m0_4 = n0 & full & -(b0 << 1)``. CPython 3.10 to 3.12 nest at
    most 20 loops in one function. So after every 20 loops the innermost
    one passes its live masks, ``c{i}`` and each ``m{i-1}_{j}``, to
    ``search_{i}``, the next function of the chain, which returns the rest
    of the image or None. A search of at most 21 slots is one function.
    """
    slots = _search_plan(pattern)
    k = len(slots)
    lines = ["def search(adj, full):", "    c0 = full"]
    for i in range(k - 1):
        if i and not i % _CHAIN:
            live = ", ".join([f"c{i}"] + [f"m{i - 1}_{j}" for j in range(i + 1, k)])
            pad = "    " * (_CHAIN + 1)
            lines += [
                f"{pad}rest = search_{i}(adj, {live})",
                f"{pad}if rest is not None:",
                f"{pad}    return (" + ", ".join(f"v{h}" for h in range(i - _CHAIN, i)) + ") + rest",
                f"def search_{i}(adj, {live}):",
            ]
        pad = "    " * (i % _CHAIN + 1)
        lines += [
            f"{pad}while c{i}:",
            f"{pad}    b{i} = c{i} & -c{i}",
            f"{pad}    c{i} ^= b{i}",
            f"{pad}    v{i} = b{i}.bit_length() - 1",
            f"{pad}    a{i} = adj[v{i}]",
        ]
        # the edge slots first, then the non-edge slots, each in slot order
        plan = sorted(slots[i], key=lambda slot: slot[1] & 1)
        for h, (j, t) in enumerate(plan):
            if t & 1 and not (h and plan[h - 1][1] & 1):
                lines.append(f"{pad}    n{i} = ~a{i} ^ b{i}")
            mask = f"c{j}" if j == i + 1 else f"m{i}_{j}"
            narrowed = f"n{i}" if t & 1 else f"a{i}"
            narrowed = f"m{i - 1}_{j} & {narrowed}" if i else narrowed + " & full"
            if t & 2:
                narrowed += f" & -(b{i} << 1)"
            lines += [f"{pad}    {mask} = {narrowed}", f"{pad}    if not {mask}:", f"{pad}        continue"]
    first = max(k - 2, 0) // _CHAIN * _CHAIN
    image = [f"v{i}" for i in range(first, k - 1)]
    if k:
        image.append(f"(c{k - 1} & -c{k - 1}).bit_length() - 1")
    lines.append("    " * max(k - first, 1) + "return (" + ", ".join(image) + "," * (k == 1) + ")")
    return "\n".join(lines) + "\n"


def _compile_search(pattern: Graph):
    """The search of ``_search_source(pattern)``, compiled. Its file name
    spells out the pattern, as in ``<induced search, 5 vertices, edges 0-1
    1-2 2-3 3-4>`` for P5, so profiles and tracebacks keep the searches of
    different patterns apart."""
    edges = " ".join(f"{u}-{v}" for u, v in pattern.edges()) or "none"
    namespace = {}
    exec(compile(_search_source(pattern), f"<induced search, {pattern.n} vertices, edges {edges}>", "exec"), namespace)
    return namespace["search"]


# The odd cycles' searches join the table on first use (``_first_odd_cycle``).
_SEARCHES = {pattern: _compile_search(pattern) for pattern in (P5_PATTERN, C5_PATTERN, BULL_PATTERN)}
_ODD_CYCLES = {k: cycle_graph(k) for k in range(5, PERFECTION_BUDGET + 1, 2)}


def find_induced(g: Graph, pattern: Graph, name: str = "pattern"):
    """First induced copy of ``pattern`` in ``g`` (lexicographically smallest
    image tuple under the vertex order), or None: the search that
    ``_search_source`` generates for the pattern, run on ``g``'s rows.
    ``_SEARCHES`` holds P5's, C5's and the bull's, compiled at import, and
    each odd cycle's once a hole search used it; any other pattern's is
    compiled on each call."""
    if pattern.n > g.n:
        return None
    full = (1 << g.n) - 1
    image = (_SEARCHES.get(pattern) or _compile_search(pattern))(g.adj, full)
    return None if image is None else Embedding(name, image)


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


def _first_odd_cycle(kind: str, rows, full: int, shortest: int = 5):
    """The smallest image tuple of C_k on ``full``, for the least odd k >=
    ``shortest`` with an induced C_k there, or None: under the host's
    ``rows`` for an odd hole, under the complement's for an odd antihole. The
    tuple is in cycle order: the cycle's smallest vertex, then its smaller
    neighbour on the cycle, and so on around.

    Every such cycle lies in one of the disjoint pieces of
    ``_odd_cycle_pieces``. So for each odd k, shortest first, the generated
    search of C_k takes the smallest image in each piece with k or more
    vertices, and the smallest of those is the smallest on ``full``. This
    is the rule of every finder: ``find_c5`` and the C5 witness of
    ``classify`` are the same tuple whenever the shortest odd hole has 5
    vertices. An antihole search builds the complement's rows on ``full``
    once and searches them as its rows.
    """
    count = full.bit_count()
    if count > PERFECTION_BUDGET:
        raise BudgetExceededError(f"{kind} search limited to {PERFECTION_BUDGET} vertices, asked for {count}")
    if kind == "odd-antihole":
        rows = _co_rows(rows, full)
    pieces = _odd_cycle_pieces(rows, full, shortest)
    for k in range(shortest, max((piece.bit_count() for piece in pieces), default=0) + 1, 2):
        cycle = _ODD_CYCLES[k]
        search = _SEARCHES.get(cycle)
        if search is None:
            search = _SEARCHES[cycle] = _compile_search(cycle)
        image = min(filter(None, (search(rows, piece) for piece in pieces if piece.bit_count() >= k)), default=None)
        if image is not None:
            return Embedding(f"{kind}({k})", image)
    return None


@lru_cache(maxsize=1 << 16)
def find_odd_hole(g: Graph, within: VertexSet = None):
    """Shortest induced odd cycle of length at least 5 in ``g[within]``
    (all of ``g`` by default), as its smallest image tuple, which is in
    cycle order."""
    return _first_odd_cycle("odd-hole", g.adj, _within_mask(g, within))


def find_odd_antihole(g: Graph, within: VertexSet = None):
    """Shortest induced odd antihole of length at least 5 in ``g[within]``
    (all of ``g`` by default), a C5 included, as the smallest image tuple
    of its cycle in the complement, which is in complement-cycle order.
    No package code calls it, so it is not cached."""
    return _first_odd_cycle("odd-antihole", g.adj, _within_mask(g, within))


def imperfection_witness(g: Graph, within: VertexSet = None):
    """The witness of ``_imperfection`` on ``g[within]`` (all of ``g`` by
    default), with the hole search's answer read from the cached
    ``find_odd_hole(g, within)``; None when that subgraph is perfect."""
    return _imperfection(g.adj, _within_mask(g, within), find_odd_hole(g, within))


def _imperfection(adj, full: int, hole):
    """The one imperfection rule on the subgraph on ``full``, given
    ``hole``, the hole search's answer there: that odd hole, else the
    shortest odd antihole from length 7, since one of length 5 is a C5 and
    so a hole; None when the subgraph is perfect."""
    return hole if hole is not None else _first_odd_cycle("odd-antihole", adj, full, 7)


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
    """The set x that perfect division contracts in the subgraph that
    ``root`` decomposes, as ``(x's tree, the tree with x contracted to its
    smallest member)``: the first child of the root with two or more
    vertices, a proper module (Gallai, 1967). None when every child is a
    single vertex: a prime, complete or edgeless set takes the base step."""
    for i, child in enumerate(root.children):
        if child.children:
            return child, _with_child(root, i, Module(LEAF, child.mask & -child.mask), child.mask)
    return None


def is_perfect(g: Graph, within: VertexSet = None) -> bool:
    """Perfection of ``g``, or of the subgraph induced on ``within``.

    A graph is perfect iff the quotient at every prime node of its modular
    decomposition is (substitution keeps perfection, and an odd hole or
    antihole, being prime, lies inside one child or meets each child of
    some prime node at most once). So the imperfection rule searches only
    the prime quotients with 5 or more representatives, and the budget
    counts the largest of them; a degenerate quotient is complete or edgeless.
    """
    return _is_perfect_mask(g.adj, _within_mask(g, within))


def _is_perfect_mask(adj, mask: int) -> bool:
    """``is_perfect`` on the rows ``adj`` and a mask: ``_imperfection`` runs
    on each prime quotient's mask, with no cache."""
    todo = [mask]
    while todo:
        mask = todo.pop()
        if mask.bit_count() < 5:
            continue
        kind, parts = _split(adj, mask)
        if kind == PRIME and len(parts) >= 5:
            quotient = sum(p & -p for p in parts)
            if _imperfection(adj, quotient, _first_odd_cycle("odd-hole", adj, quotient)) is not None:
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

    It is read off the modular decomposition: the first child of the root,
    by smallest member, with two or more vertices, which is the set that
    ``perfect_divide`` contracts (``_homogeneous_split``). When every child
    is a single vertex, a complete or edgeless subgraph with three or more
    vertices, it is the first two; ``perfect_divide`` contracts no set
    there but takes the base step.
    """
    root = _decompose(g.adj, _within_mask(g, within))
    split = _homogeneous_split(root)
    if split is None and root.kind != PRIME and len(root.children) >= 3:
        return VertexSet(g.n, root.children[0].mask | root.children[1].mask)
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
    the imperfection witness when it is a hole, and the C5 witness is that
    hole when it has 5 vertices: both are the smallest image tuple of C5,
    so ``find_c5`` would return the same one."""
    imperfection = imperfection_witness(g, None)
    hole = imperfection if imperfection is not None and imperfection.pattern_name.startswith("odd-hole") else None
    p5 = find_p5(g)
    c5 = Embedding("C5", hole.vertices) if hole is not None and len(hole.vertices) == 5 else None
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

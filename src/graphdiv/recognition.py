"""Forbidden-subgraph finders, perfection testing, and homogeneous sets.

Every finder is exhaustive (no false negatives at the sizes it accepts)
and returns a witness embedding when the pattern is present, so a caller
can always re-check a positive answer independently.

Hole, antihole and perfection search and homogeneous sets take a ``within``
set of the input graph and are cached on ``(g, within)``. ``lru_cache``
keys ``f(g)`` and ``f(g, None)`` apart, so the package always passes
``within`` positionally, None included.
"""

from dataclasses import dataclass
from functools import lru_cache
import itertools

from .core import Graph, VertexSet, _bits, _check_set, _co_rows, _within_mask, complement, cycle_graph, path_graph
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


def find_induced(g: Graph, pattern: Graph, name: str = "pattern"):
    """First induced copy of ``pattern`` in ``g`` (lexicographically smallest
    image tuple under the vertex order), or None."""
    k = pattern.n
    n = g.n
    if k > n:
        return None
    if k == 0:
        return Embedding(name, ())
    gadj = g.adj
    padj = pattern.adj
    image = [0] * k

    def backtrack(i, used):
        prow = padj[i]
        for v in range(n):
            bit = 1 << v
            if used & bit:
                continue
            gv = gadj[v]
            ok = True
            for j in range(i):
                if (gv >> image[j] & 1) != (prow >> j & 1):
                    ok = False
                    break
            if not ok:
                continue
            image[i] = v
            if i + 1 == k or backtrack(i + 1, used | bit):
                return True
        return False

    if backtrack(0, 0):
        return Embedding(name, tuple(image))
    return None


def find_p5(g: Graph):
    return find_induced(g, P5_PATTERN, "P5")


def find_c5(g: Graph):
    """First induced 5-cycle; the image tuple is in cycle order."""
    return find_induced(g, C5_PATTERN, "C5")


def find_bull(g: Graph):
    return find_induced(g, BULL_PATTERN, "bull")


def _induced_cycle_order(adj, combo, mask):
    """Cycle order of ``combo`` if it induces a single cycle, else None.

    Starts at the smallest member and walks toward its smaller neighbor,
    so the returned tuple is canonical for the vertex set.
    """
    k = len(combo)
    for v in combo:
        if (adj[v] & mask).bit_count() != 2:
            return None
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


def _first_odd_cycle(kind: str, adj, full: int):
    """First induced odd cycle of length at least 5 on ``full`` under the
    rows ``adj``, shortest first, trying members in ascending order."""
    count = full.bit_count()
    if count > PERFECTION_BUDGET:
        raise BudgetExceededError(f"{kind} search limited to {PERFECTION_BUDGET} vertices, asked for {count}")
    members = tuple(_bits(full))
    for k in range(5, count + 1, 2):
        for combo in itertools.combinations(members, k):
            mask = 0
            for v in combo:
                mask |= 1 << v
            order = _induced_cycle_order(adj, combo, mask)
            if order is not None:
                return Embedding(f"{kind}({k})", order)
    return None


@lru_cache(maxsize=1 << 16)
def find_odd_hole(g: Graph, within: VertexSet = None):
    """First induced odd cycle of length at least 5 in ``g[within]`` (all
    of ``g`` by default), shortest first, in cycle order."""
    return _first_odd_cycle("odd-hole", g.adj, _within_mask(g, within))


@lru_cache(maxsize=1 << 16)
def find_odd_antihole(g: Graph, within: VertexSet = None):
    """First induced odd antihole of length at least 5 in ``g[within]``
    (all of ``g`` by default); a C5 counts, since it is its own complement.
    The image tuple is in complement-cycle order."""
    full = _within_mask(g, within)
    return _first_odd_cycle("odd-antihole", _co_rows(g.adj, full), full)


def imperfection_witness(g: Graph, within: VertexSet = None):
    """An odd hole or odd antihole of ``g[within]`` (all of ``g`` by
    default), or None when that subgraph is perfect.

    Perfection here is exactly the absence of both, checked by exhaustive
    search; a C5 is reported once, as a hole.
    """
    hole = find_odd_hole(g, within)
    if hole is not None:
        return hole
    return find_odd_antihole(g, within)


def is_perfect(g: Graph, within: VertexSet = None) -> bool:
    """Perfection of ``g``, or of the subgraph induced on ``within``."""
    return imperfection_witness(g, within) is None


def is_homogeneous(g: Graph, x: VertexSet, within: VertexSet = None) -> bool:
    """True when ``x`` is a subset of ``within`` (all of ``g`` by default)
    with 1 < |x| < |within|, and every other vertex of ``within`` is
    adjacent to all of ``x`` or to none of it."""
    _check_set(g, x)
    full = _within_mask(g, within)
    if x.mask & ~full or not 1 < len(x) < full.bit_count():
        return False
    for w in _bits(full & ~x.mask):
        inside = g.adj[w] & x.mask
        if inside != 0 and inside != x.mask:
            return False
    return True


@lru_cache(maxsize=1 << 18)
def find_homogeneous_set(g: Graph, within: VertexSet = None):
    """Some homogeneous set of ``g[within]`` (all of ``g`` by default), or
    None when that subgraph is prime.

    For each vertex pair of ``within`` (in lexicographic order) this grows
    the unique minimal candidate containing the pair: any vertex with both
    a neighbor and a non-neighbor inside must join. The first pair whose
    closure stays proper yields the answer, which makes the choice
    deterministic; the result is re-checked against the definition before
    being returned.
    """
    full = _within_mask(g, within)
    if full.bit_count() <= 2:
        return None
    adj = g.adj
    members = list(_bits(full))
    for i, u in enumerate(members[:-1]):
        for v in members[i + 1 :]:
            x = (1 << u) | (1 << v)
            changed = True
            while changed and x != full:
                changed = False
                for w in _bits(full & ~x):
                    inside = adj[w] & x
                    if inside != 0 and inside != x:
                        x |= 1 << w
                        changed = True
            if x != full:
                found = VertexSet(g.n, x)
                if not is_homogeneous(g, found, within):
                    raise AssertionError("homogeneous-set closure produced an invalid set")
                return found
    return None


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
    """Run all finders and assemble a consistent report."""
    p5 = find_p5(g)
    c5 = find_c5(g)
    bull = find_bull(g)
    hole = find_odd_hole(g, None)
    imperfection = hole if hole is not None else find_odd_antihole(g, None)
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

"""Immutable bitset-backed graphs, vertex-set algebra, and exact oracles.

Vertices are dense integers ``0..n-1``. Adjacency rows and vertex sets are
plain Python integers used as bitmasks, which keeps the set algebra on
machine words and makes the exhaustive oracles fast enough for the graph
sizes they are meant for (clique number up to ``CLIQUE_BUDGET`` = 32
vertices, chromatic number up to ``CHROMATIC_BUDGET`` = 16).
"""

from dataclasses import dataclass

from .errors import BudgetExceededError, echo

CLIQUE_BUDGET = 32
CHROMATIC_BUDGET = 16


def _bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, slots=True)
class VertexSet:
    """A subset of the vertices ``0..host_size-1`` of a fixed host graph."""

    host_size: int
    mask: int = 0

    def __post_init__(self):
        if self.host_size < 0:
            raise ValueError("host_size must be non-negative")
        if not 0 <= self.mask < (1 << self.host_size):
            raise ValueError("vertex set member out of range for its host")

    @classmethod
    def of(cls, host_size: int, members) -> "VertexSet":
        mask = 0
        for v in members:
            if not 0 <= v < host_size:
                raise ValueError(f"vertex {echo(v)} out of range for host of size {host_size}")
            mask |= 1 << v
        return cls(host_size, mask)

    def members(self) -> tuple:
        return tuple(_bits(self.mask))

    def __iter__(self):
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, v) -> bool:
        return 0 <= v < self.host_size and bool(self.mask >> v & 1)

    def _check_host(self, other: "VertexSet"):
        if self.host_size != other.host_size:
            raise ValueError("vertex sets belong to different hosts")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_host(other)
        return VertexSet(self.host_size, self.mask | other.mask)

    def __repr__(self):
        return f"VertexSet({set(self.members()) if self.mask else set()} of {self.host_size})"


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices ``0..n-1``.

    ``adj[v]`` is the neighbor bitmask of ``v``. The relation is validated
    to be symmetric and irreflexive at construction; instances are
    immutable, so every operation on them is a pure function.
    """

    n: int
    adj: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if not isinstance(self.adj, tuple) or len(self.adj) != self.n:
            raise ValueError("adjacency must be a tuple with one row per vertex")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if isinstance(row, bool) or not isinstance(row, int):
                raise ValueError(f"adjacency row of {v} is not an int")
            if not 0 <= row <= full:
                raise ValueError(f"adjacency row of {v} mentions vertices out of range")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for u in range(self.n):
            for v in _bits(self.adj[u]):
                if not self.adj[v] >> u & 1:
                    raise ValueError(f"adjacency not symmetric on pair ({u}, {v})")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if v > u]

    def has_any_edge(self) -> bool:
        return any(self.adj)


@dataclass(frozen=True)
class WeightFn:
    """Non-negative integer weights, one per vertex of a host graph."""

    weights: tuple

    def __post_init__(self):
        for i, w in enumerate(self.weights):
            if isinstance(w, bool) or not isinstance(w, int) or w < 0:
                raise ValueError(f"weight of vertex {i} must be a non-negative integer, not {echo(w)}")

    @classmethod
    def of(cls, weights) -> "WeightFn":
        return cls(tuple(weights))

    @classmethod
    def unit(cls, n: int) -> "WeightFn":
        return cls((1,) * n)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, v: int) -> int:
        return self.weights[v]


@dataclass(frozen=True)
class CliqueResult:
    """An exact clique optimum together with a witness attaining it."""

    value: int
    witness: VertexSet


def _check_set(g: Graph, s: VertexSet):
    if s.host_size != g.n:
        raise ValueError("vertex set does not belong to this graph")


def _within_mask(g: Graph, within: VertexSet = None) -> int:
    """The mask of ``within``, or of all of ``g`` when it is None."""
    if within is None:
        return (1 << g.n) - 1
    _check_set(g, within)
    return within.mask


def _co_rows(adj, mask: int) -> tuple:
    """Complement adjacency rows, restricted to the vertices of ``mask``."""
    return tuple(mask & ~row & ~(1 << v) for v, row in enumerate(adj))


def complement(g: Graph) -> Graph:
    """The graph on the same vertices whose edges are exactly the non-edges."""
    return Graph(g.n, _co_rows(g.adj, (1 << g.n) - 1))


def induced_subgraph(g: Graph, s: VertexSet):
    """Induced subgraph on ``s``, plus the relabeling map.

    Returns ``(h, vmap)`` where ``h`` is the subgraph on ``len(s)``
    vertices and ``vmap[i]`` is the host vertex that became ``i``
    (members are kept in ascending order).
    """
    _check_set(g, s)
    vmap = s.members()
    index = {old: new for new, old in enumerate(vmap)}
    rows = []
    for old in vmap:
        row = 0
        for u in _bits(g.adj[old] & s.mask):
            row |= 1 << index[u]
        rows.append(row)
    return Graph(len(vmap), tuple(rows)), vmap


def _mask_components(adj, mask: int, flip: int = 0) -> list:
    """Connected components of the subgraph induced on ``mask`` (as masks),
    or of its complement when ``flip`` is -1 (each row is read as
    ``row ^ flip``).

    Ordered by smallest member, which keeps every caller deterministic.
    """
    out = []
    rest = mask
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown |= adj[low.bit_length() - 1] ^ flip
            grown &= mask & ~comp
            comp |= grown
            frontier = grown
        out.append(comp)
        rest &= ~comp
    return out


def _mask_anticomponents(adj, mask: int) -> list:
    """Anticomponents of the subgraph induced on ``mask`` (as masks): the
    components of its complement, ordered by smallest member like
    ``_mask_components``."""
    return _mask_components(adj, mask, -1)


def _max_clique_mask(adj, cand: int):
    """Exact maximum clique within ``cand``: branch and bound with a greedy
    coloring bound. Returns ``(size, clique_mask)``."""
    best_size = 0
    best_mask = 0

    def expand(cur_mask, cur_size, cand):
        nonlocal best_size, best_mask
        if not cand:
            if cur_size > best_size:
                best_size = cur_size
                best_mask = cur_mask
            return
        order = []
        bound = []
        rest = cand
        color = 0
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(adj[v] | (1 << v))
                rest ^= 1 << v
                order.append(v)
                bound.append(color)
        p = cand
        for i in range(len(order) - 1, -1, -1):
            if cur_size + bound[i] <= best_size:
                return
            v = order[i]
            bit = 1 << v
            p ^= bit
            expand(cur_mask | bit, cur_size + 1, p & adj[v])

    expand(0, 0, cand)
    return best_size, best_mask


def _check_clique_budget(count: int):
    """Refuse a clique search over more than ``CLIQUE_BUDGET`` vertices, for
    the public clique oracles and for the callers of the mask kernels alike:
    the one place that holds the budget's check and its message."""
    if count > CLIQUE_BUDGET:
        raise BudgetExceededError(f"clique oracle limited to {CLIQUE_BUDGET} vertices, asked for {count}")


def clique_number(g: Graph, within: VertexSet = None) -> CliqueResult:
    """Exact clique number (optionally restricted to ``within``), with witness."""
    mask = _within_mask(g, within)
    _check_clique_budget(mask.bit_count())
    size, wmask = _max_clique_mask(g.adj, mask)
    return CliqueResult(size, VertexSet(g.n, wmask))


def _max_weight_clique_mask(adj, weights, cand: int):
    """Exact maximum-weight clique within ``cand``: branch and bound on the
    weight of the candidates left. Returns ``(weight, clique_mask)``.

    A node sums its candidates' weights once, on entry, and takes off each
    candidate's weight when that candidate's branch is done. A child
    without candidates is a leaf and is scored in place.
    """
    best_w = 0
    best_mask = 0

    def expand(cur_mask, cur_w, cand):
        nonlocal best_w, best_mask
        if cur_w > best_w:
            best_w = cur_w
            best_mask = cur_mask
        remaining = 0
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            remaining += weights[low.bit_length() - 1]
        while cand:
            if cur_w + remaining <= best_w:
                return
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            wv = weights[v]
            sub = cand & adj[v]
            if sub:
                expand(cur_mask | low, cur_w + wv, sub)
            elif cur_w + wv > best_w:
                best_w = cur_w + wv
                best_mask = cur_mask | low
            remaining -= wv

    expand(0, 0, cand)
    return best_w, best_mask


def _outweighs(adj, weights, cand: int, floor: int) -> bool:
    """Whether some clique within ``cand`` weighs more than ``floor`` (the
    empty clique weighs 0): the branch and bound of
    ``_max_weight_clique_mask`` with its best weight held at ``floor``,
    stopped at the first clique above it."""
    if floor < 0:
        return True

    def expand(cur_w, cand):
        remaining = 0
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            remaining += weights[low.bit_length() - 1]
        while cand:
            if cur_w + remaining <= floor:
                return False
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            wv = weights[v]
            if cur_w + wv > floor:
                return True
            sub = cand & adj[v]
            if sub and expand(cur_w + wv, sub):
                return True
            remaining -= wv
        return False

    return expand(0, cand)


def _check_weight_clique(adj, weights, mask: int):
    """The weight length and budget checks of ``max_weight_clique`` on
    ``mask``."""
    if len(weights) != len(adj):
        raise ValueError("weight function length does not match the graph")
    _check_clique_budget(mask.bit_count())


def max_weight_clique(g: Graph, w: WeightFn, within: VertexSet = None) -> CliqueResult:
    """Exact maximum total weight over cliques (the empty clique counts as 0)."""
    mask = _within_mask(g, within)
    _check_weight_clique(g.adj, w.weights, mask)
    value, wmask = _max_weight_clique_mask(g.adj, w.weights, mask)
    return CliqueResult(value, VertexSet(g.n, wmask))


def chromatic_number_exact(g: Graph, within: VertexSet = None):
    """Exact chromatic number of ``g[within]`` (all of ``g`` by default),
    with a proper coloring witness indexed by vertex of ``g``; vertices
    outside ``within`` get -1.

    Iterative deepening over the palette size, starting at the clique
    number; backtracking assigns the vertices in degree order and never
    opens more than one fresh color per step.
    """
    mask = _within_mask(g, within)
    n = mask.bit_count()
    if n > CHROMATIC_BUDGET:
        raise BudgetExceededError(f"coloring oracle limited to {CHROMATIC_BUDGET} vertices, asked for {n}")
    adj = [row & mask for row in g.adj]
    # below CHROMATIC_BUDGET, so within the clique budget too
    lower = _max_clique_mask(g.adj, mask)[0]
    order = sorted(_bits(mask), key=lambda v: (-adj[v].bit_count(), v))

    for k in range(lower, n + 1):
        colors = [-1] * g.n

        def backtrack(i, used):
            if i == n:
                return True
            v = order[i]
            forbidden = 0
            for u in _bits(adj[v]):
                cu = colors[u]
                if cu >= 0:
                    forbidden |= 1 << cu
            limit = min(k, used + 1)
            for c in range(limit):
                if forbidden >> c & 1:
                    continue
                colors[v] = c
                if backtrack(i + 1, used if c < used else c + 1):
                    return True
                colors[v] = -1
            return False

        if backtrack(0, 0):
            return k, tuple(colors)
    raise AssertionError("n colors always suffice")


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

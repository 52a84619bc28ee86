"""Graph corpora: canonical forms, non-isomorphic enumeration, random
sampling, and twin substitution.

The canonical form is the minimum adjacency bitstring over relabelings,
searched by backtracking. Iterated degree refinement pins most vertices
down before the search starts, and interchangeable twins are tried only
once per node, which keeps even the very symmetric graphs cheap at the
sizes exhaustive enumeration is allowed (n <= 9). Enumeration grows each
class from one parent class and canonicalizes only the extensions that
pass that parent rule; n = 9 (274,668 classes) takes about 30 s and
180 MB on one core of a 2-core Xeon, while n = 10 has 12,005,168 classes
and is out of reach.
"""

import random

from .core import Graph, _bits, empty_graph

EXHAUSTIVE_LIMIT = 9


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


def canonical_key(g: Graph):
    """Isomorphism-invariant key: ``(n, chunks)`` where ``chunks[p]`` is the
    adjacency of the p-th placed vertex to the earlier ones, minimized over
    all placements that respect the refined color classes."""
    return _canonical_key(g.n, g.adj)


def _canonical_key(n: int, adj):
    """``canonical_key`` of the graph on ``0..n-1`` with the rows ``adj``."""
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


def canonical_graph(key) -> Graph:
    """Rebuild the labeled graph a canonical key describes."""
    n, chunks = key
    adj = [0] * n
    for p in range(n):
        for i in _bits(chunks[p]):
            adj[p] |= 1 << i
            adj[i] |= 1 << p
    return Graph(n, tuple(adj))


def _delete_vertex(rows, u: int):
    """The rows of the graph ``rows`` with vertex ``u`` deleted and the
    vertices above it moved down by one."""
    low = (1 << u) - 1
    return [(row & low) | (row >> 1 & ~low) for w, row in enumerate(rows) if w != u]


def _deletes_to_parent(n: int, rows, parent_key) -> bool:
    """Whether the last vertex v of the graph ``rows`` is a vertex its class
    is grown through, given that deleting v leaves the key ``parent_key``
    and that no vertex has a larger degree than v.

    With f(u) = (degree of u, sum of the degrees of u's neighbors), v must
    maximize f, and deleting no vertex tied with v on f may leave a smaller
    key than ``parent_key``.
    """
    degrees = [row.bit_count() for row in rows]
    v = n - 1
    top = degrees[v]
    top_sum = sum(degrees[x] for x in _bits(rows[v]))
    tied = []
    for u in range(v):
        if degrees[u] == top:
            s = sum(degrees[x] for x in _bits(rows[u]))
            if s > top_sum:
                return False
            if s == top_sum:
                tied.append(u)
    return all(_canonical_key(v, _delete_vertex(rows, u)) >= parent_key for u in tied)


_NONISO_CACHE = {}


def nonisomorphic_graphs(n: int):
    """All graphs on exactly ``n`` vertices, one per isomorphism class, in
    canonical labeling and sorted by canonical key; cached per size.
    Limited to n <= EXHAUSTIVE_LIMIT.

    Built by canonical augmentation (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998). Every class on n-1 vertices, in
    its canonical labeling, gets a new vertex v with every possible
    neighborhood, and an extension is canonicalized only if v is a vertex
    its class is grown through (``_deletes_to_parent``). That rule depends
    on the class alone, so each class on n vertices has one parent class on
    n-1 vertices and is reached from it; the key set drops the repeats.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive enumeration limited to n <= {EXHAUSTIVE_LIMIT}")
    if n in _NONISO_CACHE:
        return _NONISO_CACHE[n]
    if n <= 1:
        result = (empty_graph(n),)
    else:
        keys = set()
        m = n - 1
        bit_new = 1 << m
        for base in nonisomorphic_graphs(m):
            adj = base.adj
            # the key of a canonical graph is its rows below the diagonal
            base_key = (m, tuple(row & ((1 << p) - 1) for p, row in enumerate(adj)))
            degrees = [row.bit_count() for row in adj]
            top = max(degrees)
            top_mask = sum(1 << u for u in range(m) if degrees[u] == top)
            for mask in range(1 << m):
                # v needs the largest degree, and a neighbor of degree top
                # gains one
                k = mask.bit_count()
                if k < top or (k == top and mask & top_mask):
                    continue
                rows = list(adj)
                for u in _bits(mask):
                    rows[u] |= bit_new
                rows.append(mask)
                if _deletes_to_parent(n, rows, base_key):
                    keys.add(_canonical_key(n, rows))
        result = tuple(canonical_graph(k) for k in sorted(keys))
    _NONISO_CACHE[n] = result
    return result


def random_graph(n: int, edge_prob: float, rng: random.Random) -> Graph:
    """One draw from the n-vertex random graph with independent edges."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    adj = [0] * n
    for u in range(n - 1):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def twin_substitute(g: Graph, v: int, *, adjacent: bool) -> Graph:
    """Add a twin of ``v`` as a new last vertex.

    The twin copies v's neighborhood; with ``adjacent`` it is also joined
    to v itself. Either way ``{v, twin}`` is a homogeneous set of the
    result.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    n = g.n
    rows = list(g.adj)
    twin_row = g.adj[v]
    if adjacent:
        twin_row |= 1 << v
        rows[v] |= 1 << n
    for u in _bits(g.adj[v]):
        rows[u] |= 1 << n
    rows.append(twin_row)
    return Graph(n + 1, tuple(rows))

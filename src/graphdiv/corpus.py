"""Graph corpora: canonical forms, non-isomorphic enumeration, random
sampling, and twin substitution.

The canonical form is the minimum adjacency bitstring over the
placements that respect the classes of an iterated color refinement
(McKay, "Practical graph isomorphism", 1981), searched by backtracking
that tries interchangeable twins only once per node. Refinement alone
separates every vertex in under a third of the graphs enumeration
canonicalizes (6,466 of 21,879 up to n = 8); the search settles the rest,
and stays cheap even on very symmetric graphs at the sizes exhaustive
enumeration is allowed (n <= 9). Enumeration grows each class from one
parent class, skips neighborhoods that a swap of twins maps to kept ones,
and canonicalizes only the extensions that pass that parent rule; n = 9
(274,668 classes) takes about 25 s and 185 MB on one core of a 2-core Xeon
(33 s before twins were skipped), while n = 10 has 12,005,168 classes and
is out of reach. Level n needs only level n - 1, so no level is kept:
``nonisomorphic_graphs`` builds levels 0..n on each call and returns the
last, and a sweep over several sizes walks ``_levels`` once.
"""

import random

from .core import Graph, _bits, empty_graph

EXHAUSTIVE_LIMIT = 9


def _refined_classes(n: int, adj):
    """The color classes of iterated neighbor-count refinement, as vertex
    masks in color order.

    The first classes hold the vertices of each degree, smallest degree
    first. A round splits every class by the number of neighbors its
    vertices have in each class; of two parts, the one with more neighbors
    in the first class where their counts differ comes first. Vertices of
    one class share a degree, so this is the order of their sorted
    neighbor colors. Rounds stop when no class splits.
    """
    by_degree = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    classes = [by_degree[d] for d in sorted(by_degree)]
    while len(classes) < n:
        refined = []
        for cls in classes:
            if cls & (cls - 1) == 0:
                refined.append(cls)
                continue
            groups = {}
            while cls:
                low = cls & -cls
                cls ^= low
                row = adj[low.bit_length() - 1]
                counts = tuple([(row & c).bit_count() for c in classes])
                groups[counts] = groups.get(counts, 0) | low
            refined += [groups[c] for c in sorted(groups, reverse=True)]
        if len(refined) == len(classes):
            break
        classes = refined
    return classes


def canonical_key(g: Graph):
    """Isomorphism-invariant key: ``(n, chunks)`` where ``chunks[p]`` is the
    adjacency of the p-th placed vertex to the earlier ones, minimized over
    all placements that respect the refined color classes."""
    return _canonical_key(g.n, g.adj)


def _canonical_key(n: int, adj):
    """``canonical_key`` of the graph on ``0..n-1`` with the rows ``adj``.

    Positions are filled class by class in color order, each by the unplaced
    vertices of its class in ascending order, skipping a twin of a vertex
    already tried there. ``seen[v]`` holds the positions of v's placed
    neighbors, so it is v's chunk. A frame is tight while its chunks equal
    ``best``'s; any other frame is already below ``best`` (or there is no
    ``best`` yet). Only a tight frame compares chunks, and replacing
    ``best`` makes every open frame tight again.
    """
    if n <= 1:
        return (n, (0,) * n)
    cell = []
    for cls in _refined_classes(n, adj):
        cell += [cls] * cls.bit_count()
    best = []
    cur = [0] * n
    seen = [0] * n
    used = 0

    def rec(p, tight):
        """Fill positions p.. after ``cur[:p]``; whether ``best`` changed."""
        nonlocal best, used
        if p == n:
            if tight:
                return False
            best = cur.copy()
            return True
        replaced = False
        tried = []
        bit = 1 << p
        free = cell[p] & ~used
        while free:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            row = adj[v]
            twin = False
            for u in tried:
                if adj[u] == row or adj[u] ^ low == row ^ (1 << u):
                    twin = True
                    break
            if twin:
                continue
            tried.append(v)
            chunk = seen[v]
            if tight and chunk > best[p]:
                continue
            cur[p] = chunk
            used |= low
            m = unplaced = row & ~used
            while m:
                b = m & -m
                seen[b.bit_length() - 1] |= bit
                m ^= b
            if rec(p + 1, tight and chunk == best[p]):
                replaced = tight = True
            m = unplaced
            while m:
                b = m & -m
                seen[b.bit_length() - 1] ^= bit
                m ^= b
            used ^= low
        return replaced

    rec(0, False)
    return (n, tuple(best))


def canonical_graph(key) -> Graph:
    """Rebuild the labeled graph a canonical key describes."""
    n, chunks = key
    adj = list(chunks)
    for p, chunk in enumerate(chunks):
        bit = 1 << p
        while chunk:
            low = chunk & -chunk
            adj[low.bit_length() - 1] |= bit
            chunk ^= low
    return Graph(n, tuple(adj))


def _delete_vertex(rows, u: int):
    """The rows of the graph ``rows`` with vertex ``u`` deleted and the
    vertices above it moved down by one."""
    low = (1 << u) - 1
    return [(row & low) | (row >> 1 & ~low) for w, row in enumerate(rows) if w != u]


def _twins(rows, u: int, w: int) -> bool:
    """Whether u and w are twins in the graph ``rows``: equal rows
    (non-adjacent twins), or equal rows once each holds its own bit
    (adjacent twins). Swapping twins is an automorphism."""
    return rows[u] == rows[w] or rows[u] | 1 << u == rows[w] | 1 << w


def _neighborhoods(adj):
    """The neighborhoods a new vertex is given on the graph ``adj``: every
    vertex mask that holds u whenever it holds a later twin w of u.

    Swapping u and w is an automorphism of ``adj`` that fixes the new
    vertex, so a skipped mask gives an extension isomorphic to a kept one,
    and each orbit of masks under twin swaps keeps one member: the one
    that holds the lowest vertices of each class of twins. A vertex has
    twins of one kind only (``_twins``), so it is checked against the
    latest earlier vertex of its class alone.
    """
    masks = [0]
    latest = {}
    for w, row in enumerate(adj):
        bit = 1 << w
        # a row keys itself and a closed row its negative complement, so
        # the two kinds never collide
        closed = ~(row | bit)
        u = latest.get(row, latest.get(closed))
        latest[row] = latest[closed] = w
        if u is None:
            masks += [x | bit for x in masks]
        else:
            masks += [x | bit for x in masks if x >> u & 1]
    return masks


def _deletes_to_parent(n: int, rows, parent_key) -> bool:
    """Whether the last vertex v of the graph ``rows`` is a vertex its class
    is grown through, given that deleting v leaves the key ``parent_key``
    and that no vertex has a larger degree than v.

    With f(u) = (degree of u, sum of the degrees of u's neighbors), v must
    maximize f, and deleting no vertex tied with v on f may leave a smaller
    key than ``parent_key``. Deleting a tied twin of v leaves a copy of the
    parent, so its key is ``parent_key`` and is not computed.
    """
    degrees = [row.bit_count() for row in rows]
    v = n - 1
    top = degrees[v]
    top_sum = 0
    m = rows[v]
    while m:
        low = m & -m
        top_sum += degrees[low.bit_length() - 1]
        m ^= low
    tied = []
    for u in range(v):
        if degrees[u] == top:
            s = 0
            m = rows[u]
            while m:
                low = m & -m
                s += degrees[low.bit_length() - 1]
                m ^= low
            if s > top_sum:
                return False
            if s == top_sum and not _twins(rows, u, v):
                tied.append(u)
    return all(_canonical_key(v, _delete_vertex(rows, u)) >= parent_key for u in tied)


def nonisomorphic_graphs(n: int):
    """All graphs on exactly ``n`` vertices, one per isomorphism class, in
    canonical labeling and sorted by canonical key. Limited to n <=
    EXHAUSTIVE_LIMIT; each call builds levels 0..n afresh (``_levels``) and
    keeps none of them.

    Built by canonical augmentation (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998). Every class on n-1 vertices, in
    its canonical labeling, gets a new vertex v with every neighborhood
    that no swap of twins maps to another (``_neighborhoods``), and an
    extension is canonicalized only if v is a vertex its class is grown
    through (``_deletes_to_parent``). That rule depends on the class alone,
    so each class on n vertices has one parent class on n-1 vertices and is
    reached from it; a skipped neighborhood gives a copy of a kept one's
    extension, and the key set drops the repeats.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive enumeration limited to n <= {EXHAUSTIVE_LIMIT}")
    for level in _levels(n):
        pass
    return level


def _levels(max_n: int):
    """Yield ``nonisomorphic_graphs(n)`` for n = 0..max_n in turn, each
    level built from the one before; the generator holds only the latest."""
    for n in range(max_n + 1):
        if n <= 1:
            level = (empty_graph(n),)
        else:
            keys = set()
            m = n - 1
            bit_new = 1 << m
            for base in level:
                adj = base.adj
                # the key of a canonical graph is its rows below the diagonal
                base_key = (m, tuple(row & ((1 << p) - 1) for p, row in enumerate(adj)))
                degrees = [row.bit_count() for row in adj]
                top = max(degrees)
                top_mask = sum(1 << u for u in range(m) if degrees[u] == top)
                for mask in _neighborhoods(adj):
                    # v needs the largest degree, and a neighbor of degree top
                    # gains one
                    k = mask.bit_count()
                    if k < top or (k == top and mask & top_mask):
                        continue
                    rows = list(adj)
                    b = mask
                    while b:
                        low = b & -b
                        rows[low.bit_length() - 1] |= bit_new
                        b ^= low
                    rows.append(mask)
                    # above top + 1, v alone has the largest degree and no tie
                    if k > top + 1 or _deletes_to_parent(n, rows, base_key):
                        keys.add(_canonical_key(n, rows))
            level = tuple(canonical_graph(k) for k in sorted(keys))
            # the keys would otherwise stay alive while the level is in use
            del keys
        yield level


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

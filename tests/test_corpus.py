import gc
import hashlib
import itertools
import random
import weakref

import networkx as nx
import pytest

import naive
from graphdiv import corpus
from graphdiv import (
    Graph,
    canonical_graph,
    canonical_key,
    complement,
    complete_graph,
    cycle_graph,
    emit_graph6,
    empty_graph,
    find_homogeneous_set,
    is_homogeneous,
    nonisomorphic_graphs,
    path_graph,
    random_graph,
    twin_substitute,
)

# published counts of isomorphism classes of simple graphs
KNOWN_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
KNOWN_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# First 16 hex digits of the sha256 of the graph6 ids of
# nonisomorphic_graphs(n), one per line in enumeration order.
ENUMERATION_DIGESTS = {
    1: "ecf5de1a2ecc66a1",
    2: "b7cd2a004ade8613",
    3: "1d237c0da1c599bb",
    4: "ff58e30b5ad404ae",
    5: "42791b6090cbec70",
    6: "d61d2c7071ee9858",
    7: "3c23d24996116bab",
    8: "c744a3c2b989fe91",
}


def _to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


class TestCanonicalKey:
    def test_invariant_under_relabeling(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_graph(n, rng.random(), rng)
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert canonical_key(g) == canonical_key(h)

    def test_separates_non_isomorphic(self):
        assert canonical_key(path_graph(4)) != canonical_key(cycle_graph(4))
        assert canonical_key(complete_graph(4)) != canonical_key(complement(complete_graph(4)))

    def test_agrees_with_networkx_isomorphism(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(1, 6)
            g = random_graph(n, rng.random(), rng)
            h = random_graph(n, rng.random(), rng)
            same_key = canonical_key(g) == canonical_key(h)
            assert same_key == nx.is_isomorphic(_to_nx(g), _to_nx(h))

    def test_canonical_graph_round_trip(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng.randint(0, 7), rng.random(), rng)
            key = canonical_key(g)
            rebuilt = canonical_graph(key)
            assert canonical_key(rebuilt) == key
            assert nx.is_isomorphic(_to_nx(g), _to_nx(rebuilt))

    def test_symmetric_graphs(self):
        # vertex-transitive inputs exercise the twin-skipping branch
        for g in (empty_graph(8), complete_graph(8), cycle_graph(8)):
            perm = [3, 5, 0, 7, 1, 6, 2, 4]
            h = Graph.from_edges(8, [(perm[u], perm[v]) for u, v in g.edges()])
            assert canonical_key(g) == canonical_key(h)


def _colors(n, classes):
    """The color of each vertex, from the classes of ``_refined_classes``."""
    colors = [None] * n
    for color, cls in enumerate(classes):
        for v in range(n):
            if cls >> v & 1:
                colors[v] = color
    return tuple(colors)


def _relabel(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + [(i, 5 + i) for i in range(5)])


SYMMETRIC = {
    "empty": empty_graph(8),
    "complete": complete_graph(8),
    "c8": cycle_graph(8),
    "k44": Graph.from_edges(8, [(u, v) for u in range(4) for v in range(4, 8)]),
    "cube": Graph.from_edges(8, [(u, u | 1 << i) for u in range(8) for i in range(3) if not u >> i & 1]),
    "three-triangles": Graph.from_edges(
        9, [(3 * k + i, 3 * k + j) for k in range(3) for i, j in ((0, 1), (0, 2), (1, 2))]
    ),
    "petersen": _petersen(),
}


class TestReferenceKernel:
    """The refinement and canonical key agree with the first versions kept
    in ``naive``: same colors, same keys."""

    @staticmethod
    def _assert_same(n, adj):
        assert _colors(n, corpus._refined_classes(n, adj)) == naive._refined_colors(n, adj)
        assert corpus._canonical_key(n, adj) == naive._canonical_key(n, adj)

    def test_every_enumeration_input_to_seven(self, monkeypatch):
        inputs = []
        key = corpus._canonical_key

        def recorded(n, adj):
            inputs.append((n, tuple(adj)))
            return key(n, adj)

        monkeypatch.setattr(corpus, "_canonical_key", recorded)
        nonisomorphic_graphs(7)
        monkeypatch.undo()
        assert len(inputs) == 2136
        for n, adj in inputs:
            self._assert_same(n, adj)

    def test_relabeled_eight_vertex_classes(self, levels):
        rng = random.Random(12)
        for g in levels[8][::40]:
            perm = list(range(8))
            rng.shuffle(perm)
            h = _relabel(g, perm)
            self._assert_same(8, h.adj)
            assert canonical_key(h) == canonical_key(g)

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_symmetric_graphs(self, name):
        # ties survive refinement and twins are skipped
        g = SYMMETRIC[name]
        self._assert_same(g.n, g.adj)
        rng = random.Random(name)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            self._assert_same(g.n, _relabel(g, perm).adj)
        assert len(corpus._refined_classes(g.n, g.adj)) == 1


class TestEnumeration:
    @pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
    def test_published_counts(self, n, count):
        assert len(nonisomorphic_graphs(n)) == count

    @pytest.mark.parametrize("n,digest", sorted(ENUMERATION_DIGESTS.items()))
    def test_enumeration_digest(self, n, digest):
        # pins the classes, their canonical labelings and their order
        text = "".join(emit_graph6(g) + "\n" for g in nonisomorphic_graphs(n))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_connected_counts(self):
        from graphdiv.core import _mask_components

        for n, want in KNOWN_CONNECTED.items():
            got = sum(
                1
                for g in nonisomorphic_graphs(n)
                if len(_mask_components(g.adj, (1 << n) - 1)) == 1
            )
            assert got == want

    def test_pairwise_non_isomorphic_at_five(self):
        graphs = nonisomorphic_graphs(5)
        for g, h in itertools.combinations(graphs, 2):
            assert not nx.is_isomorphic(_to_nx(g), _to_nx(h))

    def test_representatives_are_canonical_and_ordered(self):
        graphs = nonisomorphic_graphs(6)
        keys = [canonical_key(g) for g in graphs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("n", range(8))
    def test_matches_reference_generator(self, n):
        # same graphs, same labeling, same order as canonicalizing every extension
        assert nonisomorphic_graphs(n) == naive.nonisomorphic_graphs(n)

    def test_canonical_key_calls(self, monkeypatch):
        calls = 0
        key = corpus._canonical_key

        def counted(n, adj):
            nonlocal calls
            calls += 1
            return key(n, adj)

        monkeypatch.setattr(corpus, "_canonical_key", counted)
        nonisomorphic_graphs(7)
        # canonicalizing every extension costs one call per class on n-1
        # vertices and neighborhood of the new vertex
        every_extension = sum(KNOWN_COUNTS[n - 1] << (n - 1) for n in range(2, 8))
        assert every_extension == 11290
        assert calls == 2136 < every_extension

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            nonisomorphic_graphs(corpus.EXHAUSTIVE_LIMIT + 1)

    def test_a_level_is_not_kept(self):
        graphs = nonisomorphic_graphs(6)
        ref = weakref.ref(graphs[-1])
        del graphs
        gc.collect()
        assert ref() is None

    def test_levels_walk_yields_every_level(self, levels):
        # the fixture is tuple(_levels(8)): one walk, each level built from
        # the one before
        assert len(levels) == 9
        for m, level in enumerate(levels):
            assert type(level) is tuple and level == nonisomorphic_graphs(m)


def _extension(adj, mask):
    """The rows of the graph ``adj`` with a new last vertex joined to ``mask``."""
    n = len(adj)
    return [row | (mask >> u & 1) << n for u, row in enumerate(adj)] + [mask]


class TestTwinRules:
    """Enumeration skips neighborhoods that a twin swap maps to kept ones,
    and settles parent-rule ties with a twin of the new vertex without a
    key; both for every base class with n <= 7."""

    @staticmethod
    def _twin_classes(adj):
        """Twin classes of ``adj`` by the pairwise definition, each sorted."""
        classes = []
        for w in range(len(adj)):
            for cls in classes:
                u = cls[0]
                if adj[u] == adj[w] or adj[u] ^ 1 << w == adj[w] ^ 1 << u:
                    cls.append(w)
                    break
            else:
                classes.append([w])
        return classes

    def test_kept_neighborhoods_are_one_per_twin_swap_orbit(self, levels):
        for m in range(8):
            for base in levels[m]:
                classes = self._twin_classes(base.adj)
                want = [
                    mask
                    for mask in range(1 << m)
                    if all(not mask >> w & 1 or mask >> u & 1 for cls in classes for u, w in zip(cls, cls[1:]))
                ]
                assert sorted(corpus._neighborhoods(base.adj)) == want

    def test_skipped_extensions_are_isomorphic_to_kept_ones(self, levels):
        skipped = 0
        for m in range(8):
            level = {canonical_key(g) for g in levels[m + 1]}
            for base in levels[m]:
                kept = set(corpus._neighborhoods(base.adj))
                classes = self._twin_classes(base.adj)
                kept_keys = {}
                for mask in range(1 << m):
                    if mask in kept:
                        continue
                    skipped += 1
                    # the kept mask of the orbit: each class's lowest members
                    rep = 0
                    for cls in classes:
                        k = sum(mask >> u & 1 for u in cls)
                        rep |= sum(1 << u for u in cls[:k])
                    assert rep in kept
                    if rep not in kept_keys:
                        kept_keys[rep] = corpus._canonical_key(m + 1, _extension(base.adj, rep))
                    key = corpus._canonical_key(m + 1, _extension(base.adj, mask))
                    assert key == kept_keys[rep]
                    assert key in level
        assert skipped == 42772

    def test_ties_settled_as_twins_leave_the_parent_key(self, monkeypatch, levels):
        settled = []
        twins = corpus._twins

        def recorded(rows, u, w):
            if twins(rows, u, w):
                settled.append((tuple(rows), u, w))
                return True
            return False

        monkeypatch.setattr(corpus, "_twins", recorded)
        assert tuple(corpus._levels(8)) == levels
        monkeypatch.undo()
        assert len(settled) == 2988
        for rows, u, v in settled:
            assert v == len(rows) - 1
            parent_key = corpus._canonical_key(v, corpus._delete_vertex(rows, v))
            assert corpus._canonical_key(v, corpus._delete_vertex(rows, u)) == parent_key


class TestRandomGraph:
    def test_deterministic_given_seed(self):
        a = random_graph(8, 0.5, random.Random("seed:1"))
        b = random_graph(8, 0.5, random.Random("seed:1"))
        assert a == b

    def test_extremes(self):
        rng = random.Random(1)
        assert random_graph(5, 0.0, rng) == empty_graph(5)
        assert random_graph(5, 1.0, rng) == complete_graph(5)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            random_graph(5, 1.5, random.Random(1))


class TestTwinSubstitute:
    def test_creates_homogeneous_pair(self, c5):
        for adjacent in (False, True):
            g = twin_substitute(c5, 0, adjacent=adjacent)
            assert g.n == 6
            pair = find_homogeneous_set(g)
            assert pair is not None and pair.members() == (0, 5)
            assert g.has_edge(0, 5) == adjacent

    def test_twin_copies_neighborhood(self, bull):
        g = twin_substitute(bull, 2, adjacent=False)
        assert g.adj[5] == bull.adj[2]

    def test_preserves_these_classes(self, c5):
        # bull-freeness, P5-freeness and odd-hole-freeness survive twin
        # substitution: none of those patterns can host a twin pair
        from graphdiv import find_bull, find_odd_hole, find_p5

        rng = random.Random(3)
        checked = 0
        for g in nonisomorphic_graphs(6):
            if find_bull(g) is not None:
                continue
            p5free = find_p5(g) is None
            ohfree = find_odd_hole(g) is None
            if not (p5free or ohfree):
                continue
            v = rng.randrange(g.n) if g.n else 0
            for adjacent in (False, True):
                h = twin_substitute(g, v, adjacent=adjacent)
                assert find_bull(h) is None
                if p5free:
                    assert find_p5(h) is None
                if ohfree:
                    assert find_odd_hole(h) is None
            checked += 1
        assert checked > 50

    def test_out_of_range(self, c5):
        with pytest.raises(ValueError):
            twin_substitute(c5, 5, adjacent=True)

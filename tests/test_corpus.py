import itertools
import random

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


class TestEnumeration:
    @pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
    def test_published_counts(self, n, count):
        assert len(nonisomorphic_graphs(n)) == count

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
        monkeypatch.setattr(corpus, "_NONISO_CACHE", {})
        nonisomorphic_graphs(7)
        # canonicalizing every extension costs one call per class on n-1
        # vertices and neighborhood of the new vertex
        every_extension = sum(KNOWN_COUNTS[n - 1] << (n - 1) for n in range(2, 8))
        assert every_extension == 11290
        assert calls == 3689 < every_extension

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            nonisomorphic_graphs(corpus.EXHAUSTIVE_LIMIT + 1)


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

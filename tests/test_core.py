import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import naive
from graphdiv import (
    CHROMATIC_BUDGET,
    CLIQUE_BUDGET,
    BudgetExceededError,
    Graph,
    VertexSet,
    WeightFn,
    chromatic_number_exact,
    clique_number,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    induced_subgraph,
    max_weight_clique,
    path_graph,
)
from graphdiv.core import _mask_anticomponents, _mask_components, _outweighs
from graphdiv.corpus import nonisomorphic_graphs, random_graph
from test_recognition import _family_graphs


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = n * (n - 1) // 2
    bits = draw(st.integers(min_value=0, max_value=(1 << pairs) - 1)) if pairs else 0
    edges = []
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if bits >> k & 1:
                edges.append((u, v))
            k += 1
    return Graph.from_edges(n, edges)


class TestConstruction:
    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(1, (0b1,))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    @pytest.mark.parametrize("adj", [[0, 0, 0], (0, 0.0, 0), (0, False, 0), (0, "0", 0), (0, None, 0)])
    def test_rejects_rows_that_are_not_an_int_tuple(self, adj):
        # a list would make the graph unhashable for every cached finder,
        # and a bool or float row is refused, not read as a mask
        with pytest.raises(ValueError):
            Graph(3, adj)

    def test_vertex_set_range(self):
        with pytest.raises(ValueError):
            VertexSet.of(3, [3])
        with pytest.raises(ValueError):
            VertexSet(3, 0b1000)

    def test_weight_fn_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightFn.of([1, -1])

    @pytest.mark.parametrize("bad", [1.9, 2.0, True, False, "3", None])
    def test_weight_fn_rejects_non_integers(self, bad):
        # a float or bool is refused, not truncated or read as 0/1
        with pytest.raises(ValueError):
            WeightFn.of([1, bad, 1])


class TestComplement:
    def test_k3_is_edgeless(self):
        assert complement(complete_graph(3)) == empty_graph(3)

    def test_c5_complement_adjacency(self):
        comp = complement(cycle_graph(5))
        for i in range(5):
            assert comp.has_edge(i, (i + 2) % 5)
            assert not comp.has_edge(i, (i + 1) % 5)

    def test_involution_on_p4(self):
        assert complement(complement(path_graph(4))) == path_graph(4)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestInducedSubgraph:
    def test_cycle_segment_is_path(self):
        sub, vmap = induced_subgraph(cycle_graph(5), VertexSet.of(5, [0, 1, 2]))
        assert sub == path_graph(3)
        assert vmap == (0, 1, 2)

    def test_full_set_is_identity(self):
        g = cycle_graph(5)
        sub, vmap = induced_subgraph(g, VertexSet(5, (1 << 5) - 1))
        assert sub == g
        assert vmap == (0, 1, 2, 3, 4)

    def test_bull_path_vertices_induce_p4(self, bull):
        # x, a, b, y carry the pendant path of the bull
        sub, _ = induced_subgraph(bull, VertexSet.of(5, [0, 1, 2, 4]))
        assert sub == path_graph(4)

    def test_host_mismatch(self):
        with pytest.raises(ValueError):
            induced_subgraph(cycle_graph(5), VertexSet.of(4, [0]))


class TestComponents:
    def test_cycle_subset(self):
        assert _mask_components(cycle_graph(5).adj, 0b01011) == [0b00011, 0b01000]

    def test_empty_set(self):
        assert _mask_components(cycle_graph(5).adj, 0) == []

    def test_bull_non_neighborhood_is_connected(self, bull):
        assert _mask_components(bull.adj, 0b11100) == [0b11100]

    def test_anticomponents_of_complete(self):
        assert _mask_anticomponents(complete_graph(4).adj, 0b1111) == [0b0001, 0b0010, 0b0100, 0b1000]

    def test_anticomponents_of_edgeless(self):
        assert _mask_anticomponents(empty_graph(3).adj, 0b111) == [0b111]

    def test_anticomponents_cycle_subset(self):
        assert _mask_anticomponents(cycle_graph(5).adj, 0b00111) == [0b00101, 0b00010]

    @given(graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_components_partition_and_match_complement(self, g, data):
        members = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)) if g.n else st.nothing()))
        x = VertexSet.of(g.n, [v for v in members if v < g.n]).mask
        comps = _mask_components(g.adj, x)
        union = 0
        for c in comps:
            assert union & c == 0
            union |= c
        assert union == x
        assert _mask_anticomponents(g.adj, x) == _mask_components(complement(g).adj, x)


class TestCliqueOracles:
    def test_cycle_clique(self):
        assert clique_number(cycle_graph(5)).value == 2

    def test_bull_clique(self, bull):
        result = clique_number(bull)
        assert result.value == 3
        assert result.witness.members() == (1, 2, 3)

    def test_complete_clique(self):
        assert clique_number(complete_graph(6)).value == 6

    def test_witness_is_a_clique(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(0, 9)
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            )
            result = clique_number(g)
            w = result.witness.members()
            assert len(w) == result.value
            assert naive.is_clique(g, w)
            assert result.value == naive.clique_number(g)

    def test_within_restriction(self):
        g = complete_graph(5)
        assert clique_number(g, VertexSet.of(5, [0, 2, 4])).value == 3

    def test_budget(self):
        assert clique_number(empty_graph(CLIQUE_BUDGET)).value == 1
        with pytest.raises(BudgetExceededError, match="clique oracle limited to 32 vertices, asked for 40"):
            clique_number(empty_graph(40))
        with pytest.raises(BudgetExceededError, match="clique oracle limited to 32 vertices, asked for 33"):
            max_weight_clique(empty_graph(33), WeightFn.unit(33))


class TestMaxWeightClique:
    def test_unit_weights_match_clique_number(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(0, 8)
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            )
            assert max_weight_clique(g, WeightFn.unit(n)).value == clique_number(g).value

    def test_cycle_with_heavy_vertex(self):
        g = cycle_graph(4)
        result = max_weight_clique(g, WeightFn.of([5, 1, 1, 1]))
        assert result.value == 6
        w = result.witness.members()
        assert naive.is_clique(g, w) and 0 in w and len(w) == 2

    def test_all_zero_weights(self):
        result = max_weight_clique(complete_graph(4), WeightFn.of([0, 0, 0, 0]))
        assert result.value == 0

    def test_matches_naive(self):
        rng = random.Random(13)
        for i in range(80):
            # 40 graphs on up to 7 vertices, then 40 on 8 to 16; every third
            # of the larger ones has mostly zero weights, so ties and
            # zero-weight bounds occur
            small = i < 40
            n = rng.randint(0, 7) if small else rng.randint(8, 16)
            p = 0.5 if small else rng.uniform(0.3, 0.9)
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            palette = (0, 0, 0, 1, 5) if not small and i % 3 == 0 else range(6)
            weights = [rng.choice(palette) for _ in range(n)]
            got = max_weight_clique(g, WeightFn.of(weights))
            assert got.value == naive.max_weight_clique(g, weights)
            assert naive.is_clique(g, got.witness.members())
            assert sum(weights[v] for v in got.witness) == got.value


def _outweighs_matches_naive(g, weights, mask):
    """Check ``_outweighs`` at floors 0, opt - 1 and opt against the naive
    maximum clique weight opt of ``g[mask]``."""
    sub, vmap = induced_subgraph(g, VertexSet(g.n, mask))
    opt = naive.max_weight_clique(sub, [weights[v] for v in vmap])
    for floor in (0, opt - 1, opt):
        assert _outweighs(g.adj, weights, mask, floor) == (opt > floor), (g.adj, weights, mask, floor)


class TestOutweighs:
    """The decision search answers what the maximum-weight search would:
    whether some clique of the set weighs more than the floor."""

    def test_matches_naive_on_every_set_to_six_vertices(self):
        # two weight draws per graph, the second with many zeros
        rng = random.Random("outweighs/small")
        checked = 0
        for n in range(7):
            for g in nonisomorphic_graphs(n):
                for weights in ([rng.randint(1, 5) for _ in range(n)], [rng.choice((0, 0, 1, 4)) for _ in range(n)]):
                    for mask in range(1 << n):
                        _outweighs_matches_naive(g, weights, mask)
                        checked += 1
        assert checked == 2 * sum(len(nonisomorphic_graphs(n)) << n for n in range(7))

    def test_matches_naive_on_samples_to_sixteen_vertices(self):
        rng = random.Random("outweighs/sampled")
        graphs = [random_graph(n, rng.random(), rng) for n in (7, 8) for _ in range(40)]
        graphs += list(_family_graphs(rng, 8, 16, 16))
        for g in graphs:
            weights = [rng.choice((0, 1, 2, 5)) for _ in range(g.n)]
            full = (1 << g.n) - 1
            for mask in (full, rng.getrandbits(g.n) & full, rng.getrandbits(g.n) & full):
                _outweighs_matches_naive(g, weights, mask)


class TestChromatic:
    def test_odd_cycle(self):
        k, coloring = chromatic_number_exact(cycle_graph(5))
        assert k == 3
        assert naive.is_proper(cycle_graph(5), coloring)

    def test_complete(self):
        assert chromatic_number_exact(complete_graph(4))[0] == 4

    def test_petersen(self, petersen):
        # not 2-colorable (contains odd cycles), 3-colorable
        k, coloring = chromatic_number_exact(petersen)
        assert k == 3
        assert naive.is_proper(petersen, coloring)
        assert not any(
            naive.is_proper(petersen, assignment)
            for assignment in itertools.product(range(2), repeat=10)
        )

    def test_at_least_clique_number_and_matches_naive(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(0, 6)
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            )
            k, coloring = chromatic_number_exact(g)
            assert k >= clique_number(g).value
            assert naive.is_proper(g, coloring)
            assert k == naive.chromatic_number(g)

    def test_budget(self):
        assert chromatic_number_exact(empty_graph(CHROMATIC_BUDGET))[0] == 1
        with pytest.raises(BudgetExceededError, match="coloring oracle limited to 16 vertices, asked for 17"):
            chromatic_number_exact(empty_graph(17))

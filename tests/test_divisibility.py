import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

import graphdiv.divisibility
import naive
from graphdiv import (
    BULL_PATTERN,
    BudgetExceededError,
    DegenerateCliqueError,
    Graph,
    NotInClassError,
    P5_PATTERN,
    PerfectDivision,
    TheoremViolationError,
    VertexSet,
    WeightFn,
    chromatic_number_exact,
    classify,
    classify_against_c5,
    clique_number,
    color_via_perfect_division,
    color_via_two_division,
    complete_graph,
    cycle_graph,
    embedding_is_valid,
    emit_graph6,
    empty_graph,
    find_bull,
    find_c5,
    find_homogeneous_set,
    find_odd_hole,
    find_p5,
    find_perfect_nonneighborhood_vertex,
    graphs_with_ids,
    induced_subgraph,
    is_perfect,
    is_two_divisible_oracle,
    max_weight_clique,
    path_graph,
    perfect_divide,
    quotient_by_homogeneous_set,
    recombine,
    twin_substitute,
    two_divide,
    verify_perfect_division,
    verify_two_division,
)
from graphdiv.corpus import nonisomorphic_graphs, random_graph
from graphdiv.harness import run_divide
from test_recognition import _family_graphs


class TestTwoDivide:
    def test_c4_trace(self):
        d = two_divide(cycle_graph(4))
        assert d.a.members() == (0, 2)
        assert d.b.members() == (1, 3)
        assert verify_two_division(cycle_graph(4), d) == (True, None)

    def test_bull_trace(self, bull):
        # starting vertex x=0 leaves M={b,c,y} uncovered, so a's
        # neighborhood {x,b,c} becomes the A side
        d = two_divide(bull)
        assert d.a.members() == (0, 2, 3)
        assert d.b.members() == (1, 4)
        assert clique_number(bull, d.a).value == 2
        assert clique_number(bull, d.b).value == 1

    def test_k2(self):
        d = two_divide(complete_graph(2))
        assert d.a.members() == (0,)
        assert d.b.members() == (1,)

    def test_c5_rejected_with_witness(self, c5):
        with pytest.raises(NotInClassError) as err:
            two_divide(c5)
        assert len(err.value.witnesses) == 1
        assert err.value.witnesses[0].pattern_name == "C5"

    def test_p5_rejected_with_witness(self):
        with pytest.raises(NotInClassError) as err:
            two_divide(path_graph(5))
        assert err.value.witnesses[0].pattern_name == "P5"

    def test_edgeless_is_degenerate(self):
        with pytest.raises(DegenerateCliqueError):
            two_divide(empty_graph(3))
        with pytest.raises(DegenerateCliqueError):
            two_divide(empty_graph(0))

    def test_disconnected_stable_components_go_to_a(self):
        # an edge plus two isolated vertices
        g = Graph.from_edges(4, [(0, 1)])
        d = two_divide(g)
        assert 2 in d.a and 3 in d.a
        assert verify_two_division(g, d)[0]

    def test_log_step_vocabulary(self):
        d = two_divide(cycle_graph(4))
        kinds = [step["kind"] for step in d.log]
        assert kinds[0] == "component-split"
        assert "base-partition" in kinds

    def test_exhaustive_small(self):
        for n in range(2, 7):
            for g in nonisomorphic_graphs(n):
                if find_p5(g) is not None or find_c5(g) is not None:
                    continue
                if not g.has_any_edge():
                    continue
                d = two_divide(g)
                ok, reason = verify_two_division(g, d)
                assert ok, (g, reason)


class TestTwoDivisibleOracle:
    def test_c5_counterexample_is_itself(self, c5):
        divisible, counter = is_two_divisible_oracle(c5)
        assert not divisible
        assert counter.members() == (0, 1, 2, 3, 4)

    def test_c7(self):
        assert is_two_divisible_oracle(cycle_graph(7))[0] is False

    def test_p5_divisible(self):
        assert is_two_divisible_oracle(path_graph(5))[0] is True

    def test_matches_naive(self):
        rng = random.Random(77)
        for _ in range(25):
            g = random_graph(rng.randint(1, 6), rng.random(), rng)
            assert is_two_divisible_oracle(g)[0] == naive.is_two_divisible(g)

    # The oracle tries the split carried from h minus its lowest vertex
    # before scanning; the flag and the first failing subset must equal
    # those of the scan-only reference.
    def test_matches_scan_exhaustively(self, levels):
        for n in range(1, 8):
            for g in levels[n]:
                assert is_two_divisible_oracle(g) == naive.is_two_divisible_oracle(g), emit_graph6(g)

    def test_matches_scan_on_random_graphs(self):
        rng = random.Random(4099)
        for i in range(300):
            g = random_graph(8 + i % 5, 0.05 + 0.9 * rng.random(), rng)
            assert is_two_divisible_oracle(g) == naive.is_two_divisible_oracle(g), emit_graph6(g)

    @pytest.mark.parametrize("k", [5, 7, 9])
    def test_matches_scan_on_relabeled_odd_cycles(self, k):
        rng = random.Random(k)
        for _ in range(5):
            perm = list(range(k))
            rng.shuffle(perm)
            g = Graph.from_edges(k, [(perm[u], perm[(u + 1) % k]) for u in range(k)])
            divisible, counter = is_two_divisible_oracle(g)
            assert not divisible and counter.mask == (1 << k) - 1
            assert (divisible, counter) == naive.is_two_divisible_oracle(g)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            is_two_divisible_oracle(empty_graph(13))


class TestQuotient:
    def test_c4_quotient_is_star(self):
        g = cycle_graph(4)
        weights = quotient_by_homogeneous_set(g, WeightFn.unit(4), VertexSet.of(4, [0, 2]))
        assert len(weights) == 4  # host-length
        assert weights[0] == 1  # stable pair
        # the representative 0 keeps the common neighbors, which stay non-adjacent
        assert g.adj[0] & 0b1011 == 0b1010
        assert not g.has_edge(1, 3)

    def test_true_twin_pair_lifts_weight_two(self):
        g = complete_graph(3)
        assert quotient_by_homogeneous_set(g, WeightFn.unit(3), VertexSet.of(3, [0, 1])).weights == (2, 1, 1)

    def test_anticomponent_pair_in_near_clique(self):
        # K4 minus the edge {2,3}: the non-adjacent pair lifts weight 1
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        weights = quotient_by_homogeneous_set(g, WeightFn.of([1, 1, 2, 3]), VertexSet.of(4, [2, 3]))
        assert weights.weights == (1, 1, 3, 3)

    def test_rejects_non_homogeneous_set(self, c5):
        with pytest.raises(ValueError):
            quotient_by_homogeneous_set(c5, WeightFn.unit(5), VertexSet.of(5, [0, 1]))

    def test_homogeneous_only_within(self):
        # C4 plus vertex 4 seeing only 0: {0, 2} is homogeneous inside the C4
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        x = VertexSet.of(5, [0, 2])
        with pytest.raises(ValueError):
            quotient_by_homogeneous_set(g, WeightFn.unit(5), x)
        weights = quotient_by_homogeneous_set(g, WeightFn.of([3, 1, 4, 1, 5]), x, VertexSet.of(5, [0, 1, 2, 3]))
        assert weights.weights == (4, 1, 4, 1, 5)

    def test_lifting_budget_counts_the_largest_prime_node(self):
        # P33 plus a vertex seeing all of it: the lift needs a weighted
        # clique over 33 representatives; an edgeless 33-set needs none
        path = Graph.from_edges(34, [(i, i + 1) for i in range(32)] + [(i, 33) for i in range(33)])
        x = VertexSet.of(34, range(33))
        with pytest.raises(BudgetExceededError, match="asked for 33"):
            quotient_by_homogeneous_set(path, WeightFn.unit(34), x)
        star = Graph.from_edges(34, [(i, 33) for i in range(33)])
        assert quotient_by_homogeneous_set(star, WeightFn.unit(34), x)[0] == 1

    def test_reads_none_as_unit_weights(self):
        # as recombine, verify_perfect_division and perfect_divide do, so a
        # unit-weight log replays with the weights it stores
        g = _twin_substituted_c5()
        x = find_homogeneous_set(g)
        unit = quotient_by_homogeneous_set(g, WeightFn.unit(g.n), x)
        assert quotient_by_homogeneous_set(g, None, x) == unit and max(unit.weights) > 1


def _c4_recombine(q, inner):
    """Recombine divisions of the C4's quotient by x = {0, 2}, the path
    1 - 0 - 3 with 0 standing for x, and of x itself."""
    return recombine(cycle_graph(4), WeightFn.unit(4), VertexSet.of(4, [0, 2]), q, inner)


class TestRecombine:
    def test_replacement_on_w_side(self):
        q = PerfectDivision(VertexSet.of(4, [1, 3]), VertexSet.of(4, [0]), weight=WeightFn.unit(4))
        inner = PerfectDivision(VertexSet.of(4, [0, 2]), VertexSet(4), weight=WeightFn.unit(4))
        d = _c4_recombine(q, inner)
        assert d.p.members() == (1, 3)
        assert d.w_side.members() == (0, 2)
        assert d.log[0]["case"] == "xhat-in-w"
        assert verify_perfect_division(cycle_graph(4), WeightFn.unit(4), d)[0]

    def test_replacement_on_p_side_with_empty_inner_w(self):
        q = PerfectDivision(VertexSet.of(4, [0]), VertexSet.of(4, [1, 3]), weight=WeightFn.unit(4))
        inner = PerfectDivision(VertexSet.of(4, [0, 2]), VertexSet(4), weight=WeightFn.unit(4))
        d = _c4_recombine(q, inner)
        # the contracted part is perfect, so its W share is empty
        assert d.p.members() == (0, 2)
        assert d.w_side.members() == (1, 3)
        assert d.log[0] == {"kind": "recombination", "case": "xhat-in-p", "x": [0, 2], "p": [0, 2], "w": [1, 3]}

    def test_twin_pair_replacement_on_p_side(self):
        g = complete_graph(3)
        x = VertexSet.of(3, [0, 1])
        q_weights = quotient_by_homogeneous_set(g, WeightFn.unit(3), x)
        q = PerfectDivision(VertexSet.of(3, [0]), VertexSet.of(3, [2]), weight=q_weights)
        inner = PerfectDivision(VertexSet.of(3, [0]), VertexSet.of(3, [1]), weight=WeightFn.unit(3))
        d = recombine(g, WeightFn.unit(3), x, q, inner)
        assert d.p.members() == (0,)
        assert d.w_side.members() == (1, 2)

    def test_invalid_inputs_fail_verification(self):
        # everything on the W side: the recombined W keeps the full clique
        # weight, so the output cannot verify
        q = PerfectDivision(VertexSet(4), VertexSet.of(4, [0, 1, 3]), weight=WeightFn.unit(4))
        inner = PerfectDivision(VertexSet(4), VertexSet.of(4, [0, 2]), weight=WeightFn.unit(4))
        with pytest.raises(TheoremViolationError):
            _c4_recombine(q, inner)

    def test_inner_division_may_be_none_only_when_xhat_lands_on_w(self):
        # on W the whole contracted set joins W, so its division is unused
        q = PerfectDivision(VertexSet.of(4, [1, 3]), VertexSet.of(4, [0]), weight=WeightFn.unit(4))
        inner = PerfectDivision(VertexSet.of(4, [0, 2]), VertexSet(4), weight=WeightFn.unit(4))
        given, omitted = _c4_recombine(q, inner), _c4_recombine(q, None)
        assert (omitted.p, omitted.w_side, omitted.log) == (given.p, given.w_side, given.log)
        q = PerfectDivision(VertexSet.of(4, [0]), VertexSet.of(4, [1, 3]), weight=WeightFn.unit(4))
        with pytest.raises(ValueError, match="needs an inner division"):
            _c4_recombine(q, None)

    def test_divisions_must_cover_their_parts(self):
        inner = PerfectDivision(VertexSet.of(4, [0, 2]), VertexSet(4))
        with pytest.raises(ValueError, match="quotient division"):
            _c4_recombine(PerfectDivision(VertexSet.of(4, [1, 3]), VertexSet(4)), inner)
        q = PerfectDivision(VertexSet.of(4, [1, 3]), VertexSet.of(4, [0]))
        with pytest.raises(ValueError, match="inner division"):
            _c4_recombine(q, PerfectDivision(VertexSet.of(4, [0]), VertexSet(4)))

    def test_merges_and_verifies_within(self):
        # C4 plus vertex 4 seeing only 0: the quotient of the C4 by {0, 2}
        # leaves vertex 4 out, and so does the merged division
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        x, within = VertexSet.of(5, [0, 2]), VertexSet.of(5, [0, 1, 2, 3])
        q = PerfectDivision(VertexSet.of(5, [1, 3]), VertexSet.of(5, [0]))
        inner = PerfectDivision(VertexSet.of(5, [0, 2]), VertexSet(5))
        d = recombine(g, WeightFn.unit(5), x, q, inner, within)
        assert (d.p.members(), d.w_side.members()) == ((1, 3), (0, 2))
        with pytest.raises(ValueError, match="quotient division"):
            recombine(g, WeightFn.unit(5), x, q, inner)
        with pytest.raises(ValueError, match="subset of within"):
            recombine(g, WeightFn.unit(5), VertexSet.of(5, [0, 4]), q, inner, within)


class TestPerfectNonNeighborhoodVertex:
    def test_c5_smallest(self, c5):
        assert find_perfect_nonneighborhood_vertex(c5) == 0

    def test_complete_graph(self):
        assert find_perfect_nonneighborhood_vertex(complete_graph(5)) == 0

    def test_on_prime_class_member(self, levels):
        # first prime bull-free P5-free 7-vertex graph from the corpus
        for g in levels[7]:
            if find_bull(g) is not None or find_p5(g) is not None:
                continue
            if find_homogeneous_set(g) is not None:
                continue
            v = find_perfect_nonneighborhood_vertex(g)
            assert v is not None
            full = (1 << g.n) - 1
            sub, _ = induced_subgraph(g, VertexSet(g.n, full & ~g.adj[v] & ~(1 << v)))
            assert is_perfect(sub)
            break
        else:
            pytest.fail("corpus has no prime bull-free P5-free graph on 7 vertices")


class TestPerfectDivide:
    def test_c5_trace(self, c5):
        d = perfect_divide(c5)
        assert d.p.members() == (0, 2, 3)
        assert d.w_side.members() == (1, 4)
        assert verify_perfect_division(c5, None, d)[0]

    def test_complete_graph_peels_one_vertex(self):
        for n in (1, 2, 5):
            g = complete_graph(n)
            d = perfect_divide(g)
            assert len(d.p) == 1
            assert clique_number(g, d.w_side).value == n - 1

    def test_doubled_c5_goes_through_quotient(self, c5):
        g = twin_substitute(c5, 0, adjacent=True)
        d = perfect_divide(g)
        kinds = [step["kind"] for step in d.log]
        assert "quotient" in kinds and "recombination" in kinds
        quotient_steps = [s for s in d.log if s["kind"] == "quotient"]
        assert quotient_steps[0]["x"] == [0, 5]
        assert quotient_steps[0]["lifted_weight"] == 2
        assert verify_perfect_division(g, None, d)[0]

    def test_zero_weights_put_everything_on_w(self, c5):
        d = perfect_divide(c5, WeightFn.of([0, 0, 0, 0, 0]))
        assert d.p.members() == ()
        assert d.w_side.members() == (0, 1, 2, 3, 4)
        assert verify_perfect_division(c5, WeightFn.of([0] * 5), d)[0]

    def test_zero_weight_vertices_join_w(self, c5):
        w = WeightFn.of([1, 0, 1, 1, 0])
        d = perfect_divide(c5, w)
        assert 1 in d.w_side and 4 in d.w_side
        assert verify_perfect_division(c5, w, d)[0]

    def test_bull_rejected(self, bull):
        with pytest.raises(NotInClassError) as err:
            perfect_divide(bull)
        assert err.value.witnesses[0].pattern_name == "bull"

    def test_rejects_graph_outside_both_classes(self):
        # C5 with a pendant path long enough to carry a P5 but no bull:
        # subdividing one edge of C7 keeps it bull-free; C7 itself has
        # both an odd hole and an induced P5 and is bull-free.
        g = cycle_graph(7)
        with pytest.raises(NotInClassError) as err:
            perfect_divide(g)
        names = {w.pattern_name for w in err.value.witnesses}
        assert names == {"odd-hole(7)", "P5"}

    def test_class_hints(self, c5):
        # C5 has an odd hole but no P5, so it is in the class
        assert perfect_divide(c5).p.members() == (0, 2, 3)

    def test_empty_graph(self):
        d = perfect_divide(empty_graph(0))
        assert d.p.members() == () and d.w_side.members() == ()

    def test_weighted_small_sweep(self):
        rng = random.Random(123)
        checked = 0
        for g in nonisomorphic_graphs(6):
            if find_bull(g) is not None:
                continue
            if find_odd_hole(g) is not None and find_p5(g) is not None:
                continue
            for _ in range(5):
                w = WeightFn.of([rng.randint(0, 4) for _ in range(g.n)])
                d = perfect_divide(g, w)
                ok, reason = verify_perfect_division(g, w, d)
                assert ok, reason
                checked += 1
        assert checked > 300


def _lift_log(log, vmap):
    """A derivation log of a division of ``induced_subgraph(g, m)``, with
    every vertex renamed to its vertex of ``g``."""

    def lift(value, key=None):
        if isinstance(value, dict):
            return {k: lift(v, k) for k, v in value.items()}
        if isinstance(value, list):
            return [lift(v, key) for v in value]
        if isinstance(value, int) and key not in ("neighbors_in_m", "lifted_weight"):
            return vmap[value]
        return value

    return [lift(step) for step in log]


def _random_mask(rng, n):
    return VertexSet(n, rng.getrandbits(n))


class TestWithin:
    """A division of ``g`` restricted to ``within`` equals the division of
    the induced subgraph, lifted back to ``g``'s vertices, log included."""

    def test_two_divide_matches_induced_subgraph(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 150:
            g = random_graph(rng.randint(4, 9), rng.random(), rng)
            if find_p5(g) is not None or find_c5(g) is not None:
                continue
            m = _random_mask(rng, g.n)
            sub, vmap = induced_subgraph(g, m)
            if not sub.has_any_edge():
                with pytest.raises(DegenerateCliqueError):
                    two_divide(g, m)
                continue
            ref = two_divide(sub)
            got = two_divide(g, m)
            assert got.a == VertexSet.of(g.n, (vmap[i] for i in ref.a))
            assert got.b == VertexSet.of(g.n, (vmap[i] for i in ref.b))
            assert list(got.log) == _lift_log(ref.log, vmap)
            assert verify_two_division(g, got, m) == (True, None)
            checked += 1

    def test_perfect_divide_matches_induced_subgraph(self):
        rng = random.Random(4048)
        checked = quotients = 0
        while checked < 150:
            g = random_graph(rng.randint(3, 7), rng.random(), rng)
            g = twin_substitute(g, rng.randrange(g.n), adjacent=rng.random() < 0.5)
            if find_bull(g) is not None:
                continue
            if find_odd_hole(g) is not None and find_p5(g) is not None:
                continue
            w = WeightFn.of([rng.randint(0, 3) for _ in range(g.n)])
            m = _random_mask(rng, g.n)
            sub, vmap = induced_subgraph(g, m)
            ref = perfect_divide(sub, WeightFn(tuple(w[v] for v in vmap)))
            got = perfect_divide(g, w, m)
            assert got.p == VertexSet.of(g.n, (vmap[i] for i in ref.p))
            assert got.w_side == VertexSet.of(g.n, (vmap[i] for i in ref.w_side))
            assert list(got.log) == _lift_log(ref.log, vmap)
            assert verify_perfect_division(g, w, got, m) == (True, None)
            quotients += any(step["kind"] == "quotient" for step in got.log)
            checked += 1
        assert quotients > 20

    def test_verifiers_reject_parts_outside_within(self, c5):
        m = VertexSet.of(5, [0, 1, 2])
        d = PerfectDivision(VertexSet.of(5, [0, 1, 2]), VertexSet(5))
        assert verify_perfect_division(c5, None, d, m) == (True, None)
        assert verify_perfect_division(c5, None, d)[1] == "parts do not cover the vertex set"
        from graphdiv import TwoDivision

        two = TwoDivision(VertexSet.of(5, [0, 2]), VertexSet.of(5, [1]))
        assert verify_two_division(c5, two, m) == (True, None)
        assert verify_two_division(c5, two, VertexSet.of(5, [0, 1, 2, 3]))[1] == "parts do not cover the vertex set"


class TestOddHoleCache:
    def test_class_check_reuses_the_classify_search(self, monkeypatch):
        # the class check of perfect_divide must hit the hole search that
        # classify already ran on the same graph: no hole or antihole
        # search runs over the whole vertex set again
        g = twin_substitute(cycle_graph(5), 0, adjacent=True)
        whole = []
        original = graphdiv.recognition._first_odd_cycle

        def counted(kind, adj, full, *rest):
            whole.append(full == (1 << g.n) - 1)
            return original(kind, adj, full, *rest)

        monkeypatch.setattr(graphdiv.recognition, "_first_odd_cycle", counted)
        find_odd_hole.cache_clear()
        perfect_divide(g)
        assert whole.count(True) == 1  # the class check's own hole search
        find_odd_hole.cache_clear()
        classify(g)
        whole.clear()
        perfect_divide(g)
        color_via_perfect_division(g)
        assert whole.count(True) == 0


class TestClassCheckCache:
    @pytest.fixture
    def searches(self, monkeypatch):
        """The pattern name of every ``find_induced`` search, in order."""
        calls = []
        original = graphdiv.recognition.find_induced

        def counted(*args):
            calls.append(args[2])
            return original(*args)

        monkeypatch.setattr(graphdiv.recognition, "find_induced", counted)
        for finder in (find_p5, find_c5, find_bull):
            finder.cache_clear()
        return calls

    def test_class_checks_after_classify_do_not_search_again(self, searches):
        # find_p5, find_c5 and find_bull remember the last graph, so the
        # class checks of two_divide and the coloring reuse classify's. This
        # graph has no odd hole, so classify does not search C5 and the
        # class check of two_divide searches it once.
        g = twin_substitute(cycle_graph(4), 0, adjacent=True)
        classify(g)
        two_divide(g)
        color_via_two_division(g)
        assert searches == ["P5", "bull", "C5"]

    def test_perfect_class_checks_after_classify_do_not_search_again(self, searches):
        # a bull-free graph whose shortest odd hole is a C5: classify
        # searches each pattern once, and the class checks of
        # perfect_divide and of every division of the coloring reuse them
        g = twin_substitute(cycle_graph(5), 0, adjacent=True)
        classify(g)
        perfect_divide(g)
        color_via_perfect_division(g)
        assert searches == ["P5", "C5", "bull"]

    def test_two_divide_rejects_with_the_c5_of_classify(self, searches):
        # the shortest odd hole is a C5, so classify searches C5 and the
        # class check of two_divide reuses its witness
        g = twin_substitute(cycle_graph(5), 0, adjacent=False)
        report = classify(g)
        with pytest.raises(NotInClassError) as err:
            two_divide(g)
        assert err.value.witnesses == (report.c5_witness,)
        assert searches == ["P5", "C5", "bull"]


def _in_perfect_divide_class(g):
    return find_bull(g) is None and (find_odd_hole(g) is None or find_p5(g) is None)


def _lifts(g, weights, mask):
    """Every quotient step that ``perfect_divide``'s recursion takes on
    ``g[mask]`` with ``weights``: the contracted set, the weights it is
    lifted under, and the lifted weight."""
    x = find_homogeneous_set(g, VertexSet(g.n, mask))
    if x is None:
        return
    rep = x.members()[0]
    lifted = quotient_by_homogeneous_set(g, WeightFn.of(weights), x, VertexSet(g.n, mask))
    yield x, weights, lifted[rep]
    yield from _lifts(g, lifted.weights, mask & ~x.mask | 1 << rep)
    yield from _lifts(g, weights, x.mask)


def _check_against_both_rules(g, weights, division):
    """The log of ``division`` is the child-rule reference's, and
    ``division`` is the final division of the old pair-closure rule's: the
    choice of homogeneous set changes only the narration. Which contracted
    sets get divided depends on that choice, so the steps are counted only
    against the child-rule reference. Returns the log."""
    log = list(division.log)
    old = naive.perfect_division_log(g, weights, rule=naive.old_rule_homogeneous_set)
    zero = old[0]["zero"]
    p, w = (old[-1]["p"], sorted(old[-1]["w"] + zero)) if len(old) > 1 else ([], zero)
    assert (list(division.p.members()), list(division.w_side.members())) == (p, w), emit_graph6(g)
    assert log == naive.perfect_division_log(g, weights), emit_graph6(g)
    return log


def _replay(g, weights, log):
    """Re-derive every step of the ``perfect_divide`` log of ``g`` under
    ``weights`` through the public step API: each quotient's ``x`` and
    lifted weight, each prime split's chosen vertex and sides, and each
    recombination. A contracted set is replayed only when its
    representative lands on the P side, as it is divided only then."""
    steps = iter(log)
    restrict = next(steps)
    u_mask = sum(1 << v for v in restrict["positive"])
    if u_mask:
        _replay_set(g, WeightFn.of(weights), u_mask, steps)
    assert next(steps, None) is None


def _replay_set(g, w, mask, steps):
    within = VertexSet(g.n, mask)
    step = next(steps)
    x = find_homogeneous_set(g, within)
    if x is None:
        v = find_perfect_nonneighborhood_vertex(g, within)
        p, w_side = VertexSet(g.n, mask & ~g.adj[v]), VertexSet(g.n, mask & g.adj[v])
        assert (step["rule"], step["chosen"]) == ("perfect-non-neighborhood", v)
        assert (step["p"], step["w"]) == (list(p.members()), list(w_side.members()))
        return PerfectDivision(p, w_side, weight=w)
    rep = x.members()[0]
    lifted = quotient_by_homogeneous_set(g, w, x, within)
    assert (step["kind"], step["x"], step["lifted_weight"]) == ("quotient", list(x.members()), lifted[rep])
    q_division = _replay_set(g, lifted, mask & ~x.mask | 1 << rep, steps)
    i_division = None if rep in q_division.w_side else _replay_set(g, w, x.mask, steps)
    combined = recombine(g, w, x, q_division, i_division, within)
    assert combined.log[0] == next(steps)
    return combined


class TestDecompositionDivision:
    """Lifted weights and derivation logs of the division that runs on one
    modular decomposition agree with the slow code they replace."""

    def test_lifted_weights_match_subset_enumeration(self):
        rng = random.Random("decomposition/lifts")
        lifts = 0
        for g in _family_graphs(rng, 240, 3, 12):
            weights = [rng.randint(0, 5) for _ in range(g.n)]
            for mask in ((1 << g.n) - 1, rng.getrandbits(g.n) | rng.getrandbits(g.n)):
                for x, at, lifted in _lifts(g, weights, mask):
                    sub, vmap = induced_subgraph(g, x)
                    assert lifted == naive.max_weight_clique(sub, [at[v] for v in vmap]), (g.adj, mask, x)
                    lifts += 1
        assert lifts > 1000

    def test_logs_match_reference_on_the_criterion_3_graphs(self, levels):
        checked = quotients = 0
        for n in range(1, 9):
            for g in levels[n]:
                if find_bull(g) is not None or (find_odd_hole(g) is not None and find_p5(g) is not None):
                    continue
                rng = random.Random(f"decomposition/{emit_graph6(g)}")
                weights = [rng.randint(0, 5) for _ in range(n)]
                log = _check_against_both_rules(g, weights, perfect_divide(g, WeightFn.of(weights)))
                if n <= 7:
                    _replay(g, weights, log)
                quotients += any(step["kind"] == "quotient" for step in log)
                checked += 1
        assert checked == 4367 and quotients > 2000

    def test_only_sets_whose_representative_lands_on_p_are_divided(self, levels):
        # each divided set ends in one prime split, and a contracted set is
        # divided only in the xhat-in-p case, so a log with a positive set
        # has one base partition more than it has xhat-in-p recombinations
        rng = random.Random("decomposition/base-partitions")
        graphs = [g for n in range(1, 8) for g in levels[n] if _in_perfect_divide_class(g)]
        graphs += [g for g in _family_graphs(rng, 40, 16, 16) if _in_perfect_divide_class(g)]
        cases = Counter()
        for g in graphs:
            for w in (None, WeightFn.of([rng.randint(0, 5) for _ in range(g.n)])):
                log = perfect_divide(g, w).log
                if not log[0]["positive"]:
                    continue
                kinds = Counter(step.get("case", step["kind"]) for step in log)
                assert kinds["base-partition"] == 1 + kinds["xhat-in-p"], emit_graph6(g)
                cases.update(kinds)
        assert len(graphs) == 847 and cases["xhat-in-w"] > 300 and cases["xhat-in-p"] > 4000

    def test_logs_match_reference_on_16_vertex_families(self):
        rng = random.Random("decomposition/reach")
        checked = 0
        for g in _family_graphs(rng, 40, 16, 16):
            if find_bull(g) is not None or (find_odd_hole(g) is not None and find_p5(g) is not None):
                continue
            weights = [rng.randint(0, 5) for _ in range(g.n)]
            for w in (None, weights):
                division = perfect_divide(g, None if w is None else WeightFn.of(w))
                _replay(g, w or [1] * g.n, _check_against_both_rules(g, w or [1] * g.n, division))
                checked += 1
        assert checked >= 40


class TestRelabeling:
    def test_relabeling_preserves_invariants_and_divisions_verify(self):
        # a seeded relabeling keeps omega, chi and the class flags, and
        # every division of the relabeled graph verifies
        rng = random.Random(8192)
        two = perfect = 0
        for _ in range(120):
            g = random_graph(rng.randint(2, 8), rng.random(), rng)
            g = twin_substitute(g, rng.randrange(g.n), adjacent=rng.random() < 0.5)
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert clique_number(h).value == clique_number(g).value
            assert chromatic_number_exact(h)[0] == chromatic_number_exact(g)[0]
            flags = classify(h).to_json()
            assert {k: v for k, v in flags.items() if k != "witnesses"} == {
                k: v for k, v in classify(g).to_json().items() if k != "witnesses"
            }
            if flags["p5_free"] and flags["c5_free"] and h.has_any_edge():
                assert verify_two_division(h, two_divide(h)) == (True, None)
                two += 1
            if flags["bull_free"] and (flags["odd_hole_free"] or flags["p5_free"]):
                w = WeightFn.of([rng.randint(0, 3) for _ in range(h.n)])
                for weights in (None, w):
                    assert verify_perfect_division(h, weights, perfect_divide(h, weights)) == (True, None)
                perfect += 1
        assert two > 20 and perfect > 20


def _twin_substituted_c5():
    """C5 with twins substituted seven times: 12 vertices, bull-free,
    P5-free and imperfect, with quotients at several depths."""
    g = cycle_graph(5)
    for v in range(7):
        g = twin_substitute(g, v, adjacent=v % 2 == 0)
    return g


class TestNoGraphBelowTheBoundary:
    def test_perfect_division_and_coloring_build_no_graph(self, monkeypatch):
        # a Graph is built and validated where it enters the program; the
        # oracles below work on its rows and a vertex set
        g = _twin_substituted_c5()
        report = classify(g)
        assert g.n == 12 and report.bull_free and report.p5_free and not report.perfect
        built = []
        original = Graph.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(Graph, "__post_init__", counted)
        d = perfect_divide(g)
        color_via_perfect_division(g)
        assert any(step["kind"] == "quotient" for step in d.log)
        assert built == []

    @pytest.mark.parametrize(
        "weights, merges, divisions",
        [(None, 6, 10), ([1, 2, 0, 3, 1, 1, 2, 1, 3, 1, 2, 1], 5, 8)],
    )
    def test_perfect_division_decomposes_once_and_keeps_its_checks(self, monkeypatch, weights, merges, divisions):
        # the recursion lifts from the tree it holds and builds no weight
        # function; each quotient still checks its set is homogeneous (on
        # masks), each recombination is verified, and the final check runs
        # when no recombination covered all of the graph (a zero weight).
        # A contracted set is divided only when its representative lands on
        # P: dividing every one took 7 merges and 15 divisions under unit
        # weights and 6 and 13 under the others
        g = _twin_substituted_c5()
        w = None if weights is None else WeightFn.of(weights)
        calls = {"WeightFn": 0}
        for name in ("_decompose", "_verify_perfect_masks", "_is_homogeneous_mask", "_merge", "_divide_all_positive"):
            original = getattr(graphdiv.divisibility, name)
            calls[name] = 0

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(graphdiv.divisibility, name, counted)
        post_init = WeightFn.__post_init__

        def counted_init(self):
            calls["WeightFn"] += 1
            post_init(self)

        monkeypatch.setattr(WeightFn, "__post_init__", counted_init)
        kinds = [step["kind"] for step in perfect_divide(g, w).log]
        # both divisions end in a recombination; the zero weight leaves
        # vertex 2 out of it, so only then is the final check new
        assert kinds[-1] == "recombination"
        final_is_new = weights is not None
        assert calls["_decompose"] == 1
        assert calls["WeightFn"] <= 1
        assert calls["_is_homogeneous_mask"] == kinds.count("quotient") > 2
        assert calls["_verify_perfect_masks"] == kinds.count("recombination") + final_is_new
        assert (calls["_merge"], calls["_divide_all_positive"]) == (merges, divisions)

    def test_perfect_division_and_coloring_call_no_public_step(self, monkeypatch):
        # below its entry the recursion holds only masks: it calls the mask
        # forms that the validating public steps wrap, never those steps
        g = _twin_substituted_c5()

        def refused(*args):
            raise AssertionError("a public step was called below the entry")

        for module in (graphdiv.recognition, graphdiv.divisibility, graphdiv.coloring):
            for name in ("is_perfect", "is_homogeneous", "find_perfect_nonneighborhood_vertex"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refused)
        for w in (None, WeightFn.of([1, 2, 0, 3, 1, 1, 2, 1, 3, 1, 2, 1])):
            kinds = [step["kind"] for step in perfect_divide(g, w).log]
            assert kinds.count("quotient") > 2 and "base-partition" in kinds
        color_via_perfect_division(g)


class TestLogsRenderOnRead:
    """Both constructions store their steps as tuples of ints and masks and
    build member lists only when ``.log`` is read."""

    def test_colorings_render_nothing_and_divide_logs_keep_their_bytes(self, monkeypatch, levels):
        # the criterion-3 graphs (n <= 8) and 16-vertex family graphs in the
        # perfect-division class; the two-division coloring runs on those
        # that are also (P5, C5)-free
        graphs = [g for n in range(1, 9) for g in levels[n] if _in_perfect_divide_class(g)]
        graphs += [
            g for g in _family_graphs(random.Random("logs/render-on-read"), 40, 16, 16) if _in_perfect_divide_class(g)
        ]

        def refused(step):
            raise AssertionError("a coloring rendered a derivation step")

        two = 0
        colorings = []
        with monkeypatch.context() as patched:
            for name in ("_two_step_dict", "_perfect_step_dict"):
                patched.setattr(graphdiv.divisibility, name, refused)
            for g in graphs:
                runs = [color_via_perfect_division]
                if find_p5(g) is None and find_c5(g) is None:
                    runs.append(color_via_two_division)
                    two += 1
                for color in runs:
                    coloring, certificate = color(g)
                    colorings.append([list(coloring.assignment), certificate.to_json()])
        assert (len(graphs), two) == (4402, 2714)
        # both colorings of every graph, as recorded before they recursed
        # on the divisions' mask cores
        assert hashlib.sha256(json.dumps(colorings).encode()).hexdigest()[:16] == "abe511b5b0d7500e"
        # the logs of ``run_divide`` in both modes on the same graphs; the
        # perfect ones are those of ``naive.perfect_division_log``, which
        # divides a contracted set only when its representative lands on P
        ids = graphs_with_ids(graphs)
        logs = [record.get("log") for mode in ("perfect", "two") for record in run_divide(ids, mode)]
        assert sum(log is not None for log in logs) == 7108
        assert hashlib.sha256(json.dumps(logs).encode()).hexdigest()[:16] == "d6bc8f179a01ecf9"


class TestVerifiers:
    def test_two_division_accepts_good(self):
        g = cycle_graph(4)
        d = two_divide(g)
        assert verify_two_division(g, d) == (True, None)

    def test_two_division_rejects_bad_split(self):
        from graphdiv import TwoDivision

        g = cycle_graph(4)
        bad = TwoDivision(VertexSet.of(4, [0, 1]), VertexSet.of(4, [2, 3]))
        ok, reason = verify_two_division(g, bad)
        assert not ok and "clique number of A" in reason

    def test_two_division_rejects_non_partition(self):
        from graphdiv import TwoDivision

        g = cycle_graph(4)
        ok, reason = verify_two_division(g, TwoDivision(VertexSet.of(4, [0]), VertexSet.of(4, [0, 1, 2, 3])))
        assert not ok and reason == "parts overlap"
        ok, reason = verify_two_division(g, TwoDivision(VertexSet.of(4, [0]), VertexSet.of(4, [1])))
        assert not ok and "cover" in reason

    def test_perfect_division_example(self, c5):
        d = PerfectDivision(VertexSet.of(5, [0, 2, 3]), VertexSet.of(5, [1, 4]))
        assert verify_perfect_division(c5, None, d) == (True, None)

    def test_perfect_division_rejects_imperfect_p(self, c5):
        d = PerfectDivision(VertexSet(5, (1 << 5) - 1), VertexSet(5))
        ok, reason = verify_perfect_division(c5, None, d)
        assert not ok and "not perfect" in reason

    def test_perfect_division_rejects_heavy_w(self, c5):
        d = PerfectDivision(VertexSet.of(5, [0]), VertexSet.of(5, [1, 2, 3, 4]))
        ok, reason = verify_perfect_division(c5, None, d)
        assert not ok and "not below" in reason

    def test_perfect_division_reads_weights_last(self, c5):
        # partition and perfection are judged before the weights are read,
        # so wrong-length weights only raise on a division that passes both
        short = WeightFn.unit(3)
        overlapping = PerfectDivision(VertexSet.of(5, [0, 1]), VertexSet.of(5, [1, 2, 3, 4]))
        assert verify_perfect_division(c5, short, overlapping) == (False, "parts overlap")
        uncovered = PerfectDivision(VertexSet.of(5, [0]), VertexSet.of(5, [1, 2]))
        assert verify_perfect_division(c5, short, uncovered) == (False, "parts do not cover the vertex set")
        assert verify_perfect_division(c5, short, PerfectDivision(VertexSet(5, (1 << 5) - 1), VertexSet(5))) == (
            False,
            "P side is not perfect",
        )
        with pytest.raises(ValueError, match="length"):
            verify_perfect_division(c5, short, PerfectDivision(VertexSet.of(5, [0, 2, 3]), VertexSet.of(5, [1, 4])))

    def test_perfect_division_checks_length_then_budget_of_within(self):
        # the weight length is checked first, then the clique budget on all
        # of within, though only the one-vertex W side is searched; within
        # the budget, the W search judges
        g = empty_graph(40)
        d = PerfectDivision(VertexSet.of(40, range(33)), VertexSet.of(40, [33]))
        within = VertexSet.of(40, range(34))
        with pytest.raises(ValueError, match="length"):
            verify_perfect_division(g, WeightFn.unit(3), d, within)
        with pytest.raises(BudgetExceededError, match="clique oracle limited to 32 vertices, asked for 34"):
            verify_perfect_division(g, None, d, within)
        d = PerfectDivision(VertexSet.of(40, range(31)), VertexSet.of(40, [31]))
        assert verify_perfect_division(g, None, d, VertexSet.of(40, range(32))) == (
            False,
            "maximum clique weight of W is 1, not below 1",
        )

    def test_perfect_division_matches_naive_on_moved_vertices(self):
        # each division of a class graph with n <= 6, each division made
        # from it by moving one vertex to the other side, and the division
        # with everything on the P side, is judged as the definitions judge it
        rng = random.Random("verify/moves")
        verdicts = {}
        for n in range(1, 7):
            for g in nonisomorphic_graphs(n):
                if find_bull(g) is not None or (find_odd_hole(g) is not None and find_p5(g) is not None):
                    continue
                for weights in ([1] * n, [rng.randint(0, 3) for _ in range(n)]):
                    d = perfect_divide(g, WeightFn.of(weights))
                    top = naive.max_weight_clique(g, weights)
                    divisions = [(d.p.mask ^ moved, d.w_side.mask ^ moved) for moved in [0] + [1 << v for v in range(n)]]
                    for p, w_side in divisions + [((1 << n) - 1, 0)]:
                        p_sub, _ = induced_subgraph(g, VertexSet(n, p))
                        w_sub, w_map = induced_subgraph(g, VertexSet(n, w_side))
                        side = naive.max_weight_clique(w_sub, [weights[v] for v in w_map])
                        if not naive.is_perfect(p_sub):
                            expected = (False, "P side is not perfect")
                        elif top > 0 and side >= top:
                            expected = (False, f"maximum clique weight of W is {side}, not below {top}")
                        else:
                            expected = (True, None)
                        division = PerfectDivision(VertexSet(n, p), VertexSet(n, w_side))
                        assert verify_perfect_division(g, WeightFn.of(weights), division) == expected, (g.adj, p)
                        clause = expected[1] and expected[1].split()[0]
                        verdicts[clause] = verdicts.get(clause, 0) + 1
        assert verdicts[None] > 2000 and verdicts["maximum"] > 500 and verdicts["P"] >= 12, verdicts


def _c5_host_with_attachment(mask):
    """C5 on 0..4 plus vertex 5 adjacent to the cycle positions in mask."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5) for i in range(5) if mask >> i & 1]
    return Graph.from_edges(6, edges)


class TestClassifyAgainstC5:
    @pytest.mark.parametrize("mask", range(32))
    def test_all_attachment_patterns(self, mask):
        g = _c5_host_with_attachment(mask)
        cycle = tuple(range(5))
        got = classify_against_c5(g, cycle, 5)
        count = mask.bit_count()
        neighbors = [i for i in range(5) if mask >> i & 1]
        if count == 0:
            assert got.kind == "anticenter"
        elif count == 5:
            assert got.kind == "center"
        elif count == 4:
            assert got.kind == "star"
            assert mask >> got.index & 1 == 0
        elif count == 1:
            assert got.kind == "violation"
            assert got.witness.pattern_name == "P5"
            assert embedding_is_valid(g, P5_PATTERN, got.witness)
        elif count == 2:
            i, j = neighbors
            adjacent = (j - i) % 5 in (1, 4)
            if adjacent:
                assert got.kind == "violation"
                assert got.witness.pattern_name == "bull"
                assert embedding_is_valid(g, BULL_PATTERN, got.witness)
            else:
                assert got.kind == "clone"
                # clone index: adjacent to both cycle neighbors, not the others
                assert mask >> (got.index + 1) % 5 & 1
                assert mask >> (got.index - 1) % 5 & 1
        else:
            non = [i for i in range(5) if not mask >> i & 1]
            i, j = non
            adjacent = (j - i) % 5 in (1, 4)
            if adjacent:
                assert got.kind == "clone"
                assert not mask >> (got.index + 2) % 5 & 1
                assert not mask >> (got.index - 2) % 5 & 1
            else:
                assert got.kind == "violation"
                assert got.witness.pattern_name == "bull"
                assert embedding_is_valid(g, BULL_PATTERN, got.witness)

    def test_clone_index_is_the_opposite_position(self):
        # adjacent to positions 1 and 4 exactly: the 0-clone pattern
        g = _c5_host_with_attachment(0b10010)
        got = classify_against_c5(g, tuple(range(5)), 5)
        assert got.kind == "clone" and got.index == 0

    def test_accepts_embedding_input(self, c5):
        g = _c5_host_with_attachment(0b11111)
        emb = find_c5(g)
        assert classify_against_c5(g, emb, 5).kind == "center"

    @pytest.mark.parametrize("mask, pattern", [(0b00001, "P5"), (0b00011, "bull"), (0b01011, "bull")])
    def test_invalid_constructed_witness_is_a_theorem_violation(self, monkeypatch, mask, pattern):
        # one attachment per place a violation witness is built: a P5, a
        # bull on an adjacent neighbor pair, a bull on three neighbors
        monkeypatch.setattr(graphdiv.divisibility, "embedding_is_valid", lambda *args: False)
        with pytest.raises(TheoremViolationError, match=f"constructed {pattern} witness is invalid"):
            classify_against_c5(_c5_host_with_attachment(mask), tuple(range(5)), 5)

    def test_rejects_bad_cycle(self):
        g = _c5_host_with_attachment(0)
        with pytest.raises(ValueError):
            classify_against_c5(g, (0, 2, 1, 3, 4), 5)
        with pytest.raises(ValueError):
            classify_against_c5(g, (0, 1, 2, 3, 4), 0)

    def test_never_violation_on_clean_class_members(self):
        # (P5, bull)-free graphs with an induced C5: every outside vertex
        # must classify into a named category
        rng = random.Random(91)
        checked = 0
        while checked < 25:
            g = random_graph(8, rng.random(), rng)
            if find_p5(g) is not None or find_bull(g) is not None:
                continue
            emb = find_c5(g)
            if emb is None:
                continue
            checked += 1
            outside = set(range(8)) - set(emb.vertices)
            for v in outside:
                got = classify_against_c5(g, emb, v)
                assert got.kind != "violation"

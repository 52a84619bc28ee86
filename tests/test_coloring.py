import random

import pytest

import graphdiv.coloring
import graphdiv.divisibility
import naive
from graphdiv import (
    BULL_PATTERN,
    DegenerateCliqueError,
    NotInClassError,
    TheoremViolationError,
    VertexSet,
    chromatic_number_exact,
    clique_number,
    color_via_perfect_division,
    color_via_two_division,
    complete_graph,
    cycle_graph,
    emit_graph6,
    empty_graph,
    find_bull,
    find_c5,
    find_odd_hole,
    find_p5,
    graphs_with_ids,
    induced_subgraph,
    is_perfect,
    parse_graph6,
    path_graph,
    perfect_divide,
    power_of_two_bound,
    quadratic_bound,
    twin_substitute,
    two_divide,
)
from graphdiv.corpus import nonisomorphic_graphs
from graphdiv.harness import run_color
from graphdiv.report import color_csv


def _division_walk(g):
    """Every set the two-division recursion meets, with its depth and its
    division (None at the leaves, whose clique number is at most 1)."""
    stack = [(VertexSet(g.n, (1 << g.n) - 1), 0)]
    while stack:
        vs, depth = stack.pop()
        d = two_divide(g, vs) if clique_number(g, vs).value > 1 else None
        yield vs, depth, d
        if d is not None:
            stack += [(d.a, depth + 1), (d.b, depth + 1)]


class TestTwoDivisionColoring:
    def test_c4(self):
        coloring, cert = color_via_two_division(cycle_graph(4))
        assert cert.colors_used == 2
        assert cert.bound_value == 2
        assert coloring.is_proper_for(cycle_graph(4))

    def test_bull(self, bull):
        coloring, cert = color_via_two_division(bull)
        assert cert.omega == 3 and cert.bound_value == 4
        assert 3 <= cert.colors_used <= 4
        assert cert.colors_used >= chromatic_number_exact(bull)[0]
        assert coloring.is_proper_for(bull)

    def test_single_vertex(self):
        coloring, cert = color_via_two_division(empty_graph(1))
        assert cert.colors_used == 1 and cert.bound_value == 1

    def test_empty_graph(self):
        coloring, cert = color_via_two_division(empty_graph(0))
        assert cert.colors_used == 0 and cert.bound_value == 0

    def test_rejects_c5(self, c5):
        with pytest.raises(NotInClassError):
            color_via_two_division(c5)

    def test_palette_disjoint_across_division_sides(self, bull):
        # the coloring recursion divides exactly like this walk, so the
        # colors spent inside the two sides of any division must not meet
        coloring, _ = color_via_two_division(bull)

        def colors_in(vs):
            return {coloring.assignment[v] for v in vs}

        for _, _, d in _division_walk(bull):
            if d is not None:
                assert not colors_in(d.a) & colors_in(d.b)

    @pytest.mark.parametrize(
        "g, depth",
        [(cycle_graph(4), 1), (complete_graph(4), 3), (empty_graph(1), 0), (BULL_PATTERN, 2)],
        ids=["C4", "K4", "K1", "bull"],
    )
    def test_division_walk_leaves_and_depth(self, g, depth):
        # the leaves are stable and partition the graph, and each level
        # lowers the clique number, so the depth is omega - 1 at most
        union = 0
        depths = []
        for vs, level, d in _division_walk(g):
            if d is None:
                assert clique_number(g, vs).value <= 1
                assert union & vs.mask == 0
                union |= vs.mask
                depths.append(level)
        assert union == (1 << g.n) - 1
        assert max(depths) == depth <= max(clique_number(g).value - 1, 0)

    def test_small_sweep_within_bound_and_above_chi(self):
        for n in range(1, 7):
            for g in nonisomorphic_graphs(n):
                if find_p5(g) is not None or find_c5(g) is not None:
                    continue
                coloring, cert = color_via_two_division(g)
                assert coloring.is_proper_for(g)
                chi = chromatic_number_exact(g)[0]
                assert chi <= cert.colors_used <= cert.bound_value
                assert cert.bound_value == power_of_two_bound(cert.omega)

    @pytest.mark.parametrize(
        "g",
        [cycle_graph(4), complete_graph(5), BULL_PATTERN, parse_graph6("F?XXw")],
        ids=["C4", "K5", "bull", "two-rules"],
    )
    def test_recursion_stays_on_masks(self, monkeypatch, g):
        # below the coloring, the core divides without verifying and builds
        # no division or vertex set; no division verifier runs, and the
        # clique oracle runs once, for the certificate
        verifiers = [name for name in vars(graphdiv.divisibility) if "verify" in name]
        assert {"verify_two_division", "verify_perfect_division"} <= set(verifiers)
        counts = dict.fromkeys(["_two_divide", "clique_number", "TwoDivision", "VertexSet", *verifiers], 0)

        def counted(name, original):
            def call(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return call

        for module in (graphdiv.divisibility, graphdiv.coloring):
            for name in counts:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        color_via_two_division(g)
        assert counts["_two_divide"] >= 1
        assert {name: counts[name] for name in ("TwoDivision", "VertexSet", *verifiers)} == dict.fromkeys(
            ("TwoDivision", "VertexSet", *verifiers), 0
        )
        assert counts["clique_number"] == 1


class TestPerfectDivisionColoring:
    def test_c5_is_bound_tight(self, c5):
        coloring, cert = color_via_perfect_division(c5)
        assert cert.omega == 2
        assert cert.bound_value == 3
        assert cert.colors_used == 3
        assert coloring.is_proper_for(c5)

    def test_k4(self):
        coloring, cert = color_via_perfect_division(complete_graph(4))
        assert cert.colors_used == 4
        assert cert.bound_value == 10
        assert coloring.is_proper_for(complete_graph(4))

    def test_edgeless(self):
        coloring, cert = color_via_perfect_division(empty_graph(4))
        assert cert.colors_used == 1 and cert.bound_value == 1

    def test_exact_oracle_hits_omega_on_perfect_graphs(self):
        # the fact the P-side coloring relies on: perfect graphs need
        # exactly their clique number of colors
        for n in range(1, 7):
            for g in nonisomorphic_graphs(n):
                if not is_perfect(g):
                    continue
                assert chromatic_number_exact(g)[0] == clique_number(g).value

    def test_perfect_side_gets_exactly_its_omega(self):
        # within one division, the perfect part spends omega(P) colors
        from graphdiv import perfect_divide

        for g in nonisomorphic_graphs(5):
            if find_bull(g) is not None or g.n == 0:
                continue
            if find_odd_hole(g) is not None and find_p5(g) is not None:
                continue
            d = perfect_divide(g)
            sub, _ = induced_subgraph(g, d.p)
            if sub.n:
                assert chromatic_number_exact(sub)[0] == clique_number(sub).value

    def test_rejects_bull(self, bull):
        with pytest.raises(NotInClassError):
            color_via_perfect_division(bull)

    def test_class_hint_is_enforced(self, c5):
        # C5 has an odd hole but no P5, so it is in the class
        _, cert = color_via_perfect_division(c5)
        assert cert.colors_used == 3

    @pytest.mark.parametrize(
        "g, merges",
        [
            (cycle_graph(5), 0),
            (complete_graph(4), 0),
            (twin_substitute(cycle_graph(5), 0, adjacent=True), 2),
            (twin_substitute(twin_substitute(cycle_graph(5), 0, adjacent=True), 2, adjacent=False), 3),
        ],
        ids=["C5", "K4", "C5-true-twin", "C5-two-twins"],
    )
    def test_recursion_verifies_each_division_once(self, monkeypatch, g, merges):
        # the counterpart of the two-division pin: each division the
        # coloring makes is checked once, through the finished coloring's
        # certificate, so no division verifier runs, neither on a division
        # nor on a merge inside it; the clique oracle runs once
        verifiers = [name for name in vars(graphdiv.divisibility) if "verify" in name]
        assert {"verify_two_division", "verify_perfect_division"} <= set(verifiers)
        counts = dict.fromkeys(["_perfect_divide", "_merge", "clique_number", *verifiers], 0)

        def counted(name, original):
            def call(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return call

        for module in (graphdiv.divisibility, graphdiv.coloring):
            for name in counts:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        color_via_perfect_division(g)
        assert counts["_perfect_divide"] >= 1
        assert {name: counts[name] for name in verifiers} == dict.fromkeys(verifiers, 0)
        assert counts["_merge"] == merges
        assert counts["clique_number"] == 1

    def test_small_sweep(self):
        for n in range(1, 7):
            for g in nonisomorphic_graphs(n):
                if find_bull(g) is not None:
                    continue
                if find_odd_hole(g) is not None and find_p5(g) is not None:
                    continue
                coloring, cert = color_via_perfect_division(g)
                assert coloring.is_proper_for(g)
                chi = chromatic_number_exact(g)[0]
                assert chi <= cert.colors_used <= cert.bound_value
                assert cert.bound_value == quadratic_bound(cert.omega)


def _rejection(fn, g):
    """The message and witnesses of the ``NotInClassError`` that ``fn``
    raises, or None when it raises none (an edgeless graph is in both
    classes, and ``two_divide`` refuses it as degenerate)."""
    try:
        fn(g)
    except NotInClassError as exc:
        return str(exc), exc.witnesses
    except DegenerateCliqueError:
        pass
    return None


class TestClassRejection:
    @pytest.mark.parametrize(
        "coloring, divide, rejected",
        [(color_via_two_division, two_divide, 448), (color_via_perfect_division, perfect_divide, 436)],
    )
    def test_colorings_reject_as_their_divisions_do(self, coloring, divide, rejected, levels):
        # every graph outside the class, with n <= 7: the coloring raises
        # the same message with the same witnesses as its division
        count = 0
        for n in range(1, 8):
            for g in levels[n]:
                expected = _rejection(divide, g)
                if expected is None:
                    continue
                assert _rejection(coloring, g) == expected, g.adj
                count += 1
        assert count == rejected

    @pytest.mark.parametrize(
        "coloring, finders, g",
        [
            (color_via_two_division, (find_p5, find_c5), complete_graph(6)),
            (color_via_perfect_division, (find_bull, find_odd_hole), twin_substitute(cycle_graph(5), 0, adjacent=True)),
        ],
        ids=["two", "perfect"],
    )
    def test_colorings_check_their_class_once(self, coloring, finders, g):
        # every later division is of an induced subgraph of the same host,
        # so heredity covers it; count each finder's cache lookups, hits
        # and misses alike
        def lookups():
            return [finder.cache_info().hits + finder.cache_info().misses for finder in finders]

        before = lookups()
        coloring(g)
        assert [after - start for after, start in zip(lookups(), before)] == [1, 1]


def _table(mode, graphs):
    """The CSV lines of ``color --mode mode`` over ``graphs``."""
    return color_csv(run_color(graphs_with_ids(graphs), mode=mode)).splitlines()


class TestAuditBounds:
    def test_rows_for_named_graphs(self, c5):
        assert _table("perfect", [c5])[1] == f"{emit_graph6(c5)},2,3,3,3,0"
        assert _table("two", [cycle_graph(4)])[1] == f"{emit_graph6(cycle_graph(4))},2,2,2,2,0"
        assert _table("two", [complete_graph(3)])[1] == f"{emit_graph6(complete_graph(3))},3,3,3,4,1"

    def test_out_of_class_rows_record_errors(self, c5):
        corpus = [("c5", c5), ("p4", path_graph(4))]
        assert [r["status"] for r in run_color(corpus, mode="two")] == ["class-violation", "ok"]
        assert _table("two", [c5, path_graph(4)])[1:] == [f"{emit_graph6(c5)},,,,,", f"{emit_graph6(path_graph(4))},2,2,2,2,0"]

    def test_csv_shape(self, c5):
        lines = _table("perfect", [c5, complete_graph(3)])
        k3 = emit_graph6(complete_graph(3))
        assert lines == ["id,omega,chi,used,bound,slack", f"{emit_graph6(c5)},2,3,3,3,0", f"{k3},3,3,3,6,3"]

    def test_json_shape(self, c5):
        # the JSON color record carries every CSV column but chi and slack
        record = run_color([("c5", c5)], mode="perfect")[0]
        assert record["certificate"] == {"omega": 2, "kind": "quadratic", "bound": 3, "used": 3}

    @pytest.mark.parametrize(
        "coloring, divide, bound, g, used",
        [
            (color_via_two_division, "two_divide", "power_of_two_bound", complete_graph(3), 3),
            (color_via_perfect_division, "perfect_divide", "quadratic_bound", cycle_graph(5), 3),
        ],
        ids=["two", "perfect"],
    )
    def test_a_failed_certificate_stands_when_every_division_holds(self, monkeypatch, coloring, divide, bound, g, used):
        # with the bound forced to 1 the certificate fails; the coloring
        # reruns the public division on each set it divided, all pass, and
        # the certificate's own error is the one raised
        reruns = []
        original = getattr(graphdiv.coloring, divide)

        def counted(g, within):
            reruns.append(within.mask)
            return original(g, within=within)

        monkeypatch.setattr(graphdiv.coloring, bound, lambda omega: 1)
        monkeypatch.setattr(graphdiv.coloring, divide, counted)
        with pytest.raises(TheoremViolationError, match=f"^division coloring spent {used} colors, above the bound 1$"):
            coloring(g)
        assert reruns[0] == (1 << g.n) - 1 and len(reruns) >= 2

    def test_slack_is_never_negative(self):
        corpus = []
        for n in range(1, 6):
            for g in nonisomorphic_graphs(n):
                if find_p5(g) is None and find_c5(g) is None:
                    corpus.append(g)
        rows = _table("two", corpus)[1:]
        assert len(rows) == len(corpus)
        for row in rows:
            assert "" not in row.split(",")
            assert int(row.split(",")[-1]) >= 0

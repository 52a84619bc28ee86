import json

import pytest

import graphdiv.divisibility
import graphdiv.harness
from graphdiv import (
    GraphDivError,
    cycle_graph,
    path_graph,
    emit_graph6,
    graphs_with_ids,
    parse_graph6,
    scrub_volatile,
    twin_substitute,
)
from graphdiv.corpus import EXHAUSTIVE_LIMIT
from graphdiv.cli import main
from graphdiv.harness import (
    exhaustive_corpus,
    file_corpus,
    random_corpus,
    run_classify,
    run_color,
    run_conjecture,
    run_divide,
    run_verify,
)
from graphdiv.recognition import _decompose
from graphdiv.report import build_report, report_to_json

# The logs that failed self-checks carry, as the division that built member
# lists while it ran recorded them; each step is a plain dict. In "merge"
# the set [4, 7] is not divided: its representative lands on W.
FAILURE_LOGS = {
    "merge": [
        {"kind": "restrict", "positive": [0, 1, 2, 3, 4, 5, 6, 7], "zero": []},
        {"kind": "quotient", "x": [0, 5], "representative": 0, "lifted_weight": 2, "quotient": [0, 1, 2, 3, 4, 6, 7]},
        {"kind": "quotient", "x": [2, 6], "representative": 2, "lifted_weight": 1, "quotient": [0, 1, 2, 3, 4, 7]},
        {"kind": "quotient", "x": [4, 7], "representative": 4, "lifted_weight": 2, "quotient": [0, 1, 2, 3, 4]},
        {"kind": "base-partition", "rule": "perfect-non-neighborhood", "chosen": 0, "rejected": [], "p": [0, 2, 3], "w": [1, 4]},
        {"kind": "recombination", "case": "xhat-in-w", "x": [4, 7], "p": [0, 2, 3], "w": [1, 4, 7]},
        {"kind": "base-partition", "rule": "perfect-non-neighborhood", "chosen": 2, "rejected": [], "p": [2, 6], "w": []},
        {"kind": "recombination", "case": "xhat-in-p", "x": [2, 6], "p": [0, 2, 3, 6], "w": [1, 4, 7]},
    ],
    "prime": [
        {"kind": "restrict", "positive": [0, 1, 2, 3, 4, 5], "zero": []},
        {"kind": "quotient", "x": [0, 5], "representative": 0, "lifted_weight": 2, "quotient": [0, 1, 2, 3, 4]},
    ],
    "two": [
        {"kind": "component-split", "components": [[0], [1, 2, 3, 4, 5, 6]]},
        {"kind": "base-partition", "rule": "stable-component", "a": [0], "b": []},
        {
            "kind": "vertex-choice",
            "rule": "smallest-in-component",
            "v": 1,
            "neighborhood": [4, 5],
            "non_neighborhood": [2, 3, 6],
            "m_components": [[2, 3, 6]],
        },
        {
            "kind": "vertex-choice",
            "rule": "max-neighbors-in-m",
            "uncovered_component": [2, 3, 6],
            "candidates": [{"vertex": 4, "neighbors_in_m": 2}, {"vertex": 5, "neighbors_in_m": 2}],
            "chosen": 4,
        },
        {"kind": "base-partition", "rule": "neighborhood-of-chosen", "a": [1, 2, 5, 6], "b": [3, 4]},
    ],
}


class TestCorpusSpec:
    """The three corpus functions and the arguments they check."""

    def test_exhaustive_n4_has_eleven_graphs(self):
        assert len(list(exhaustive_corpus(4))) == 11

    def test_exhaustive_limit(self):
        with pytest.raises(ValueError):
            exhaustive_corpus(EXHAUSTIVE_LIMIT + 1)

    def test_random_stream_is_seed_deterministic(self):
        first = [emit_graph6(g) for g in random_corpus(6, 0.5, 30, seed=9)]
        second = [emit_graph6(g) for g in random_corpus(6, 0.5, 30, seed=9)]
        assert first == second

    def test_random_stream_stable_under_count_growth(self):
        first = [emit_graph6(g) for g in random_corpus(6, 0.5, 10, seed=9)]
        second = [emit_graph6(g) for g in random_corpus(6, 0.5, 25, seed=9)]
        assert second[: len(first)] == first

    def test_filters_are_conjunctive(self):
        graphs = list(exhaustive_corpus(5, filters=("p5free", "c5free")))
        assert graphs
        from graphdiv import find_c5, find_p5

        for g in graphs:
            assert find_p5(g) is None and find_c5(g) is None

    def test_unknown_filter(self):
        with pytest.raises(ValueError):
            exhaustive_corpus(4, filters=("triangles",))

    def test_starving_filter_raises(self, monkeypatch):
        # every draw at p = 0 or 1 passes every filter, so no filter can
        # starve a real corpus; a zero attempt limit starves any
        assert len(list(random_corpus(5, 1.0, 1, seed=0, filters=("oddholefree",)))) == 1
        monkeypatch.setattr(graphdiv.harness, "MAX_ATTEMPTS_FACTOR", 0)
        with pytest.raises(GraphDivError):
            list(random_corpus(5, 1.0, 1, seed=0, filters=("oddholefree",)))

    def test_file_source_graph6(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("Ch\nDhc\n")
        graphs = list(file_corpus(str(path)))
        assert [g.n for g in graphs] == [4, 5]

    def test_file_source_dimacs(self, tmp_path):
        path = tmp_path / "c5.col"
        path.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
        assert list(file_corpus(str(path))) == [cycle_graph(5)]


class TestDrivers:
    def test_classify_records(self, c5):
        records = run_classify(graphs_with_ids([c5]))
        assert records[0]["status"] == "ok"
        assert records[0]["class"]["c5_free"] is False

    def test_divide_two_on_c5_reports_class_violation(self, c5):
        records = run_divide(graphs_with_ids([c5]), mode="two")
        assert records[0]["status"] == "class-violation"
        assert records[0]["witnesses"][0]["pattern"] == "C5"

    def test_divide_two_ok(self):
        records = run_divide(graphs_with_ids([cycle_graph(4)]), mode="two")
        assert records[0]["status"] == "ok"
        assert records[0]["division"] == {"kind": "two", "a": [0, 2], "b": [1, 3]}
        assert records[0]["verified"] is True

    def test_divide_perfect_with_weights(self, c5):
        records = run_divide(graphs_with_ids([c5]), mode="perfect", weights_spec=[1, 1, 1, 1, 1])
        assert records[0]["status"] == "ok"
        assert records[0]["division"]["p"] == [0, 2, 3]

    def test_per_graph_weights_are_scanned_once_per_run(self, c5):
        class CountedList(list):
            scans = 0

            def __iter__(self):
                self.scans += 1
                return super().__iter__()

        payload = CountedList([[1, 1, 1, 1, 1]] * 5)
        records = run_divide(graphs_with_ids([c5] * 5), mode="perfect", weights_spec=payload)
        assert [r["status"] for r in records] == ["ok"] * 5
        assert payload.scans == 1

    def test_divide_reports_a_failed_self_check(self, monkeypatch):
        graphs = graphs_with_ids([cycle_graph(4)])
        log = run_divide(graphs, mode="two")[0]["log"]
        monkeypatch.setattr(graphdiv.divisibility, "_verify_two_masks", lambda *args: (False, "forced"))
        record = run_divide(graphs, mode="two")[0]
        assert record["status"] == "theorem-violation"
        assert record["error"] == "two-division failed verification: forced"
        assert record["log"] == log

    def test_failed_recombination_reports_the_log_so_far(self, monkeypatch):
        # C5 with twins of 0, 2 and 4 takes several quotients; the second
        # recombination is forced to fail through the mask-level verifier
        # that each merge calls
        g = cycle_graph(5)
        for v in (0, 2, 4):
            g = twin_substitute(g, v, adjacent=v != 2)
        graphs = graphs_with_ids([g])
        log = run_divide(graphs, mode="perfect")[0]["log"]
        original = graphdiv.divisibility._verify_perfect_masks
        calls = []

        def fail_second(*args):
            calls.append(args)
            return (False, "forced") if len(calls) == 2 else original(*args)

        monkeypatch.setattr(graphdiv.divisibility, "_verify_perfect_masks", fail_second)
        record = run_divide(graphs, mode="perfect")[0]
        assert record["status"] == "theorem-violation"
        assert record["error"] == "recombination failed verification: forced"
        kinds = [step["kind"] for step in record["log"]]
        assert kinds[0] == "restrict" and kinds[-1] == "recombination"
        assert kinds.count("recombination") == 2 < [step["kind"] for step in log].count("recombination")
        assert kinds.count("quotient") >= 2
        assert record["log"] == log[: len(kinds)]

    def test_prime_set_without_a_split_reports_its_vertices(self, monkeypatch):
        # C5 with a true twin of 0: the quotient by {0, 5} is the prime C5
        monkeypatch.setattr(graphdiv.divisibility, "_perfect_nonneighborhood_vertex", lambda *args: None)
        g = twin_substitute(cycle_graph(5), 0, adjacent=True)
        record = run_divide(graphs_with_ids([g]), mode="perfect")[0]
        assert record["status"] == "theorem-violation"
        assert record["error"] == "prime graph on [0, 1, 2, 3, 4] has no vertex with perfect non-neighborhood"
        assert [step["kind"] for step in record["log"]] == ["restrict", "quotient"]

    @pytest.mark.parametrize("case", ["homogeneity", "cover"])
    def test_failed_quotient_or_merge_check_is_a_theorem_violation(self, monkeypatch, case):
        # C5 with a true twin of 0 contracts {0, 5}. "homogeneity" names the
        # set {0, 1} instead, which vertex 2 tells apart; "cover" drops
        # vertex 4 from the quotient, so the quotient's division misses it
        g = twin_substitute(cycle_graph(5), 0, adjacent=True)
        original = graphdiv.divisibility._homogeneous_split

        def mutated(root):
            split = original(root)
            if split is None:
                return None
            x_tree, q_tree = split
            if case == "homogeneity":
                return _decompose(g.adj, 0b11), q_tree
            return x_tree, _decompose(g.adj, q_tree.mask & ~(1 << 4))

        monkeypatch.setattr(graphdiv.divisibility, "_homogeneous_split", mutated)
        reason, kinds = {
            "homogeneity": ("x is not a homogeneous set of g", ["restrict"]),
            "cover": (
                "quotient division does not cover the quotient",
                ["restrict", "quotient", "base-partition", "base-partition"],
            ),
        }[case]
        for run in (run_divide, run_color):
            record = run(graphs_with_ids([g]), mode="perfect")[0]
            assert record["status"] == "theorem-violation", run.__name__
            assert record["error"] == f"perfect division failed a self-check: {reason}"
            assert [step["kind"] for step in record["log"]] == kinds

    @pytest.mark.parametrize("case", sorted(FAILURE_LOGS))
    def test_failure_logs_are_plain_dicts_in_divide_and_color(self, monkeypatch, case):
        # "merge": the second merge check of C5 with twins of 0, 2 and 4
        # fails below the top level, so the log is the prefix the recursion
        # puts in front plus the failing recombination; "prime": the
        # quotient C5 of C5 with a true twin finds no split; "two": the
        # final check of a two-division with an isolated vertex and both
        # vertex-choice rules
        def fail_second_call(original):
            calls = []

            def fake(*args):
                calls.append(args)
                return (False, "forced") if len(calls) == 2 else original(*args)

            return fake

        twins = cycle_graph(5)
        for v in (0, 2, 4):
            twins = twin_substitute(twins, v, adjacent=v != 2)
        g, mode, name, fake, error = {
            "merge": (
                twins, "perfect", "_verify_perfect_masks", fail_second_call,
                "recombination failed verification: forced",
            ),
            "prime": (
                twin_substitute(cycle_graph(5), 0, adjacent=True), "perfect", "_perfect_nonneighborhood_vertex",
                lambda original: lambda *args: None,
                "prime graph on [0, 1, 2, 3, 4] has no vertex with perfect non-neighborhood",
            ),
            "two": (
                parse_graph6("F?XXw"), "two", "_verify_two_masks",
                lambda original: lambda *args: (False, "forced"),
                "two-division failed verification: forced",
            ),
        }[case]
        original = getattr(graphdiv.divisibility, name)
        for run in (run_divide, run_color):
            monkeypatch.setattr(graphdiv.divisibility, name, fake(original))
            record = run(graphs_with_ids([g]), mode=mode)[0]
            assert (record["status"], record["error"]) == ("theorem-violation", error)
            assert all(type(step) is dict for step in record["log"])
            assert record["log"] == FAILURE_LOGS[case], run.__name__

    @pytest.mark.parametrize("mode", ["two", "perfect"])
    def test_divide_verifies_each_division_once(self, monkeypatch, mode):
        # C4 and C5 have no homogeneous set, so the division's own final
        # check is the only verifier call; both divisions check on masks
        name = "_verify_two_masks" if mode == "two" else "_verify_perfect_masks"
        calls = []
        original = getattr(graphdiv.divisibility, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (graphdiv.divisibility, graphdiv.harness):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
        g = cycle_graph(4) if mode == "two" else cycle_graph(5)
        assert run_divide(graphs_with_ids([g]), mode=mode)[0]["status"] == "ok"
        assert len(calls) == 1

    @pytest.mark.parametrize("weights", [None, [1, 1, 1, 1, 0, 1]])
    def test_perfect_divide_checks_the_whole_graph_once(self, monkeypatch, weights):
        # C5 with a true twin of 0 has the homogeneous set {0, 5}, so the
        # top level ends in a recombination; with unit weights its check
        # is the final one, with a zero weight the final check is new
        covered = []
        original = graphdiv.divisibility._verify_perfect_masks

        def counted(g, weights, p_mask, w_mask, full):
            covered.append(p_mask | w_mask)
            return original(g, weights, p_mask, w_mask, full)

        monkeypatch.setattr(graphdiv.divisibility, "_verify_perfect_masks", counted)
        g = twin_substitute(cycle_graph(5), 0, adjacent=True)
        record = run_divide(graphs_with_ids([g]), mode="perfect", weights_spec=weights)[0]
        assert record["status"] == "ok"
        assert any(step["kind"] == "quotient" for step in record["log"])
        assert covered.count(0b111111) == 1

    def test_color_records(self):
        records = run_color(graphs_with_ids([cycle_graph(4)]), mode="two")
        record = records[0]
        assert record["status"] == "ok"
        assert record["proper"] and record["within_bound"]
        assert record["certificate"]["used"] == 2

    def test_verify_round_trip(self, c5):
        graphs = graphs_with_ids([cycle_graph(4), c5])
        records = run_divide(graphs, mode="perfect")
        report = build_report("divide", records)
        verified = run_verify(report)
        assert all(r["status"] == "ok" for r in verified)

    def test_verify_flags_tampered_division(self):
        graphs = graphs_with_ids([cycle_graph(4)])
        records = run_divide(graphs, mode="two")
        records[0]["division"]["a"], records[0]["division"]["b"] = (
            [0, 1],
            [2, 3],
        )
        report = build_report("divide", records)
        verified = run_verify(report)
        assert verified[0]["status"] == "verify-failed"

    @pytest.mark.parametrize(
        "run, carried, status",
        [(run_divide, "division", "class-violation"), (run_color, "coloring", "theorem-violation")],
        ids=["divide", "color"],
    )
    def test_verify_fails_a_record_whose_status_contradicts_what_it_carries(self, run, carried, status):
        # only an ok record carries a division or a coloring
        report = build_report(run.__name__[4:], run(graphs_with_ids([cycle_graph(4)]), mode="two"))
        assert run_verify(report)[0]["status"] == "ok"
        report["records"][0]["status"] = status
        verified = run_verify(report)
        assert verified[0]["status"] == "verify-failed"
        assert verified[0]["error"] == f"record carries a {carried} but its status is {status}, not ok"

    def test_verify_respects_graph_restriction(self, c5):
        graphs = graphs_with_ids([cycle_graph(4)])
        records = run_divide(graphs, mode="two")
        report = build_report("divide", records)
        other = graphs_with_ids([c5])
        verified = run_verify(report, other)
        assert verified[0]["status"] == "verify-failed"
        assert "does not appear" in verified[0]["error"]


    def _p3_color_report(self, mode="two"):
        records = run_color(graphs_with_ids([path_graph(3)]), mode=mode)
        assert records[0]["status"] == "ok"
        return build_report("color", records)

    def test_verify_recomputes_the_bound(self):
        # a 3-coloring of P3 with its certificate edited to allow it: omega
        # is 2, so the two-mode bound is 2 whatever the record claims
        report = self._p3_color_report()
        record = report["records"][0]
        record["coloring"] = [0, 1, 2]
        record["certificate"].update(bound=3, used=3)
        verified = run_verify(report)
        assert verified[0]["status"] == "verify-failed"
        assert "above the bound 2" in verified[0]["error"]

    def test_verify_checks_bound_without_certificate(self):
        report = self._p3_color_report()
        record = report["records"][0]
        record["coloring"] = [0, 1, 2]
        del record["certificate"]
        verified = run_verify(report)
        assert verified[0]["status"] == "verify-failed"
        assert "above the bound 2" in verified[0]["error"]

    def test_verify_rejects_a_false_certificate(self):
        report = self._p3_color_report()
        report["records"][0]["certificate"]["omega"] = 3
        verified = run_verify(report)
        assert verified[0]["status"] == "verify-failed"
        assert "disagrees" in verified[0]["error"]

    def test_verify_reads_the_bound_from_the_mode(self):
        # P3 with 3 colors is within the perfect-mode bound 3
        report = self._p3_color_report(mode="perfect")
        record = report["records"][0]
        record["coloring"] = [0, 1, 2]
        del record["certificate"]
        assert run_verify(report)[0]["status"] == "ok"
        record["mode"] = "unknown"
        verified = run_verify(report)
        assert verified[0]["status"] == "verify-failed"
        assert "mode" in verified[0]["error"]

    def test_verify_fails_malformed_division_with_reason(self):
        records = run_divide(graphs_with_ids([cycle_graph(4)]), mode="two")
        del records[0]["division"]["b"]
        verified = run_verify(build_report("divide", records))
        assert verified[0]["status"] == "verify-failed"
        assert verified[0]["error"] == "malformed record: KeyError: 'b'"

    @pytest.mark.parametrize("mode,key", [("two", "a"), ("two", "b"), ("perfect", "p"), ("perfect", "w")])
    def test_verify_fails_a_part_that_lists_a_vertex_twice(self, mode, key):
        # a vertex set would merge the repeat, and K3 = {0, 0} | {1, 2}
        # would verify
        records = run_divide(graphs_with_ids([parse_graph6("Bw")]), mode=mode)
        division = records[0]["division"]
        other = {"a": "b", "b": "a", "p": "w", "w": "p"}[key]
        division[key], division[other] = [0, 0], [1, 2]
        verified = run_verify(build_report("divide", records))
        assert verified[0]["status"] == "verify-failed"
        assert verified[0]["error"] == f"malformed record: ValueError: {key} lists vertex 0 twice"

    def test_verify_fails_malformed_weights_with_reason(self, c5):
        records = run_divide(graphs_with_ids([c5]), mode="perfect")
        records[0]["division"]["weights"] = [1, 1.5, 1, 1, 1]
        verified = run_verify(build_report("divide", records))
        assert verified[0]["status"] == "verify-failed"
        assert verified[0]["error"].startswith("malformed record: ValueError")


    def test_verify_fails_records_without_a_graph(self):
        verified = run_verify({"records": ["x", {"division": {"kind": "two", "a": [], "b": []}}]})
        assert [r["status"] for r in verified] == ["verify-failed", "verify-failed"]
        assert all(r["error"] == "malformed record: no graph6 string" for r in verified)

    @pytest.mark.parametrize("stored", [[1, 2], {"records": {}}, "report", {"schema": 2, "records": []}, {"schema": "1", "records": []}])
    def test_verify_rejects_a_report_of_the_wrong_shape(self, stored):
        with pytest.raises(ValueError):
            run_verify(stored)


class TestWeightPayloads:
    def test_flat_list_with_float_and_bool_is_rejected(self, c5):
        with pytest.raises(ValueError):
            run_divide(graphs_with_ids([c5]), mode="perfect", weights_spec=[1.9, True, 1, 1, 1])

    def test_short_per_graph_list_is_rejected(self, c5):
        graphs = graphs_with_ids([c5, cycle_graph(4)])
        with pytest.raises(ValueError, match="too few"):
            run_divide(graphs, mode="perfect", weights_spec=[[1, 1, 1, 1, 1]])

    def test_mixed_list_is_rejected(self, c5):
        with pytest.raises(ValueError):
            run_divide(graphs_with_ids([c5]), mode="perfect", weights_spec=[[1, 1, 1, 1, 1], 1])

    def test_per_graph_lists(self, c5):
        graphs = graphs_with_ids([c5, cycle_graph(4)])
        records = run_divide(graphs, mode="perfect", weights_spec=[[1, 1, 1, 1, 1], [0, 1, 0, 1]])
        assert [r["status"] for r in records] == ["ok", "ok"]
        assert records[1]["division"]["weights"] == [0, 1, 0, 1]


def _conjecture_report(tmp_path, max_n):
    out = tmp_path / "conjecture.json"
    assert main(["conjecture", "--max-n", str(max_n), "--out", str(out)]) == 0
    return json.loads(out.read_text())


class TestConjecture:
    def test_max_n_5(self, tmp_path):
        from graphdiv import canonical_graph, canonical_key

        report = _conjecture_report(tmp_path, 5)
        assert report["summary"]["counterexamples"] == []
        assert report["summary"]["necessity_violations"] == []
        c5_g6 = emit_graph6(canonical_graph(canonical_key(cycle_graph(5))))
        row = next(r for r in report["records"] if r["graph6"] == c5_g6)
        assert row["odd_hole_free"] is False
        assert row["two_divisible"] is False
        assert row["agrees"] is True

    def test_max_n_1_trivial(self, tmp_path):
        report = _conjecture_report(tmp_path, 1)
        assert report["summary"]["total"] == 1
        assert report["summary"]["counterexamples"] == []


class TestReportEnvelope:
    def test_records_sorted_by_graph6(self, c5):
        graphs = graphs_with_ids([c5, cycle_graph(4)])
        report = build_report("classify", run_classify(graphs))
        keys = [r["graph6"] for r in report["records"]]
        assert keys == sorted(keys)

    def test_scrub_removes_volatile_fields(self):
        report = build_report("classify", [{"graph6": "Ch", "status": "ok", "elapsed_ms": 1.23}])
        scrubbed = scrub_volatile(report)
        assert "timestamp" not in scrubbed
        assert all("elapsed_ms" not in r for r in scrubbed["records"])
        assert json.dumps(scrubbed, sort_keys=True) == json.dumps(
            scrub_volatile(build_report("classify", [{"graph6": "Ch", "status": "ok", "elapsed_ms": 9.87}])),
            sort_keys=True,
        )

    def test_json_layout(self, c5):
        # the same value as an indented dump, ASCII, and one line per record
        graphs = graphs_with_ids([c5, cycle_graph(4), path_graph(4)])
        divided = build_report("divide", run_divide(graphs, mode="perfect"))
        reports = [
            build_report("classify", run_classify(graphs)),
            build_report("divide", run_divide(graphs, mode="two")),
            divided,
            build_report("color", run_color(graphs, mode="perfect")),
            build_report("verify", run_verify(divided)),
            build_report("conjecture", run_conjecture(graphs)),
            build_report("classify", []),
        ]
        for report in reports:
            text = report_to_json(report)
            assert json.loads(text) == json.loads(json.dumps(report, indent=2, sort_keys=True))
            assert text.isascii() and text.endswith("}\n")
            lines = text.splitlines()
            assert len(lines) == len(report["records"]) + len(report) + 3
            start = lines.index('  "records": [') + 1
            for line, record in zip(lines[start:], report["records"]):
                assert json.loads(line.strip().rstrip(",")) == record

import hashlib
import json
import random
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import graphdiv.coloring
import graphdiv.divisibility
import graphdiv.harness
from graphdiv import (
    BULL_PATTERN,
    canonical_graph,
    canonical_key,
    complete_graph,
    cycle_graph,
    emit_graph6,
    path_graph,
    random_graph,
    scrub_volatile,
    twin_substitute,
)
from graphdiv.cli import (
    EXIT_BUDGET_EXCEEDED,
    EXIT_CLASS_VIOLATION,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_THEOREM_VIOLATION,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from graphdiv.recognition import _decompose


_C5 = emit_graph6(cycle_graph(5))
_LONG = "x" * 5000


def _write_g6(path, *graphs):
    path.write_text("".join(emit_graph6(g) + "\n" for g in graphs))


def _load(path):
    return json.loads(path.read_text())


class TestClassify:
    def test_exhaustive_run(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["classify", "--exhaustive", "4", "--out", str(out)])
        assert code == EXIT_OK
        report = _load(out)
        assert report["schema"] == 1
        assert report["summary"]["total"] == 11
        assert all("class" in r for r in report["records"])

    def test_filter_flags(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["classify", "--exhaustive", "5", "--filter", "bullfree,p5free", "--out", str(out)]
        )
        assert code == EXIT_OK
        for record in _load(out)["records"]:
            assert record["class"]["bull_free"] and record["class"]["p5_free"]

    def test_file_input(self, tmp_path):
        src = tmp_path / "in.g6"
        _write_g6(src, path_graph(4), cycle_graph(5))
        out = tmp_path / "report.json"
        assert main(["classify", "--in", str(src), "--out", str(out)]) == EXIT_OK
        assert _load(out)["summary"]["total"] == 2

    def test_dimacs_input(self, tmp_path):
        src = tmp_path / "c5.col"
        src.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
        out = tmp_path / "report.json"
        assert main(["classify", "--in", str(src), "--out", str(out)]) == EXIT_OK
        record = _load(out)["records"][0]
        assert record["class"]["c5_free"] is False

    def test_random_above_the_clique_budget_is_a_usage_error(self, tmp_path, capsys):
        # refused from the arguments alone, before any graph is drawn
        start = time.perf_counter()
        assert main(["classify", "--random", "6000,0.5,1"]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        assert "at most 32 vertices, not 6000" in capsys.readouterr().err
        out = tmp_path / "report.json"
        assert main(["classify", "--random", "32,0.5,1", "--out", str(out)]) == EXIT_BUDGET_EXCEEDED
        assert _load(out)["summary"]["total"] == 1

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["--exhaustive", "4", "--filter", _LONG], "unknown class filter"),
            (["--random", f"5,{_LONG},2"], "--random"),
            (["--random", f"{_LONG},0.5,2"], "--random"),
            (["--random", f"5,0.5,{_LONG}"], "--random"),
            (["--random", f"5,0.5,2,{_LONG}"], "--random"),
        ],
        ids=["filter", "random-p", "random-n", "random-count", "random-fourth-field"],
    )
    def test_long_corpus_values_are_not_echoed_whole(self, capsys, argv, shown):
        assert main(["classify", *argv]) == EXIT_USAGE
        message = capsys.readouterr().err
        assert len(message) < 200
        assert shown in message

    @pytest.mark.parametrize("option", ["--seed", "--budget-ms", "--mode"])
    def test_argparse_quotes_its_own_type_and_choice_errors_whole(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["divide", "--exhaustive", "4", option, _LONG])
        assert exc.value.code == EXIT_USAGE
        assert _LONG in capsys.readouterr().err

    def test_starving_filter_mid_drive_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # the corpus is drawn while records are driven, so its failure
        # arrives after the run has started and must still write nothing
        monkeypatch.setattr(graphdiv.harness, "MAX_ATTEMPTS_FACTOR", 0)
        out = tmp_path / "report.json"
        code = main(["classify", "--random", "5,1.0,2", "--filter", "oddholefree", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "class filter rejected every draw within 0 attempts" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_failure_exit(self, tmp_path, capsys):
        src = tmp_path / "bad.g6"
        src.write_text("D\n")
        assert main(["classify", "--in", str(src)]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exit(self, tmp_path):
        assert main(["classify", "--in", str(tmp_path / "nope.g6")]) == EXIT_PARSE


class TestDivide:
    def test_class_violation_exit_and_witness(self, tmp_path):
        src = tmp_path / "c5.g6"
        _write_g6(src, cycle_graph(5))
        out = tmp_path / "report.json"
        code = main(["divide", "--mode", "two", "--in", str(src), "--out", str(out)])
        assert code == EXIT_CLASS_VIOLATION
        record = _load(out)["records"][0]
        assert record["status"] == "class-violation"
        assert record["witnesses"][0]["pattern"] == "C5"

    def test_two_mode_ok(self, tmp_path):
        src = tmp_path / "c4.g6"
        _write_g6(src, cycle_graph(4))
        out = tmp_path / "report.json"
        assert main(["divide", "--mode", "two", "--in", str(src), "--out", str(out)]) == EXIT_OK
        record = _load(out)["records"][0]
        assert record["division"] == {"kind": "two", "a": [0, 2], "b": [1, 3]}

    def test_failed_self_check_in_the_recursion_exits_5(self, tmp_path, monkeypatch):
        # C5 with a true twin of 0: a split that names {0, 1}, which vertex
        # 2 tells apart, fails the quotient's homogeneity check
        g = twin_substitute(cycle_graph(5), 0, adjacent=True)
        monkeypatch.setattr(graphdiv.divisibility, "_homogeneous_split", lambda root: (_decompose(g.adj, 0b11), root))
        src = tmp_path / "twin.g6"
        _write_g6(src, g)
        out = tmp_path / "report.json"
        assert main(["divide", "--mode", "perfect", "--in", str(src), "--out", str(out)]) == EXIT_THEOREM_VIOLATION
        record = _load(out)["records"][0]
        assert record["status"] == "theorem-violation"
        assert record["error"] == "perfect division failed a self-check: x is not a homogeneous set of g"

    def test_perfect_mode_with_weight_file(self, tmp_path):
        src = tmp_path / "c5.g6"
        _write_g6(src, cycle_graph(5))
        weights = tmp_path / "weights.json"
        weights.write_text("[2, 1, 1, 1, 1]")
        out = tmp_path / "report.json"
        code = main(
            ["divide", "--mode", "perfect", "--in", str(src), "--weights", str(weights), "--out", str(out)]
        )
        assert code == EXIT_OK
        record = _load(out)["records"][0]
        assert record["division"]["kind"] == "perfect"
        assert record["division"]["weights"] == [2, 1, 1, 1, 1]

    @pytest.mark.parametrize(
        "payload", ["[1.9, true, 1]", "[[2, 1, 1, 1, 1]]", "{}", pytest.param("[" * 200000, id="deeply-nested")]
    )
    def test_bad_weight_file_is_a_usage_error(self, tmp_path, capsys, payload):
        # a float, a bool, a per-graph list shorter than the corpus (two
        # graphs here), a non-list and JSON nested past the parser's depth
        # all exit 2 with a message
        src = tmp_path / "two.g6"
        _write_g6(src, cycle_graph(5), cycle_graph(4))
        weights = tmp_path / "weights.json"
        weights.write_text(payload)
        code = main(["divide", "--mode", "perfect", "--in", str(src), "--weights", str(weights)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("graphdiv: ")

    def test_weight_file_in_two_mode_is_a_usage_error(self, tmp_path, capsys):
        src = tmp_path / "c4.g6"
        _write_g6(src, cycle_graph(4))
        weights = tmp_path / "weights.json"
        weights.write_text("[1.5, true]")
        code = main(["divide", "--mode", "two", "--in", str(src), "--weights", str(weights)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "graphdiv: --weights applies to --mode perfect only\n"

    def test_filter_runs_only_the_finders_it_names(self, tmp_path):
        # p5free and c5free need no hole search, so 20 vertices are past no
        # budget
        out = tmp_path / "report.json"
        code = main(
            ["divide", "--mode", "two", "--random", "20,0.1,2", "--filter", "p5free,c5free", "--seed", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert [r["status"] for r in _load(out)["records"]] == ["ok", "ok"]

    def test_hole_filter_keeps_the_perfection_budget(self, capsys):
        code = main(["divide", "--mode", "two", "--random", "20,0.1,2", "--filter", "oddholefree", "--seed", "1"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "graphdiv: odd-hole search limited to 16 vertices, asked for 20\n"

    def test_budget_ms_flag(self, tmp_path):
        src = tmp_path / "c4.g6"
        _write_g6(src, cycle_graph(4))
        out = tmp_path / "report.json"
        code = main(
            ["divide", "--mode", "two", "--in", str(src), "--budget-ms", "0", "--out", str(out)]
        )
        assert code == EXIT_BUDGET_EXCEEDED
        assert _load(out)["records"][0]["status"] == "budget-exceeded"

    @pytest.mark.parametrize("value, shown", [("-5", "-5.0"), ("nan", "nan")])
    def test_budget_ms_below_zero_or_nan_is_a_usage_error(self, capsys, value, shown):
        code = main(["divide", "--mode", "two", "--exhaustive", "4", "--budget-ms", value])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"graphdiv: --budget-ms must be a number >= 0, not {shown}\n"


class TestColor:
    def test_perfect_mode_sweep(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "color",
                "--mode",
                "perfect",
                "--exhaustive",
                "7",
                "--filter",
                "bullfree,p5free",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        report = _load(out)
        assert report["summary"]["total"] > 0
        for record in report["records"]:
            certificate = record["certificate"]
            omega = certificate["omega"]
            assert certificate["used"] <= omega * (omega + 1) // 2

    @pytest.mark.parametrize(
        "mode, graph, witness",
        [
            ("two", cycle_graph(5), {"pattern": "C5", "vertices": [0, 1, 2, 3, 4]}),
            ("perfect", BULL_PATTERN, {"pattern": "bull", "vertices": [0, 1, 2, 3, 4]}),
        ],
    )
    def test_class_violation_exit_and_witness(self, tmp_path, mode, graph, witness):
        src = tmp_path / "in.g6"
        _write_g6(src, graph)
        out = tmp_path / "report.json"
        code = main(["color", "--mode", mode, "--in", str(src), "--out", str(out)])
        assert code == EXIT_CLASS_VIOLATION
        record = _load(out)["records"][0]
        assert record["status"] == "class-violation"
        assert record["witnesses"] == [witness]

    def test_csv_audit(self, tmp_path):
        out = tmp_path / "audit.csv"
        code = main(["color", "--mode", "two", "--exhaustive", "4", "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "id,omega,chi,used,bound,slack"
        assert len(lines) == 12  # header + the 11 classes on 4 vertices

    def _csv(self, tmp_path, mode, graph, *extra):
        src = tmp_path / "in.g6"
        _write_g6(src, graph)
        out = tmp_path / "table.csv"
        code = main(["color", "--mode", mode, "--in", str(src), "--format", "csv", "--out", str(out), *extra])
        return code, out.read_text().splitlines()

    def test_csv_class_violation_exit(self, tmp_path, c5):
        code, lines = self._csv(tmp_path, "two", c5)
        assert code == EXIT_CLASS_VIOLATION
        assert lines[1] == f"{emit_graph6(c5)},,,,,"

    def test_csv_theorem_violation_exit(self, tmp_path, monkeypatch):
        # a core that returns the whole set or an empty side as A, or an
        # empty P side, ends in theorem-violation, never in a RecursionError
        cases = [
            ("two", "_two_divide", cycle_graph(4), lambda full: full),
            ("two", "_two_divide", cycle_graph(4), lambda full: 0),
            ("perfect", "_perfect_divide", cycle_graph(5), lambda full: 0),
        ]
        for mode, name, g, pick in cases:
            original = getattr(graphdiv.divisibility, name)

            def bad(g, *args, _original=original, _pick=pick):
                return _pick(args[-1]), _original(g, *args)[1]

            for module in (graphdiv.divisibility, graphdiv.coloring):
                monkeypatch.setattr(module, name, bad)
            code, lines = self._csv(tmp_path, mode, g)
            assert code == EXIT_THEOREM_VIOLATION, (mode, lines)
            assert lines[1] == f"{emit_graph6(g)},,,,,"
            monkeypatch.undo()

    def test_csv_budget_ms(self, tmp_path):
        code, lines = self._csv(tmp_path, "two", cycle_graph(4), "--budget-ms", "0.000001")
        assert code == EXIT_BUDGET_EXCEEDED
        assert lines[1] == f"{emit_graph6(cycle_graph(4))},2,2,2,2,0"

    # First 16 hex digits of the sha256 of the CSV bytes, and the line count.
    @pytest.mark.parametrize(
        "mode, flags, digest, lines",
        [
            ("two", "p5free,c5free", "f63759af46711e6e", 131),
            ("perfect", "bullfree,p5free", "7c1f811aad8b4875", 122),
        ],
    )
    def test_csv_golden_digest(self, tmp_path, mode, flags, digest, lines):
        out = tmp_path / "table.csv"
        code = main(["color", "--mode", mode, "--exhaustive", "6", "--filter", flags, "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest
        assert len(data.splitlines()) == lines

    def test_csv_chi_blank_above_its_budget(self, tmp_path):
        # only chi's 16-vertex oracle budget is exceeded; the coloring is ok
        k17 = complete_graph(17)
        code, lines = self._csv(tmp_path, "two", k17)
        assert code == EXIT_OK
        assert lines[1] == f"{emit_graph6(k17)},17,,17,65536,65519"


class TestVerify:
    def test_round_trip(self, tmp_path):
        src = tmp_path / "c4.g6"
        _write_g6(src, cycle_graph(4))
        division_report = tmp_path / "divisions.json"
        assert (
            main(["divide", "--mode", "two", "--in", str(src), "--out", str(division_report)])
            == EXIT_OK
        )
        out = tmp_path / "verify.json"
        code = main(
            ["verify", "--division", str(division_report), "--graph", str(src), "--out", str(out)]
        )
        assert code == EXIT_OK
        assert all(r["verified"] for r in _load(out)["records"])

    def test_tampered_report_fails(self, tmp_path):
        src = tmp_path / "c4.g6"
        _write_g6(src, cycle_graph(4))
        division_report = tmp_path / "divisions.json"
        main(["divide", "--mode", "two", "--in", str(src), "--out", str(division_report)])
        payload = _load(division_report)
        payload["records"][0]["division"]["a"] = [0, 1]
        payload["records"][0]["division"]["b"] = [2, 3]
        division_report.write_text(json.dumps(payload))
        assert main(["verify", "--division", str(division_report)]) == EXIT_VERIFY_FAILED


    def test_malformed_record_fails_verification(self, tmp_path):
        src = tmp_path / "c4.g6"
        _write_g6(src, cycle_graph(4))
        division_report = tmp_path / "divisions.json"
        main(["divide", "--mode", "two", "--in", str(src), "--out", str(division_report)])
        payload = _load(division_report)
        del payload["records"][0]["division"]["b"]
        division_report.write_text(json.dumps(payload))
        out = tmp_path / "verify.json"
        assert main(["verify", "--division", str(division_report), "--out", str(out)]) == EXIT_VERIFY_FAILED
        record = _load(out)["records"][0]
        assert record["status"] == "verify-failed"
        assert record["error"] == "malformed record: KeyError: 'b'"

    def test_edited_certificate_fails_verification(self, tmp_path):
        src = tmp_path / "p3.g6"
        _write_g6(src, path_graph(3))
        color_report = tmp_path / "colors.json"
        assert main(["color", "--mode", "two", "--in", str(src), "--out", str(color_report)]) == EXIT_OK
        payload = _load(color_report)
        payload["records"][0]["coloring"] = [0, 1, 2]
        payload["records"][0]["certificate"].update(bound=3, used=3)
        color_report.write_text(json.dumps(payload))
        assert main(["verify", "--division", str(color_report)]) == EXIT_VERIFY_FAILED

    def test_unparsable_graph6_fails_only_its_record(self, tmp_path):
        src = tmp_path / "c4.g6"
        _write_g6(src, cycle_graph(4))
        division_report = tmp_path / "divisions.json"
        main(["divide", "--mode", "two", "--in", str(src), "--out", str(division_report)])
        payload = _load(division_report)
        bad = dict(payload["records"][0], graph6="??")
        payload["records"].append(bad)
        division_report.write_text(json.dumps(payload))
        out = tmp_path / "verify.json"
        assert main(["verify", "--division", str(division_report), "--out", str(out)]) == EXIT_VERIFY_FAILED
        records = {r["graph6"]: r for r in _load(out)["records"]}
        assert records[emit_graph6(cycle_graph(4))]["status"] == "ok"
        assert records["??"]["status"] == "verify-failed"
        assert records["??"]["error"].startswith("malformed record: ParseError: ")

    @pytest.mark.parametrize(
        "entries",
        [
            {"mode": "perfect", "coloring": [0, 1, 0, 1, "x"]},
            {"mode": "perfect", "coloring": [0, 1, 0, 1, 2.0]},
            {"mode": "perfect", "coloring": [0, True, 0, True, 2]},
            {"mode": "perfect", "coloring": [0, 1, 0, 1, -1]},
            {"mode": "perfect", "coloring": "01012"},
            {"division": {"kind": "perfect", "p": [0, 2, 3], "w": [True, 4], "weights": None}},
        ],
        ids=["string-color", "float-color", "bool-colors", "negative-color", "string-coloring", "bool-vertex"],
    )
    def test_non_integer_entries_fail_verification(self, tmp_path, entries):
        # each record holds on C5 if its entries are taken at their word
        stored = tmp_path / "stored.json"
        stored.write_text(json.dumps({"records": [{"graph6": emit_graph6(cycle_graph(5)), **entries}]}))
        out = tmp_path / "verify.json"
        assert main(["verify", "--division", str(stored), "--out", str(out)]) == EXIT_VERIFY_FAILED
        record = _load(out)["records"][0]
        assert record["status"] == "verify-failed"
        assert record["error"].startswith("malformed record: ")

    def test_class_violation_records_of_a_divide_report_verify(self, tmp_path):
        # the corpus holds the edgeless graph on 7 vertices, which two_divide
        # refuses as degenerate; verify runs two_divide on it again
        report = tmp_path / "t7.json"
        argv = ["divide", "--mode", "two", "--exhaustive", "7", "--filter", "p5free,c5free", "--out", str(report)]
        assert main(argv) == EXIT_CLASS_VIOLATION
        out = tmp_path / "verify.json"
        assert main(["verify", "--division", str(report), "--out", str(out)]) == EXIT_OK
        records = _load(out)["records"]
        assert (len(records), sum(r["status"] == "ok" for r in records)) == (624, 624)

    @pytest.mark.parametrize("mode, graph", [("perfect", BULL_PATTERN), ("two", cycle_graph(5))], ids=["bull", "c5"])
    def test_class_violation_records_of_a_color_report_verify(self, tmp_path, mode, graph):
        src = tmp_path / "in.g6"
        _write_g6(src, graph)
        report = tmp_path / "color.json"
        assert main(["color", "--mode", mode, "--in", str(src), "--out", str(report)]) == EXIT_CLASS_VIOLATION
        assert _load(report)["records"][0]["witnesses"]
        assert main(["verify", "--division", str(report)]) == EXIT_OK

    def test_class_violation_record_with_a_reversed_witness_fails(self, tmp_path):
        src = tmp_path / "bull.g6"
        _write_g6(src, BULL_PATTERN)
        report = tmp_path / "color.json"
        main(["color", "--mode", "perfect", "--in", str(src), "--out", str(report)])
        payload = _load(report)
        payload["records"][0]["witnesses"][0]["vertices"].reverse()
        report.write_text(json.dumps(payload))
        out = tmp_path / "verify.json"
        assert main(["verify", "--division", str(report), "--out", str(out)]) == EXIT_VERIFY_FAILED
        assert _load(out)["records"][0]["error"] == (
            "stored 'witnesses' field does not match the graph's [{'pattern': 'bull', 'vertices': [0, 1, 2, 3, 4]}]"
        )

    def test_class_violation_status_on_an_in_class_graph_fails(self, tmp_path):
        src = tmp_path / "c4.g6"
        _write_g6(src, cycle_graph(4))
        report = tmp_path / "color.json"
        assert main(["color", "--mode", "two", "--in", str(src), "--out", str(report)]) == EXIT_OK
        payload = _load(report)
        record = payload["records"][0]
        for key in ("coloring", "certificate", "proper", "within_bound"):
            del record[key]
        record.update(status="class-violation", error="graph contains an induced C5", witnesses=[])
        report.write_text(json.dumps(payload))
        out = tmp_path / "verify.json"
        assert main(["verify", "--division", str(report), "--out", str(out)]) == EXIT_VERIFY_FAILED
        assert _load(out)["records"][0]["error"] == "color --mode two ends in ok on this graph, not in class-violation"

    def test_class_violation_status_on_a_division_record_fails(self, tmp_path):
        # the record keeps its division, so its stated status contradicts it
        src = tmp_path / "c4.g6"
        _write_g6(src, cycle_graph(4))
        report = tmp_path / "divide.json"
        assert main(["divide", "--mode", "two", "--in", str(src), "--out", str(report)]) == EXIT_OK
        payload = _load(report)
        payload["records"][0]["status"] = "class-violation"
        report.write_text(json.dumps(payload))
        out = tmp_path / "verify.json"
        assert main(["verify", "--division", str(report), "--out", str(out)]) == EXIT_VERIFY_FAILED
        assert _load(out)["records"][0]["error"] == "record carries a division but its status is class-violation, not ok"

    @pytest.mark.parametrize("command, mode", [(None, "two"), ("classify", "two"), ("color", "three"), ("color", None)])
    def test_class_violation_record_of_no_known_call_fails(self, tmp_path, command, mode):
        record = {"graph6": _C5, "status": "class-violation", "error": "graph contains an induced C5"}
        if mode is not None:
            record["mode"] = mode
        report = {"records": [record]}
        if command is not None:
            report["command"] = command
        stored = tmp_path / "stored.json"
        stored.write_text(json.dumps(report))
        out = tmp_path / "verify.json"
        assert main(["verify", "--division", str(stored), "--out", str(out)]) == EXIT_VERIFY_FAILED
        assert _load(out)["records"][0]["error"].startswith("class-violation record of no known command and mode")

    def test_deeply_nested_report_is_a_usage_error(self, tmp_path, capsys):
        stored = tmp_path / "report.json"
        stored.write_text("[" * 200000)
        assert main(["verify", "--division", str(stored)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"graphdiv: {stored} nests JSON too deeply\n"

    @pytest.mark.parametrize(
        "field, report",
        [
            ("mode", {"records": [{"graph6": _C5, "mode": _LONG, "coloring": [0, 1, 0, 1, 2]}]}),
            ("coloring", {"records": [{"graph6": _C5, "mode": "perfect", "coloring": [0, 1, 0, 1, _LONG]}]}),
            (
                "certificate",
                {"records": [{"graph6": _C5, "mode": "perfect", "coloring": [0, 1, 0, 1, 2], "certificate": _LONG}]},
            ),
            ("kind", {"records": [{"graph6": _C5, "division": {"kind": _LONG}}]}),
            ("schema", {"schema": _LONG, "records": []}),
        ],
        ids=["mode", "coloring-entry", "certificate", "division-kind", "schema"],
    )
    def test_long_values_are_not_echoed_whole(self, tmp_path, capsys, field, report):
        stored = tmp_path / "stored.json"
        stored.write_text(json.dumps(report))
        out = tmp_path / "verify.json"
        code = main(["verify", "--division", str(stored), "--out", str(out)])
        if field == "schema":
            assert code == EXIT_USAGE
            message = capsys.readouterr().err
        else:
            assert code == EXIT_VERIFY_FAILED
            message = _load(out)["records"][0]["error"]
        assert len(message) < 200
        assert field in message

    def test_other_schema_is_a_usage_error(self, tmp_path, capsys):
        stored = tmp_path / "report.json"
        stored.write_text(json.dumps({"schema": 99, "records": []}))
        assert main(["verify", "--division", str(stored)]) == EXIT_USAGE
        assert "schema 99" in capsys.readouterr().err


class TestUnreadableFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--in", "{dir}"],
            ["verify", "--division", "{dir}"],
            ["divide", "--mode", "perfect", "--exhaustive", "3", "--weights", "{dir}"],
        ],
    )
    def test_directory_cannot_be_read(self, tmp_path, capsys, argv):
        assert main([arg.format(dir=tmp_path) for arg in argv]) == EXIT_PARSE
        assert f"cannot read {tmp_path}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--division", "{file}"],
            ["divide", "--mode", "perfect", "--exhaustive", "3", "--weights", "{file}"],
        ],
        ids=["report", "weights"],
    )
    @pytest.mark.parametrize(
        "payload, reason",
        [
            (b"[1, 2", "Expecting ',' delimiter: line 1 column 6 (char 5)"),
            (b"\xff[]", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ],
        ids=["truncated", "not-utf-8"],
    )
    def test_file_that_is_not_json_is_a_usage_error_that_names_it(self, tmp_path, capsys, argv, payload, reason):
        path = tmp_path / "input.json"
        path.write_bytes(payload)
        assert main([arg.format(file=path) for arg in argv]) == EXIT_USAGE
        assert capsys.readouterr().err == f"graphdiv: {path} is not JSON: {reason}\n"

    def test_out_in_a_missing_directory_cannot_be_written(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert main(["classify", "--exhaustive", "3", "--out", str(out)]) == EXIT_USAGE
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_non_ascii_graph6_is_a_parse_error(self, tmp_path, capsys):
        src = tmp_path / "bad.g6"
        src.write_bytes(b"D\xc3\xa9\n")
        assert main(["classify", "--in", str(src)]) == EXIT_PARSE
        assert "parse error (range)" in capsys.readouterr().err


class TestConjectureCommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "conjecture.json"
        code = main(["conjecture", "--max-n", "5", "--out", str(out)])
        assert code == EXIT_OK
        report = _load(out)
        assert report["summary"]["counterexamples"] == []
        assert report["seed"] is None

    def test_seed_is_a_usage_error(self, capsys):
        # the sweep draws nothing at random, so it takes no seed
        with pytest.raises(SystemExit) as exc:
            main(["conjecture", "--max-n", "5", "--seed", "1"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def _sweep(self, tmp_path):
        out = tmp_path / "conjecture.json"
        code = main(["conjecture", "--max-n", "5", "--out", str(out)])
        return code, _load(out)["summary"]

    def test_counterexample_exit(self, tmp_path, monkeypatch):
        # with no odd hole found anywhere, C5 reads as odd-hole-free but not 2-divisible
        monkeypatch.setattr(graphdiv.harness, "find_odd_hole", lambda *args: None)
        code, summary = self._sweep(tmp_path)
        assert code == EXIT_VERIFY_FAILED
        assert summary["counterexamples"] == [emit_graph6(canonical_graph(canonical_key(cycle_graph(5))))]
        assert summary["necessity_violations"] == []

    def test_necessity_violation_exit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graphdiv.harness, "is_two_divisible_oracle", lambda *args: (True, None))
        code, summary = self._sweep(tmp_path)
        assert code == EXIT_THEOREM_VIOLATION
        assert summary["necessity_violations"] == [emit_graph6(canonical_graph(canonical_key(cycle_graph(5))))]
        assert summary["counterexamples"] == []

    def test_max_n_above_the_limit_fails_at_once(self):
        started = time.perf_counter()
        assert main(["conjecture", "--max-n", "10"]) == EXIT_USAGE
        assert time.perf_counter() - started < 1.0

    def test_max_n_zero_is_a_usage_error(self, capsys):
        assert main(["conjecture", "--max-n", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err == "graphdiv: --max-n must be between 1 and 9, not 0\n"


class TestExitPrecedence:
    def test_worst_status_wins(self):
        from graphdiv.cli import EXIT_THEOREM_VIOLATION, _exit_code

        records = [{"status": s} for s in ("ok", "verify-failed", "budget-exceeded")]
        assert _exit_code(records) == EXIT_BUDGET_EXCEEDED
        records.append({"status": "class-violation"})
        assert _exit_code(records) == EXIT_CLASS_VIOLATION
        records.append({"status": "theorem-violation"})
        assert _exit_code(records) == EXIT_THEOREM_VIOLATION
        assert _exit_code([{"status": "ok"}]) == EXIT_OK


class TestDeterminism:
    def test_identical_seeds_identical_reports(self, tmp_path):
        args = ["classify", "--random", "6,0.5,25", "--seed", "11"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(args + ["--out", str(first)]) == EXIT_OK
        assert main(args + ["--out", str(second)]) == EXIT_OK
        a = json.dumps(scrub_volatile(_load(first)), sort_keys=True)
        b = json.dumps(scrub_volatile(_load(second)), sort_keys=True)
        assert a == b

    def test_usage_error_exit(self):
        assert main(["classify", "--random", "6,0.5"]) == EXIT_USAGE


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=10,
)
_vertex_lists = st.lists(st.integers(-1, 5), max_size=6) | _json_values
_divisions = st.fixed_dictionaries(
    {"kind": st.sampled_from(["two", "perfect"]) | _json_values},
    optional={"a": _vertex_lists, "b": _vertex_lists, "p": _vertex_lists, "w": _vertex_lists, "weights": _vertex_lists},
)
_graph6s = st.sampled_from([emit_graph6(cycle_graph(5)), emit_graph6(path_graph(4)), "?", None])
_records = st.fixed_dictionaries({"graph6": _graph6s, "division": _divisions | _json_values}) | st.fixed_dictionaries(
    {"graph6": _graph6s, "mode": st.sampled_from(["two", "perfect"]) | _json_values, "coloring": _vertex_lists},
    optional={"certificate": _json_values},
) | st.fixed_dictionaries(
    {"graph6": _graph6s, "status": st.just("class-violation") | _json_values},
    optional={"mode": st.sampled_from(["two", "perfect"]) | _json_values, "error": _json_values, "witnesses": _json_values},
)
_reports = st.fixed_dictionaries(
    {"records": st.lists(_records, min_size=1, max_size=3)},
    optional={"schema": st.just(1) | _json_values, "command": st.sampled_from(["divide", "color"]) | _json_values},
) | _json_values
_weights = _json_values | st.lists(st.integers(-1, 6) | _json_values, max_size=6) | st.lists(
    st.lists(st.integers(0, 6), min_size=5, max_size=5), max_size=3
)
_FUZZ_SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzzedJsonInputs:
    """Whatever JSON text reaches ``main``, it ends in a documented exit
    code, never in an exception."""

    @_FUZZ_SETTINGS
    @given(_reports.map(json.dumps))
    @example("[" * 200000)
    def test_verify_division(self, tmp_path, text):
        stored = tmp_path / "report.json"
        stored.write_text(text)
        assert main(["verify", "--division", str(stored), "--out", str(tmp_path / "verify.json")]) in range(7)

    @_FUZZ_SETTINGS
    @given(_weights.map(json.dumps))
    @example("[" * 200000)
    def test_divide_weights(self, tmp_path, text):
        src = tmp_path / "in.g6"
        _write_g6(src, cycle_graph(5), path_graph(5))
        weights = tmp_path / "weights.json"
        weights.write_text(text)
        argv = ["divide", "--mode", "perfect", "--in", str(src), "--weights", str(weights), "--out", str(tmp_path / "out.json")]
        assert main(argv) in range(7)


_graph6_lines = (
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
    | st.text(max_size=6)
    | st.builds(
        lambda n, p, seed: emit_graph6(random_graph(n, p, random.Random(seed))),
        st.integers(0, 12),
        st.floats(0, 1),
        st.integers(),
    )
)
_graph6_files = st.lists(_graph6_lines, max_size=3).map("\n".join)
_dimacs_lines = (
    st.builds("p edge {} {}".format, st.integers(-1, 40), st.integers(-1, 10))
    | st.builds("e {} {}".format, st.integers(-1, 12), st.integers(-1, 12))
    | st.sampled_from(["c comment", "", "p edge", "p col 3 0", "e 1", "e x y"])
    | st.text(max_size=8)
)
_dimacs_files = st.lists(_dimacs_lines, max_size=8).map("\n".join)


class TestFuzzedGraphFiles:
    """Whatever graph6 or DIMACS text a graph file holds, ``classify --in``
    and ``verify --graph`` end in a documented exit code, never in an
    exception."""

    def _run(self, tmp_path, name, text):
        graphs = tmp_path / name
        graphs.write_text(text, encoding="utf-8")
        stored = tmp_path / "report.json"
        stored.write_text(json.dumps({"records": [{"graph6": _C5, "mode": "perfect", "coloring": [0, 1, 0, 1, 2]}]}))
        out = str(tmp_path / "out.json")
        assert main(["classify", "--in", str(graphs), "--out", out]) in range(7)
        assert main(["verify", "--division", str(stored), "--graph", str(graphs), "--out", out]) in range(7)

    @_FUZZ_SETTINGS
    @given(_graph6_files)
    def test_graph6(self, tmp_path, text):
        self._run(tmp_path, "graphs.g6", text)

    @_FUZZ_SETTINGS
    @given(_dimacs_files)
    @example("p edge 8000 0")
    @example("p edge 3000000 0")
    def test_dimacs(self, tmp_path, text):
        self._run(tmp_path, "graph.col", text)

"""Command-line interface.

Subcommands: classify | divide | color | verify | conjecture, each run as
corpus, records, report, and an exit code from the record statuses. Input
graphs come from --in (graph6 lines, or DIMACS for .col files),
--exhaustive N or --random N,P,COUNT; --filter keeps only graphs whose
class flags all hold; --budget-ms takes a number >= 0. --weights applies
to divide --mode perfect only. Reports are versioned JSON; color --format
csv renders the same records as the table id,omega,chi,used,bound,slack
(chi is computed from the record's graph6 and blank above 16 vertices; a
failed coloring is the row id,,,,,). conjecture sweeps every graph on
1..--max-n vertices and takes no --seed; a counterexample is
verify-failed, and a 2-divisible graph with an odd hole is
theorem-violation. verify rejects a report of another
schema version, and fails a record whose graph6 string does not parse
without stopping the others.

Exit codes: 0 ok; 1 verification failure; 2 usage error (an --out file
that cannot be written, and a report or weight file that is not UTF-8
JSON, included); 3 an input file that cannot be read, or a graph file that
does not parse; 4 class violation; 5 theorem violation; 6 budget exceeded.
"""

import argparse
import itertools
import json
import sys

from .corpus import EXHAUSTIVE_LIMIT, _levels
from .errors import GraphDivError, ParseError, echo
from .formats import emit_graph6
from .harness import (
    exhaustive_corpus,
    file_corpus,
    random_corpus,
    run_classify,
    run_color,
    run_conjecture,
    run_divide,
    run_verify,
)
from .report import (
    STATUS_BUDGET_EXCEEDED,
    STATUS_CLASS_VIOLATION,
    STATUS_OK,
    STATUS_THEOREM_VIOLATION,
    STATUS_VERIFY_FAILED,
    build_report,
    color_csv,
    report_to_json,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CLASS_VIOLATION = 4
EXIT_THEOREM_VIOLATION = 5
EXIT_BUDGET_EXCEEDED = 6


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    inputs = argparse.ArgumentParser(add_help=False, parents=[out])
    source = inputs.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="in_path", metavar="FILE", help="graph6 lines, or DIMACS if FILE ends in .col")
    source.add_argument("--exhaustive", type=int, metavar="N", help="all isomorphism classes on N vertices")
    source.add_argument("--random", metavar="N,P,COUNT", help="COUNT seeded draws of G(N, P)")
    inputs.add_argument("--seed", type=int, default=0, help="seed for random corpora (default 0)")
    inputs.add_argument("--filter", default="", metavar="FLAGS", help="comma-separated class flags: p5free, c5free, bullfree, oddholefree, perfect")
    inputs.add_argument("--budget-ms", type=float, default=None, metavar="M", help="flag records slower than M >= 0 milliseconds as budget-exceeded")

    parser = argparse.ArgumentParser(prog="graphdiv", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classify", parents=[inputs], help="class membership flags with witnesses")

    p_divide = sub.add_parser("divide", parents=[inputs], help="run and verify a division")
    p_divide.add_argument("--mode", choices=("two", "perfect"), default="two")
    p_divide.add_argument("--weights", default="unit", metavar="FILE|unit", help="JSON weight list (flat, or one list per graph); default unit")

    p_color = sub.add_parser("color", parents=[inputs], help="division coloring with bound certificates")
    p_color.add_argument("--format", choices=("json", "csv"), default="json")
    p_color.add_argument("--mode", choices=("two", "perfect"), default="two")

    p_verify = sub.add_parser("verify", parents=[out], help="re-check the divisions/colorings in a stored report")
    p_verify.add_argument("--division", required=True, metavar="FILE", help="report produced by divide or color")
    p_verify.add_argument("--graph", metavar="FILE", help="restrict to graphs appearing in this file")

    p_conj = sub.add_parser("conjecture", parents=[out], help="sweep small graphs for 2-divisibility vs odd-hole-freeness")
    p_conj.add_argument("--max-n", type=int, required=True, metavar="N")

    return parser


def _with_ids(graphs):
    return ((emit_graph6(g), g) for g in graphs)


def _corpus(args):
    """The subcommand's (graph6, Graph) pairs, produced lazily."""
    if args.budget_ms is not None and not args.budget_ms >= 0:
        raise ValueError(f"--budget-ms must be a number >= 0, not {echo(args.budget_ms)}")
    filters = tuple(token.strip() for token in args.filter.split(",") if token.strip())
    if args.in_path is not None:
        return _with_ids(file_corpus(args.in_path, filters))
    if args.exhaustive is not None:
        return _with_ids(exhaustive_corpus(args.exhaustive, filters))
    try:
        n, p, count = args.random.split(",")
        n, p, count = int(n), float(p), int(count)
    except ValueError:
        raise ValueError(f"--random expects N,P,COUNT, not {echo(args.random)}") from None
    return _with_ids(random_corpus(n, p, count, args.seed, filters))


def _apply_time_budget(records, budget_ms):
    if budget_ms is None:
        return
    for record in records:
        if record.get("status") == STATUS_OK and record.get("elapsed_ms", 0.0) > budget_ms:
            record["status"] = STATUS_BUDGET_EXCEEDED
            record["error"] = f"record took {record['elapsed_ms']}ms, budget is {budget_ms}ms"


def _exit_code(records) -> int:
    statuses = {record.get("status") for record in records}
    if STATUS_THEOREM_VIOLATION in statuses:
        return EXIT_THEOREM_VIOLATION
    if STATUS_CLASS_VIOLATION in statuses:
        return EXIT_CLASS_VIOLATION
    if STATUS_BUDGET_EXCEEDED in statuses:
        return EXIT_BUDGET_EXCEEDED
    if STATUS_VERIFY_FAILED in statuses:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _write(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError:
            raise ValueError(f"cannot write {out_path}") from None
    else:
        sys.stdout.write(text)


def _read_json(path):
    """The JSON value in the report or weight file ``path``; a file that is
    not UTF-8 JSON, or nests it too deeply, is a usage error that names it."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path} nests JSON too deeply") from None
        except ValueError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from None


def _options_of(args, *names) -> dict:
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _run(args):
    """Run one subcommand: its records in input order and its report
    options."""
    if args.command == "verify":
        stored = _read_json(args.division)
        graphs = _with_ids(file_corpus(args.graph)) if args.graph else None
        return run_verify(stored, graphs), _options_of(args, "division", "graph")
    if args.command == "conjecture":
        if not 1 <= args.max_n <= EXHAUSTIVE_LIMIT:
            raise ValueError(f"--max-n must be between 1 and {EXHAUSTIVE_LIMIT}, not {echo(args.max_n)}")
        # one walk up the levels, each built from the one before and dropped after
        graphs = itertools.chain.from_iterable(itertools.islice(_levels(args.max_n), 1, None))
        return run_conjecture(_with_ids(graphs)), _options_of(args, "max_n")
    if args.command == "divide":
        weights_spec = None
        if args.weights != "unit":
            if args.mode != "perfect":
                raise ValueError("--weights applies to --mode perfect only")
            weights_spec = _read_json(args.weights)
        records = run_divide(_corpus(args), mode=args.mode, weights_spec=weights_spec)
        return records, _options_of(args, "mode", "filter", "weights")
    graphs = _corpus(args)
    if args.command == "color":
        return run_color(graphs, mode=args.mode), _options_of(args, "mode", "filter")
    return run_classify(graphs), _options_of(args, "filter")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        records, options = _run(args)
        _apply_time_budget(records, getattr(args, "budget_ms", None))
        if getattr(args, "format", "json") == "csv":
            text = color_csv(records)
        else:
            report = build_report(args.command, records, seed=getattr(args, "seed", None), options=options)
            if args.command == "conjecture":
                for key, status in (("counterexamples", STATUS_VERIFY_FAILED), ("necessity_violations", STATUS_THEOREM_VIOLATION)):
                    report["summary"][key] = [record["graph6"] for record in records if record["status"] == status]
            text = report_to_json(report)
        _write(text, args.out)
        return _exit_code(records)
    except ParseError as exc:
        print(f"graphdiv: parse error ({exc.kind}): {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"graphdiv: cannot read {exc.filename}", file=sys.stderr)
        return EXIT_PARSE
    except (GraphDivError, ValueError) as exc:
        print(f"graphdiv: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()

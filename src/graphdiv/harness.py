"""Corpora and the batch drivers behind the CLI subcommands.

Each corpus function (exhaustive, random, file) checks its arguments when
called and returns a lazy iterator of graphs; generation errors surface as
it is consumed. Every driver produces JSON-ready records that embed the
graph6 string of the graph they describe, so a stored report can be
re-verified on its own.
"""

import itertools
import random
import time

from .coloring import BOUND_KIND, _certified, color_via_perfect_division, color_via_two_division
from .core import CLIQUE_BUDGET, Graph, VertexSet, WeightFn
from .corpus import EXHAUSTIVE_LIMIT, nonisomorphic_graphs, random_graph
from .divisibility import (
    PerfectDivision,
    TwoDivision,
    is_two_divisible_oracle,
    perfect_divide,
    two_divide,
    verify_perfect_division,
    verify_two_division,
)
from .errors import (
    BudgetExceededError,
    DegenerateCliqueError,
    GraphDivError,
    NotInClassError,
    ParseError,
    TheoremViolationError,
    echo,
)
from .formats import emit_graph6, parse_dimacs, parse_graph6, parse_graph6_lines
from .recognition import classify, find_bull, find_c5, find_odd_hole, find_p5, is_perfect
from .report import (
    _ALL_STATUSES,
    SCHEMA_VERSION,
    STATUS_BUDGET_EXCEEDED,
    STATUS_CLASS_VIOLATION,
    STATUS_OK,
    STATUS_THEOREM_VIOLATION,
    STATUS_VERIFY_FAILED,
)

# Each class filter runs only the finder its flag needs.
FILTER_FLAGS = {
    "p5free": lambda g: find_p5(g) is None,
    "c5free": lambda g: find_c5(g) is None,
    "bullfree": lambda g: find_bull(g) is None,
    "oddholefree": lambda g: find_odd_hole(g, None) is None,
    "perfect": lambda g: is_perfect(g, None),
}

MAX_ATTEMPTS_FACTOR = 1000


def _filtered(graphs, filters):
    """``graphs`` that pass every class flag in ``filters``, lazily; an
    unknown flag raises ValueError at once."""
    for flag in filters:
        if flag not in FILTER_FLAGS:
            raise ValueError(f"unknown class filter: {echo(flag)}")
    tests = [FILTER_FLAGS[flag] for flag in filters]
    return (g for g in graphs if all(test(g) for test in tests))


def exhaustive_corpus(n: int, filters=()):
    """All isomorphism classes on ``n`` vertices that pass ``filters``, a
    conjunction of ``FILTER_FLAGS`` names."""
    if not 0 <= n <= EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive corpora need 0 <= n <= {EXHAUSTIVE_LIMIT}")
    return _filtered(nonisomorphic_graphs(n), filters)


def random_corpus(n: int, edge_prob: float, count: int, seed: int = 0, filters=()):
    """``count`` seeded draws of G(n, edge_prob) that pass ``filters``, on
    at most ``CLIQUE_BUDGET`` vertices (no subcommand gives a larger graph
    an ok record). Rejected draws are redrawn with per-attempt sub-seeds,
    so the stream is stable under count changes, up to
    ``MAX_ATTEMPTS_FACTOR`` draws per requested graph."""
    if n < 0:
        raise ValueError("random corpora need a vertex count")
    if n > CLIQUE_BUDGET:
        raise ValueError(f"random corpora allow at most {CLIQUE_BUDGET} vertices, not {echo(n)}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("random corpora need an edge probability in [0, 1]")
    if count < 1:
        raise ValueError("random corpora need count >= 1")

    def draws():
        limit = count * MAX_ATTEMPTS_FACTOR
        for attempt in range(limit):
            yield random_graph(n, edge_prob, random.Random(f"{seed}/{attempt}"))
        raise GraphDivError(f"class filter rejected every draw within {limit} attempts")

    return itertools.islice(_filtered(draws(), filters), count)


def file_corpus(path: str, filters=()):
    """The graphs in ``path`` that pass ``filters``: graph6 lines, or
    DIMACS when the name ends in .col."""
    if not path:
        raise ValueError("file corpora need a path")

    def graphs():
        with open(path, "rb") as handle:
            data = handle.read()
        if not data.isascii():
            raise ParseError(f"{path} holds a byte outside ASCII", kind="range")
        text = data.decode("ascii")
        yield from [parse_dimacs(text)] if path.endswith(".col") else parse_graph6_lines(text)

    return _filtered(graphs(), filters)


def _failure(record: dict, exc: Exception):
    if isinstance(exc, (NotInClassError, DegenerateCliqueError)):
        record["status"] = STATUS_CLASS_VIOLATION
        if isinstance(exc, NotInClassError):
            record["witnesses"] = [w.to_json() for w in exc.witnesses]
    elif isinstance(exc, TheoremViolationError):
        record["status"] = STATUS_THEOREM_VIOLATION
        record["log"] = exc.log
    elif isinstance(exc, BudgetExceededError):
        record["status"] = STATUS_BUDGET_EXCEEDED
    else:
        raise exc
    record["error"] = str(exc)


def _drive(items, body) -> list:
    """The one per-record loop behind every batch driver: ``body(record,
    item)`` fills a fresh record for each item, and the driver times it and
    turns a ``GraphDivError`` into the record's failure status."""
    records = []
    for item in items:
        started = time.perf_counter()
        record = {}
        try:
            body(record, item)
        except GraphDivError as exc:
            _failure(record, exc)
        record["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        records.append(record)
    return records


def run_classify(graphs) -> list:
    def body(record, item):
        g6, g = item
        record.update(graph6=g6, n=g.n)
        record["class"] = classify(g).to_json()
        record["status"] = STATUS_OK

    return _drive(graphs, body)


def _weight_lookup(weights_spec):
    """Read a weight payload's shape once and return the lookup from a
    graph's index to its weights: None is unit weights, a flat list of
    integers applies to every graph, a list of lists is per-graph. Any
    other payload raises ValueError."""
    if weights_spec is None:
        return lambda index: None
    if not isinstance(weights_spec, list):
        raise ValueError("weights must be a JSON list")
    per_graph = [isinstance(x, list) for x in weights_spec]
    if not any(per_graph):
        shared = WeightFn.of(weights_spec)
        return lambda index: shared
    if not all(per_graph):
        raise ValueError("weights mix numbers and per-graph lists")

    def per_graph_weights(index):
        if index >= len(weights_spec):
            raise ValueError(f"weights give {len(weights_spec)} per-graph lists, too few for graph {index + 1}")
        return WeightFn.of(weights_spec[index])

    return per_graph_weights


def run_divide(graphs, mode: str = "two", weights_spec=None) -> list:
    """Divide every graph. The division verifies itself before it returns
    (a failure raises ``TheoremViolationError`` with the log), so
    ``verified`` is true on every ok record. ``weights_spec`` is read in
    mode "perfect" only."""
    weights_for = _weight_lookup(weights_spec) if mode == "perfect" else None

    def body(record, item):
        index, (g6, g) = item
        record.update(graph6=g6, n=g.n, mode=mode)
        if mode == "two":
            division = two_divide(g)
        else:
            division = perfect_divide(g, weights_for(index))
        record["division"] = division.to_json()
        record["log"] = list(division.log)
        record["verified"] = True
        record["status"] = STATUS_OK

    return _drive(enumerate(graphs), body)


def run_color(graphs, mode: str = "two") -> list:
    """Color every graph. The coloring checks properness and its bound
    before it returns, so ``proper`` and ``within_bound`` are true on every
    ok record."""
    color = color_via_two_division if mode == "two" else color_via_perfect_division

    def body(record, item):
        g6, g = item
        record.update(graph6=g6, n=g.n, mode=mode)
        coloring, certificate = color(g)
        record["coloring"] = list(coloring.assignment)
        record["certificate"] = certificate.to_json()
        record["proper"] = True
        record["within_bound"] = True
        record["status"] = STATUS_OK

    return _drive(graphs, body)


def _stored_ints(payload, key: str) -> list:
    """``payload[key]`` if it is a list of non-negative integers, booleans
    excluded as ``WeightFn`` excludes them; TypeError or ValueError
    otherwise."""
    values = payload[key]
    if not isinstance(values, list):
        raise TypeError(f"{key} must be a list, not {type(values).__name__}")
    for i, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"{key}[{i}] must be a non-negative integer, not {echo(value)}")
    return values


def _stored_part(g: Graph, payload, key: str) -> VertexSet:
    """The vertex set ``payload[key]`` lists; ValueError if it lists a
    vertex twice, which a set would silently merge."""
    members = _stored_ints(payload, key)
    part = VertexSet.of(g.n, members)
    if len(part) != len(members):
        twice = next(v for i, v in enumerate(members) if v in members[:i])
        raise ValueError(f"{key} lists vertex {twice} twice")
    return part


def _division_from_json(g: Graph, payload: dict):
    kind = payload["kind"]
    if kind == "two":
        return TwoDivision(_stored_part(g, payload, "a"), _stored_part(g, payload, "b"))
    if kind != "perfect":
        raise ValueError(f"unknown division kind {echo(kind)}")
    weights = payload.get("weights")
    return PerfectDivision(
        _stored_part(g, payload, "p"),
        _stored_part(g, payload, "w"),
        weight=WeightFn.of(weights) if weights is not None else None,
    )


# The public call behind a ``class-violation`` record, by the report's
# command and the record's mode.
_CLASS_CHECKED_CALLS = {
    ("divide", "two"): two_divide,
    ("divide", "perfect"): perfect_divide,
    ("color", "two"): color_via_two_division,
    ("color", "perfect"): color_via_perfect_division,
}


def _class_violation_problem(g: Graph, command, stored: dict):
    """Why a stored ``class-violation`` record fails: the call that wrote
    it, run again on its graph, must end in that status with the same
    ``error`` and ``witnesses``. None when it does."""
    call = _CLASS_CHECKED_CALLS.get((command, stored.get("mode")))
    if call is None:
        return f"class-violation record of no known command and mode: {echo(command)}, {echo(stored.get('mode'))}"
    rerun = {"status": STATUS_OK}
    try:
        call(g)
    except GraphDivError as exc:
        _failure(rerun, exc)
    if rerun["status"] != STATUS_CLASS_VIOLATION:
        return f"{command} --mode {stored['mode']} ends in {rerun['status']} on this graph, not in {STATUS_CLASS_VIOLATION}"
    for key in ("error", "witnesses"):
        if stored.get(key) != rerun.get(key):
            return f"stored {key!r} field does not match the graph's {rerun.get(key)!r}"
    return None


def _stored_problem(g6: str, stored: dict, command):
    """Why a stored record fails, re-derived from its graph alone; None
    when it holds. The coloring's clique number, bound and colors used are
    recomputed, so a stored certificate must match them, not vouch for
    them. Only an ok record carries either, so one that states another
    status fails. A ``class-violation`` record that carries neither is
    re-derived by ``_class_violation_problem`` under the report's
    ``command``."""
    carries = "division" in stored or "coloring" in stored
    if not carries and stored.get("status") != STATUS_CLASS_VIOLATION:
        return "record carries nothing to verify"
    status = stored.get("status", STATUS_OK)
    if carries and status != STATUS_OK:
        carried = "division" if "division" in stored else "coloring"
        named = status if status in _ALL_STATUSES else echo(status)
        return f"record carries a {carried} but its status is {named}, not {STATUS_OK}"
    try:
        g = parse_graph6(g6)
        if not carries:
            return _class_violation_problem(g, command, stored)
        if "division" in stored:
            division = _division_from_json(g, stored["division"])
            if isinstance(division, TwoDivision):
                ok, reason = verify_two_division(g, division)
            else:
                ok, reason = verify_perfect_division(g, division.weight, division)
            if not ok:
                return reason
        if "coloring" in stored:
            kind = BOUND_KIND.get(stored.get("mode"))
            if kind is None:
                return f"coloring record has no known mode: {echo(stored.get('mode'))}"
            assignment = _stored_ints(stored, "coloring")
            try:
                _, certificate = _certified(g, assignment, len(set(assignment)), kind)
            except TheoremViolationError as exc:
                return f"stored {exc}"
            if "certificate" in stored and stored["certificate"] != certificate.to_json():
                return f"stored certificate disagrees with the graph's {certificate.to_json()}"
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed record: {type(exc).__name__}: {exc}"
    return None


def run_verify(stored_report: dict, graphs=None) -> list:
    """Re-check every division or coloring in a stored report.

    Graphs come from the embedded graph6 strings; ``graphs`` (parsed from
    --graph) additionally restricts which records are admissible. Nothing
    else in a record is trusted: bounds are re-derived from the graph and
    the record's mode, a ``class-violation`` is re-derived by running the
    report's command again, and a record that cannot be read, its graph6
    string included, fails with the reason. A report that is not an object with a
    list of records, or that names a schema other than ``SCHEMA_VERSION``,
    raises ValueError.
    """
    allowed = None
    if graphs is not None:
        allowed = {g6 for g6, _ in graphs}
    stored_records = stored_report.get("records", []) if isinstance(stored_report, dict) else None
    if not isinstance(stored_records, list):
        raise ValueError("stored report is not a JSON object with a list of records")
    schema = stored_report.get("schema", SCHEMA_VERSION)
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ValueError(f"stored report has schema {echo(schema)}, this version reads schema {SCHEMA_VERSION}")

    def body(record, stored):
        g6 = stored.get("graph6") if isinstance(stored, dict) else None
        record["graph6"] = g6 if isinstance(g6, str) else ""
        if not isinstance(g6, str):
            reason = "malformed record: no graph6 string"
        elif allowed is not None and g6 not in allowed:
            reason = "record graph does not appear in the supplied graph file"
        else:
            reason = _stored_problem(g6, stored, stored_report.get("command"))
        record["verified"] = reason is None
        record["status"] = STATUS_OK if reason is None else STATUS_VERIFY_FAILED
        if reason:
            record["error"] = reason

    return _drive(stored_records, body)


def run_conjecture(graphs) -> list:
    """Check every graph against Hoàng & McDiarmid's conjecture that
    2-divisibility coincides with odd-hole-freeness.

    A record is ok when the two verdicts agree. An odd-hole-free graph
    that is not 2-divisible would be a counterexample to the open
    direction (verify-failed); a graph with an odd hole that comes out
    2-divisible contradicts the forced direction, so it is a bug
    (theorem-violation).
    """

    def body(record, item):
        g6, g = item
        record.update(graph6=g6, n=g.n)
        odd_hole_free = find_odd_hole(g, None) is None
        record["odd_hole_free"] = odd_hole_free
        divisible, counter = is_two_divisible_oracle(g)
        record["two_divisible"] = divisible
        if counter is not None:
            record["counterexample_subgraph"] = list(counter.members())
        agrees = divisible == odd_hole_free
        record["agrees"] = agrees
        if agrees:
            record["status"] = STATUS_OK
        else:
            record["status"] = STATUS_VERIFY_FAILED if odd_hole_free else STATUS_THEOREM_VIOLATION

    return _drive(graphs, body)


def graphs_with_ids(graphs) -> list:
    """Pair each graph with its emitted graph6 string."""
    return [(emit_graph6(g), g) for g in graphs]

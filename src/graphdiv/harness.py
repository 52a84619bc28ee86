"""Corpus specs and the batch drivers behind the CLI subcommands.

Every driver produces JSON-ready records that embed the graph6 string of
the graph they describe, so a stored report can be re-verified on its own.
"""

import random
import time
from dataclasses import dataclass

from .coloring import BOUND_KIND, _certified, color_via_perfect_division, color_via_two_division
from .core import Graph, VertexSet, WeightFn
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
    TheoremViolationError,
)
from .formats import emit_graph6, parse_dimacs, parse_graph6, parse_graph6_lines
from .recognition import classify
from .report import (
    STATUS_BUDGET_EXCEEDED,
    STATUS_CLASS_VIOLATION,
    STATUS_OK,
    STATUS_THEOREM_VIOLATION,
    STATUS_VERIFY_FAILED,
    build_report,
)

FILTER_FLAGS = {
    "p5free": "p5_free",
    "c5free": "c5_free",
    "bullfree": "bull_free",
    "oddholefree": "odd_hole_free",
    "perfect": "perfect",
}


@dataclass(frozen=True)
class CorpusSpec:
    """Where a corpus comes from and how it is filtered.

    ``kind`` is "exhaustive" (all isomorphism classes on ``n`` vertices),
    "random" (``count`` seeded draws at ``edge_prob``), or "file" (graph6
    lines, or DIMACS for .col paths). ``filters`` is a conjunction of
    class flags; random draws that fail it are rejected and redrawn, with
    per-attempt sub-seeds so the stream is stable under count changes.
    """

    kind: str
    n: int = None
    edge_prob: float = None
    count: int = None
    path: str = None
    filters: tuple = ()
    seed: int = 0
    max_attempts_factor: int = 1000

    def __post_init__(self):
        if self.kind == "exhaustive":
            if self.n is None or not 0 <= self.n <= EXHAUSTIVE_LIMIT:
                raise ValueError(f"exhaustive corpora need 0 <= n <= {EXHAUSTIVE_LIMIT}")
        elif self.kind == "random":
            if self.n is None or self.n < 0:
                raise ValueError("random corpora need a vertex count")
            if self.edge_prob is None or not 0.0 <= self.edge_prob <= 1.0:
                raise ValueError("random corpora need an edge probability in [0, 1]")
            if self.count is None or self.count < 1:
                raise ValueError("random corpora need count >= 1")
        elif self.kind == "file":
            if not self.path:
                raise ValueError("file corpora need a path")
        else:
            raise ValueError(f"unknown corpus kind: {self.kind}")
        for flag in self.filters:
            if flag not in FILTER_FLAGS:
                raise ValueError(f"unknown class filter: {flag}")


def passes_filters(g: Graph, filters) -> bool:
    if not filters:
        return True
    report = classify(g)
    return all(getattr(report, FILTER_FLAGS[flag]) for flag in filters)


def generate(spec: CorpusSpec):
    """Yield the corpus a spec describes, deterministically."""
    if spec.kind == "exhaustive":
        for g in nonisomorphic_graphs(spec.n):
            if passes_filters(g, spec.filters):
                yield g
    elif spec.kind == "random":
        produced = 0
        attempts = 0
        limit = spec.count * spec.max_attempts_factor
        while produced < spec.count:
            if attempts >= limit:
                raise GraphDivError(
                    f"class filter rejected every draw within {limit} attempts"
                )
            rng = random.Random(f"{spec.seed}/{attempts}")
            attempts += 1
            g = random_graph(spec.n, spec.edge_prob, rng)
            if passes_filters(g, spec.filters):
                produced += 1
                yield g
    else:
        with open(spec.path, encoding="ascii") as handle:
            text = handle.read()
        if spec.path.endswith(".col"):
            graphs = [parse_dimacs(text)]
        else:
            graphs = parse_graph6_lines(text)
        for g in graphs:
            if passes_filters(g, spec.filters):
                yield g


def _finish(record: dict, started: float) -> dict:
    record["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return record


def _failure(record: dict, exc: Exception) -> dict:
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
    return record


def run_classify(graphs) -> list:
    records = []
    for g6, g in graphs:
        started = time.perf_counter()
        record = {"graph6": g6, "n": g.n}
        try:
            record["class"] = classify(g).to_json()
            record["status"] = STATUS_OK
        except GraphDivError as exc:
            _failure(record, exc)
        records.append(_finish(record, started))
    return records


def _weights_for(g: Graph, index: int, weights_spec):
    """Resolve the weight payload for one graph: None is unit weights, a
    flat list of integers applies to every graph, a list of lists is
    per-graph. Any other payload raises ValueError."""
    if weights_spec is None:
        return None
    if not isinstance(weights_spec, list):
        raise ValueError("weights must be a JSON list")
    per_graph = [isinstance(x, list) for x in weights_spec]
    if not any(per_graph):
        return WeightFn.of(weights_spec)
    if not all(per_graph):
        raise ValueError("weights mix numbers and per-graph lists")
    if index >= len(weights_spec):
        raise ValueError(f"weights give {len(weights_spec)} per-graph lists, too few for graph {index + 1}")
    return WeightFn.of(weights_spec[index])


def run_divide(graphs, mode: str = "two", weights_spec=None) -> list:
    records = []
    for index, (g6, g) in enumerate(graphs):
        started = time.perf_counter()
        record = {"graph6": g6, "n": g.n, "mode": mode}
        try:
            if mode == "two":
                division = two_divide(g)
                ok, reason = verify_two_division(g, division)
            else:
                w = _weights_for(g, index, weights_spec)
                division = perfect_divide(g, w)
                ok, reason = verify_perfect_division(g, w, division)
            record["division"] = division.to_json()
            record["log"] = list(division.log)
            record["verified"] = ok
            if ok:
                record["status"] = STATUS_OK
            else:
                record["status"] = STATUS_VERIFY_FAILED
                record["error"] = reason
        except GraphDivError as exc:
            _failure(record, exc)
        records.append(_finish(record, started))
    return records


def run_color(graphs, mode: str = "two") -> list:
    records = []
    for g6, g in graphs:
        started = time.perf_counter()
        record = {"graph6": g6, "n": g.n, "mode": mode}
        try:
            if mode == "two":
                coloring, certificate = color_via_two_division(g)
            else:
                coloring, certificate = color_via_perfect_division(g)
            record["coloring"] = list(coloring.assignment)
            record["certificate"] = certificate.to_json()
            proper = coloring.is_proper_for(g)
            within = certificate.colors_used <= certificate.bound_value
            record["proper"] = proper
            record["within_bound"] = within
            record["status"] = STATUS_OK if proper and within else STATUS_VERIFY_FAILED
        except GraphDivError as exc:
            _failure(record, exc)
        records.append(_finish(record, started))
    return records


def _division_from_json(g: Graph, payload: dict):
    kind = payload["kind"]
    if kind == "two":
        return TwoDivision(
            VertexSet.of(g.n, payload["a"]),
            VertexSet.of(g.n, payload["b"]),
        )
    if kind != "perfect":
        raise ValueError(f"unknown division kind {kind!r}")
    weights = payload.get("weights")
    return PerfectDivision(
        VertexSet.of(g.n, payload["p"]),
        VertexSet.of(g.n, payload["w"]),
        weight=WeightFn.of(weights) if weights is not None else None,
    )


def _stored_problem(g: Graph, stored: dict):
    """Why a stored record fails, re-derived from its graph alone; None
    when it holds. The coloring's clique number, bound and colors used are
    recomputed, so a stored certificate must match them, not vouch for
    them."""
    if "division" not in stored and "coloring" not in stored:
        return "record carries nothing to verify"
    try:
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
                return f"coloring record has no known mode: {stored.get('mode')!r}"
            assignment = stored["coloring"]
            try:
                _, certificate = _certified(g, assignment, len(set(assignment)), kind)
            except TheoremViolationError as exc:
                return f"stored {exc}"
            if "certificate" in stored and stored["certificate"] != certificate.to_json():
                return f"stored certificate {stored['certificate']} disagrees with the graph's {certificate.to_json()}"
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed record: {type(exc).__name__}: {exc}"
    return None


def run_verify(stored_report: dict, graphs=None) -> list:
    """Re-check every division or coloring in a stored report.

    Graphs come from the embedded graph6 strings; ``graphs`` (parsed from
    --graph) additionally restricts which records are admissible. Nothing
    else in a record is trusted: bounds are re-derived from the graph and
    the record's mode, and a record that cannot be read fails with the
    reason.
    """
    allowed = None
    if graphs is not None:
        allowed = {g6 for g6, _ in graphs}
    stored_records = stored_report.get("records", []) if isinstance(stored_report, dict) else None
    if not isinstance(stored_records, list):
        raise ValueError("stored report is not a JSON object with a list of records")
    records = []
    for stored in stored_records:
        started = time.perf_counter()
        g6 = stored.get("graph6") if isinstance(stored, dict) else None
        record = {"graph6": g6 if isinstance(g6, str) else ""}
        try:
            if not isinstance(g6, str):
                reason = "malformed record: no graph6 string"
            elif allowed is not None and g6 not in allowed:
                reason = "record graph does not appear in the supplied graph file"
            else:
                reason = _stored_problem(parse_graph6(g6), stored)
            record["verified"] = reason is None
            record["status"] = STATUS_OK if reason is None else STATUS_VERIFY_FAILED
            if reason:
                record["error"] = reason
        except GraphDivError as exc:
            _failure(record, exc)
        records.append(_finish(record, started))
    return records


def conjecture_search(max_n: int, *, seed: int = 0) -> dict:
    """Sweep all isomorphism classes up to ``max_n`` against the conjecture
    that 2-divisibility coincides with odd-hole-freeness.

    Odd-hole-free graphs must come out 2-divisible (a failure here would be
    a counterexample to the open direction and lands in the summary);
    graphs with an odd hole must come out non-2-divisible (that direction
    is forced, so a failure would be a bug).
    """
    if max_n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"conjecture sweep limited to n <= {EXHAUSTIVE_LIMIT}")
    records = []
    counterexamples = []
    necessity_violations = []
    for n in range(1, max_n + 1):
        for g in nonisomorphic_graphs(n):
            started = time.perf_counter()
            g6 = emit_graph6(g)
            record = {"graph6": g6, "n": n}
            report = classify(g)
            record["odd_hole_free"] = report.odd_hole_free
            try:
                divisible, counter = is_two_divisible_oracle(g)
                record["two_divisible"] = divisible
                if counter is not None:
                    record["counterexample_subgraph"] = list(counter.members())
                agrees = divisible == report.odd_hole_free
                record["agrees"] = agrees
                record["status"] = STATUS_OK if agrees else STATUS_VERIFY_FAILED
                if not agrees:
                    if report.odd_hole_free:
                        counterexamples.append(g6)
                    else:
                        necessity_violations.append(g6)
            except BudgetExceededError as exc:
                record["status"] = STATUS_BUDGET_EXCEEDED
                record["error"] = str(exc)
            records.append(_finish(record, started))
    report = build_report("conjecture", records, seed=seed, options={"max_n": max_n})
    report["summary"]["counterexamples"] = counterexamples
    report["summary"]["necessity_violations"] = necessity_violations
    return report


def graphs_with_ids(graphs) -> list:
    """Pair each graph with its emitted graph6 string."""
    return [(emit_graph6(g), g) for g in graphs]

"""One benchmark workload instance, run in a fresh interpreter.

    python3 -B bench/workloads.py --workload NAME --seed N --spawned-at T
        [--setup-only] [--trace] [--small]

``bench/run.py`` starts this once per measured instance, because
``find_odd_hole`` and ``find_homogeneous_set`` are process-global
``lru_cache``s and ``nonisomorphic_graphs`` keeps a module-level cache: a
reused interpreter would measure warm caches that no CLI run has.

Each workload is a closed loop with one caller: it sends the next graph
only after the previous record returned, drives graphdiv's public
functions the way the CLI does, and times each record from outside. The
instance prints one JSON object: its timings, its output checks, and a
sha256 digest of its ``scrub_volatile``-scrubbed reports.

``T`` is the ``time.monotonic()`` reading of the parent just before it
started this process, so set-up and wall time include interpreter start.
"""

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# OEIS A000088: graphs on n unlabeled vertices.
GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
# Graphs on 8 vertices that are (P5, C5)-free and have an edge.
TWO_DIVISION_RECORDS_N8 = 3866


def _load_graphdiv():
    sys.path.insert(0, str(SRC))
    import graphdiv
    from graphdiv import core, corpus, divisibility, formats, harness, recognition, report

    if Path(graphdiv.__file__).resolve().parent != SRC / "graphdiv":
        raise SystemExit(f"graphdiv was imported from {graphdiv.__file__}, not from {SRC}")
    return core, corpus, divisibility, formats, harness, recognition, report


def relabel(graph_cls, n, adj, perm):
    """The graph with vertex ``v`` renamed ``perm[v]``."""
    rows = [0] * n
    for v in range(n):
        row = 0
        mask = adj[v]
        while mask:
            low = mask & -mask
            row |= 1 << perm[low.bit_length() - 1]
            mask ^= low
        rows[perm[v]] = row
    return graph_cls(n, tuple(rows))


def clique_number(adj, cand):
    """Exact clique number by plain branching, independent of graphdiv."""
    if not cand:
        return 0
    low = cand & -cand
    v = low.bit_length() - 1
    without = clique_number(adj, cand ^ low)
    if without >= (cand & adj[v]).bit_count() + 1:
        return without
    return max(without, 1 + clique_number(adj, cand & adj[v]))


def coloring_problem(adj, record, bound_of):
    """Why a stored coloring fails, checked from the graph alone; else None."""
    assignment = record["coloring"]
    n = len(adj)
    if len(assignment) != n:
        return "coloring has the wrong length"
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] >> v & 1 and assignment[u] == assignment[v]:
                return f"vertices {u} and {v} share a color"
    used = len(set(assignment))
    certificate = record["certificate"]
    if certificate["used"] != used:
        return "certificate miscounts the colors"
    bound = bound_of(clique_number(adj, (1 << n) - 1))
    if certificate["bound"] != bound or used > bound:
        return f"{used} colors against bound {bound}"
    return None


def power_of_two_bound(omega):
    return 0 if omega <= 0 else 2 ** (omega - 1)


def quadratic_bound(omega):
    return omega * (omega + 1) // 2


def random_cograph(n, rng):
    """Adjacency rows of a random cograph: a random tree of disjoint unions
    and joins over single vertices."""
    if n == 1:
        return [0]
    k = rng.randint(1, n - 1)
    left = random_cograph(k, rng)
    right = [row << k for row in random_cograph(n - k, rng)]
    if rng.random() < 0.5:
        left_mask = (1 << k) - 1
        right_mask = ((1 << n) - 1) ^ left_mask
        left = [row | right_mask for row in left]
        right = [row | left_mask for row in right]
    return left + right


def random_bipartite(n, rng):
    side = [rng.random() < 0.5 for _ in range(n)]
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if side[u] != side[v] and rng.random() < 0.5:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def c5_blowup(n, rng):
    """A 5-cycle whose vertices are replaced by random cographs with
    ``n`` vertices in total: P5-free, bull-free and imperfect."""
    sizes = [1] * 5
    for _ in range(n - 5):
        sizes[rng.randrange(5)] += 1
    offsets = [sum(sizes[:i]) for i in range(5)]
    blocks = [((1 << sizes[i]) - 1) << offsets[i] for i in range(5)]
    rows = []
    for i in range(5):
        ring = blocks[(i - 1) % 5] | blocks[(i + 1) % 5]
        rows += [(row << offsets[i]) | ring for row in random_cograph(sizes[i], rng)]
    return rows


class Workload:
    """Set-up and one record; subclasses fill them in. The base class builds,
    serializes and re-verifies the reports and runs the output checks."""

    reports = ()  # report names, in the order they are built and digested
    verify = ()  # reports that ``run_verify`` re-checks
    bound_of = None  # coloring bound of the "color" report

    def __init__(self, seed, small, lib):
        self.seed = seed
        self.small = small
        self.core, self.corpus, self.divisibility, self.formats, self.harness, self.recognition, self.report = lib
        self.rng = random.Random(f"{self.name}/{seed}")
        self.inputs = []
        self.records = {name: [] for name in self.reports}
        self.origin = {}
        self.failures = {}
        self.ok_records = 0

    def fail(self, index, reason):
        self.failures.setdefault(index, reason)

    def add(self, name, index, records):
        """Keep the records of input ``index``; True when all are ok."""
        for record in records:
            self.origin[id(record)] = index
        self.records[name] += records
        bad = [r for r in records if r.get("status") != "ok"]
        if bad:
            self.fail(index, f"{name} status {bad[0].get('status')}: {bad[0].get('error')}")
        return not bad

    def summarize(self, built):
        """Add workload-specific summary fields to the built reports."""

    def finish(self):
        """Build and serialize every report, then re-check the verifiable
        ones with ``run_verify`` after a JSON round trip."""
        options = {"workload": self.name, "small": self.small}
        self.built = {
            name: self.report.build_report(name, records, seed=self.seed, options=options)
            for name, records in self.records.items()
        }
        self.summarize(self.built)
        self.texts = {name: self.report.report_to_json(r) for name, r in self.built.items()}
        self.rejected = []
        for name in self.verify:
            results = self.harness.run_verify(json.loads(self.texts[name]))
            for stored, result in zip(self.built[name]["records"], results):
                if result.get("status") != "ok":
                    self.rejected.append((self.origin[id(stored)], result.get("error")))

    def totals(self):
        """Failed whole-run checks, as messages."""
        return []

    def check(self):
        """Output checks that run after the timed part. Failed records land
        in ``failures``; failed whole-run checks are returned."""
        for index, error in self.rejected:
            self.fail(index, f"run_verify: {error}")
        for record in self.built.get("color", {}).get("records", []):
            index = self.origin[id(record)]
            problem = coloring_problem(self.inputs[index][1].adj, record, self.bound_of)
            if problem:
                self.fail(index, problem)
        problems = self.totals()
        for name, text in self.texts.items():
            if json.loads(text) != self.built[name]:
                problems.append(f"{name} report changes in a JSON round trip")
        return problems

    def input_digest(self):
        digest = hashlib.sha256()
        for g6, _, *weights in self.inputs:
            digest.update(json.dumps([g6, weights]).encode())
        return digest.hexdigest()

    def reports_digest(self):
        """sha256 over the scrubbed reports, in the workload's fixed order."""
        digest = hashlib.sha256()
        for name, value in self.built.items():
            digest.update(f"{name}\n".encode())
            digest.update(json.dumps(self.report.scrub_volatile(value), indent=2, sort_keys=True).encode())
        return digest.hexdigest()


class ExhaustiveN8(Workload):
    """All graphs on 8 vertices: classify, the conjecture oracle, and for the
    (P5, C5)-free graphs with an edge a two-division and a coloring."""

    name = "exhaustive-n8"
    reports = ("classify", "conjecture", "divide", "color")
    verify = ("divide", "color")
    bound_of = staticmethod(power_of_two_bound)

    def setup(self):
        self.n = n = 6 if self.small else 8
        relabeled = []
        for g in self.corpus.nonisomorphic_graphs(n):
            perm = list(range(n))
            self.rng.shuffle(perm)
            relabeled.append(relabel(self.core.Graph, n, g.adj, perm))
        self.inputs = self.harness.graphs_with_ids(relabeled)
        self.rng.shuffle(self.inputs)
        self.counterexamples, self.necessity_violations = [], []

    def record(self, index):
        pair = self.inputs[index : index + 1]
        g6, g = pair[0]
        classified = self.harness.run_classify(pair)
        if not self.add("classify", index, classified):
            return
        flags = classified[0]["class"]
        divisible, counter = self.divisibility.is_two_divisible_oracle(g)
        agrees = divisible == flags["odd_hole_free"]
        conjecture = {"graph6": g6, "n": g.n, "odd_hole_free": flags["odd_hole_free"], "two_divisible": divisible}
        if counter is not None:
            conjecture["counterexample_subgraph"] = list(counter.members())
        conjecture["agrees"] = agrees
        conjecture["status"] = "ok" if agrees else "verify-failed"
        if not self.add("conjecture", index, [conjecture]):
            (self.counterexamples if flags["odd_hole_free"] else self.necessity_violations).append(g6)
            return
        if flags["p5_free"] and flags["c5_free"] and g.has_any_edge():
            divided = self.add("divide", index, self.harness.run_divide(pair, mode="two"))
            colored = self.add("color", index, self.harness.run_color(pair, mode="two"))
            if not (divided and colored):
                return
        self.ok_records += 1

    def summarize(self, built):
        built["conjecture"]["summary"]["counterexamples"] = self.counterexamples
        built["conjecture"]["summary"]["necessity_violations"] = self.necessity_violations

    def totals(self):
        totals = {
            "graphs": (len(self.inputs), GRAPH_COUNTS[self.n]),
            "counterexamples": (len(self.counterexamples), 0),
            "necessity_violations": (len(self.necessity_violations), 0),
        }
        if self.n == 8:
            totals["two_division_records"] = (len(self.records["divide"]), TWO_DIVISION_RECORDS_N8)
        return [f"{name}: {got} != {want}" for name, (got, want) in totals.items() if got != want]


class PerfectWeighted(Workload):
    """Weighted perfect division of the bull-free graphs on 3..7 vertices
    that are odd-hole-free or P5-free, and of a seeded twin substitution of
    each, under three seeded weight vectors in 0..5 apiece."""

    name = "perfect-weighted"
    reports = ("divide",)
    verify = ("divide",)

    def setup(self):
        rng = self.rng
        for n in range(3, (5 if self.small else 7) + 1):
            for g in self.corpus.nonisomorphic_graphs(n):
                flags = self.recognition.classify(g)
                if not flags.bull_free or not (flags.odd_hole_free or flags.p5_free):
                    continue
                twin = self.corpus.twin_substitute(g, rng.randrange(n), adjacent=rng.random() < 0.5)
                for h in (g, twin):
                    g6 = self.formats.emit_graph6(h)
                    for _ in range(3):
                        self.inputs.append((g6, h, [rng.randint(0, 5) for _ in range(h.n)]))
        rng.shuffle(self.inputs)

    def record(self, index):
        g6, g, weights = self.inputs[index]
        divided = self.harness.run_divide([(g6, g)], mode="perfect", weights_spec=weights)
        self.ok_records += self.add("divide", index, divided)


class PerfectReachN16(Workload):
    """16-vertex random bipartite graphs, random cographs and C5 blow-ups in
    equal shares: a perfect-mode coloring, then a weighted perfect division."""

    name = "perfect-reach-n16"
    reports = ("color", "divide")
    verify = ("color", "divide")
    bound_of = staticmethod(quadratic_bound)
    families = (random_bipartite, random_cograph, c5_blowup)

    def setup(self):
        n, count = (10, 30) if self.small else (16, 600)
        rng = self.rng
        graphs = []
        for i in range(count):
            rows = self.families[i % 3](n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            graphs.append(relabel(self.core.Graph, n, rows, perm))
        for g6, g in self.harness.graphs_with_ids(graphs):
            self.inputs.append((g6, g, [rng.randint(0, 5) for _ in range(n)]))
        rng.shuffle(self.inputs)

    def record(self, index):
        g6, g, weights = self.inputs[index]
        pair = [(g6, g)]
        colored = self.add("color", index, self.harness.run_color(pair, mode="perfect"))
        divided = self.add("divide", index, self.harness.run_divide(pair, mode="perfect", weights_spec=weights))
        self.ok_records += colored and divided


WORKLOADS = {w.name: w for w in (ExhaustiveN8, PerfectWeighted, PerfectReachN16)}


def phase_times(speed, **phases):
    """``<phase>_s`` net of the speed slices for each phase given as a
    ``(start, end)`` pair, and ``<phase>_s_scaled`` if slices were taken."""
    out = {}
    for name, (a, b) in phases.items():
        out[f"{name}_s"] = speed.net(a, b)
        if speed.starts:
            out[f"{name}_s_scaled"] = speed.scaled(a, b)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true", help="reduced inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    # Traced instances time their spans without the speed slices.
    speed = Speed()
    if not args.trace:
        speed.start()
    lib = _load_graphdiv()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.small, lib)
    workload.setup()
    records_start = time.monotonic()
    out = {}
    if args.setup_only:
        speed.stop()
        out.update(phase_times(speed, setup=(args.spawned_at, records_start)))
        out["input_digest"] = workload.input_digest()
        print(json.dumps(out))
        return 0

    bounds = []
    clock = time.monotonic
    for index in range(len(workload.inputs)):
        started = clock()
        workload.record(index)
        bounds.append((started, clock()))
    records_end = time.monotonic()
    workload.finish()
    ended = time.monotonic()
    speed.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setup, records, finish = (args.spawned_at, records_start), (records_start, records_end), (records_end, ended)
    out.update(phase_times(speed, setup=setup, records=records, finish=finish))
    problems = workload.check()
    out.update(
        record_ms=[speed.net(a, b) * 1000.0 for a, b in bounds],
        peak_rss_mb=peak_rss_mb,
        ok_records=workload.ok_records,
        attempted=len(workload.inputs),
        failed=len(workload.failures) + len(problems),
        failures=[f"record {i}: {why}" for i, why in sorted(workload.failures.items())[:20]] + problems,
        input_digest=workload.input_digest(),
        digest=workload.reports_digest(),
        speed_slices=len(speed.starts),
        speed_slices_s=sum(speed.took),
    )
    if speed.starts:
        out["record_ms_scaled"] = [speed.scaled(a, b) * 1000.0 for a, b in bounds]
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["trace_errors"] = dict(tracer.errors)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

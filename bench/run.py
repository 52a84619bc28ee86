"""Run one graphdiv benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Run from the root of a checkout. Every measured instance is a fresh
interpreter running ``bench/workloads.py``; this script only starts them one
after another, waits for each, checks their outputs and reduces their
numbers. With ``--trace 0`` it starts full instances until ``S`` seconds
have gone, plus set-up-only instances up to the workload's set-up count,
and reports the end-to-end metrics of ``BENCHMARK.json``, with times scaled
to a reference host speed (``bench/speed.py``). With
``--trace 1`` it runs one untraced and one traced instance and reports the
per-layer metrics of the traced one, and the tracing overhead.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``. The
line before it holds the run's details (samples, digests, failures, machine)
and is also written to ``bench/results/``. The exit code is 0 only when
every output check passed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

# Set-ups measured per run. One exhaustive-n8 set-up enumerates all graphs on
# 8 vertices (about 15 s), so that workload measures one per run; the others
# add set-up-only instances until they have this many.
SETUPS = {"exhaustive-n8": 1, "perfect-weighted": 3, "perfect-reach-n16": 5}
RUN_LIMIT_S = 170.0


def git_sha():
    """HEAD of the checkout, read without git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(workload, seed, deadline, *flags):
    """Run one instance in a fresh interpreter and return its JSON output."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, "-B", str(BENCH / "workloads.py"), "--workload", workload, "--seed", str(seed)]
    spawned = time.monotonic()
    done = subprocess.run(
        [*command, "--spawned-at", repr(spawned), *flags],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - spawned),
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} instance exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def wall_s(child, key=""):
    return child["setup_s" + key] + child["records_s" + key] + child["finish_s" + key]


def end_to_end(full, setups, scaled):
    """The end-to-end metrics; with ``scaled``, times at the reference
    host speed (``bench/speed.py``), else as measured."""
    key = "_scaled" if scaled else ""
    samples = [ms for c in full for ms in c["record_ms" + key]]
    return {
        "wall_s": statistics.median(wall_s(c, key) for c in full),
        "setup_s": statistics.median(c["setup_s" + key] for c in setups),
        "records_per_s": statistics.median(c["ok_records"] / c["records_s" + key] for c in full),
        "record_ms_p50": statistics.median(samples),
        "record_ms_p90": statistics.quantiles(samples, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in full),
    }


def instances(args, run):
    """Start the run's instances; returns the untraced full instances, all
    instances and the traced instance (or None)."""
    started = time.monotonic()
    full = [run()]
    if args.trace:
        traced = run("--trace")
        return full, full + [traced], traced
    while time.monotonic() - started < args.seconds:
        full.append(run())
    children = full + [run("--setup-only") for _ in range(SETUPS[args.workload] - len(full))]
    return full, children, None


def recorded_digest(workload, seed, small):
    path = BENCH / "digests.json"
    if small or not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true", help="reduced inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # subprocess.run kills and reaps its instance when an exception unwinds it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "graphdiv" / "__init__.py").is_file():
        print(f"bench: no graphdiv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "small": args.small,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_at_start": os.getloadavg(),
        "wait_time": "not measured: one thread and no queue, so no layer waits on another",
    }
    small = ["--small"] if args.small else []

    def run(*flags):
        return spawn(args.workload, args.seed, deadline, *small, *flags)

    try:
        full, children, traced = instances(args, run)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    digests = {c["digest"] for c in children if "digest" in c}
    inputs = {c["input_digest"] for c in children}
    attempted = sum(c["attempted"] for c in children if "attempted" in c)
    failed = sum(c["failed"] for c in children if "failed" in c)
    problems = [f for c in children for f in c.get("failures", [])]
    if len(digests) != 1 or len(inputs) != 1:
        problems.append("instances of one seed disagree on their inputs or reports")
        failed += 1
    detail.update(
        instances=len(full),
        record_samples=sum(len(c["record_ms"]) for c in full),
        setup_samples=0 if args.trace else len(children),
        failed_frac=failed / attempted,
        failures=problems[:20],
        input_digest=sorted(inputs),
        digest=sorted(digests),
        recorded_digest=recorded_digest(args.workload, args.seed, args.small),
    )
    if args.trace:
        values = traced["layers"]
        names = spec["per_layer"]
        detail["trace_overhead_s"] = wall_s(traced) - statistics.median(wall_s(c) for c in full)
        detail["trace_errors"] = traced["trace_errors"]
    else:
        values = end_to_end(full, children, scaled=True)
        names = spec["end_to_end"]
        detail["unscaled"] = end_to_end(full, children, scaled=False)
        detail["speed_slices"] = [c["speed_slices"] for c in full]
        detail["wall_s_per_instance"] = [wall_s(c) for c in full]
        detail["setup_s_per_instance"] = [c["setup_s"] for c in children]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    RESULTS.mkdir(exist_ok=True)
    suffix = "-small" if args.small else ""
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    path.write_text(json.dumps({**detail, **result}, indent=2) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

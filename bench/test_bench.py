"""Self-test of the benchmark at reduced size.

    python3 -m pytest -q bench/test_bench.py

Each run here starts fresh interpreters through ``bench/run.py --small``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from speed import INTERVAL_S, Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, root=ROOT):
    command = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    return subprocess.run(
        [*command, "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )


def run_ok(workload, seed, trace):
    done = run(workload, seed, trace)
    assert done.returncode == 0, done.stderr + done.stdout
    *_, detail, result = done.stdout.splitlines()
    result = json.loads(result)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return json.loads(detail), result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_of_one_seed_repeat_exactly(workload):
    first_detail, first = run_ok(workload, 1, 1)
    second_detail, second = run_ok(workload, 1, 1)
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items() if k.endswith((".calls", ".cache_lookups"))}

    assert counts(first) == counts(second)
    assert first_detail["digest"] == second_detail["digest"]
    assert len(first_detail["digest"]) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_changes_the_inputs(workload):
    one, first = run_ok(workload, 1, 0)
    two, _ = run_ok(workload, 2, 0)
    assert list(first["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in first["metrics"].values())
    assert one["input_digest"] != two["input_digest"]
    assert one["digest"] != two["digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run(WORKLOADS[0], 1, 0, root=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_speed_slices_are_netted_out_and_scale_each_span():
    speed = Speed()
    started = time.monotonic()
    speed.start()
    while time.monotonic() - started < 6 * INTERVAL_S:
        pass
    ended = time.monotonic()
    speed.stop()
    assert len(speed.starts) >= 4
    inside = speed.starts.index(max(t for t in speed.starts if t < ended))
    assert speed.net(started, ended) == pytest.approx(ended - started - sum(speed.took[: inside + 1]))
    assert speed.scaled(started, ended) == pytest.approx(
        speed.net(started, ended) * sum(speed.factors[: inside + 1]) / (inside + 1)
    )
    # A span that holds no slice takes the mean factor of the two around it.
    a = speed.starts[1] + speed.took[1]
    assert speed.scaled(a, a + 1e-6) == pytest.approx(1e-6 * (speed.factors[1] + speed.factors[2]) / 2)

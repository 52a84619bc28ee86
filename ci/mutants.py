"""Mutation gate: every listed mutant of a check that guards a proof must
fail the tier-1 tests named beside it.

    python ci/mutants.py

Run it from anywhere; it needs pytest and nothing else outside the
standard library. It runs every mutant in ``MUTANTS``.

For each mutant the script copies ``src`` to a temporary directory,
replaces the mutant's ``old`` text, which must occur exactly once in its
file, by its ``new`` text, and runs the mutant's named tests against the
copy (``PYTHONPATH`` pointing at it). A mutant is killed when every named
test fails; it survives when one of them passes. First, the named tests
must all pass on the unmutated copy, so that a test that always fails
kills nothing. The script exits 1 if any mutant survives and 2 if the
gate itself is broken (a named test not run, or a mutant's text not
found exactly once).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/graphdiv
    old: str
    new: str
    tests: tuple


# The one contraction rule of perfect division, the merge's sides (which no
# per-merge check re-verifies), the quotient's homogeneity check, the base
# step, the final check's perfection clause (the only test of a base step's
# P side) and the class check's bull search.
MUTANTS = (
    Mutant(
        "pair-rule-in-homogeneous-split",
        "recognition.py",
        """            return child, _with_child(root, i, Module(LEAF, child.mask & -child.mask), child.mask)
    return None
""",
        """            return child, _with_child(root, i, Module(LEAF, child.mask & -child.mask), child.mask)
    if root.kind != PRIME and len(root.children) >= 3:
        first, second = root.children[:2]
        x_tree = Module(root.kind, first.mask | second.mask, (first, second))
        return x_tree, Module(root.kind, root.mask & ~second.mask, (first,) + root.children[2:])
    return None
""",
        (
            "tests/test_divisibility.py::TestDecompositionDivision::test_complete_and_edgeless_sets_take_one_base_step",
            "tests/test_coloring.py::TestPerfectDivisionColoring::test_recursion_verifies_each_division_once[K4]",
            "tests/test_recognition.py::TestModularDecomposition::test_every_mask_up_to_six_vertices",
        ),
    ),
    Mutant(
        "merge-p-without-inner-p",
        "divisibility.py",
        "        p = (quotient[0] & ~rep_bit) | inner[0]\n",
        "        p = quotient[0] & ~rep_bit\n",
        (
            "tests/test_divisibility.py::TestPerfectDivide::test_doubled_c5_goes_through_quotient",
            "tests/test_divisibility.py::TestRecombine::test_twin_pair_replacement_on_p_side",
            "tests/test_harness.py::TestDrivers::test_perfect_divide_checks_the_whole_graph_once[None]",
        ),
    ),
    Mutant(
        "merge-w-without-inner-w",
        "divisibility.py",
        "        w_side = quotient[1] | inner[1]\n",
        "        w_side = quotient[1]\n",
        (
            "tests/test_divisibility.py::TestRecombine::test_twin_pair_replacement_on_p_side",
            "tests/test_divisibility.py::TestWithin::test_perfect_divide_matches_induced_subgraph",
            "tests/test_harness.py::TestDrivers::test_failure_logs_are_plain_dicts_in_divide_and_color[merge]",
        ),
    ),
    Mutant(
        "merge-x-on-p-when-xhat-in-w",
        "divisibility.py",
        """        p = quotient[0]
        w_side = quotient[1] | x_mask
""",
        """        p = quotient[0] | x_mask
        w_side = quotient[1] & ~rep_bit
""",
        (
            "tests/test_divisibility.py::TestRecombine::test_replacement_on_w_side",
            "tests/test_divisibility.py::TestRecombine::test_recombine_verifies_the_merge_it_returns[all-on-w]",
            "tests/test_divisibility.py::TestNoGraphBelowTheBoundary::"
            "test_perfect_division_decomposes_once_and_keeps_its_checks[None-6-10]",
        ),
    ),
    Mutant(
        "quotient-weights-without-homogeneity-check",
        "divisibility.py",
        """    if not _is_homogeneous_mask(adj, x_tree.mask, full):
        raise ValueError("x is not a homogeneous set of g")
""",
        "",
        (
            "tests/test_divisibility.py::TestQuotient::test_rejects_non_homogeneous_set",
            "tests/test_harness.py::TestDrivers::test_failed_quotient_or_merge_check_is_a_theorem_violation[homogeneity]",
            "tests/test_cli.py::TestDivide::test_failed_self_check_in_the_recursion_exits_5",
        ),
    ),
    Mutant(
        "base-step-puts-v-on-w",
        "divisibility.py",
        """        p_mask = mask & ~adj[v]
        w_mask = mask & adj[v]
""",
        """        p_mask = mask & ~adj[v] & ~(1 << v)
        w_mask = mask & adj[v] | 1 << v
""",
        (
            "tests/test_divisibility.py::TestPerfectDivide::test_c5_trace",
            "tests/test_divisibility.py::TestPerfectDivide::test_complete_graph_peels_one_vertex",
            "tests/test_harness.py::TestDrivers::test_failure_logs_are_plain_dicts_in_divide_and_color[perfection]",
        ),
    ),
    Mutant(
        "base-step-takes-the-largest-vertex",
        "divisibility.py",
        "        v = (mask & -mask).bit_length() - 1\n        p_mask",
        "        v = mask.bit_length() - 1\n        p_mask",
        (
            "tests/test_divisibility.py::TestPerfectDivide::test_c5_trace",
            "tests/test_divisibility.py::TestPerfectDivide::test_final_check_guards_the_smallest_vertex[FG`Xo]",
            "tests/test_divisibility.py::TestDecompositionDivision::test_logs_match_reference_on_the_criterion_3_graphs",
        ),
    ),
    Mutant(
        "perfect-division-verifier-without-perfection",
        "divisibility.py",
        """    if not _is_perfect_mask(g.adj, d.p.mask):
        return False, "P side is not perfect"
""",
        "",
        (
            "tests/test_divisibility.py::TestPerfectDivide::test_final_check_guards_the_smallest_vertex[FG`Xo]",
            "tests/test_divisibility.py::TestRecombine::test_recombine_verifies_the_merge_it_returns[all-on-p]",
            "tests/test_divisibility.py::TestVerifiers::test_perfect_division_matches_naive_on_moved_vertices",
        ),
    ),
    Mutant(
        "perfect-divide-class-without-bull-search",
        "divisibility.py",
        """    bull = find_bull(g)
    if bull is not None:
        raise NotInClassError("graph contains an induced bull", [bull])
""",
        "",
        (
            "tests/test_divisibility.py::TestPerfectDivide::test_bull_rejected",
            "tests/test_coloring.py::TestPerfectDivisionColoring::test_rejects_bull",
            "tests/test_cli.py::TestColor::test_class_violation_exit_and_witness[perfect-graph1-witness1]",
        ),
    ),
)


def _outcomes(src: Path, tests) -> dict:
    """Each named test's outcome, ``PASSED``, ``FAILED`` or ``ERROR``, when
    run against the package in ``src``; ``MISSING`` when it did not run."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests]
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    seen = {}
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            seen[rest.split(" - ")[0]] = word
    return {test: seen.get(test, "MISSING") for test in tests}


def _copy_src(work: Path) -> Path:
    src = work / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="graphdiv-mutants-") as tmp:
        src = _copy_src(Path(tmp) / "clean")
        probe = subprocess.run(
            [sys.executable, "-c", "import graphdiv; print(graphdiv.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True,
            text=True,
        )
        if not probe.stdout.startswith(str(src)):
            print(f"graphdiv is not imported from the copy: {probe.stdout or probe.stderr}", file=sys.stderr)
            return 2
        tests = sorted({t for m in MUTANTS for t in m.tests})
        broken = {t: o for t, o in _outcomes(src, tests).items() if o != "PASSED"}
        if broken:
            print(f"named tests do not pass unmutated: {broken}", file=sys.stderr)
            return 2
        survivors = 0
        for i, mutant in enumerate(MUTANTS):
            src = _copy_src(Path(tmp) / f"mutant-{i}")
            path = src / "graphdiv" / mutant.path
            text = path.read_text()
            if text.count(mutant.old) != 1 or not mutant.tests:
                print(f"{mutant.name}: its text occurs {text.count(mutant.old)} times, with {len(mutant.tests)} tests", file=sys.stderr)
                return 2
            path.write_text(text.replace(mutant.old, mutant.new))
            outcomes = _outcomes(src, mutant.tests)
            if "MISSING" in outcomes.values():
                print(f"{mutant.name}: named tests did not run: {outcomes}", file=sys.stderr)
                return 2
            passed = [t for t, o in outcomes.items() if o == "PASSED"]
            survivors += bool(passed)
            print(f"{'SURVIVED' if passed else 'killed'}: {mutant.name}" + "".join(f"\n  passed: {t}" for t in passed))
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

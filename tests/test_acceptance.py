"""Acceptance suite: one test per criterion, each printing a PASS line.

The corpora are exhaustive enumerations of small graphs, so this module is
heavier than the unit tests; run with ``pytest tests/test_acceptance.py -v -s``
to watch the per-criterion lines.
"""

import hashlib
import itertools
import json
import os
import random
import time
from collections import Counter

import pytest

import naive
from graphdiv import (
    VertexSet,
    WeightFn,
    canonical_graph,
    canonical_key,
    chromatic_number_exact,
    classify,
    classify_against_c5,
    clique_number,
    color_via_perfect_division,
    color_via_two_division,
    complement,
    cycle_graph,
    emit_graph6,
    find_bull,
    find_c5,
    find_homogeneous_set,
    find_odd_antihole,
    find_odd_hole,
    find_p5,
    find_perfect_nonneighborhood_vertex,
    induced_subgraph,
    is_perfect,
    is_two_divisible_oracle,
    nonisomorphic_graphs,
    parse_graph6,
    perfect_divide,
    random_graph,
    scrub_volatile,
    twin_substitute,
    two_divide,
    verify_perfect_division,
    verify_two_division,
)
from graphdiv.cli import EXIT_CLASS_VIOLATION, EXIT_OK, main
from graphdiv.core import _mask_components

SEED = 20260809
WEIGHT_DRAWS = 25
ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "artifacts")


def _passed(number, message):
    print(f"ACCEPTANCE {number} PASS: {message}")


@pytest.fixture(scope="session")
def corpus_le8():
    """All isomorphism classes on 1..8 vertices, plus the build time."""
    started = time.perf_counter()
    graphs = {n: nonisomorphic_graphs(n) for n in range(1, 9)}
    return graphs, time.perf_counter() - started


@pytest.fixture(scope="session")
def two_division_corpus(corpus_le8):
    """Connected (P5, C5)-free graphs on 2..8 vertices, plus filter time."""
    graphs, build_seconds = corpus_le8
    started = time.perf_counter()
    corpus = []
    for n in range(2, 9):
        for g in graphs[n]:
            if len(_mask_components(g.adj, (1 << n) - 1)) != 1:
                continue
            if find_p5(g) is not None or find_c5(g) is not None:
                continue
            corpus.append(g)
    return corpus, build_seconds + (time.perf_counter() - started)


@pytest.fixture(scope="session")
def perfect_division_corpus(corpus_le8):
    """Bull-free graphs on 1..8 vertices that are odd-hole-free or P5-free."""
    graphs, _ = corpus_le8
    corpus = []
    for n in range(1, 9):
        for g in graphs[n]:
            if find_bull(g) is not None:
                continue
            if find_odd_hole(g) is not None and find_p5(g) is not None:
                continue
            corpus.append(g)
    return corpus


def _seeded_weights(g6, draw):
    rng = random.Random(f"{SEED}/{g6}/{draw}")
    return rng


def test_criterion_1_two_division_constructive(two_division_corpus):
    corpus, prep_seconds = two_division_corpus
    started = time.perf_counter()
    failures = []
    for g in corpus:
        division = two_divide(g)
        ok, reason = verify_two_division(g, division)
        if not ok:
            failures.append((emit_graph6(g), reason))
    sweep_seconds = time.perf_counter() - started
    assert not failures, failures[:5]
    total = prep_seconds + sweep_seconds
    assert total < 600.0, f"criterion 1 took {total:.1f}s, budget is 600s"
    _passed(
        1,
        f"two_divide verified on all {len(corpus)} connected (P5,C5)-free "
        f"graphs with 2 <= n <= 8 in {total:.1f}s",
    )


def test_criterion_2_power_of_two_bound(two_division_corpus):
    corpus, _ = two_division_corpus
    violations = []
    for g in corpus:
        coloring, certificate = color_via_two_division(g)
        chi, _ = chromatic_number_exact(g)
        if not coloring.is_proper_for(g):
            violations.append((emit_graph6(g), "not proper"))
        elif certificate.colors_used > certificate.bound_value:
            violations.append((emit_graph6(g), "above bound"))
        elif certificate.colors_used < chi:
            violations.append((emit_graph6(g), "below chromatic number"))
    assert not violations, violations[:5]
    _passed(
        2,
        f"two-division colorings proper and within 2^(omega-1) on all "
        f"{len(corpus)} corpus graphs",
    )


def test_criterion_3_perfect_division_weighted(perfect_division_corpus):
    corpus = perfect_division_corpus
    failures = []
    instances = 0
    for g in corpus:
        g6 = emit_graph6(g)
        for draw in range(WEIGHT_DRAWS):
            rng = _seeded_weights(g6, draw)
            w = WeightFn.of(rng.randint(0, 5) for _ in range(g.n))
            instances += 1
            division = perfect_divide(g, w)
            ok, reason = verify_perfect_division(g, w, division)
            if not ok:
                failures.append((g6, w.weights, reason))
    assert not failures, failures[:5]

    # quotient-path coverage: twin substitution into prime class members
    quotient_routed = 0
    twin_instances = 0
    primes = [
        g
        for g in corpus
        if 3 <= g.n <= 6 and find_homogeneous_set(g) is None
    ]
    for base in primes:
        for adjacent in (False, True):
            g = twin_substitute(base, 0, adjacent=adjacent)
            g6 = emit_graph6(g)
            for draw in range(WEIGHT_DRAWS):
                rng = _seeded_weights("twin:" + g6, draw)
                w = WeightFn.of(rng.randint(0, 5) for _ in range(g.n))
                twin_instances += 1
                division = perfect_divide(g, w)
                ok, reason = verify_perfect_division(g, w, division)
                if not ok:
                    failures.append((g6, w.weights, reason))
                if any(step["kind"] == "quotient" for step in division.log):
                    quotient_routed += 1
    assert not failures, failures[:5]
    assert quotient_routed >= 50, f"only {quotient_routed} quotient-path instances"
    _passed(
        3,
        f"perfect_divide verified on {instances} weighted instances over "
        f"{len(corpus)} class graphs, plus {twin_instances} twin-substituted "
        f"instances of which {quotient_routed} routed through the quotient path",
    )


def test_criterion_4_quadratic_bound(perfect_division_corpus):
    corpus = perfect_division_corpus
    violations = []
    c5_key = canonical_key(cycle_graph(5))
    c5_used = None
    for g in corpus:
        coloring, certificate = color_via_perfect_division(g)
        if not coloring.is_proper_for(g):
            violations.append((emit_graph6(g), "not proper"))
        elif certificate.colors_used > certificate.bound_value:
            violations.append((emit_graph6(g), "above bound"))
        if canonical_key(g) == c5_key:
            c5_used = certificate.colors_used
    assert not violations, violations[:5]
    assert c5_used == 3, f"C5 should be bound-tight at 3 colors, used {c5_used}"
    _passed(
        4,
        f"perfect-division colorings within (omega+1 choose 2) on all "
        f"{len(corpus)} corpus graphs; C5 bound-tight at 3 colors",
    )


def test_criterion_5_perfect_nonneighborhoods_everywhere(corpus_le8):
    # the lemma that lets perfect division's base step take the smallest
    # vertex: in a prime class member every vertex has a perfect
    # non-neighborhood. Outside the class, in a prime bull-free graph with
    # an odd hole and a P5, some vertex may have an imperfect one
    graphs, _ = corpus_le8
    checked = 0
    outside = {}
    for n in range(1, 9):
        for g in graphs[n]:
            if find_bull(g) is not None or find_homogeneous_set(g) is not None:
                continue
            full = (1 << g.n) - 1
            imperfect = [v for v in range(g.n) if not is_perfect(g, VertexSet(g.n, full & ~g.adj[v] & ~(1 << v)))]
            if find_odd_hole(g) is not None and find_p5(g) is not None:
                if imperfect:
                    outside[emit_graph6(g)] = (n, imperfect)
                continue
            assert not imperfect, (emit_graph6(g), imperfect)
            checked += 1
    assert checked == 288
    assert Counter(n for n, _ in outside.values()) == {7: 2, 8: 25}
    for g6 in ("FG`Xo", "F`GQW"):
        assert outside[g6] == (7, [0])
        assert find_perfect_nonneighborhood_vertex(parse_graph6(g6)) == 1
    _passed(
        5,
        f"every vertex of every prime bull-free graph that is odd-hole-free or P5-free "
        f"(n <= 8, {checked} graphs) has a perfect non-neighborhood; outside the class, "
        f"{len(outside)} prime bull-free graphs have a vertex with an imperfect one",
    )


def _induced_c5s(g):
    """Every induced 5-cycle of ``g``, as vertex tuples in cycle order."""
    found = []
    for combo in itertools.combinations(range(g.n), 5):
        inside = set(combo)
        degrees = {v: sum(1 for u in inside if u != v and g.has_edge(u, v)) for v in inside}
        if any(d != 2 for d in degrees.values()):
            continue
        order = [combo[0]]
        prev = None
        while len(order) < 5:
            nxt = min(
                u for u in inside if u != order[-1] and u != prev and g.has_edge(u, order[-1])
            )
            prev = order[-1]
            order.append(nxt)
        if len(set(order)) == 5 and g.has_edge(order[-1], order[0]):
            found.append(tuple(order))
    return found


def test_criterion_6_c5_attachment_properties(corpus_le8):
    graphs, _ = corpus_le8
    classified = 0
    covering_checked = 0
    for n in range(5, 9):
        for g in graphs[n]:
            if find_p5(g) is not None or find_bull(g) is not None:
                continue
            cycles = _induced_c5s(g)
            if not cycles:
                continue
            full = (1 << g.n) - 1
            prime = find_homogeneous_set(g) is None
            for cycle in cycles:
                outside = [v for v in range(g.n) if v not in cycle]
                for v in outside:
                    got = classify_against_c5(g, cycle, v)
                    assert got.kind != "violation", (emit_graph6(g), cycle, v)
                    classified += 1
                if prime:
                    covering_checked += 1
                    covered = False
                    for i in range(5):
                        ci = cycle[i]
                        cj = cycle[(i + 2) % 5]
                        union = g.adj[ci] | g.adj[cj] | (1 << ci) | (1 << cj)
                        if union == full:
                            covered = True
                            break
                    assert covered, (emit_graph6(g), cycle)
    _passed(
        6,
        f"no attachment violations over {classified} classifications; the "
        f"closed-neighborhood covering pair exists for all {covering_checked} "
        f"induced 5-cycles of prime (P5,bull)-free graphs",
    )


def _preserve_counterexample(payload):
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, "conjecture_counterexample.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return path


def test_criterion_7_conjecture_necessity(corpus_le8):
    graphs, _ = corpus_le8
    # the open direction, exhaustively up to 8 vertices: an odd-hole-free
    # graph that fails to 2-divide would falsify the conjecture
    for n in range(1, 9):
        for g in graphs[n]:
            if find_odd_hole(g) is not None:
                continue
            divisible, counter = is_two_divisible_oracle(g)
            if not divisible:
                path = _preserve_counterexample(
                    {
                        "graph6": emit_graph6(g),
                        "counterexample_subgraph": list(counter.members()),
                    }
                )
                pytest.exit(
                    f"conjecture counterexample found and preserved at {path}",
                    returncode=3,
                )
    # the forced direction on the named odd cycles
    for k in (5, 7, 9):
        divisible, _ = is_two_divisible_oracle(cycle_graph(k))
        assert not divisible, f"C{k} must not be 2-divisible"
    # and on a seeded sample of odd-hole-carrying graphs up to 9 vertices
    rng = random.Random(f"{SEED}/necessity")
    sampled = 0
    while sampled < 200:
        n = rng.randint(5, 9)
        g = random_graph(n, rng.uniform(0.3, 0.7), rng)
        if find_odd_hole(g) is None:
            continue
        divisible, _ = is_two_divisible_oracle(g)
        assert not divisible, emit_graph6(g)
        sampled += 1
    _passed(
        7,
        "2-divisibility matches odd-hole-freeness on all graphs with n <= 8 "
        "and fails on C5, C7, C9 and 200 sampled odd-hole graphs with n <= 9",
    )


_KEY_CACHE = {}


def _cached_key(g):
    state = (g.n, g.adj)
    key = _KEY_CACHE.get(state)
    if key is None:
        key = canonical_key(g)
        _KEY_CACHE[state] = key
    return key


def _naive_contains_by_key(g, pattern_key, size):
    for combo in itertools.combinations(range(g.n), size):
        sub, _ = induced_subgraph(g, VertexSet.of(g.n, combo))
        if _cached_key(sub) == pattern_key:
            return True
    return False


def test_criterion_8_oracle_cross_validation(corpus_le8):
    from graphdiv import BULL_PATTERN, C5_PATTERN, P5_PATTERN

    graphs, _ = corpus_le8
    pattern_keys = {
        "p5": canonical_key(P5_PATTERN),
        "c5": canonical_key(C5_PATTERN),
        "bull": canonical_key(BULL_PATTERN),
    }

    def check(g):
        assert (find_p5(g) is not None) == _naive_contains_by_key(g, pattern_keys["p5"], 5)
        assert (find_c5(g) is not None) == _naive_contains_by_key(g, pattern_keys["c5"], 5)
        assert (find_bull(g) is not None) == _naive_contains_by_key(g, pattern_keys["bull"], 5)
        assert (find_odd_hole(g) is not None) == naive.has_odd_hole(g)
        assert (find_odd_antihole(g) is not None) == naive.has_odd_antihole(g)

    exhaustive = 0
    for n in range(1, 8):
        for g in graphs[n]:
            check(g)
            exhaustive += 1

    rng = random.Random(f"{SEED}/finders")
    for _ in range(1000):
        n = rng.randint(1, 9)
        check(random_graph(n, rng.random(), rng))

    rng = random.Random(f"{SEED}/homogeneous")
    for _ in range(500):
        n = rng.randint(1, 10)
        g = random_graph(n, rng.random(), rng)
        got = find_homogeneous_set(g)
        exhaustive_sets = naive.homogeneous_sets(g)
        if got is None:
            assert exhaustive_sets == []
        else:
            assert frozenset(got.members()) in exhaustive_sets
    _passed(
        8,
        f"finders agree with subset enumeration on {exhaustive} exhaustive "
        f"and 1000 random graphs; homogeneous-set search agrees with "
        f"exhaustive search on 500 random graphs up to n = 10",
    )


# ---------------------------------------------------------------------------
# Invariant extensions beyond the criteria: disconnected inputs, nine-vertex
# samples (full nine-vertex enumeration is out of desk-scale reach, so the
# nine-vertex slice is twin-substituted from the eight-vertex classes, which
# stay inside both hereditary classes), and a deeper weight sweep.


def test_invariant_two_divide_covers_disconnected_graphs(corpus_le8):
    graphs, _ = corpus_le8
    checked = 0
    for n in range(2, 9):
        for g in graphs[n]:
            if find_p5(g) is not None or find_c5(g) is not None:
                continue
            if not g.has_any_edge():
                continue
            division = two_divide(g)
            ok, reason = verify_two_division(g, division)
            assert ok, (emit_graph6(g), reason)
            checked += 1
    assert checked > 3663  # strictly more than the connected corpus


def test_invariant_nine_vertex_twin_samples(corpus_le8):
    graphs, _ = corpus_le8
    rng = random.Random(f"{SEED}/nine")
    two_bases = [
        g for g in graphs[8] if find_p5(g) is None and find_c5(g) is None and g.has_any_edge()
    ]
    for base in rng.sample(two_bases, 300):
        g = twin_substitute(base, rng.randrange(8), adjacent=rng.random() < 0.5)
        division = two_divide(g)
        ok, reason = verify_two_division(g, division)
        assert ok, (emit_graph6(g), reason)

    perfect_bases = [
        g
        for g in graphs[8]
        if find_bull(g) is None
        and (find_odd_hole(g) is None or find_p5(g) is None)
    ]
    for base in rng.sample(perfect_bases, 200):
        g = twin_substitute(base, rng.randrange(8), adjacent=rng.random() < 0.5)
        for _ in range(5):
            w = WeightFn.of(rng.randint(0, 5) for _ in range(g.n))
            division = perfect_divide(g, w)
            ok, reason = verify_perfect_division(g, w, division)
            assert ok, (emit_graph6(g), w.weights, reason)


def test_invariant_fifty_weight_draws_small(corpus_le8):
    graphs, _ = corpus_le8
    for n in range(1, 7):
        for g in graphs[n]:
            if find_bull(g) is not None:
                continue
            if find_odd_hole(g) is not None and find_p5(g) is not None:
                continue
            g6 = emit_graph6(g)
            for draw in range(50):
                rng = random.Random(f"{SEED}/fifty/{g6}/{draw}")
                w = WeightFn.of(rng.randint(0, 5) for _ in range(g.n))
                division = perfect_divide(g, w)
                ok, reason = verify_perfect_division(g, w, division)
                assert ok, (g6, w.weights, reason)


def test_invariant_pattern_finders_exhaustive_at_eight(corpus_le8):
    from graphdiv import BULL_PATTERN, C5_PATTERN, P5_PATTERN

    graphs, _ = corpus_le8
    keys = {
        canonical_key(P5_PATTERN): find_p5,
        canonical_key(C5_PATTERN): find_c5,
        canonical_key(BULL_PATTERN): find_bull,
    }
    for g in graphs[8]:
        present = set()
        for combo in itertools.combinations(range(8), 5):
            sub, _ = induced_subgraph(g, VertexSet.of(8, combo))
            key = _cached_key(sub)
            if key in keys:
                present.add(key)
        for key, finder in keys.items():
            assert (finder(g) is not None) == (key in present), emit_graph6(g)


# How many graphs on n = 1..8 vertices have each class flag of classify;
# the perfect counts are OEIS A052431.
CLASS_COUNTS = {
    "p5_free": [1, 2, 4, 11, 33, 136, 685, 4550],
    "c5_free": [1, 2, 4, 11, 33, 148, 908, 8911],
    "bull_free": [1, 2, 4, 11, 33, 136, 650, 3774],
    "odd_hole_free": [1, 2, 4, 11, 33, 148, 907, 8899],
    "perfect": [1, 2, 4, 11, 33, 148, 906, 8887],
}


def test_invariant_class_counts_up_to_eight(corpus_le8):
    graphs, _ = corpus_le8
    counts = {flag: [] for flag in CLASS_COUNTS}
    for n in range(1, 9):
        reports = [classify(g) for g in graphs[n]]
        for flag, row in counts.items():
            row.append(sum(getattr(report, flag) for report in reports))
    assert counts == CLASS_COUNTS


# First 16 hex digits of the sha256 of each scrubbed criterion-9 report.
# A change that alters what a report says must say why and update these.
REPORT_DIGESTS = {
    "classify": "6e39326fd7998325",
    "divide": "e7488792be5527ea",
    "divide-two": "f85502f3df7fb24c",
    "color": "7ab40d03c9fe9938",
    "conjecture": "e1df0ea132f475e7",
    "divide-weighted": "767b3e9b7626e835",
    "color-perfect": "3a2b41ae61d28624",
    "classify-exhaustive": "2c569cb34f1f7b48",
}


def test_criterion_9_report_determinism(tmp_path, monkeypatch):
    # the weight file is named relative to the run's directory, because the
    # report's options quote the name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.json").write_text(json.dumps([1, 2, 3, 0, 2, 1]))
    # each run with the exit code it ends in: the two-division corpus holds
    # the edgeless graph on 6 vertices, a class-violation record
    runs = {
        "classify": (EXIT_OK, ["classify", "--random", "7,0.5,40", "--seed", "17"]),
        "classify-exhaustive": (EXIT_OK, ["classify", "--exhaustive", "7", "--seed", "17"]),
        "divide": (EXIT_OK, [
            "divide", "--mode", "perfect", "--exhaustive", "6",
            "--filter", "bullfree,p5free", "--seed", "17",
        ]),
        "divide-two": (EXIT_CLASS_VIOLATION, [
            "divide", "--mode", "two", "--exhaustive", "6",
            "--filter", "p5free,c5free", "--seed", "17",
        ]),
        "color": (EXIT_OK, [
            "color", "--mode", "two", "--exhaustive", "6",
            "--filter", "p5free,c5free", "--seed", "17",
        ]),
        "conjecture": (EXIT_OK, ["conjecture", "--max-n", "5"]),
        "divide-weighted": (EXIT_OK, [
            "divide", "--mode", "perfect", "--exhaustive", "6",
            "--filter", "bullfree,p5free", "--weights", "w.json", "--seed", "17",
        ]),
        "color-perfect": (EXIT_OK, [
            "color", "--mode", "perfect", "--exhaustive", "6",
            "--filter", "bullfree,oddholefree", "--seed", "17",
        ]),
    }
    for name, (expected_code, args) in runs.items():
        texts = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}.json"
            code = main(args + ["--out", str(out)])
            assert code == expected_code, (name, code)
            payload = json.loads(out.read_text())
            texts.append(json.dumps(scrub_volatile(payload), sort_keys=True, indent=2))
        assert texts[0] == texts[1], f"{name} report changed between identical runs"
        digest = hashlib.sha256(texts[0].encode()).hexdigest()[:16]
        assert digest == REPORT_DIGESTS[name], f"{name} report differs from the recorded one"
    _passed(
        9,
        "repeated harness runs with identical seeds are byte-identical after timestamp "
        "scrubbing, and match the recorded digests",
    )

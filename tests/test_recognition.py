import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import graphdiv.recognition
import naive
from graphdiv import (
    BULL_PATTERN,
    BudgetExceededError,
    C5_PATTERN,
    Embedding,
    Graph,
    P5_PATTERN,
    VertexSet,
    chromatic_number_exact,
    classify,
    color_via_perfect_division,
    complement,
    complete_graph,
    cycle_graph,
    embedding_is_valid,
    empty_graph,
    find_bull,
    find_c5,
    find_homogeneous_set,
    find_induced,
    find_odd_antihole,
    find_odd_hole,
    find_p5,
    imperfection_witness,
    induced_subgraph,
    is_homogeneous,
    is_perfect,
    path_graph,
    pattern_for_name,
    perfect_divide,
)
from graphdiv.corpus import nonisomorphic_graphs, random_graph, twin_substitute
from graphdiv.harness import exhaustive_corpus
from graphdiv.recognition import (
    PERFECTION_BUDGET,
    _ODD_CYCLES,
    _SEARCHES,
    _co_rows,
    _compile_search,
    _decompose,
    _homogeneous_split,
    _search_plan,
    _search_source,
)


def _rand(n, p, seed):
    return random_graph(n, p, random.Random(seed))


class TestFindInduced:
    def test_c5_has_no_induced_p5(self, c5):
        assert find_induced(c5, P5_PATTERN) is None
        # exhaustive cross-check: any 5 distinct vertices are the whole cycle
        assert not naive.contains_induced(c5, P5_PATTERN)

    def test_p5_embeds_in_itself_identically(self):
        emb = find_induced(path_graph(5), P5_PATTERN)
        assert emb.vertices == (0, 1, 2, 3, 4)

    def test_triangle_in_bull(self, bull):
        emb = find_induced(bull, complete_graph(3), "triangle")
        assert set(emb.vertices) == {1, 2, 3}
        assert embedding_is_valid(bull, complete_graph(3), emb)

    def test_lexicographically_first(self):
        # two induced P3s starting at 0; the finder must pick image (0, 1, 2)
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        emb = find_induced(g, path_graph(3))
        assert emb.vertices == (0, 1, 2)

    def test_empty_pattern(self):
        assert find_induced(cycle_graph(4), empty_graph(0)).vertices == ()

    def test_search_places_only_vertices_of_full(self):
        # C5 on 0..4 plus vertex 5, a twin of vertex 1. Vertices 0, 2, 3, 4
        # and 5 form a C5 again, but 0b011101 leaves out 1 and 5 and holds
        # only four vertices. The rows reach all six vertices, and the
        # non-neighbours derived from them reach every vertex outside full.
        g = twin_substitute(cycle_graph(5), 1, adjacent=False)
        assert g.adj[5] == g.adj[1]
        search = _SEARCHES[C5_PATTERN]
        for full, want in ((0b011101, None), (0b111101, (0, 4, 3, 2, 5)), (0b111111, (0, 1, 2, 3, 4))):
            assert search(g.adj, full) == want == _first_induced_within(g, C5_PATTERN, full)
        # C5 plus vertex 5, a twin of vertex 2: on 0, 1, 3 and 4 the
        # non-neighbours of 0 and 1 still reach 5, which closes a C5
        # outside full
        g = twin_substitute(cycle_graph(5), 2, adjacent=False)
        assert search(g.adj, 0b011011) is None

    def test_long_patterns(self):
        # past 20 loops the search runs on in a chain of generated functions
        assert find_induced(path_graph(40), path_graph(31)).vertices == tuple(range(31))
        rng = random.Random("induced/long")
        for n in (20, 21, 22, 41, 42):
            for pattern in (path_graph(n), cycle_graph(n)):
                hosts = [path_graph(n + 2), cycle_graph(n + 1), twin_substitute(pattern, rng.randrange(n), adjacent=True)]
                for host in hosts:
                    host = _relabel(host, rng)
                    assert _vertices(find_induced(host, pattern)) == naive.first_induced(host, pattern), (n, host.adj)
        # every cycle the hole search may ask for compiles
        for k in range(5, PERFECTION_BUDGET + 1, 2):
            c = cycle_graph(k)
            assert _compile_search(c)(c.adj, (1 << k) - 1) == tuple(range(k)) == naive.first_induced(c, c)

    def test_each_search_has_its_own_code_name(self):
        # profiles key a function by (file, line, name), so the searches of
        # different patterns must not share all three
        find_odd_hole(cycle_graph(7), None)
        codes = [_SEARCHES[p].__code__ for p in (P5_PATTERN, C5_PATTERN, BULL_PATTERN, _ODD_CYCLES[7])]
        names = {(code.co_filename, code.co_firstlineno, code.co_name) for code in codes}
        assert len(names) == len(codes), names
        assert codes[0].co_filename == "<induced search, 5 vertices, edges 0-1 1-2 2-3 3-4>"
        # the one table holds only the package's own patterns
        find_induced(path_graph(8), path_graph(6))
        assert set(_SEARCHES) <= {P5_PATTERN, C5_PATTERN, BULL_PATTERN} | set(_ODD_CYCLES.values())


class TestNamedFinders:
    def test_bull_identity(self, bull):
        emb = find_bull(bull)
        assert embedding_is_valid(bull, BULL_PATTERN, emb)

    def test_c6_contains_p5(self):
        emb = find_p5(cycle_graph(6))
        assert emb is not None
        assert embedding_is_valid(cycle_graph(6), P5_PATTERN, emb)

    def test_petersen_contains_c5(self, petersen):
        emb = find_c5(petersen)
        assert emb is not None
        assert embedding_is_valid(petersen, C5_PATTERN, emb)

    def test_agree_with_naive_enumeration_small(self):
        rng = random.Random(10)
        for _ in range(120):
            g = random_graph(rng.randint(0, 6), rng.random(), rng)
            for pattern, finder in (
                (P5_PATTERN, find_p5),
                (C5_PATTERN, find_c5),
                (BULL_PATTERN, find_bull),
            ):
                got = finder(g)
                assert (got is not None) == naive.contains_induced(g, pattern)
                if got is not None:
                    assert embedding_is_valid(g, pattern, got)


class TestOddHoles:
    def test_c7_is_its_own_hole(self):
        emb = find_odd_hole(cycle_graph(7))
        assert emb.pattern_name == "odd-hole(7)"
        assert emb.vertices == (0, 1, 2, 3, 4, 5, 6)

    def test_even_cycle_has_none(self):
        assert find_odd_hole(cycle_graph(6)) is None

    def test_antihole_of_c7_complement(self):
        g = complement(cycle_graph(7))
        emb = find_odd_antihole(g)
        assert emb.pattern_name == "odd-antihole(7)"
        assert embedding_is_valid(g, pattern_for_name(emb.pattern_name), emb)

    def test_c5_counts_on_both_sides(self, c5):
        assert find_odd_hole(c5).pattern_name == "odd-hole(5)"
        assert find_odd_antihole(c5).pattern_name == "odd-antihole(5)"

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            find_odd_hole(empty_graph(17))

    def test_pattern_names_are_those_the_finders_emit(self):
        assert pattern_for_name("odd-hole(7)") == cycle_graph(7)
        assert pattern_for_name("odd-antihole(9)") == complement(cycle_graph(9))
        # a 4-cycle or a triangle named as an odd hole is no witness of one,
        # and no finder emits a hole longer than the perfection budget
        for name in ("odd-hole(4)", "odd-hole(3)", "odd-antihole(1)", "odd-hole(x)", "odd-hole(07)",
                     "odd-hole(+7)", "odd-hole(\u0667)", "odd-hole( 7)", "odd-hole(7)!", "C7",
                     f"odd-hole({PERFECTION_BUDGET + 1 | 1})", "odd-antihole(" + "9" * 5000 + ")"):
            with pytest.raises(ValueError) as err:
                pattern_for_name(name)
            assert str(err.value) == f"unknown pattern name: {name}"

    def test_agrees_with_naive(self):
        rng = random.Random(21)
        for _ in range(80):
            g = random_graph(rng.randint(0, 8), rng.random(), rng)
            assert (find_odd_hole(g) is not None) == naive.has_odd_hole(g)
            assert (find_odd_antihole(g) is not None) == naive.has_odd_antihole(g)

    def test_hole_embedding_is_cycle_ordered(self):
        rng = random.Random(22)
        found = 0
        while found < 20:
            g = random_graph(9, 0.4, rng)
            emb = find_odd_hole(g)
            if emb is None:
                continue
            found += 1
            assert embedding_is_valid(g, pattern_for_name(emb.pattern_name), emb)


class TestPerfection:
    def test_c5_imperfect(self, c5):
        assert not is_perfect(c5)
        assert imperfection_witness(c5).pattern_name == "odd-hole(5)"

    def test_definitional_agreement_exhaustive_to_five(self):
        from graphdiv.corpus import nonisomorphic_graphs

        for n in range(6):
            for g in nonisomorphic_graphs(n):
                assert is_perfect(g) == naive.is_perfect(g)

    def test_definitional_agreement_sampled_at_seven(self):
        rng = random.Random("perfection/7")
        for _ in range(30):
            g = random_graph(7, rng.uniform(0.2, 0.8), rng)
            assert is_perfect(g) == naive.is_perfect(g)

    def test_c6_perfect_with_definitional_cross_check(self):
        g = cycle_graph(6)
        assert is_perfect(g)
        assert naive.is_perfect(g)

    def test_c7_complement_imperfect(self):
        assert not is_perfect(complement(cycle_graph(7)))

    def test_agrees_with_definition(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng.randint(0, 6), rng.random(), rng)
            assert is_perfect(g) == naive.is_perfect(g)

    def test_nothing_in_the_package_calls_the_antihole_finder(self, monkeypatch):
        # is_perfect asks imperfection_witness, as classify does, so
        # find_odd_antihole is a public finder only
        def refused(*args):
            raise AssertionError("find_odd_antihole was called")

        monkeypatch.setattr(graphdiv.recognition, "find_odd_antihole", refused)
        rng = random.Random("perfection/no-antihole-finder")
        graphs = [g for n in range(7) for g in nonisomorphic_graphs(n)] + list(_antihole_twins(rng, 20))
        divided = 0
        for g in graphs:
            is_perfect(g)
            report = classify(g)
            if report.bull_free and (report.odd_hole_free or report.p5_free):
                perfect_divide(g)
                color_via_perfect_division(g)
                divided += 1
        assert divided > 100
        assert len(list(exhaustive_corpus(6, ("perfect",)))) == 148

    def test_searches_no_antihole_of_length_five(self, monkeypatch, levels):
        # a quotient with no odd hole has no C5, so the antihole search
        # that follows the hole search starts at length 7
        searches = Counter()
        original = graphdiv.recognition._first_odd_cycle

        def recorded(kind, adj, full, shortest=5):
            searches[kind, shortest] += 1
            return original(kind, adj, full, shortest)

        monkeypatch.setattr(graphdiv.recognition, "_first_odd_cycle", recorded)
        find_odd_hole.cache_clear()  # so the hole searches run, too
        rng = random.Random("perfection/one-rule")
        for g in [g for n in range(8) for g in levels[n]] + list(_family_graphs(rng, 400, 3, 16)):
            is_perfect(g)
        assert searches["odd-antihole", 5] == 0, searches
        assert searches["odd-hole", 5] > 100 and searches["odd-antihole", 7] > 100, searches


def _first_induced_within(g, pattern, full):
    """``naive.first_induced`` on the subgraph induced on ``full``, in
    ``g``'s vertices; ``induced_subgraph`` keeps their order."""
    h, vmap = induced_subgraph(g, VertexSet(g.n, full))
    image = naive.first_induced(h, pattern)
    return None if image is None else tuple(vmap[v] for v in image)


def _relabel(g, rng):
    """``g`` with its vertices shuffled."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _combine(g, h, *, join):
    """The disjoint union of ``g`` and ``h`` (``h`` after ``g``), or with
    ``join`` their join."""
    n = g.n + h.n
    low = (1 << g.n) - 1
    high = ((1 << n) - 1) ^ low
    return Graph(
        n,
        tuple(row | (high if join else 0) for row in g.adj)
        + tuple((row << g.n) | (low if join else 0) for row in h.adj),
    )


def _random_cograph(n, rng):
    """A random tree of unions and joins over single vertices."""
    if n == 1:
        return empty_graph(1)
    k = rng.randint(1, n - 1)
    return _combine(_random_cograph(k, rng), _random_cograph(n - k, rng), join=rng.random() < 0.5)


def _random_bipartite(n, rng):
    side = [rng.random() < 0.5 for _ in range(n)]
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v] and rng.random() < 0.5]
    )


def _c5_blowup(n, rng):
    """A 5-cycle whose vertices are replaced by random cographs."""
    sizes = [1] * 5
    for _ in range(n - 5):
        sizes[rng.randrange(5)] += 1
    offsets = [sum(sizes[:i]) for i in range(5)]
    blocks = [((1 << sizes[i]) - 1) << offsets[i] for i in range(5)]
    rows = []
    for i in range(5):
        ring = blocks[(i - 1) % 5] | blocks[(i + 1) % 5]
        rows += [(row << offsets[i]) | ring for row in _random_cograph(sizes[i], rng).adj]
    return Graph(n, tuple(rows))


def _twin_substituted(n, rng):
    """A random graph with twins substituted into it until it has ``n``
    vertices."""
    g = random_graph(rng.randint(max(1, n // 2), max(1, n - 1)), rng.random(), rng)
    while g.n < n:
        g = twin_substitute(g, rng.randrange(g.n), adjacent=rng.random() < 0.5)
    return g


def _family_graphs(rng, count, low, high):
    """``count`` random bipartite graphs, cographs, C5 blow-ups and twin
    substitutions in turn, each with ``low`` to ``high`` vertices (C5
    blow-ups at least 5) and relabeled at random."""
    makers = (_random_bipartite, _random_cograph, lambda n, rng: _c5_blowup(max(n, 5), rng), _twin_substituted)
    for i in range(count):
        yield _relabel(makers[i % 4](rng.randint(low, high), rng), rng)


def _antihole_twins(rng, count):
    """``count`` twin substitutions each of the complements of C7 and C9,
    on at most 16 vertices and relabeled at random. Twins keep a graph
    odd-hole-free, so their only imperfection is an antihole of length 7
    or 9 inside a prime quotient."""
    for k in (7, 9):
        for _ in range(count):
            g = complement(cycle_graph(k))
            for _ in range(rng.randint(0, 16 - k)):
                g = twin_substitute(g, rng.randrange(g.n), adjacent=rng.random() < 0.5)
            yield _relabel(g, rng)


def _graph_with_hole(rng):
    """A random graph on 5 to 8 vertices, half of the time with an odd
    cycle of length 5 or 7 laid over its first vertices."""
    g = random_graph(rng.randint(5, 8), rng.uniform(0.25, 0.75), rng)
    if rng.random() < 0.5:
        return g
    k = 5 if g.n < 7 or rng.random() < 0.5 else 7
    return Graph.from_edges(g.n, g.edges() + [(i, (i + 1) % k) for i in range(k)])


def _piece_graphs(rng):
    """Graphs whose hole and antihole search splits into pieces: unions and
    joins, random bipartite graphs, cographs and C5 blow-ups on 8 to 16
    vertices, and twin substitutions, all relabeled at random."""
    for _ in range(20):
        for join in (False, True):
            g = _combine(_graph_with_hole(rng), _graph_with_hole(rng), join=join)
            yield _relabel(g, rng)
    for family in (_random_bipartite, _random_cograph, _c5_blowup):
        for _ in range(8):
            yield _relabel(family(rng.randint(8, 16), rng), rng)
    for _ in range(15):
        g = _graph_with_hole(rng)
        for _ in range(rng.randint(2, 6)):
            g = twin_substitute(g, rng.randrange(g.n), adjacent=rng.random() < 0.5)
        yield _relabel(g, rng)


def _later_piece_cases():
    """Graphs with their first odd hole, which lies outside the piece that
    holds vertex 0."""
    c7_then_c5 = _combine(cycle_graph(7), cycle_graph(5), join=False)
    # A C5 on 6..10 with vertex 0 joined to 6 and 7, beside a C5 on 1..5:
    # no odd hole passes through 0, so the first one is 1..5.
    beside = Graph.from_edges(
        11, [(0, 6), (0, 7), (6, 7), (7, 8), (8, 9), (9, 10), (10, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]
    )
    return ((c7_then_c5, (7, 8, 9, 10, 11)), (beside, (1, 2, 3, 4, 5)))


def _small_and_random_graphs(levels, seed):
    """Every graph on at most 7 vertices (one per isomorphism class, from
    the ``levels`` fixture), then seeded random graphs on 8 to 13 vertices,
    then graphs that split into pieces (``_piece_graphs``)."""
    for n in range(8):
        yield from levels[n]
    rng = random.Random(seed)
    for _ in range(150):
        yield random_graph(rng.randint(8, 13), rng.uniform(0.15, 0.85), rng)
    yield from _piece_graphs(rng)


def _vertices(emb):
    return None if emb is None else emb.vertices


CLAW = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
# P5 with a vertex on its second edge: no automorphism but the identity
ASYMMETRIC = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)])


class TestExactWitnesses:
    """The generated searches, and the odd-cycle search built on them,
    return exactly the witness of the plain scans in ``naive``, not just a
    witness."""

    def test_induced_patterns(self, levels, monkeypatch):
        others = {
            "K1": complete_graph(1),
            "K2": complete_graph(2),
            "2K1": empty_graph(2),
            "P3+K1": Graph.from_edges(4, [(0, 1), (1, 2)]),
            "P3": path_graph(3),
            "K3": complete_graph(3),
            "claw": CLAW,
            "C4": cycle_graph(4),
            "C6": cycle_graph(6),
            "K4": complete_graph(4),
            "2K2": Graph.from_edges(4, [(0, 1), (2, 3)]),
            "P4": path_graph(4),
            "asymmetric": ASYMMETRIC,
        }
        finders = [
            (P5_PATTERN, "P5", find_p5),
            (C5_PATTERN, "C5", find_c5),
            (BULL_PATTERN, "bull", find_bull),
        ]
        for name, pattern in others.items():
            # compiled once here, not on every call
            monkeypatch.setitem(graphdiv.recognition._SEARCHES, pattern, _compile_search(pattern))
            finders.append((pattern, name, lambda g, pattern=pattern, name=name: find_induced(g, pattern, name)))
        found = Counter()
        for g in _small_and_random_graphs(levels, "witness/induced"):
            for pattern, name, finder in finders:
                got = finder(g)
                assert _vertices(got) == naive.first_induced(g, pattern), (name, g.adj)
                if got is not None:
                    assert got.pattern_name == name
                    found[name] += 1
            assert find_induced(g, path_graph(g.n + 1)) is None
        assert all(found[name] > 20 for _, name, _ in finders), found
        assert sum(found.values()) > 5000

    def test_above_pairs(self):
        def above(pattern):
            return [(i, j) for i, slot in enumerate(_search_plan(pattern)) for j, t in slot if t & 2]

        assert above(P5_PATTERN) == [(0, 4)]
        assert above(C5_PATTERN) == [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4)]
        assert above(BULL_PATTERN) == [(0, 1)]
        # slot 0 of the claw is its centre, and its leaves are interchangeable
        assert above(CLAW) == [(1, 2), (1, 3), (2, 3)]
        assert above(complete_graph(3)) == [(0, 1), (0, 2), (1, 2)]
        assert above(ASYMMETRIC) == []

    def test_generated_searches(self):
        p5 = _search_source(P5_PATTERN)
        # one loop per slot but the last; one narrowing statement per later
        # slot, the above pair (0, 4) cut to the vertices above v0
        assert p5.startswith("def search(adj, full):\n    c0 = full\n")
        assert p5.count("while ") == 4
        # each placement reads its row once, narrows the edge slots first,
        # then derives its non-neighbours once for the non-edge slots
        assert p5.count("adj[") == 4 and p5.count(" = ~a") == 3
        assert "            a1 = adj[v1]\n            c2 = m0_2 & a1\n" in p5
        assert "    n0 = ~a0 ^ b0\n" in p5 and "    m0_4 = n0 & full & -(b0 << 1)\n" in p5
        assert p5.index("c1 = a0 & full") < p5.index("n0 = ") < p5.index("m0_2 = n0 & full")
        assert p5.endswith("return (v0, v1, v2, v3, (c4 & -c4).bit_length() - 1)\n")
        # a pattern with no non-edge derives no non-neighbours
        assert "~a" not in _search_source(complete_graph(4))
        # one slot returns the lowest vertex at once; no slot, the empty image
        assert "while" not in _search_source(complete_graph(1))
        assert _compile_search(complete_graph(1))((0, 0, 0), 0b110) == (1,)
        assert _compile_search(empty_graph(0))((), 0) == ()
        # at most 20 loops in one function: a longer search passes its live
        # masks on to the next function of a chain
        assert "search_" not in _search_source(path_graph(21))
        p22 = _search_source(path_graph(22))
        assert p22.count("while ") == 21
        assert "    rest = search_20(adj, c20, m19_21)\n" in p22
        assert "\ndef search_20(adj, c20, m19_21):\n    while c20:\n" in p22
        assert p22.endswith("\n        return (v20, (c21 & -c21).bit_length() - 1)\n")
        p42 = _search_source(path_graph(42))
        assert p42.count("\ndef ") == 2 and "return (v20, v21," in p42 and "(v40, (c41" in p42

    def test_odd_holes_and_antiholes_within(self, levels):
        rng = random.Random("witness/holes")
        holes = antiholes = 0
        for g in _small_and_random_graphs(levels, "witness/graphs"):
            for m in (None, VertexSet(g.n, rng.getrandbits(g.n) | rng.getrandbits(g.n))):
                vertices = None if m is None else m.members()
                hole = find_odd_hole(g, m)
                assert _vertices(hole) == naive.first_odd_hole(g, vertices)
                antihole = find_odd_antihole(g, m)
                assert _vertices(antihole) == naive.first_odd_hole(complement(g), vertices)
                if hole is not None:
                    assert hole.pattern_name == f"odd-hole({len(hole.vertices)})"
                    holes += 1
                if antihole is not None:
                    assert antihole.pattern_name == f"odd-antihole({len(antihole.vertices)})"
                    antiholes += 1
        assert holes > 100 and antiholes > 100

    def test_five_holes_are_the_c5_witness(self, levels):
        # one rule for every finder: a shortest odd hole of length 5 is the
        # smallest image tuple of C5, the one find_c5 returns
        fives = 0
        for g in (g for n in range(9) for g in levels[n]):
            hole = find_odd_hole(g, None)
            if hole is not None and hole.pattern_name == "odd-hole(5)":
                assert hole.vertices == find_c5(g).vertices, g.adj
                fives += 1
        assert fives == 3580

    def test_later_pieces(self):
        for g, hole in _later_piece_cases():
            assert naive.first_odd_hole(g) == hole
            assert _vertices(find_odd_hole(g, None)) == hole
            assert _vertices(find_odd_antihole(complement(g), None)) == hole
            assert _vertices(find_odd_antihole(g, None)) == naive.first_odd_hole(complement(g))


class TestCycleDecisions:
    """The hole and antihole search runs the generated search of C_k on
    each piece; on the host's rows and on the complement's rows that the
    antihole search builds, it finds an induced C_k exactly when one is
    there."""

    def test_decisions_agree_with_naive(self, levels):
        rng = random.Random("decide/cycles")
        cases = [(g, None) for n in range(9) for g in levels[n]] + [(g, None) for g in _piece_graphs(rng)]
        # each odd cycle up to 15 with one more vertex, joined to it, apart
        # from it or a twin of a cycle vertex, and the complements, on all
        # of their vertices
        for k in range(5, 16, 2):
            for g in (
                _combine(cycle_graph(k), empty_graph(1), join=rng.random() < 0.5),
                twin_substitute(cycle_graph(k), rng.randrange(k), adjacent=rng.random() < 0.5),
            ):
                g = _relabel(g, rng)
                cases += [(g, (1 << g.n) - 1), (complement(g), (1 << g.n) - 1)]
        searches = {k: _compile_search(cycle_graph(k)) for k in range(5, 16, 2)}
        seen = Counter()
        for g, fixed in cases:
            for side, host in (("rows", g), ("complement", complement(g))):
                mask = fixed if fixed is not None else rng.getrandbits(g.n) | rng.getrandbits(g.n)
                members = VertexSet(g.n, mask).members()
                # the complement's rows on the mask, as the antihole search builds them
                rows = g.adj if side == "rows" else _co_rows(g.adj, mask)
                for k in range(5, min(len(members), 15) + 1, 2):
                    found = searches[k](rows, mask)
                    assert (found is not None) == naive.has_induced_cycle(host, k, members), (side, k, g.adj, mask)
                    if found is not None:
                        assert set(found) <= set(members)
                        assert embedding_is_valid(host, cycle_graph(k), Embedding("cycle", found))
                        seen[side, k] += 1
        assert all(seen[side, 5] > 1000 for side in ("rows", "complement")), seen
        assert all(seen[side, k] >= 2 for side in ("rows", "complement") for k in range(7, 16, 2)), seen

    def test_long_cycles_agree_with_naive(self):
        # each odd cycle from 17 to 31 with one more vertex, joined to it,
        # apart from it, or an adjacent or non-adjacent twin of a cycle
        # vertex; searched on its rows, and on its complement's complement
        # rows as the antihole search builds them
        rng = random.Random("decide/long-cycles")
        cases = 0
        for k in range(17, 32, 2):
            cycle = cycle_graph(k)
            search = _compile_search(cycle)
            for g in (
                _combine(cycle, empty_graph(1), join=True),
                _combine(cycle, empty_graph(1), join=False),
                twin_substitute(cycle, rng.randrange(k), adjacent=True),
                twin_substitute(cycle, rng.randrange(k), adjacent=False),
            ):
                g = _relabel(g, rng)
                full = (1 << g.n) - 1
                want = naive.first_induced(g, cycle)
                assert search(g.adj, full) == want, (k, g.adj)
                assert search(_co_rows(complement(g).adj, full), full) == want, (k, g.adj)
                cases += 2
        assert cases == 64


def _lift(emb, vmap):
    return None if emb is None else Embedding(emb.pattern_name, tuple(vmap[v] for v in emb.vertices))


class TestWithin:
    """Hole, antihole and perfection search and the chromatic oracle on
    ``g`` restricted to ``within`` equal the same call on the induced
    subgraph, mapped back to ``g``'s vertices."""

    def test_matches_induced_subgraph(self):
        rng = random.Random(4096)
        imperfect = 0
        for _ in range(1000):
            # medium densities and about three vertices in four, so that
            # many of the subgraphs are imperfect
            g = random_graph(rng.randint(0, 12), rng.uniform(0.25, 0.75), rng)
            m = VertexSet(g.n, rng.getrandbits(g.n) | rng.getrandbits(g.n))
            sub, vmap = induced_subgraph(g, m)
            assert find_odd_hole(g, m) == _lift(find_odd_hole(sub), vmap)
            assert find_odd_antihole(g, m) == _lift(find_odd_antihole(sub), vmap)
            assert imperfection_witness(g, m) == _lift(imperfection_witness(sub), vmap)
            assert is_perfect(g, m) == is_perfect(sub)
            imperfect += not is_perfect(sub)
            chi, colors = chromatic_number_exact(g, m)
            ref_chi, ref_colors = chromatic_number_exact(sub)
            assert chi == ref_chi
            assert all(colors[v] == -1 for v in range(g.n) if v not in m)
            assert [colors[v] for v in vmap] == list(ref_colors)
            assert all(colors[u] != colors[v] for u in m for v in m if g.has_edge(u, v))
        assert imperfect > 40

    def test_budget_counts_within(self):
        g = empty_graph(20)
        assert is_perfect(g, VertexSet.of(20, range(16)))
        with pytest.raises(BudgetExceededError):
            find_odd_hole(g, VertexSet.of(20, range(17)))
        with pytest.raises(BudgetExceededError):
            find_odd_antihole(g, VertexSet.of(20, range(17)))


class TestHomogeneousSets:
    def test_c4(self):
        got = find_homogeneous_set(cycle_graph(4))
        assert got.members() == (0, 2)

    def test_c5_is_prime(self, c5):
        assert find_homogeneous_set(c5) is None
        assert naive.homogeneous_sets(c5) == []

    def test_bull_is_prime(self, bull):
        assert find_homogeneous_set(bull) is None
        assert naive.homogeneous_sets(bull) == []

    def test_agrees_with_exhaustive_search(self):
        rng = random.Random(17)
        for _ in range(150):
            g = random_graph(rng.randint(0, 8), rng.random(), rng)
            got = find_homogeneous_set(g)
            all_sets = naive.homogeneous_sets(g)
            if got is None:
                assert all_sets == []
            else:
                assert is_homogeneous(g, got)
                assert frozenset(got.members()) in all_sets

    def test_is_homogeneous_rejects_trivial_sizes(self):
        g = cycle_graph(4)
        assert not is_homogeneous(g, VertexSet.of(4, [1]))
        assert not is_homogeneous(g, VertexSet(4, (1 << 4) - 1))


def _agrees_with_slow_search(g, mask):
    """On ``g[mask]``, ``find_homogeneous_set`` names the child-rule
    reference's set; the set that perfect division contracts is the
    one-rule reference's and a child of the root with two or more
    vertices; the trees of that set and of the quotient are the
    decompositions of their vertex sets, and ``is_perfect`` agrees with
    the exact witness search. True when there is a homogeneous set."""
    within = VertexSet(g.n, mask)
    got = find_homogeneous_set(g, within)
    assert got == naive.child_rule_homogeneous_set(g, within), (g.adj, mask)
    contracted = naive.contracted_set(g, within)
    root = _decompose(g.adj, mask)
    split = _homogeneous_split(root)
    assert (split is None) == (contracted is None), (g.adj, mask)
    if split is not None:
        x_tree, q_tree = split
        x = x_tree.mask
        assert x == contracted.mask and x_tree in root.children, (g.adj, mask)
        assert x_tree == _decompose(g.adj, x), (g.adj, mask)
        assert q_tree == _decompose(g.adj, (mask & ~x) | (x & -x)), (g.adj, mask)
    if mask.bit_count() <= PERFECTION_BUDGET:
        assert is_perfect(g, within) == (imperfection_witness(g, within) is None), (g.adj, mask)
    return got is not None


class TestModularDecomposition:
    """Homogeneous sets, the contracted trees and perfection read off the
    modular decomposition agree with the slow searches they replace."""

    def test_every_mask_up_to_six_vertices(self):
        cases = found = 0
        for n in range(7):
            for g in nonisomorphic_graphs(n):
                for mask in range(1 << n):
                    found += _agrees_with_slow_search(g, mask)
                    cases += 1
        assert cases == 11291 and found > 3000

    def test_sampled_masks_on_seven_and_eight_vertices(self, levels):
        rng = random.Random("decomposition/sampled")
        cases = found = 0
        for n, per_graph, graphs in ((7, 4, None), (8, 1, 1000)):
            corpus = levels[n]
            for g in corpus if graphs is None else rng.sample(corpus, graphs):
                for mask in [(1 << n) - 1] + [rng.getrandbits(n) for _ in range(per_graph)]:
                    found += _agrees_with_slow_search(g, mask)
                    cases += 1
        assert cases == 1044 * 5 + 1000 * 2 and found > 3000

    def test_relabeled_families(self):
        rng = random.Random("decomposition/families")
        cases = found = imperfect = 0
        for g in _family_graphs(rng, 400, 3, 16):
            for mask in ((1 << g.n) - 1, rng.getrandbits(g.n) | rng.getrandbits(g.n)):
                found += _agrees_with_slow_search(g, mask)
                imperfect += not is_perfect(g, VertexSet(g.n, mask))
                cases += 1
        assert found > 400 and imperfect > 100

    def test_perfection_budget_counts_the_largest_prime_quotient(self):
        # K_{2x10}: 20 vertices, but every quotient is complete or edgeless
        cocktail = Graph(20, tuple(((1 << 20) - 1) & ~(1 << v) & ~(1 << (v ^ 1)) for v in range(20)))
        assert is_perfect(cocktail)
        with pytest.raises(BudgetExceededError, match="asked for 20"):
            find_odd_hole(cocktail)
        with pytest.raises(BudgetExceededError, match="asked for 20"):
            imperfection_witness(cocktail)
        # P17 is prime, so its quotient is all 17 vertices
        with pytest.raises(BudgetExceededError, match="asked for 17"):
            is_perfect(path_graph(17))


class TestClassify:
    def test_c5(self, c5):
        report = classify(c5)
        assert report.p5_free and report.bull_free
        assert not report.c5_free and not report.odd_hole_free and not report.perfect
        assert report.c5_witness is not None and report.odd_hole_witness is not None

    def test_p4_all_free(self):
        report = classify(path_graph(4))
        assert report.p5_free and report.c5_free and report.bull_free
        assert report.odd_hole_free and report.perfect

    def test_c7(self):
        report = classify(cycle_graph(7))
        assert not report.p5_free
        assert report.c5_free
        assert not report.odd_hole_free

    def test_witness_slots_match_flags(self):
        rng = random.Random(55)
        for _ in range(60):
            g = random_graph(rng.randint(0, 8), rng.random(), rng)
            report = classify(g)
            assert report.p5_free == (report.p5_witness is None)
            assert report.c5_free == (report.c5_witness is None)
            assert report.bull_free == (report.bull_witness is None)
            assert report.odd_hole_free == (report.odd_hole_witness is None)
            assert report.perfect == (report.imperfection is None)
            # odd-hole-freeness subsumes C5-freeness
            if report.odd_hole_free:
                assert report.c5_free
            for witness in (report.p5_witness, report.c5_witness, report.bull_witness):
                if witness is not None:
                    assert embedding_is_valid(g, pattern_for_name(witness.pattern_name), witness)

    def test_equals_its_definition(self, levels):
        # classify reads C5 off the hole search and starts the antihole
        # search at length 7 on graphs with no odd hole; its witnesses are
        # those of the searches it skips, and is_perfect, which asks the
        # same rule of each prime quotient, agrees with it
        rng = random.Random("classify/definition")
        graphs = [g for n in range(8) for g in levels[n]]
        graphs += [_relabel(g, rng) for g in rng.sample(levels[8], 500)]
        graphs += list(_piece_graphs(rng))
        graphs += list(_antihole_twins(rng, 20))
        c5s = antiholes = 0
        for g in graphs:
            report = classify(g)
            find_c5.cache_clear()
            assert report.c5_witness == find_c5(g), g.adj
            assert report.imperfection == (find_odd_hole(g, None) or find_odd_antihole(g, None)), g.adj
            assert is_perfect(g) == report.perfect, g.adj
            c5s += report.c5_witness is not None
            antiholes += report.odd_hole_free and not report.perfect
        assert c5s > 200 and antiholes > 20, (c5s, antiholes)

    def test_report_json_shape(self, c5):
        payload = classify(c5).to_json()
        assert payload["p5_free"] is True
        assert payload["c5_free"] is False
        assert "c5" in payload["witnesses"]

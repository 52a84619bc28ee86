import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from graphdiv import (
    CLIQUE_BUDGET,
    Graph,
    ParseError,
    complete_graph,
    cycle_graph,
    emit_graph6,
    empty_graph,
    parse_dimacs,
    parse_graph6,
    parse_graph6_lines,
    path_graph,
)
from graphdiv.corpus import random_graph


class TestGraph6:
    def test_known_encodings(self):
        # derived by hand from the 6-bit upper-triangle packing
        assert emit_graph6(path_graph(4)) == "Ch"
        assert emit_graph6(complete_graph(5)) == "D~{"
        assert emit_graph6(cycle_graph(5)) == "Dhc"

    def test_empty_graphs_round_trip(self):
        for n in range(4):
            text = emit_graph6(empty_graph(n))
            assert parse_graph6(text) == empty_graph(n)
        assert emit_graph6(empty_graph(0)) == "?"

    def test_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randint(0, 20)
            g = random_graph(n, rng.random(), rng)
            assert parse_graph6(emit_graph6(g)) == g

    def test_parse_then_emit_is_identity_on_canonical_strings(self):
        rng = random.Random(99)
        for _ in range(200):
            g = random_graph(rng.randint(0, 12), rng.random(), rng)
            text = emit_graph6(g)
            assert emit_graph6(parse_graph6(text)) == text

    def test_matches_networkx(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(0, 14)
            g = random_graph(n, rng.random(), rng)
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from(g.edges())
            assert emit_graph6(g) == nx.to_graph6_bytes(G, header=False).decode().strip()

    def test_large_size_header(self):
        g = empty_graph(100)
        text = emit_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g

    def test_optional_header_is_stripped(self):
        assert parse_graph6(">>graph6<<Ch") == path_graph(4)

    def test_five_vertex_string_round_trips(self):
        assert emit_graph6(parse_graph6("D?{")) == "D?{"

    def test_out_of_range_byte(self):
        with pytest.raises(ParseError) as err:
            parse_graph6("D\x1f???")
        assert err.value.kind == "range"

    def test_truncated_body(self):
        with pytest.raises(ParseError) as err:
            parse_graph6("D")
        assert err.value.kind == "count"

    def test_overlong_body(self):
        with pytest.raises(ParseError) as err:
            parse_graph6("Chh")
        assert err.value.kind == "count"

    def test_nonzero_padding(self):
        # a 3-vertex body uses 3 of its 6 bits; set one of the padding bits
        with pytest.raises(ParseError) as err:
            parse_graph6("B" + chr(63 + 0b000100))
        assert err.value.kind == "count"

    def test_empty_string(self):
        with pytest.raises(ParseError) as err:
            parse_graph6("")
        assert err.value.kind == "header"

    def test_lines_parser(self):
        text = "Ch\n\nD~{\n"
        graphs = parse_graph6_lines(text)
        assert graphs == [path_graph(4), complete_graph(5)]


class TestDimacs:
    def test_cycle(self):
        text = "c a comment\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
        assert parse_dimacs(text) == cycle_graph(5)

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_graph(rng.randint(0, 10), rng.random(), rng)
            edges = g.edges()
            text = "".join([f"p edge {g.n} {len(edges)}\n"] + [f"e {u + 1} {v + 1}\n" for u, v in edges])
            assert parse_dimacs(text) == g

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("e 1 2\n")
        assert err.value.kind == "header"

    def test_malformed_header(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p edge five 5\n")
        assert err.value.kind == "header"
        with pytest.raises(ParseError) as err:
            parse_dimacs("p col 5 4\n")
        assert err.value.kind == "header"

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p edge 3 1\ne 1 4\n")
        assert err.value.kind == "range"

    def test_self_loop(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p edge 3 1\ne 2 2\n")
        assert err.value.kind == "range"

    def test_inconsistent_edge_count(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p edge 3 2\ne 1 2\n")
        assert err.value.kind == "count"

    def test_declared_size_limit(self):
        assert parse_dimacs(f"p edge {CLIQUE_BUDGET} 0\n") == empty_graph(CLIQUE_BUDGET)
        with pytest.raises(ParseError) as err:
            parse_dimacs(f"p edge {CLIQUE_BUDGET + 1} 0\n")
        assert err.value.kind == "range"
        assert str(err.value) == f"DIMACS header declares {CLIQUE_BUDGET + 1} vertices, above the limit of {CLIQUE_BUDGET}"

    def test_long_line_is_not_echoed_whole(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p edge 2 0\n" + "q" * 5000 + "\n")
        assert str(err.value).startswith("unknown DIMACS line type: 'qqq")
        assert len(str(err.value)) < 100

    def test_unknown_line(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p edge 2 0\nq 1\n")
        assert err.value.kind == "header"

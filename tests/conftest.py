import pytest

from graphdiv import Graph, cycle_graph
from graphdiv.corpus import _levels


@pytest.fixture(scope="session")
def bull():
    """The bull with the pendant path labeling used in the division traces:
    0=x, 1=a, 2=b, 3=c, 4=y; triangle a-b-c, pendants x-a and y-b."""
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 3), (2, 4)])


@pytest.fixture(scope="session")
def petersen():
    """Outer cycle 0..4, inner pentagram 5..9, spokes i to i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


@pytest.fixture(scope="session")
def c5():
    return cycle_graph(5)


@pytest.fixture(scope="session")
def levels():
    """``nonisomorphic_graphs(n)`` for n = 0..8, built in one walk, so the
    tests that read levels 7 and 8 share one build per session."""
    return tuple(_levels(8))

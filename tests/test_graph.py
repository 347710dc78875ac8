import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oramlab import build_access_graph, graph_from_edges

from conftest import assert_graph_invariants, brute_force_crossing, random_degree_bounded_graph

addr_lists = st.lists(st.integers(min_value=1, max_value=6), max_size=24)


def test_interleaved_pair():
    g = build_access_graph([5, 7, 5, 7])
    assert g.edges == [(0, 2), (1, 3)]


def test_consecutive_occurrences_only():
    g = build_access_graph([3, 3, 3])
    assert g.edges == [(0, 1), (1, 2)]  # (0, 2) is excluded: 1 sits in between


def test_empty_trace():
    g = build_access_graph([])
    assert g.N == 0 and g.edge_count == 0
    assert g.crossing_edge_count(0, 0, 0) == 0


def test_crossing_examples():
    g = build_access_graph([5, 7, 5, 7])
    assert g.crossing_edge_count(0, 2, 4) == 2
    assert g.crossing_edge_count(0, 1, 4) == 1
    assert g.crossing_edge_count(2, 3, 4) == 0


def test_crossing_rejects_bad_bounds():
    g = build_access_graph([1, 1])
    with pytest.raises(ValueError):
        g.crossing_edge_count(1, 0, 2)
    with pytest.raises(ValueError):
        g.crossing_edge_count(0, 1, 3)


@given(addrs=addr_lists)
@settings(max_examples=100)
def test_structural_invariants(addrs):
    g = build_access_graph(addrs)
    assert_graph_invariants(g)
    # succ is the inverse of pred
    for u, v in g.edges:
        assert g.succ[u] == v and g.pred[v] == u


@given(addrs=addr_lists)
@settings(max_examples=60)
def test_build_is_pure(addrs):
    g1 = build_access_graph(addrs)
    g2 = build_access_graph(addrs)
    assert g1.edges == g2.edges and g1.N == g2.N


@given(addrs=st.lists(st.integers(min_value=1, max_value=4), max_size=12), data=st.data())
@settings(max_examples=120)
def test_crossing_count_against_brute_force(addrs, data):
    g = build_access_graph(addrs)
    n = g.N
    a = data.draw(st.integers(0, n))
    m = data.draw(st.integers(a, n))
    b = data.draw(st.integers(m, n))
    assert g.crossing_edge_count(a, m, b) == brute_force_crossing(addrs, a, m, b)


def test_edges_in_window_matches_count():
    addrs = [1, 2, 1, 3, 2, 1, 3]
    g = build_access_graph(addrs)
    for a, m, b in [(0, 3, 7), (1, 2, 5), (0, 0, 7), (2, 4, 6)]:
        window = g.edges_in_window(a, m, b)
        assert len(window) == g.crossing_edge_count(a, m, b)
        assert all(a <= u < m <= v < b for u, v in window)


class _StubGraph:
    """Edges handed to the invariant checker as given, with no access graph behind them."""

    def __init__(self, n, edges):
        self.N, self.A = n, np.arange(n)
        self._u, self._v = (np.array(side, dtype=np.int64) for side in zip(*edges))
        self.edge_count = len(edges)

    def edge_arrays(self):
        return self._u, self._v


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (0, 2)], "outdegree"),
        ([(0, 2), (1, 2)], "indegree"),
        ([(0, 5)], None),  # an index past N fails as an assertion, not in bincount
        ([(-1, 1)], None),
    ],
)
def test_invariant_checker_rejects_broken_graphs(edges, message):
    with pytest.raises(AssertionError, match=message):
        assert_graph_invariants(_StubGraph(3, edges))


def test_graph_from_edges_realizes_exactly():
    rng = random.Random(99)
    for _ in range(200):
        g = random_degree_bounded_graph(rng, max_n=9)
        rebuilt = build_access_graph(g.A)
        assert sorted(rebuilt.edges) == sorted(g.edges)
        assert_graph_invariants(g)


def test_graph_from_edges_rejects_degree_violations():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 2), (1, 2)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(2, 1)])

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oramlab import AccessGraph, AccessSequence

from conftest import (
    assert_graph_invariants,
    brute_force_crossing,
    brute_force_crossing_edges,
    graph_from_edges,
    random_degree_bounded_graph,
)

addr_lists = st.lists(st.integers(min_value=1, max_value=6), max_size=24)


def test_interleaved_pair():
    g = AccessGraph([5, 7, 5, 7])
    assert g.edges == [(0, 2), (1, 3)]


def test_consecutive_occurrences_only():
    g = AccessGraph([3, 3, 3])
    assert g.edges == [(0, 1), (1, 2)]  # (0, 2) is excluded: 1 sits in between


def test_empty_trace():
    g = AccessGraph([])
    assert g.N == 0 and g.edge_count == 0
    assert len(g.crossing_edges(0, 0, 0)) == 0


def test_crossing_examples():
    g = AccessGraph([5, 7, 5, 7])
    assert len(g.crossing_edges(0, 2, 4)) == 2
    assert len(g.crossing_edges(0, 1, 4)) == 1
    assert len(g.crossing_edges(2, 3, 4)) == 0


def test_crossing_rejects_bad_bounds():
    g = AccessGraph([1, 1])
    with pytest.raises(ValueError):
        g.crossing_edges(1, 0, 2)
    with pytest.raises(ValueError):
        g.crossing_edges(0, 1, 3)


@given(addrs=addr_lists)
@settings(max_examples=100)
def test_structural_invariants(addrs):
    g = AccessGraph(addrs)
    assert_graph_invariants(g)
    # pred holds exactly the edges: each edge's source at its target, -1 elsewhere
    want = np.full(g.N, -1, dtype=np.int64)
    for u, v in g.edges:
        want[v] = u
    assert g.pred.tolist() == want.tolist()


@given(addrs=addr_lists)
@settings(max_examples=60)
def test_build_is_pure(addrs):
    g1 = AccessGraph(addrs)
    g2 = AccessGraph(addrs)
    assert g1.edges == g2.edges and g1.N == g2.N


@given(addrs=st.lists(st.integers(min_value=1, max_value=4), max_size=12), data=st.data())
@settings(max_examples=120)
def test_crossing_count_against_brute_force(addrs, data):
    g = AccessGraph(addrs)
    n = g.N
    a = data.draw(st.integers(0, n))
    m = data.draw(st.integers(a, n))
    b = data.draw(st.integers(m, n))
    assert len(g.crossing_edges(a, m, b)) == brute_force_crossing(addrs, a, m, b)


@given(addrs=st.lists(st.integers(min_value=1, max_value=5), max_size=20), data=st.data())
@settings(max_examples=200)
def test_crossing_edges_match_brute_force_edge_set(addrs, data):
    g = AccessGraph(addrs)
    a = data.draw(st.integers(0, g.N))
    m = data.draw(st.integers(a, g.N))
    b = data.draw(st.integers(m, g.N))
    at = g.crossing_edges(a, m, b)
    assert at.tolist() == sorted(set(at.tolist()))  # distinct positions in edge_arrays() order
    u, v = g.edge_arrays()
    assert list(zip(u[at].tolist(), v[at].tolist())) == brute_force_crossing_edges(addrs, a, m, b)


def test_crossing_edges_lie_in_their_window():
    addrs = [1, 2, 1, 3, 2, 1, 3]
    g = AccessGraph(addrs)
    u, v = g.edge_arrays()
    for a, m, b in [(0, 3, 7), (1, 2, 5), (0, 0, 7), (2, 4, 6)]:
        at = g.crossing_edges(a, m, b)
        window = list(zip(u[at].tolist(), v[at].tolist()))
        assert len(window) == brute_force_crossing(addrs, a, m, b)
        assert all(a <= u < m <= v < b for u, v in window)


class _StubGraph:
    """Edges handed to the invariant checker as given, with no access graph behind them."""

    def __init__(self, n, edges):
        self.N, self.trace = n, AccessSequence(np.arange(n))
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
        rebuilt = AccessGraph(g.trace.addrs)
        assert sorted(rebuilt.edges) == sorted(g.edges)
        assert_graph_invariants(g)


def test_graph_from_edges_rejects_degree_violations():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 2), (1, 2)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(2, 1)])

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oramlab import AccessGraph, AccessSequence, graph
from oramlab.graph import predecessors

from conftest import (
    assert_graph_invariants,
    brute_force_crossing,
    brute_force_crossing_edges,
    graph_from_edges,
    random_degree_bounded_graph,
)

addr_lists = st.lists(st.integers(min_value=1, max_value=6), max_size=24)


def _edge_list(g) -> list[tuple[int, int]]:
    u, v = g.edge_arrays()
    return list(zip(u.tolist(), v.tolist()))


def test_interleaved_pair():
    g = AccessGraph([5, 7, 5, 7])
    assert _edge_list(g) == [(0, 2), (1, 3)]


def test_consecutive_occurrences_only():
    g = AccessGraph([3, 3, 3])
    assert _edge_list(g) == [(0, 1), (1, 2)]  # (0, 2) is excluded: 1 sits in between


def test_empty_trace():
    g = AccessGraph([])
    assert g.N == 0 and len(g.edge_arrays()[1]) == 0
    assert len(g.crossing_edges(0, 0, 0)) == 0


def test_repr_builds_no_pred():
    g = AccessGraph([5, 7, 5, 7])
    assert repr(g) == "AccessGraph(N=4)" and g._pred is None


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
    for u, v in _edge_list(g):
        want[v] = u
    assert g.pred.tolist() == want.tolist()


@given(addrs=addr_lists)
@settings(max_examples=60)
def test_build_is_pure(addrs):
    g1 = AccessGraph(addrs)
    g2 = AccessGraph(addrs)
    assert _edge_list(g1) == _edge_list(g2) and g1.N == g2.N


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
    assert at.tolist() == sorted(set(at.tolist()))  # distinct targets, increasing
    assert list(zip(g.pred[at].tolist(), at.tolist())) == brute_force_crossing_edges(addrs, a, m, b)


def test_crossing_edges_lie_in_their_window():
    addrs = [1, 2, 1, 3, 2, 1, 3]
    g = AccessGraph(addrs)
    for a, m, b in [(0, 3, 7), (1, 2, 5), (0, 0, 7), (2, 4, 6)]:
        at = g.crossing_edges(a, m, b)
        window = list(zip(g.pred[at].tolist(), at.tolist()))
        assert len(window) == brute_force_crossing(addrs, a, m, b)
        assert all(a <= u < m <= v < b for u, v in window)


class _StubGraph:
    """Edges handed to the invariant checker as given, with no access graph behind them."""

    def __init__(self, n, edges):
        self.N, self.trace = n, AccessSequence(np.arange(n))
        self._u, self._v = (np.array(side, dtype=np.int64) for side in zip(*edges))

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
        assert sorted(_edge_list(rebuilt)) == sorted(_edge_list(g))
        assert_graph_invariants(g)


def test_graph_from_edges_rejects_degree_violations():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 2), (1, 2)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(2, 1)])


@pytest.mark.parametrize("top", [2**16 - 1, 2**16, 2**16 + 1, 2**40])
@pytest.mark.parametrize("lo", [0, 1, -3])
def test_consecutive_pairs_match_the_int64_sort(lo, top):
    """Keys sorted as uint16 below 2^16 and as int64 from 2^16 on give
    predecessors the consecutive-occurrence pairs a stable sort of the int64 keys gives."""
    rng = np.random.default_rng(top + lo)
    pool = np.array([lo, lo + 1, 2**16 - 2, 2**16 - 1, top - 1, top], dtype=np.int64)
    addrs = pool[rng.integers(0, len(pool), 4000)]
    addrs[[0, -1]] = lo, top
    pred = predecessors(addrs, *AccessSequence(addrs).bounds)
    assert pred.dtype == np.int64 and np.array_equal(pred, _int64_sort_pred(addrs))
    assert np.count_nonzero(pred >= 0) == len(addrs) - len(np.unique(addrs))


def _int64_sort_pred(addrs: np.ndarray) -> np.ndarray:
    """pred from one stable argsort of the int64 keys and one whole-trace pass over it."""
    order = np.argsort(addrs, kind="stable")
    same = addrs[order][1:] == addrs[order][:-1]
    want = np.full(len(addrs), -1, dtype=np.int64)
    want[order[1:][same]] = order[:-1][same]
    return want


@given(
    addrs=st.lists(st.integers(1, 4) | st.sampled_from([2**16 - 1, 2**16, 2**40]), max_size=300),
    block=st.sampled_from([1, 2, 3, 7]),
)
@example(addrs=[1, 2] * 100, block=7)  # 200 keys below 2^16: the uint16 sort
@example(addrs=[5], block=1)
@settings(max_examples=150, deadline=None)
def test_predecessors_in_blocks_match_the_int64_sort(addrs, block):
    """Filled from a few sorted positions at a time, pred is still the one a whole-trace pass gives."""
    addrs = np.array(addrs, dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_BLOCK_PROBES", block)
        pred = predecessors(addrs, *AccessSequence(addrs).bounds)
    assert np.array_equal(pred, _int64_sort_pred(addrs))


def test_consecutive_pairs_of_no_address():
    seq = AccessSequence(np.empty(0, dtype=np.int64))
    assert seq.bounds == (0, 0)
    assert len(predecessors(seq.addrs, *seq.bounds)) == 0
    assert len(AccessGraph(seq).edge_arrays()[1]) == 0


_NARROW = [1, 2, 3, 2**16 - 1]  # every address below 2^16: the uint16 sort from RADIX_MIN_KEYS keys on
_WIDE = _NARROW + [2**16, 2**16 + 1, 2**40]
_PERIODS = st.one_of(*(st.lists(st.sampled_from(pool), min_size=1, max_size=130) for pool in (_NARROW, _WIDE)))


@given(period=_PERIODS, reps=st.integers(0, 3), b=st.integers(0, 400), span=st.integers(0, 400))
@example(period=_NARROW * 33, reps=1, b=0, span=400)  # 132 keys below 2^16: the uint16 sort
@example(period=_NARROW * 11 + [2**16], reps=3, b=2, span=400)  # a top at 2^16: the int64 sort
@settings(max_examples=100, deadline=None)
def test_a_shorter_windows_pred_is_a_longer_windows_prefix(period, reps, b, span):
    """predecessors(w)[:j] == predecessors(w[:j]) for every j, on windows of a repeating
    trace whose tops lie either side of 2^16 and whose lengths lie either side of
    RADIX_MIN_KEYS: the greedy's bisection reads a window's pred off a longer one's prefix."""
    seq = AccessSequence.repeating(period, reps)
    b = min(b, seq.N)
    e = min(b + span, seq.N)
    w = seq.window(b, e)
    assert np.array_equal(w, np.tile(np.array(period, dtype=np.int64), reps)[b:e])
    pred = predecessors(w, *seq.bounds)
    for j in range(len(w) + 1):
        assert np.array_equal(pred[:j], predecessors(w[:j], *seq.bounds))


def test_bounds_of_a_repeating_trace_come_from_its_period():
    seq = AccessSequence.repeating([5, 2**16 + 4, 3], 4)
    assert seq.bounds == (3, 2**16 + 4)
    assert seq._addrs is None  # the trace was not built
    want = AccessGraph(np.tile([5, 2**16 + 4, 3], 4))
    assert np.array_equal(AccessGraph(seq).pred, want.pred)

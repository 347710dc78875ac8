"""Access graphs: ordered graphs on probe timestamps.

Vertices are probe timestamps 0..N-1 and there is an edge (i, j), i < j,
exactly when probes i and j hit the same server address with no probe of that
address in between.  Consecutive-occurrence edges give every vertex indegree
and outdegree at most one, so the edge count never exceeds N - 1 and a probe
trace always has at least as many probes as its graph has edges.

Indegree at most one makes one array the whole graph: ``pred[v]`` is the
source of the edge into v, or -1, and every edge is ``(pred[v], v)``.
Construction is lazy: the graph wraps an ``AccessSequence`` and builds
``pred`` on first use (one stable sort, whose order fills ``pred`` a block
at a time); prefix-only analyses read ``trace.window``s, which on a
repeating trace never build the whole array (``pred`` does).
``predecessors`` is the only place edges are derived from addresses.
"""

from __future__ import annotations

import numpy as np

from .server import AccessSequence, stable_order

_BLOCK_PROBES = 1 << 16  # the sorted positions pred is filled from at a time


def predecessors(addrs: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """pred of addrs, all in [lo, hi]: each probe's previous timestamp of its address, or -1.

    A stable sort lists each address's timestamps in increasing order, so
    adjacent equal keys are exactly the consecutive occurrences.  pred[:j]
    depends on addrs[:j] alone, so a window's pred is a longer window's prefix.
    """
    order = stable_order(addrs, lo, hi)
    pred = np.empty_like(order)
    for start in range(0, len(order), _BLOCK_PROBES):
        seg = order[start - 1 if start else 0 : start + _BLOCK_PROBES]  # a block's positions and the one before
        keys = addrs[seg]
        same = keys[1:] == keys[:-1]
        del keys  # np.where's result reuses its memory, which is faster than fresh pages
        pred[seg[1:]] = np.where(same, seg[:-1], -1)
        if not start:
            pred[seg[0]] = -1  # the smallest key's first occurrence
    return pred


class AccessGraph:
    """Ordered graph of consecutive same-address probe pairs."""

    __slots__ = ("trace", "N", "_pred")

    def __init__(self, trace):
        self.trace = trace if isinstance(trace, AccessSequence) else AccessSequence(trace)
        self.N = self.trace.N
        self._pred = None

    @property
    def pred(self) -> np.ndarray:
        """pred[v] = previous timestamp of trace.addrs[v], or -1 if v is its first occurrence."""
        if self._pred is None:
            self._pred = predecessors(self.trace.addrs, *self.trace.bounds)
        return self._pred

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges as parallel (u, v) = (pred[v], v) arrays ordered by target v, built on each call."""
        v = np.flatnonzero(self.pred >= 0)
        return self.pred[v], v

    def crossing_edges(self, a: int, m: int, b: int) -> np.ndarray:
        """Targets v in {m..b-1}, increasing, of the edges (pred[v], v) from {a..m-1}."""
        if not 0 <= a <= m <= b <= self.N:
            raise ValueError(f"need 0 <= a <= m <= b <= N, got ({a}, {m}, {b}) with N={self.N}")
        seg = self.pred[m:b]
        return m + np.flatnonzero((seg >= a) & (seg < m))

    def __repr__(self) -> str:
        return f"AccessGraph(N={self.N})"

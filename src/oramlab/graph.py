"""Access graphs: ordered graphs on probe timestamps.

Vertices are probe timestamps 0..N-1 and there is an edge (i, j), i < j,
exactly when probes i and j hit the same server address with no probe of that
address in between.  Consecutive-occurrence edges give every vertex indegree
and outdegree at most one, so the edge count never exceeds N - 1 and a probe
trace always has at least as many probes as its graph has edges.

Construction is lazy: the graph wraps an ``AccessSequence`` and builds
``pred`` on first use (one stable sort); prefix-only analyses read
``trace.window``s, which on a repeating trace never build the whole array (``pred`` does).
``consecutive_pairs`` is the only place edges are derived from addresses.
"""

from __future__ import annotations

import numpy as np

from .server import AccessSequence, stable_order


def consecutive_pairs(addrs: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges (u, v) of the access graph of addrs, all in [lo, hi], as parallel index arrays.

    A stable sort lists each address's timestamps in increasing order, so
    adjacent equal keys are exactly the consecutive occurrences.  The pairs
    come out grouped by address, not ordered by v.
    """
    order = stable_order(addrs, lo, hi)
    sorted_a = addrs[order]
    same = sorted_a[1:] == sorted_a[:-1]
    return order[:-1][same], order[1:][same]


class AccessGraph:
    """Ordered graph of consecutive same-address probe pairs."""

    __slots__ = ("trace", "N", "_pred", "_edge_u", "_edge_v")

    def __init__(self, trace):
        self.trace = trace if isinstance(trace, AccessSequence) else AccessSequence(trace)
        self.N = self.trace.N
        self._pred = None
        self._edge_u = None
        self._edge_v = None

    @property
    def pred(self) -> np.ndarray:
        """pred[v] = previous timestamp of trace.addrs[v], or -1 if v is its first occurrence."""
        if self._pred is None:
            pred = np.full(self.N, -1, dtype=np.int64)
            u, v = consecutive_pairs(self.trace.addrs, *self.trace.bounds)
            pred[v] = u
            self._pred = pred
        return self._pred

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges as parallel (u, v) arrays ordered by target v."""
        if self._edge_v is None:
            self._edge_v = np.flatnonzero(self.pred >= 0)
            self._edge_u = self.pred[self._edge_v]
        return self._edge_u, self._edge_v

    @property
    def edge_count(self) -> int:
        return len(self.edge_arrays()[0])

    def crossing_edges(self, a: int, m: int, b: int) -> np.ndarray:
        """Positions, in ``edge_arrays()`` order, of the edges from {a..m-1} into {m..b-1}."""
        if not 0 <= a <= m <= b <= self.N:
            raise ValueError(f"need 0 <= a <= m <= b <= N, got ({a}, {m}, {b}) with N={self.N}")
        u, v = self.edge_arrays()
        lo, hi = np.searchsorted(v, (m, b))
        seg = u[lo:hi]
        return lo + np.flatnonzero((seg >= a) & (seg < m))

    def __repr__(self) -> str:
        return f"AccessGraph(N={self.N}, edges={self.edge_count})"


"""Access graphs: ordered graphs on probe timestamps.

Vertices are probe timestamps 0..N-1 and there is an edge (i, j), i < j,
exactly when probes i and j hit the same server address with no probe of that
address in between.  Consecutive-occurrence edges give every vertex indegree
and outdegree at most one, so the edge count never exceeds N - 1 and a probe
trace always has at least as many probes as its graph has edges.

Construction is lazy: the graph wraps an ``AccessSequence`` and builds
``pred``/``succ`` on first use (one stable sort); prefix-only analyses read
``window``s, which on a repeating trace never build the whole array (``A`` does).
``consecutive_pairs`` is the only place edges are derived from addresses.
"""

from __future__ import annotations

import numpy as np

from .server import AccessSequence


def consecutive_pairs(addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges (u, v) of the access graph of addrs, as parallel index arrays.

    A stable sort lists each address's timestamps in increasing order, so
    adjacent equal keys are exactly the consecutive occurrences.  The pairs
    come out grouped by address, not ordered by v.
    """
    order = np.argsort(addrs, kind="stable")
    sorted_a = addrs[order]
    same = sorted_a[1:] == sorted_a[:-1]
    return order[:-1][same], order[1:][same]


class AccessGraph:
    """Ordered graph of consecutive same-address probe pairs."""

    __slots__ = ("trace", "N", "_pred", "_succ", "_edge_u", "_edge_v")

    def __init__(self, trace):
        self.trace = trace if isinstance(trace, AccessSequence) else AccessSequence(trace)
        self.N = self.trace.N
        self._pred = None
        self._succ = None
        self._edge_u = None
        self._edge_v = None

    @property
    def A(self) -> np.ndarray:
        """The whole address array (built on first use for a repeating trace)."""
        return self.trace.addrs

    def window(self, b: int, e: int) -> np.ndarray:
        """A[b:e], building only that stretch of a repeating trace."""
        return self.trace.window(b, e)

    @property
    def pred(self) -> np.ndarray:
        """pred[v] = previous timestamp of A[v], or -1 if v is its first occurrence."""
        if self._pred is None:
            pred = np.full(self.N, -1, dtype=np.int64)
            u, v = consecutive_pairs(self.A)
            pred[v] = u
            self._pred = pred
        return self._pred

    @property
    def succ(self) -> np.ndarray:
        """succ[u] = next timestamp of A[u], or -1 (unique by construction)."""
        if self._succ is None:
            succ = np.full(self.N, -1, dtype=np.int64)
            pred = self.pred
            vs = np.nonzero(pred >= 0)[0]
            succ[pred[vs]] = vs
            self._succ = succ
        return self._succ

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges as parallel (u, v) arrays ordered by target v."""
        if self._edge_v is None:
            pred = self.pred
            vs = np.nonzero(pred >= 0)[0]
            self._edge_v = vs
            self._edge_u = pred[vs]
        return self._edge_u, self._edge_v

    @property
    def edges(self) -> list[tuple[int, int]]:
        u, v = self.edge_arrays()
        return list(zip(u.tolist(), v.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.edge_arrays()[0])

    def crossing_edge_count(self, a: int, m: int, b: int) -> int:
        """Number of edges from {a..m-1} into {m..b-1}."""
        if not 0 <= a <= m <= b <= self.N:
            raise ValueError(f"need 0 <= a <= m <= b <= N, got ({a}, {m}, {b}) with N={self.N}")
        u, v = self.edge_arrays()
        lo, hi = np.searchsorted(v, (m, b))
        seg = u[lo:hi]
        return int(((seg >= a) & (seg < m)).sum())

    def edges_in_window(self, a: int, m: int, b: int) -> list[tuple[int, int]]:
        """The crossing edges themselves (for certificate audits and export)."""
        if not 0 <= a <= m <= b <= self.N:
            raise ValueError(f"need 0 <= a <= m <= b <= N, got ({a}, {m}, {b}) with N={self.N}")
        u, v = self.edge_arrays()
        lo, hi = np.searchsorted(v, (m, b))
        seg_u, seg_v = u[lo:hi], v[lo:hi]
        keep = (seg_u >= a) & (seg_u < m)
        return list(zip(seg_u[keep].tolist(), seg_v[keep].tolist()))

    def __repr__(self) -> str:
        return f"AccessGraph(N={self.N}, edges={self.edge_count})"


def build_access_graph(trace) -> AccessGraph:
    """Build the access graph of an access sequence (or raw address list)."""
    return AccessGraph(trace)


def graph_from_edges(n: int, edges) -> AccessGraph:
    """Realize an ordered degree-bounded edge set as an actual access graph.

    Any ordered graph with in/outdegree at most one splits into vertex-disjoint
    forward paths; giving each path its own address (and every isolated vertex
    a fresh one) yields an address sequence whose access graph has exactly the
    requested edges.  Used by tests to enumerate graphs directly.
    """
    succ = {}
    tails = set()
    for u, v in edges:
        if not 0 <= u < v < n:
            raise ValueError(f"edge ({u}, {v}) not ordered within [0, {n})")
        if u in succ or v in tails:
            raise ValueError("edge set violates the degree-one bound")
        succ[u] = v
        tails.add(v)
    addr = [0] * n
    next_name = 1
    for start in range(n):
        if start in tails:
            continue
        cur = start
        addr[cur] = next_name
        while cur in succ:
            cur = succ[cur]
            addr[cur] = next_name
        next_name += 1
    return AccessGraph(addr)

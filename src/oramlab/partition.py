"""Dense partition testing and certified edge lower bounds.

A k-partition of an ordered graph on {0..N-1} is a monotone boundary sequence
0 = b_0 <= m_0 <= b_1 <= m_1 <= ... <= b_k = N; it is ell-dense when every
part [b_i, b_{i+1}) has a cut m_i crossed by at least ell edges.  One decider
lives here, ``greedy_dense_partition``: it closes parts left to right at the
earliest index where some cut reaches the threshold.  Feasibility of a part
is monotone in its right boundary (widening a window only adds edges), so the
earliest close is never a mistake and the greedy is complete as well as
sound.  Monotonicity also means the earliest close can be searched for:
window lengths gallop upward from 2*ceil(ell) (a cut crossed by t edges needs
2t vertices) until one is feasible, then bisection finds the smallest.  Each
probe derives the window's edges with one stable sort and reads every cut's
crossing count off a prefix sum, so only the windows examined are touched.
The test suite audits it against an exhaustive oracle that shares none of
its logic.

Density thresholds are exact rationals throughout; counts are integers, so
``count >= ell`` is evaluated as ``count >= ceil(ell)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import as_fraction, frac_ceil, is_power_of_4, powers_of_4_up_to
from .graph import AccessGraph, consecutive_pairs


class CertificateError(ValueError):
    """A partition certificate failed re-verification."""


@dataclass(frozen=True)
class Partition:
    """Boundary sequence (b_0, m_0, b_1, m_1, ..., b_k)."""

    boundaries: tuple[int, ...]

    def __post_init__(self):
        bs = self.boundaries
        if len(bs) < 3 or len(bs) % 2 == 0:
            raise ValueError("boundaries must be (b_0, m_0, ..., b_k)")
        if bs[0] != 0 or any(x > y for x, y in zip(bs, bs[1:])):
            raise ValueError("boundaries must be monotone and start at 0")

    @property
    def k(self) -> int:
        return len(self.boundaries) // 2

    @property
    def end(self) -> int:
        return self.boundaries[-1]

    def parts(self) -> list[tuple[int, int, int]]:
        bs = self.boundaries
        return [(bs[2 * i], bs[2 * i + 1], bs[2 * i + 2]) for i in range(self.k)]


def is_dense(graph: AccessGraph, partition: Partition, ell) -> bool:
    """Re-verify a partition part by part against the graph."""
    ell = as_fraction(ell)
    if partition.end != graph.N:
        return False
    return all(len(graph.crossing_edges(b, m, e)) >= ell for b, m, e in partition.parts())


def _first_heavy_cut(u: np.ndarray, v: np.ndarray, length: int, threshold: int) -> int | None:
    """Smallest window-local cut c in [0, length] crossed by at least threshold
    of the window's edges (u < c <= v), or None."""
    crossing = np.cumsum(
        np.bincount(u + 1, minlength=length + 1) - np.bincount(v + 1, minlength=length + 1)
    )
    c = int(np.argmax(crossing >= threshold))
    return c if crossing[c] >= threshold else None


def _close_part(graph: AccessGraph, b: int, threshold: int) -> tuple[int, int] | None:
    """(m, e) for the part starting at b: the smallest feasible end e and the
    smallest cut m of [b, e) reaching the threshold, or None if no end works."""
    n = graph.N
    lo, hi = 2 * threshold - 1, 2 * threshold  # window lengths: lo infeasible, hi to try
    if b + hi > n:
        return None
    while True:
        u, v = consecutive_pairs(graph.trace.window(b, b + hi))
        cut = _first_heavy_cut(u, v, hi, threshold)
        if cut is not None:
            break
        if b + hi == n:
            return None
        lo, hi = hi, min(2 * hi, n - b)
    # a shorter window's edges are the longer one's edges that end inside it
    while hi - lo > 1:
        mid = (lo + hi) // 2
        keep = v < mid
        mid_cut = _first_heavy_cut(u[keep], v[keep], mid, threshold)
        if mid_cut is None:
            lo = mid
        else:
            hi, cut, u, v = mid, mid_cut, u[keep], v[keep]
    return b + cut, b + hi


def greedy_dense_partition(graph: AccessGraph, k: int, ell) -> Partition | None:
    """Left-to-right greedy test for an ell-dense k-partition.

    Each part starting at b closes at the smallest end e for which some cut m
    of [b, e) reaches the threshold, found by galloping over window lengths
    from 2*ceil(ell) and then bisecting; the witness records the smallest
    such m.  The last part's end is widened to N.  Returns a witness
    partition, or None when none exists.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    ell = as_fraction(ell)
    n = graph.N
    if ell <= 0:
        return Partition((0,) * (2 * k) + (n,))
    threshold = frac_ceil(ell)

    boundaries = [0]
    b = 0
    for _ in range(k):
        close = _close_part(graph, b, threshold)
        if close is None:
            return None
        boundaries.extend(close)
        b = close[1]
    boundaries[-1] = n  # widening the last part only adds edges
    return Partition(tuple(boundaries))


@dataclass
class PartitionCertificate:
    """Witnessed dense partitions for a family threshold ell = base_ell.

    For every k in K (powers of 4 only) the stored partition is
    (ell/k)-dense, so its parts' crossing edges certify the graph has at
    least ceil(ell/2 * |K|) edges:

    * a coarse part's crossing edges all span its cut m (u < m <= v), so
      only the one finer part holding m - 1 and m can share them;
    * powers of 4 k_1 < k_2 < ... have k_1 + ... + k_{j-1} <= k_j/3, so at
      least 2k_j/3 parts at scale k_j share no coarser witness's edge, and
      each of them adds at least ell/k_j new ones;
    * so the union holds at least ell + (|K| - 1) * 2ell/3 >= ell/2 * |K|.
    """

    base_ell: Fraction
    witnessed: dict[int, Partition]
    graph: AccessGraph

    @property
    def K(self) -> frozenset[int]:
        return frozenset(self.witnessed)

    def verify(self) -> int:
        """Re-check every witness; return the distinct crossing edges they exhibit (at most N - 1).

        Raises CertificateError unless each key k is a power of 4 whose witness
        has k parts and ends at N, the witnesses' crossing edges (one mask over
        ``edge_arrays()``) number at least the bound, and each witness is (base_ell/k)-dense.
        """
        graph = self.graph
        exhibited = np.zeros(graph.edge_count, dtype=bool)
        for k, partition in self.witnessed.items():
            if not is_power_of_4(k):
                raise CertificateError(f"certificate key {k} is not a power of 4")
            if (partition.k, partition.end) != (k, graph.N):
                raise CertificateError(
                    f"witness for k={k} has {partition.k} parts ending at {partition.end}; N={graph.N}"
                )
            for b, m, e in partition.parts():
                exhibited[graph.crossing_edges(b, m, e)] = True
        count, bound = int(np.count_nonzero(exhibited)), certified_bound(self.base_ell, len(self.witnessed))
        if count < bound:
            raise CertificateError(
                f"witnesses exhibit {count} distinct crossing edges, fewer than the bound {bound}"
            )
        for k, partition in self.witnessed.items():
            if not is_dense(graph, partition, self.base_ell / k):
                raise CertificateError(f"witness for k={k} fails the density re-check")
        return count


def certify(graph: AccessGraph, ell, k_max: int) -> PartitionCertificate:
    """Run the greedy at every power-of-4 part count up to k_max.

    Thresholds follow the (ell/k)-dense family; missing k just stay out of the
    witness map, they are not errors.
    """
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    ell = as_fraction(ell)
    witnessed = {}
    for k in powers_of_4_up_to(k_max):
        partition = greedy_dense_partition(graph, k, ell / k)
        if partition is not None:
            witnessed[k] = partition
    return PartitionCertificate(base_ell=ell, witnessed=witnessed, graph=graph)


def certified_bound(ell: Fraction, witnessed: int) -> int:
    """ceil(ell/2 * witnessed): the edges that witnesses at that many powers of 4 certify (see PartitionCertificate)."""
    return frac_ceil(ell / 2 * witnessed)


def edge_lower_bound_from_certificate(cert: PartitionCertificate) -> int:
    """Certified lower bound ceil(base_ell/2 * |K|) on the graph's edge count.

    Re-verifies every witness, and that they exhibit that many edges, before trusting it.
    """
    cert.verify()
    return certified_bound(cert.base_ell, len(cert.witnessed))


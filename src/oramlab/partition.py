"""Dense partition testing and certified edge lower bounds.

A k-partition of an ordered graph on {0..N-1} is a monotone boundary sequence
0 = b_0 <= m_0 <= b_1 <= m_1 <= ... <= b_k = N; it is ell-dense when every
part [b_i, b_{i+1}) has a cut m_i crossed by at least ell edges.  Two deciders
live here:

* ``greedy_dense_partition`` closes parts left to right at the earliest index
  where some cut reaches the threshold.  Feasibility of a part is monotone in
  its right boundary (widening a window only adds edges), so the earliest
  close is never a mistake and the greedy is complete as well as sound.
  Monotonicity also means the earliest close can be searched for: window
  lengths gallop upward from 2*ceil(ell) (a cut crossed by t edges needs 2t
  vertices) until one is feasible, then bisection finds the smallest.  Each
  probe derives the window's edges with one stable sort and reads every cut's
  crossing count off a prefix sum, so only the windows examined are touched.
* ``brute_force_dense_partition`` searches all monotone boundary sequences.
  Exponential, capped at N <= 18, and kept free of any greedy logic so the
  two can audit each other.

Density thresholds are exact rationals throughout; counts are integers, so
``count >= ell`` is evaluated as ``count >= ceil(ell)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import as_fraction, ceil_log4, floor_log4, frac_ceil, is_power_of_4, powers_of_4_up_to
from .graph import AccessGraph, consecutive_pairs

BRUTE_FORCE_CAP = 18


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


def _trivial_partition(k: int, n: int) -> Partition:
    return Partition((0,) * (2 * k) + (n,))


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
        return _trivial_partition(k, n)
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


def brute_force_dense_partition(graph: AccessGraph, k: int, ell) -> Partition | None:
    """Exhaustive oracle over all monotone boundary sequences (N <= 18).

    Independent of the greedy: it enumerates (m, e) choices per part directly
    over the edge list, memoizing only part starts already proven dead.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if graph.N > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at N <= {BRUTE_FORCE_CAP}, got N={graph.N}")
    ell = as_fraction(ell)
    n = graph.N
    if ell <= 0:
        return _trivial_partition(k, n)
    edges = graph.edges

    def cross(b: int, m: int, e: int) -> int:
        return sum(1 for u, v in edges if b <= u < m <= v < e)

    dead: list[set[int]] = [set() for _ in range(k + 1)]

    def search(b: int, parts_left: int) -> list[int] | None:
        if parts_left == 0:
            return [] if b == n else None
        if b in dead[parts_left]:
            return None
        for e in range(b, n + 1):
            for m in range(b, e + 1):
                if cross(b, m, e) >= ell:
                    rest = search(e, parts_left - 1)
                    if rest is not None:
                        return [m, e] + rest
                    break  # larger m in the same window cannot rescue this e
        dead[parts_left].add(b)
        return None

    found = search(0, k)
    if found is None:
        return None
    return Partition((0, *found))


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


def expected_edge_lower_bound(ell, s: int, t: int, p) -> Fraction:
    """Expected-edge bound (p*ell/2) * (floor(log4 t) - ceil(log4 s)), at least 0.

    s..t is the range of part counts known to admit an (ell/k)-dense
    k-partition with probability at least p; the log4 difference counts the
    powers of four inside the range.
    """
    if not 1 <= s <= t:
        raise ValueError(f"need 1 <= s <= t, got s={s}, t={t}")
    p = as_fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must be a probability")
    ell = as_fraction(ell)
    span = floor_log4(t) - ceil_log4(s)
    bound = p * ell / 2 * span
    return bound if bound > 0 else Fraction(0)


"""Attacks and estimators run against engine traces.

Contents: the polynomial-time distinguisher over dense-partition structure,
Monte-Carlo estimation of its advantage, dense-partition frequency over fresh
workload samples, and exact/empirical statistical distance.

Estimator determinism: per-trial randomness is derived from (seed, trial
index) by a fixed mixing function, and the two arms of an advantage estimate
share the engine seed and the decision coin per trial (common random numbers;
unbiased, and it makes "identical traces -> advantage exactly 0" hold sample
by sample instead of only in the limit).  The trials run in contiguous
chunks, one per worker; within a chunk a trial whose trace equals the last
one of its arm reuses that decision.  A seed-free engine (passthrough,
linear-scan) draws no randomness, so an advantage arm, whose input is fixed,
runs it on the chunk's first trial only; ``frequency`` draws a fresh input
per trial and runs it every trial.  The reuse is exact and every trial still
flips its own coin, so results are identical for any number of workers.
"""

from __future__ import annotations

import hashlib
import os
import random
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import repeat
from math import sqrt
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._util import as_fraction, derive_seed
from .core import WORKLOAD_FAMILIES, InputSequence, OramConfig, WorkloadSpec, instantiate_workload
from .graph import AccessGraph
from .orams import SEED_FREE_ENGINES, run_sequence
from .partition import greedy_dense_partition
from .server import AccessSequence, adversary_view


class WorkloadShapeError(ValueError):
    """The distinguisher's reference input does not parse as a block workload."""


NO_PARTITION = "no_partition"
COIN_FLIP = "coin_flip"


@dataclass(frozen=True)
class DistinguisherVerdict:
    guess: int  # 1 = "the trace came from y", 2 = "from y_prime"
    reason: str  # NO_PARTITION or COIN_FLIP

    def __post_init__(self):
        if self.guess not in (1, 2) or self.reason not in (NO_PARTITION, COIN_FLIP):
            raise ValueError("malformed verdict")
        if self.reason == NO_PARTITION and self.guess != 1:
            raise ValueError("a missing partition always points at the first input")


def parse_block_shape(y: InputSequence) -> tuple[int, int]:
    """Read (k, ell) off a block-shaped sequence by template matching.

    The block length ell is the leading run of writes to addresses 1, 2, ...;
    complete write/read block pairs are then consumed greedily and the rest
    must be alternating address-1 padding.  With ell = 1 a zero-data padding
    pair is indistinguishable from a block pair and parses as one more block;
    that degenerate shape never occurs in the analysis regime.
    """
    n = len(y)
    if n == 0 or n % 2:
        raise WorkloadShapeError("block workloads have positive even length")
    cols = (y.is_write, y.addr, y.data)
    ell = _leading_run(y.is_write & (y.addr == np.arange(1, n + 1)))
    if ell == 0:
        raise WorkloadShapeError("sequence does not start with a write to address 1")
    # every whole chunk of 2 * ell ops, as [chunk, write half or read half, j]
    w, a, d = (col[: n // (2 * ell) * 2 * ell].reshape(-1, 2, ell) for col in cols)
    j = np.arange(1, ell + 1)
    k = _leading_run((w[:, 0] & (a[:, 0] == j)).all(axis=1) & (~w[:, 1] & (a[:, 1] == j) & (d[:, 1] == 0)).all(axis=1))
    if k == 0:
        raise WorkloadShapeError("no complete write/read block pair found")
    pad_start = 2 * k * ell
    w, a, d = (col[pad_start:].reshape(-1, 2) for col in cols)
    pairs = _leading_run(w[:, 0] & ~w[:, 1] & (a == 1).all(axis=1) & (d[:, 0] == 0))
    if pairs < len(w):
        raise WorkloadShapeError(f"tail op pair at index {pad_start + 2 * pairs} is not address-1 padding")
    return k, ell


def _leading_run(mask: np.ndarray) -> int:
    """How many entries of mask are true before its first false one."""
    return int(np.argmin(np.append(mask, False)))


def distinguish(
    y: InputSequence,
    y_prime: InputSequence,
    trace: AccessSequence,
    coin: random.Random,
) -> DistinguisherVerdict:
    """The dense-partition distinguisher.

    Extracts the block count k' of y_prime, tests the trace's access graph
    for an (n/5k')-dense k'-partition, and answers "1" outright when the
    partition is missing (only the block workload is guaranteed to produce
    it); otherwise it flips the supplied coin.  Consumes only the address
    projection of the trace.
    """
    k_prime = _reference_blocks(y, y_prime)
    return _verdict(_has_dense_partition(trace, len(y), k_prime), coin)


def _reference_blocks(y: InputSequence, y_prime: InputSequence) -> int:
    """The block count k' of y_prime, for inputs of equal length."""
    if len(y_prime) != len(y):
        raise ValueError("the distinguisher compares equal-length inputs")
    return parse_block_shape(y_prime)[0]


def _has_dense_partition(trace: AccessSequence, n: int, k: int) -> bool:
    """Whether the trace's access graph has an (n/5k)-dense k-partition: every estimator's one decision."""
    return greedy_dense_partition(AccessGraph(trace), k, Fraction(n, 5 * k)) is not None


def _verdict(found: bool, coin: random.Random) -> DistinguisherVerdict:
    if not found:
        return DistinguisherVerdict(1, NO_PARTITION)
    return DistinguisherVerdict(1 if coin.random() < 0.5 else 2, COIN_FLIP)


class _LastDecision:
    """The last trace one arm of a chunk produced and whether it held the dense partition.

    Traces are compared with ``AccessSequence.cheap_eq``, so a repeating trace
    is never built: a pair it cannot compare counts as a miss, one greedy call.
    """

    __slots__ = ("trace", "found")

    def __init__(self):
        self.trace, self.found = None, False

    def decide(self, trace: AccessSequence, n: int, k: int) -> bool:
        if self.trace is None or not self.trace.cheap_eq(trace):
            self.trace, self.found = trace, _has_dense_partition(trace, n, k)
        return self.found


def _trial_trace(engine: str, config: OramConfig, y: InputSequence, engine_seed: int | None) -> AccessSequence:
    """The adversary's view of one engine run on y; the run's server is freed on return."""
    _, server = run_sequence(engine, config, y, engine_seed, record_meta=False)
    return adversary_view(server)


def _trial_decisions(engine, config, k, seed, salt, trials, inputs):
    """Whether each trial t, run on the next of inputs from engine seed (seed, t, salt), finds the dense k-partition:
    a trace equal to the last one reuses its decision, and a seed-free engine gets no seed and no rerun on one y."""
    seeded, last, y_last = engine not in SEED_FREE_ENGINES, _LastDecision(), None
    for t, y in zip(trials, inputs):
        if seeded or y is not y_last:
            engine_seed = derive_seed(seed, t, salt) if seeded else None
            found = last.decide(_trial_trace(engine, config, y, engine_seed), len(y), k)
        y_last = y
        yield found


@dataclass(frozen=True)
class AdvantageEstimate:
    trials: int
    p1_on_y: float
    p1_on_yprime: float
    advantage: float
    half_width: float

    def as_dict(self) -> dict:
        return asdict(self)


def _advantage_chunk(args) -> tuple[int, int]:
    """Guess-1 counts on y and on y_prime over a range of trials; a trial builds its coin only to flip it."""
    engine, config, y, y_prime, k_prime, seed, trials = args
    ones = [0, 0]
    for arm, y_arm in enumerate((y, y_prime)):
        for t, found in zip(trials, _trial_decisions(engine, config, k_prime, seed, 1, trials, repeat(y_arm))):
            ones[arm] += not found or _verdict(found, random.Random(derive_seed(seed, t, 2))).guess == 1
    return ones[0], ones[1]


def estimate_advantage(
    engine: str,
    config: OramConfig,
    y: InputSequence,
    y_prime: InputSequence,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> AdvantageEstimate:
    """Empirical distinguishing advantage of the dense-partition test.

    Runs a seeded engine ``trials`` times on each input from derived seeds (a
    seed-free one once per input and chunk) and reports both guess-1
    frequencies, their absolute difference, and a 95% normal-approximation
    half-width floored at 1/trials.  Each trial decides as ``distinguish``
    does, and a trace equal to the arm's last one reuses its decision.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    k_prime = _reference_blocks(y, y_prime)
    chunks = _map_chunks(_advantage_chunk, (engine, config, y, y_prime, k_prime, seed), trials, jobs)
    ones_y, ones_yp = map(sum, zip(*chunks))
    p1 = ones_y / trials
    p2 = ones_yp / trials
    var = p1 * (1 - p1) / trials + p2 * (1 - p2) / trials
    half_width = max(1.96 * sqrt(var), 1.0 / trials)
    return AdvantageEstimate(
        trials=trials,
        p1_on_y=p1,
        p1_on_yprime=p2,
        advantage=abs(p1 - p2),
        half_width=half_width,
    )


def _frequency_chunk(args) -> int:
    """How many of a range of trials find the dense partition, each on a fresh workload sample
    (of the "alt" debug family, the partition property is expected to fail)."""
    engine, config, n, k, seed, family, trials = args
    inputs = (instantiate_workload(WorkloadSpec(family, n, k, derive_seed(seed, t, 3)), config.w)[0] for t in trials)
    return sum(_trial_decisions(engine, config, k, seed, 4, trials, inputs))


def dense_partition_frequency(
    engine: str,
    config: OramConfig,
    n: int,
    k: int,
    trials: int,
    seed: int,
    family: str = "blocks",
    jobs: int = 1,
) -> Fraction:
    """Fraction of fresh (workload sample, engine run) trials whose access
    graph admits an (n/5k)-dense k-partition; a trace equal to the previous
    trial's reuses its decision."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if k < 1:
        raise ValueError("need k >= 1")
    if family not in WORKLOAD_FAMILIES:  # refused before any trial, as instantiate_workload refuses it
        raise ValueError(f"unknown workload family {family!r}")
    found = _map_chunks(_frequency_chunk, (engine, config, n, k, seed, family), trials, jobs)
    return Fraction(sum(found), trials)


def _map_chunks(worker, args: tuple, trials: int, jobs: int) -> list:
    """worker(args + (chunk,)) over trials 0..trials-1 cut into at most jobs contiguous
    chunks: in this process for one chunk, else in a pool of one process per chunk, at most one per CPU."""
    parts = max(1, min(jobs, trials))
    argses = [(*args, range(trials * j // parts, trials * (j + 1) // parts)) for j in range(parts)]
    if parts == 1:
        return [worker(argses[0])]
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor  # only --jobs > 1 pays for the import

    try:
        with ProcessPoolExecutor(max_workers=min(parts, os.cpu_count() or 1)) as pool:
            return list(pool.map(worker, argses))
    except BrokenExecutor as exc:  # a worker was killed, say for memory: a resource error
        raise OSError(f"a worker process died: {exc}") from None


# -- statistical distance ---------------------------------------------------


def statistical_distance_exact(dist_x: Mapping, dist_y: Mapping) -> Fraction:
    """Exact statistical distance of two finite distributions.

    Inputs are outcome -> probability tables that must each sum to exactly 1.
    Computes the half-L1 form and the one-sided form (the probability excess
    on the set where X outweighs Y) and checks they agree before returning.
    """
    px = {s: as_fraction(p) for s, p in dist_x.items()}
    py = {s: as_fraction(p) for s, p in dist_y.items()}
    for name, table in (("first", px), ("second", py)):
        total = sum(table.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"{name} table sums to {total}, not 1")
        if any(p < 0 for p in table.values()):
            raise ValueError(f"{name} table has a negative probability")
    support = set(px) | set(py)
    half_l1 = sum((abs(px.get(s, 0) - py.get(s, 0)) for s in support), Fraction(0)) / 2
    one_sided = sum(
        (px.get(s, 0) - py.get(s, 0) for s in support if px.get(s, 0) > py.get(s, 0)),
        Fraction(0),
    )
    if half_l1 != one_sided:  # normalized tables always agree; a raise survives python -O
        raise ArithmeticError(f"half-L1 form {half_l1} and one-sided form {one_sided} disagree")
    return half_l1


def trace_digest(trace: AccessSequence) -> tuple[int, str]:
    """(length, 64-bit address hash) digest used by the empirical estimator.

    Distances on digests lower-bound distances on full traces (any function
    of the trace can only blur differences), which is the safe direction for
    security claims.
    """
    h = hashlib.blake2b(trace.addrs.tobytes(), digest_size=8)
    return (trace.N, h.hexdigest())


@dataclass(frozen=True)
class EmpiricalDistance:
    distance: Fraction
    n_x: int
    n_y: int
    support: int


def statistical_distance_empirical(
    samples_x: Sequence[AccessSequence] | Iterable[AccessSequence],
    samples_y: Sequence[AccessSequence] | Iterable[AccessSequence],
) -> EmpiricalDistance:
    """Plug-in total-variation estimate: the exact distance of the two samples' digest frequency tables.

    Upward biased for small samples (fresh noise looks like signal), so the
    sample sizes ride along in the result.
    """
    cx, cy = Counter(map(trace_digest, samples_x)), Counter(map(trace_digest, samples_y))
    n_x, n_y = cx.total(), cy.total()
    if not n_x or not n_y:
        raise ValueError("both sample sets must be non-empty")
    dist = statistical_distance_exact(
        {d: Fraction(c, n_x) for d, c in cx.items()}, {d: Fraction(c, n_y) for d, c in cy.items()}
    )
    return EmpiricalDistance(distance=dist, n_x=n_x, n_y=n_y, support=len(cx.keys() | cy.keys()))

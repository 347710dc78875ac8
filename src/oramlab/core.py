"""Model parameters, input sequences, and the adversarial workload generators.

The two workload families, built straight into a sequence's columns, are the alternating
single-address sequence and the write-block/read-block sequence with fresh uniform data per
write block.  Both are deterministic functions of their parameters (and a seed for the
random block data), which is what makes every experiment in this package replayable.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import ModelViolationError


@dataclass(frozen=True)
class OramConfig:
    """Machine model parameters.

    m: cells of client internal memory, M: logical address range,
    w: cell width in bits.  Failure probability is pinned to zero; every
    engine here answers reads correctly with probability 1.
    """

    m: int
    M: int
    w: int

    def __post_init__(self):
        if self.m < 1:
            raise ModelViolationError("need at least one cell of client memory")
        if self.w < 1 or self.w > 63:
            raise ModelViolationError("cell width w must be in [1, 63] bits")
        if not 1 <= self.M <= (1 << self.w):
            raise ModelViolationError(f"address range M={self.M} outside [1, 2^{self.w}]")

    def bind_workload_length(self, n: int) -> None:
        """Check the constraints that couple the config to a workload of length n.

        These hold per workload, not per config, so they are checked here
        rather than in the constructor.  n = 0 is allowed as a degenerate
        empty run.
        """
        if n < 0:
            raise ModelViolationError(f"workload length n={n} is negative")
        if 0 < n < self.m * self.m:
            raise ModelViolationError(f"m={self.m} exceeds sqrt(n) for n={n}")
        if n > self.M:
            raise ModelViolationError(f"workload length n={n} exceeds address range M={self.M}")

    def check_ops(self, y: "InputSequence", start: int, stop: int) -> None:
        """Every op start..stop-1 of y has an address in [1, M] and data of w bits.

        One comparison with the range's bounds (y's cached ``bounds`` for all
        of y); only a range that fails it is searched, by masks, so the error
        names its first bad op.
        """
        if start >= stop:
            return
        addr, data = y.addr[start:stop], y.data[start:stop]
        whole = start == 0 and stop == len(y)
        lo, hi, data_lo, data_hi = y.bounds if whole else (addr.min(), addr.max(), data.min(), data.max())
        if 1 <= lo and hi <= self.M and 0 <= data_lo and data_hi >> self.w == 0:
            return
        bad_addr = (addr < 1) | (addr > self.M)
        i = int(np.argmax(bad_addr | (data >> self.w != 0)))  # w < 64: shifting leaves 0 iff data fits
        if bad_addr[i]:
            raise ModelViolationError(f"address {addr[i]} outside [1, {self.M}]")
        raise ModelViolationError(f"data {data[i]} does not fit in {self.w} bits")


@dataclass(frozen=True, eq=False)
class InputSequence:
    """The ops in order, as three read-only columns: is_write (bool), addr and data (int64)."""

    is_write: np.ndarray
    addr: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        for col in (self.is_write, self.addr, self.data):
            col.flags.writeable = False

    @cached_property
    def bounds(self) -> tuple[int, int, int, int]:
        """(lowest and highest address, lowest and highest data) of one op or more, built on first use and kept."""
        return int(self.addr.min()), int(self.addr.max()), int(self.data.min()), int(self.data.max())

    def rows(self, start: int, stop: int):
        """(is_write, addr, data) of ops start..stop-1 as plain Python values, for a per-op loop."""
        return zip(self.is_write[start:stop].tolist(), self.addr[start:stop].tolist(), self.data[start:stop].tolist())

    def __len__(self) -> int:
        return len(self.addr)


@dataclass(frozen=True)
class BlockLayout:
    """Op-index geometry of a block workload: k write blocks of ell ops, each followed by a read block of ell ops.

    They tile [0, 2*k*ell) as W1 R1 W2 R2 ...; alternating single-address
    padding starts at op 2*k*ell.
    """

    k: int
    ell: int

    def block(self, i: int) -> tuple[int, int, int, int]:
        """(ws, we, rs, re): the half-open op ranges of write block i (1-based) and of the read block after it."""
        if not 1 <= i <= self.k:
            raise ValueError(f"block index {i} outside [1, {self.k}]")
        ws = 2 * (i - 1) * self.ell
        return ws, ws + self.ell, ws + self.ell, ws + 2 * self.ell


def gen_alternating_sequence(n: int) -> InputSequence:
    """The deterministic workload of n/2 write/read pairs at address 1."""
    if n < 0 or n % 2 != 0:
        raise ModelViolationError(f"alternating workload needs even n >= 0, got {n}")
    return InputSequence(np.arange(n) % 2 == 0, np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64))


def gen_write_read_blocks(
    n: int, k: int, w: int, rng: random.Random
) -> tuple[InputSequence, BlockLayout]:
    """k write blocks of fresh uniform w-bit data (rng.getrandbits(w) in op order), each followed by a read block.

    Block length ell = floor(n / 2k); writes cover addresses 1..ell in order,
    reads re-read them in the same order, and the sequence is padded to length
    exactly n with alternating write/read pairs at address 1.
    """
    if n < 2 or n % 2 != 0:
        raise ModelViolationError(f"block workload needs even n >= 2, got {n}")
    if not 1 <= k <= n // 2:
        raise ModelViolationError(f"block count k={k} outside [1, {n // 2}]")
    ell = n // (2 * k)
    pad_start = 2 * k * ell
    is_write = np.arange(n) % 2 == 0  # the padding's write/read pairs; the blocks are set below
    addr, data = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    # blocks[b, 0] is write block b + 1 and blocks[b, 1] the read block after it
    blocks = is_write[:pad_start].reshape(k, 2, ell)
    blocks[:, 0], blocks[:, 1] = True, False
    addr[:pad_start].reshape(2 * k, ell)[:] = np.arange(1, ell + 1)
    draws = data[:pad_start].reshape(k, 2, ell)
    for b in range(k):
        draws[b, 0] = [rng.getrandbits(w) for _ in range(ell)]
    return InputSequence(is_write, addr, data), BlockLayout(k, ell)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parsed CLI workload string: ``alt:n=<N>`` or ``blocks:n=<N>,k=<K>,seed=<S>``."""

    family: str
    n: int
    k: int | None = None
    seed: int | None = None

    def render(self) -> str:
        if self.family == "alt":
            return f"alt:n={self.n}"
        parts = [f"n={self.n}", f"k={self.k}"]
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return "blocks:" + ",".join(parts)


WORKLOAD_FAMILIES = ("alt", "blocks")
_SPEC_RE = re.compile(rf"^({'|'.join(WORKLOAD_FAMILIES)}):([a-z0-9=,]+)$")


def parse_workload_spec(text: str) -> WorkloadSpec:
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad workload spec {text!r}; expected alt:n=<N> or blocks:n=<N>,k=<K>[,seed=<S>]")
    family, body = m.groups()
    kv = {}
    for item in body.split(","):
        key, _, val = item.partition("=")
        if not val or key in kv:
            raise ValueError(f"bad workload spec field {item!r} in {text!r}")
        kv[key] = int(val)
    if family == "alt":
        if set(kv) != {"n"}:
            raise ValueError(f"alt spec takes exactly n=<N>, got {text!r}")
        return WorkloadSpec("alt", kv["n"])
    if not {"n", "k"} <= set(kv) or not set(kv) <= {"n", "k", "seed"}:
        raise ValueError(f"blocks spec takes n=<N>,k=<K>[,seed=<S>], got {text!r}")
    return WorkloadSpec("blocks", kv["n"], kv["k"], kv.get("seed"))


def instantiate_workload(
    spec: WorkloadSpec, w: int, default_seed: int | None = None
) -> tuple[InputSequence, BlockLayout | None]:
    if spec.family not in WORKLOAD_FAMILIES:
        raise ValueError(f"unknown workload family {spec.family!r}")
    if spec.family == "alt":
        return gen_alternating_sequence(spec.n), None
    seed = spec.seed if spec.seed is not None else default_seed
    if seed is None:
        raise ModelViolationError("block workload needs a seed (spec seed=<S> or an explicit --seed)")
    return gen_write_read_blocks(spec.n, spec.k, w, random.Random(seed))

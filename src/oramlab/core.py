"""Model parameters, input operations, and the adversarial workload generators.

The two workload families are the alternating single-address sequence and the
write-block/read-block sequence with fresh uniform data per write block.  Both
are deterministic functions of their parameters (and a seed for the random
block data), which is what makes every experiment in this package replayable.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import ModelViolationError

READ = "R"
WRITE = "W"


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
        if n == 0:
            return
        if self.m * self.m > n:
            raise ModelViolationError(f"m={self.m} exceeds sqrt(n) for n={n}")
        if n > self.M:
            raise ModelViolationError(f"workload length n={n} exceeds address range M={self.M}")

    def check_op(self, op: "InputOp") -> None:
        if op.kind not in (READ, WRITE):
            raise ModelViolationError(f"unknown op kind {op.kind!r}")
        if not 1 <= op.addr <= self.M:
            raise ModelViolationError(f"address {op.addr} outside [1, {self.M}]")
        if not 0 <= op.data < (1 << self.w):
            raise ModelViolationError(f"data {op.data} does not fit in {self.w} bits")

    def check_ops(self, y: "InputSequence") -> None:
        """``check_op`` on every op of y, as one range check on y's cached ``extent``.

        Only a sequence that fails it is walked op by op, so the error names its first bad op.
        """
        if y.extent is not None:
            kinds, lo, hi, data_lo, data_hi = y.extent
            if kinds <= {READ, WRITE} and 1 <= lo and hi <= self.M and 0 <= data_lo and data_hi < 1 << self.w:
                return
        for op in y:
            self.check_op(op)


@dataclass(frozen=True)
class InputOp:
    """One logical operation (kind, addr, data); reads carry data 0."""

    kind: str
    addr: int
    data: int = 0


@dataclass(frozen=True)
class InputSequence:
    """The ops in order; ``extent`` and ``columns`` are built on first use and kept."""

    ops: tuple[InputOp, ...]

    @cached_property
    def extent(self) -> tuple[frozenset, int, int, int, int] | None:
        """(the op kinds, lowest and highest address, lowest and highest data) of the ops.

        None for no ops, or for fields that do not compare.
        """
        if not self.ops:
            return None
        addrs, data = [op.addr for op in self.ops], [op.data for op in self.ops]
        try:
            return frozenset(op.kind for op in self.ops), min(addrs), max(addrs), min(data), max(data)
        except TypeError:
            return None

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every op's (is_write, addr, data), as a bool and two int64 arrays."""
        ops = self.ops
        return (
            np.array([op.kind == WRITE for op in ops], dtype=bool),
            np.array([op.addr for op in ops], dtype=np.int64),
            np.array([op.data for op in ops], dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __getitem__(self, i):
        return self.ops[i]


@dataclass(frozen=True)
class BlockLayout:
    """Op-index geometry of a block workload.

    write_ranges[i] and read_ranges[i] are half-open [start, end) intervals of
    op indices for the i-th write block and the read block right after it.
    Alternating single-address padding starts at pad_start = 2*k*ell.
    """

    k: int
    ell: int
    write_ranges: tuple[tuple[int, int], ...]
    read_ranges: tuple[tuple[int, int], ...]
    pad_start: int

    def __post_init__(self):
        expect = 0
        for (ws, we), (rs, re) in zip(self.write_ranges, self.read_ranges):
            if not (ws == expect and we == ws + self.ell and rs == we and re == rs + self.ell):
                raise ValueError("block intervals must tile [0, 2*k*ell) as W1 R1 W2 R2 ...")
            expect = re
        if self.pad_start != 2 * self.k * self.ell or expect != self.pad_start:
            raise ValueError("pad_start must equal 2*k*ell")


def gen_alternating_sequence(n: int) -> InputSequence:
    """The deterministic workload of n/2 write/read pairs at address 1."""
    if n < 0 or n % 2 != 0:
        raise ModelViolationError(f"alternating workload needs even n >= 0, got {n}")
    pair = (InputOp(WRITE, 1, 0), InputOp(READ, 1, 0))
    return InputSequence(pair * (n // 2))


def gen_write_read_blocks(
    n: int, k: int, w: int, rng: random.Random
) -> tuple[InputSequence, BlockLayout]:
    """k write blocks with fresh uniform w-bit data, each followed by a read block.

    Block length ell = floor(n / 2k); writes cover addresses 1..ell in order,
    reads re-read them in the same order, and the sequence is padded to length
    exactly n with alternating write/read pairs at address 1.
    """
    if n < 2 or n % 2 != 0:
        raise ModelViolationError(f"block workload needs even n >= 2, got {n}")
    if not 1 <= k <= n // 2:
        raise ModelViolationError(f"block count k={k} outside [1, {n // 2}]")
    ell = n // (2 * k)
    ops: list[InputOp] = []
    write_ranges = []
    read_ranges = []
    for _ in range(k):
        ws = len(ops)
        ops.extend(InputOp(WRITE, a, rng.getrandbits(w)) for a in range(1, ell + 1))
        rs = len(ops)
        ops.extend(InputOp(READ, a, 0) for a in range(1, ell + 1))
        write_ranges.append((ws, rs))
        read_ranges.append((rs, len(ops)))
    pad_start = len(ops)
    while len(ops) < n:
        ops.append(InputOp(WRITE, 1, 0))
        ops.append(InputOp(READ, 1, 0))
    layout = BlockLayout(
        k=k,
        ell=ell,
        write_ranges=tuple(write_ranges),
        read_ranges=tuple(read_ranges),
        pad_start=pad_start,
    )
    return InputSequence(tuple(ops)), layout


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


_SPEC_RE = re.compile(r"^(alt|blocks):([a-z0-9=,]+)$")


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
    if spec.family == "alt":
        return gen_alternating_sequence(spec.n), None
    seed = spec.seed if spec.seed is not None else default_seed
    if seed is None:
        raise ModelViolationError("block workload needs a seed (spec seed=<S> or an explicit --seed)")
    y, layout = gen_write_read_blocks(spec.n, spec.k, w, random.Random(seed))
    return y, layout

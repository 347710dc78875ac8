"""The engine contract and five concrete memory engines.

Every engine is an online state machine: it decides each input op's server
probes before it sees the next op, and answers reads correctly with
probability 1.  The adversary sees only the flat address list, with no op
boundaries, so an engine that plans a range of ops op by op may send the
planned probes in a few batches: the trace, and the machine, stay the same.
``Engine.advance`` runs a range of ops that way; every batch holds at most
``BATCH_PROBES`` probes.  The five engines span the security spectrum on
purpose:

* ``passthrough``    executes ops directly; maximally leaky baseline.
* ``linear-scan``    full read+write-back pass over all M cells per op; the
                     address trace depends on (n, M) only, so it is perfectly
                     oblivious at linear cost.
* ``tree``           a non-recursive path-tree engine (buckets of 4, client
                     position map and stash) exhibiting logarithmic overhead.
* ``dummy-encoder``  constant overhead; encodes the whole input into the
                     *length distribution* of the trace via a lexicographic
                     comparison with a random sequence.
* ``dummy-leaker``   constant overhead; the trace length distribution leaks
                     the address of a random input op.

The two dummy engines are deliberately insecure constructions with honest
correctness; they exist so the analyses can demonstrate what length-only
security definitions fail to rule out.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

import numpy as np

from ._util import ModelViolationError
from .core import READ, WRITE, InputSequence, OramConfig
from .server import FINAL_OP, ServerState

# the most probes one batch holds: a batch's columns and the server's work on
# them are materialised at once, so this bounds an engine run's extra memory
BATCH_PROBES = 1 << 14


class StashOverflowError(RuntimeError):
    """Tree engine stash grew past its configured bound; the run is aborted."""


class Engine:
    """Base engine: drives probes against a server it owns exclusively.

    ``advance`` is the contract: every engine runs a range of ops with it,
    planning each op's probes before it looks at the next op and sending
    them in batches of at most ``BATCH_PROBES`` probes (one op's probes, if
    they are more).
    """

    name: str = "abstract"

    def __init__(self, config: OramConfig, rng: random.Random, n: int = 0):
        """n is the workload's length; only an engine that must know it up front reads it."""
        self.config = config
        self.rng = rng
        self.n = n

    def advance(self, server: ServerState, y: InputSequence, start: int, stop: int) -> list[int]:
        """Ops start..stop-1 of y in order; returns the answers of their reads."""
        raise NotImplementedError

    def finalize(self, server: ServerState) -> None:
        """Trailing probes after the last input op (most engines: none)."""

    def run(self, server: ServerState, y: InputSequence) -> list[int]:
        """Every op of y, then the wrap-up probes; returns the answers of all read ops."""
        answers = self.advance(server, y, 0, len(y))
        self.finalize(server)
        return answers

    # client-state snapshot hooks used by the transfer codec
    def export_state(self) -> dict:
        return {}

    def import_state(self, state: dict) -> None:
        if state:
            raise ValueError(f"{self.name} engine carries no client state")


def _ops_per_batch(probes_per_op: int) -> int:
    return max(1, BATCH_PROBES // probes_per_op)


def _direct_probes(server: ServerState, y: InputSequence, start: int, stop: int, extra_reads) -> list[int]:
    """Input ops start..stop-1 of y in bounded batches; returns the answers of their reads.

    Each op probes its own address, then reads address 1 extra_reads times
    (one count for every op, or one per op).  The ops come from y's cached
    ``columns``.
    """
    op_writes, op_addrs, op_data = (col[start:stop] for col in y.columns)
    counts = np.full(len(op_addrs), 1, dtype=np.int64) + np.asarray(extra_reads, dtype=np.int64)
    per = _ops_per_batch(int(counts.max(initial=1)))
    answers = []
    for lo in range(0, len(op_addrs), per):
        c = counts[lo : lo + per]
        firsts = np.cumsum(c) - c  # each op's own probe
        kinds, data = np.zeros((2, int(c.sum())), dtype=np.int64)
        addrs = np.ones_like(kinds)
        is_write = op_writes[lo : lo + per]
        kinds[firsts] = is_write
        addrs[firsts] = op_addrs[lo : lo + per]
        data[firsts] = op_data[lo : lo + per]
        got = server.probe_batch(kinds, addrs, data, np.repeat(np.arange(start + lo, start + lo + len(c)), c))
        answers += got[firsts][~is_write].tolist()
    return answers


class Passthrough(Engine):
    """One probe per op, straight to the logical address."""

    name = "passthrough"

    def advance(self, server, y, start, stop):
        return _direct_probes(server, y, start, stop, 0)


class LinearScan(Engine):
    """Read and write back every cell 1..M for each op.

    The write-back touches every cell even when unchanged, so the address
    trace is a fixed function of (n, M): perfect obliviousness by construction.
    Only O(1) registers persist between probes.  The simulation takes one
    shortcut: the scan reads each cell just before writing it back, so it
    takes cells 1..M from the server's store (``ServerState.contents``)
    rather than from its reads.  ``advance`` probes nothing: it replays the
    ops on the cells and logs their passes as one run (``ServerState._log_run``).
    A server logging addresses only keeps a run as one op's period with a
    repeat count (see ``server.AccessSequence``), whatever its length; with
    metadata on, a run logs every probe's columns, so it goes in batches of
    at most ``BATCH_PROBES`` probes.

    This reproduces the honest probe loop bit for bit; the tests keep that
    loop as their oracle.
    """

    name = "linear-scan"

    def __init__(self, config, rng, n=0):
        super().__init__(config, rng, n)
        self._addrs = np.repeat(np.arange(1, config.M + 1, dtype=np.int64), 2)
        self._kinds = np.tile(np.array([0, 1], dtype=np.int64), config.M)

    def advance(self, server, y, start, stop):
        meta = server.record_meta
        per = _ops_per_batch(len(self._addrs)) if meta else max(stop - start, 1)
        answers = []
        for lo in range(start, stop, per):
            ops = y.ops[lo : min(lo + per, stop)]
            cells = server.contents(self.config.M).tolist()
            rows, row = [], None  # row: cells after the last op, as an array; a read keeps it
            for op in ops:
                if op.kind == WRITE:
                    cells[op.addr - 1] = op.data
                    row = None
                else:
                    answers.append(cells[op.addr - 1])
                if meta:
                    row = np.array(cells, dtype=np.int64) if row is None else row
                    rows.append(row)
            server._log_run(self._addrs, self._kinds, range(lo, lo + len(ops)), rows or [cells])
        return answers


class TreeOram(Engine):
    """Non-recursive path-tree engine: complete binary tree over M leaves,
    buckets of Z=4 slots, client-side position map and stash.

    Each op reads every slot on a root-to-leaf path, serves the op from the
    fetched blocks plus the stash, remaps the accessed address to a fresh
    uniform leaf, and writes the path back.  Eviction is Path ORAM's
    (Stefanov et al., CCS 2013): each stash block goes, in stash order, to the
    deepest non-full bucket at or above its deepest legal level, the level
    where its leaf's path leaves this one.  Probes per op are exactly
    2*Z*(ceil(log2 M) + 1).

    ``advance`` plans its ops one at a time in plain Python and sends them in
    batches of at most ``BATCH_PROBES`` probes, each op's reads then its
    writes.  The simulation takes the scan's shortcut: the client takes the
    blocks it reads from the server's store as the batch starts
    (``ServerState.contents``) and from its own record of the slots it wrote
    earlier in the batch, which is what those reads return.

    Deviation (reported by the analysis CLI): the position map and the
    slot-occupancy directory live in client memory, far beyond the m-cell
    budget.  The engine exists to exhibit logarithmic overhead, not to be a
    compliant construction.
    """

    name = "tree"
    Z = 4
    STASH_LIMIT = 64

    def __init__(self, config, rng, n=0):
        super().__init__(config, rng, n)
        self.depth = (config.M - 1).bit_length()
        self.leaves = 1 << self.depth
        n_slots = (2 * self.leaves - 1) * self.Z
        if n_slots > (1 << config.w):
            raise ModelViolationError(
                f"tree of {2 * self.leaves - 1} buckets needs {n_slots} server cells, over 2^{config.w}"
            )
        self.pos = [rng.randrange(self.leaves) for _ in range(config.M)]
        self.slot_owner: list[int | None] = [None] * n_slots
        self.stash: dict[int, int] = {}

    def probes_per_op(self) -> int:
        return 2 * self.Z * (self.depth + 1)

    def advance(self, server, y, start, stop):
        per = _ops_per_batch(self.probes_per_op())
        answers = []
        for lo in range(start, stop, per):
            answers += self._advance_batch(server, y.ops[lo : min(lo + per, stop)], lo)
        return answers

    def _advance_batch(self, server, ops, first_op):
        """Plan ops first_op, first_op+1, ... op by op, then send their probes as one batch.

        On a stash overflow, sends the probes through the failing op and raises.
        """
        z, depth, owners, stash = self.Z, self.depth, self.slot_owner, self.stash
        width = z * (depth + 1)  # slots on a path
        store = server.contents(len(owners))  # slot s is server cell s + 1
        written: dict[int, int] = {}  # slots written earlier in the batch
        leaves, write_at, write_val, answers = [], [], [], []
        overflow = None
        for i, op in enumerate(ops):
            leaf = self.pos[op.addr - 1]
            path = [((self.leaves + leaf) >> (depth - level)) - 1 for level in range(depth + 1)]  # root first
            for bucket in path:
                for slot, owner in enumerate(owners[bucket * z : bucket * z + z], bucket * z):
                    if owner is not None:
                        owners[slot] = None
                        stash[owner] = written[slot] if slot in written else int(store[slot])
            if op.kind == WRITE:
                stash[op.addr] = op.data
            else:
                answers.append(stash.setdefault(op.addr, 0))
            self.pos[op.addr - 1] = self.rng.randrange(self.leaves)
            base = (2 * i + 1) * width  # this op's first write probe
            for level, blocks in enumerate(self._plan_eviction(leaf)):
                for s, (addr, val) in enumerate(blocks):
                    slot = path[level] * z + s
                    owners[slot], written[slot] = addr, val
                    write_at.append(base + level * z + s)
                    write_val.append(val)
            leaves.append(leaf)
            if len(stash) > self.STASH_LIMIT:
                overflow = StashOverflowError(
                    f"stash holds {len(stash)} blocks (> {self.STASH_LIMIT}) after op {first_op + i}"
                )
                break
        shifts = np.arange(depth, -1, -1)
        buckets = ((self.leaves + np.array(leaves, dtype=np.int64)[:, None]) >> shifts) - 1
        path_addrs = (buckets[:, :, None] * z + np.arange(1, z + 1)).reshape(len(leaves), width)
        addrs = np.concatenate((path_addrs, path_addrs), axis=1).ravel()  # each op's reads, then its writes
        kinds = np.tile(np.repeat([0, 1], width), len(leaves))
        data = np.zeros(len(addrs), dtype=np.int64)
        data[write_at] = write_val
        server.probe_batch(kinds, addrs, data, np.repeat(np.arange(first_op, first_op + len(leaves)), 2 * width))
        if overflow is not None:
            raise overflow
        return answers

    def _plan_eviction(self, leaf: int) -> list[list[tuple[int, int]]]:
        """Per level of leaf's path, the (addr, value) blocks that leave the stash for it."""
        placement: list[list[tuple[int, int]]] = [[] for _ in range(self.depth + 1)]
        for addr, val in list(self.stash.items()):
            level = self.depth - (leaf ^ self.pos[addr - 1]).bit_length()
            while level >= 0 and len(placement[level]) == self.Z:
                level -= 1
            if level >= 0:
                placement[level].append((addr, val))
                del self.stash[addr]
        return placement

    def export_state(self):
        return {
            "pos": list(self.pos),
            "slot_owner": list(self.slot_owner),
            "stash": dict(self.stash),
            "rng": self.rng.getstate(),
        }

    def import_state(self, state):
        self.pos = list(state["pos"])
        self.slot_owner = list(state["slot_owner"])
        self.stash = dict(state["stash"])
        self.rng.setstate(state["rng"])


def op_order_key(kind: str, addr: int, data: int) -> tuple[int, int, int]:
    """Total order on ops used by the length encoder: W < R, then addr, then data."""
    return (0 if kind == WRITE else 1, addr, data)


class DummyLengthEncoder(Engine):
    """Constant-overhead engine whose trace *length* encodes the input.

    Every op runs directly on the server followed by a read of address 1.  A
    uniformly random comparison sequence of the same length is drawn op by op
    and compared online against the input under the ``op_order_key`` order;
    if the random sequence ends up strictly smaller, one extra read of
    address 1 is issued after the last op.  Trace length is always 2n or
    2n + 1, and the 2n+1 probability equals rank(y) / |sample space|.

    Once the comparison is decided, the remaining comparands change nothing
    but the RNG state: ``advance`` counts them as owed, and only
    ``export_state`` draws them, so a snapshot holds the state the op-by-op
    draws leave.
    """

    name = "dummy-encoder"

    def __init__(self, config, rng, n=0, forced_comparand: Iterable[tuple[str, int, int]] | None = None):
        super().__init__(config, rng, n)
        self._cmp = 0  # -1: random sequence already smaller, +1: larger, 0: tied so far
        self._owed = 0  # comparands skipped since the comparison was decided
        self._forced: Iterator[tuple[str, int, int]] | None = (
            iter(forced_comparand) if forced_comparand is not None else None
        )

    def _draw_op(self) -> tuple[str, int, int]:
        if self._forced is not None:
            return next(self._forced)
        kind = WRITE if self.rng.getrandbits(1) == 0 else READ
        addr = self.rng.randrange(self.config.M) + 1
        data = self.rng.getrandbits(self.config.w)
        return kind, addr, data

    def advance(self, server, y, start, stop):
        answers = _direct_probes(server, y, start, stop, 1)
        ops = y.ops[start:stop]
        # one comparand per op in op order, drawn or owed, so the RNG state does not depend on the cuts
        for drawn, op in enumerate(ops):
            if self._cmp:
                self._owed += len(ops) - drawn
                break
            a = op_order_key(*self._draw_op())
            b = op_order_key(op.kind, op.addr, op.data)
            self._cmp = -1 if a < b else (1 if a > b else 0)
        return answers

    def finalize(self, server):
        # ties count as "not smaller": no extra probe when the sequences match
        if self._cmp < 0:
            server.probe_batch([0], [1], [0], FINAL_OP)

    def export_state(self):
        for _ in range(self._owed):
            self._draw_op()
        self._owed = 0
        return {"cmp": self._cmp, "rng": self.rng.getstate()}

    def import_state(self, state):
        self._cmp, self._owed = state["cmp"], 0
        self.rng.setstate(state["rng"])


class DummyLengthLeaker(Engine):
    """Constant-overhead engine leaking one input address through the length law.

    Draws i uniform in [n] and r uniform in [M] up front (it must know n, so
    it is a fixed-length engine and not online).  Ops before the i-th get two
    extra reads of address 1, the i-th gets two extras iff r <= a_i and one
    otherwise, later ops get none.  The trace length is n + 2i with
    probability a_i / (n M) and n + 2i - 1 with probability (M - a_i) / (n M).
    """

    name = "dummy-leaker"

    def __init__(self, config, rng, n: int, forced_draw: tuple[int, int] | None = None):
        super().__init__(config, rng, n)
        if n < 1:
            raise ModelViolationError("dummy-leaker needs the workload length n >= 1 up front")
        if forced_draw is not None:
            self.i, self.r = forced_draw
            if not (1 <= self.i <= n and 1 <= self.r <= config.M):
                raise ValueError(f"forced draw {forced_draw} outside [1,{n}] x [1,{config.M}]")
        else:
            self.i = rng.randrange(n) + 1
            self.r = rng.randrange(config.M) + 1

    def advance(self, server, y, start, stop):
        if stop > self.n:
            raise ModelViolationError(f"dummy-leaker was sized for n={self.n} ops")
        addrs = y.columns[1][start:stop]
        j = np.arange(start + 1, start + 1 + len(addrs))  # 1-based op numbers
        extra = np.where(j < self.i, 2, np.where(j == self.i, 1 + (self.r <= addrs), 0))
        return _direct_probes(server, y, start, stop, extra)

    def export_state(self):
        return {"i": self.i, "r": self.r, "rng": self.rng.getstate()}

    def import_state(self, state):
        self.i = state["i"]
        self.r = state["r"]
        self.rng.setstate(state["rng"])


_ENGINES = {cls.name: cls for cls in (Passthrough, LinearScan, TreeOram, DummyLengthEncoder, DummyLengthLeaker)}
ENGINE_NAMES = tuple(_ENGINES)


def make_engine(kind: str, config: OramConfig, seed: int, n: int = 0) -> Engine:
    """A fresh engine of the named kind, its RNG seeded with seed, for a workload of n ops."""
    if kind not in _ENGINES:
        raise ValueError(f"unknown engine {kind!r}; expected one of {', '.join(ENGINE_NAMES)}")
    return _ENGINES[kind](config, random.Random(seed), n)


def run_sequence(
    kind: str,
    config: OramConfig,
    y: InputSequence,
    seed: int,
    record_meta: bool = True,
) -> tuple[list[int], ServerState]:
    """Fresh engine + fresh server, the whole of y run in order (``Engine.run``).

    Returns the answers of all read ops and the final server state with its
    probe log.  Deterministic given the seed.
    """
    config.bind_workload_length(len(y))
    config.check_ops(y)
    engine = make_engine(kind, config, seed, n=len(y))
    server = ServerState(config, record_meta=record_meta)
    answers = engine.run(server, y)
    return answers, server

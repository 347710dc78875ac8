"""The engine contract and five concrete memory engines.

Every engine is an online state machine: it receives one input op at a time,
issues zero or more server probes for it, and answers reads correctly with
probability 1.  The five engines span the security spectrum on purpose:

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
from typing import Callable, Iterable, Iterator

import numpy as np

from ._util import ModelViolationError
from .core import READ, WRITE, InputOp, InputSequence, OramConfig
from .server import FINAL_OP, ServerState

ENGINE_NAMES = ("passthrough", "linear-scan", "tree", "dummy-encoder", "dummy-leaker")


class StashOverflowError(RuntimeError):
    """Tree engine stash grew past its configured bound; the run is aborted."""


class Engine:
    """Base engine: drives per-op probes against a server it owns exclusively."""

    name: str = "abstract"

    def __init__(self, config: OramConfig, rng: random.Random):
        self.config = config
        self.rng = rng

    def step(self, server: ServerState, op: InputOp, op_index: int) -> int:
        raise NotImplementedError

    def finalize(self, server: ServerState) -> None:
        """Trailing probes after the last input op (most engines: none)."""

    def advance(self, server: ServerState, y: InputSequence, start: int, stop: int) -> list[int]:
        """Step ops start..stop-1 of y in order; returns the answers of their reads."""
        answers = []
        for i, op in enumerate(y.ops[start:stop], start):
            server.begin_op(i)
            ans = self.step(server, op, i)
            if op.kind == READ:
                answers.append(ans)
        return answers

    def run(self, server: ServerState, y: InputSequence) -> list[int]:
        """Every op of y, then the wrap-up probes; returns the answers of all read ops."""
        answers = self.advance(server, y, 0, len(y))
        server.begin_op(FINAL_OP)
        self.finalize(server)
        return answers

    # client-state snapshot hooks used by the transfer codec
    def export_state(self) -> dict:
        return {}

    def import_state(self, state: dict) -> None:
        if state:
            raise ValueError(f"{self.name} engine carries no client state")


class Passthrough(Engine):
    """One probe per op, straight to the logical address."""

    name = "passthrough"

    def step(self, server, op, op_index):
        return server.probe(op.kind, op.addr, op.data if op.kind == WRITE else 0)


class LinearScan(Engine):
    """Read and write back every cell 1..M for each op.

    The write-back touches every cell even when unchanged, so the address
    trace is a fixed function of (n, M): perfect obliviousness by construction.
    Only O(1) registers persist between probes.  The simulation takes one
    shortcut: the scan reads each cell just before writing it back, so it
    takes cells 1..M from the server's store (``ServerState.contents``)
    rather than from its reads.  Then

    * ``step`` makes one ``probe_batch`` per op;
    * ``advance`` over any range of ops, on a server logging addresses only,
      probes nothing: it replays the ops on the cells and logs one op's
      period with a repeat count (see ``server.AccessSequence``).  That
      covers a whole run and the codec's ranges.

    Both reproduce the honest probe loop bit for bit; the tests keep that
    loop as their oracle.
    """

    name = "linear-scan"

    def __init__(self, config, rng):
        super().__init__(config, rng)
        self._addrs = np.repeat(np.arange(1, config.M + 1, dtype=np.int64), 2)
        self._kinds = np.tile(np.array([0, 1], dtype=np.int64), config.M)

    def step(self, server, op, op_index):
        cells = server.contents(self.config.M)
        if op.kind == WRITE:
            cells[op.addr - 1] = op.data
        server.probe_batch(self._kinds, self._addrs, np.repeat(cells, 2))  # data is ignored for reads
        return int(cells[op.addr - 1]) if op.kind == READ else 0

    def advance(self, server, y, start, stop):
        if server.record_meta:
            return super().advance(server, y, start, stop)
        answers = []
        cells = server.contents(self.config.M).tolist()
        for op in y.ops[start:stop]:
            if op.kind == WRITE:
                cells[op.addr - 1] = op.data
            else:
                answers.append(cells[op.addr - 1])
        if stop > start:
            server._log_run(self._addrs, stop - start, cells, stop - 1)
        return answers


class TreeOram(Engine):
    """Non-recursive path-tree engine: complete binary tree over M leaves,
    buckets of Z=4 slots, client-side position map and stash.

    Each op reads every slot on a root-to-leaf path in one ``probe_batch``,
    serves the op from the fetched blocks plus the stash, remaps the accessed
    address to a fresh uniform leaf, and writes the path back in a second
    batch.  Eviction is Path ORAM's (Stefanov et al., CCS 2013): each stash
    block goes, in stash order, to the deepest non-full bucket at or above its
    deepest legal level, the level where its leaf's path leaves this one.
    Probes per op are exactly 2*Z*(ceil(log2 M) + 1).

    Deviation (reported by the analysis CLI): the position map and the
    slot-occupancy directory live in client memory, far beyond the m-cell
    budget.  The engine exists to exhibit logarithmic overhead, not to be a
    compliant construction.
    """

    name = "tree"
    Z = 4
    STASH_LIMIT = 64

    def __init__(self, config, rng):
        super().__init__(config, rng)
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

    def step(self, server, op, op_index):
        z = self.Z
        leaf = self.pos[op.addr - 1]
        buckets = ((self.leaves + leaf) >> np.arange(self.depth, -1, -1)) - 1  # root first
        addrs = (buckets[:, None] * z + np.arange(1, z + 1)).ravel()
        slots = (addrs - 1).tolist()
        blank = np.zeros(len(slots), dtype=np.int64)
        owners = self.slot_owner
        for slot, v in zip(slots, server.probe_batch(blank, addrs, blank).tolist()):
            owner, owners[slot] = owners[slot], None
            if owner is not None:
                self.stash[owner] = v
        if op.kind == WRITE:
            self.stash[op.addr] = op.data
            answer = 0
        else:
            answer = self.stash.setdefault(op.addr, 0)
        self.pos[op.addr - 1] = self.rng.randrange(self.leaves)
        data = blank.copy()
        for level, blocks in enumerate(self._plan_eviction(leaf)):
            for s, (addr, val) in enumerate(blocks):
                owners[slots[level * z + s]] = addr
                data[level * z + s] = val
        server.probe_batch(np.ones(len(slots), dtype=np.int64), addrs, data)
        if len(self.stash) > self.STASH_LIMIT:
            raise StashOverflowError(
                f"stash holds {len(self.stash)} blocks (> {self.STASH_LIMIT}) after op {op_index}"
            )
        return answer

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
    """

    name = "dummy-encoder"

    def __init__(self, config, rng, forced_comparand: Iterable[tuple[str, int, int]] | None = None):
        super().__init__(config, rng)
        self._cmp = 0  # -1: random sequence already smaller, +1: larger, 0: tied so far
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

    def step(self, server, op, op_index):
        answer = server.probe(op.kind, op.addr, op.data if op.kind == WRITE else 0)
        server.probe(READ, 1)
        r_kind, r_addr, r_data = self._draw_op()
        if self._cmp == 0:
            a = op_order_key(r_kind, r_addr, r_data)
            b = op_order_key(op.kind, op.addr, op.data)
            self._cmp = -1 if a < b else (1 if a > b else 0)
        return answer

    def finalize(self, server):
        # ties count as "not smaller": no extra probe when the sequences match
        if self._cmp < 0:
            server.probe(READ, 1)

    def export_state(self):
        return {"cmp": self._cmp, "rng": self.rng.getstate()}

    def import_state(self, state):
        self._cmp = state["cmp"]
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
        super().__init__(config, rng)
        if n < 1:
            raise ModelViolationError("dummy-leaker needs the workload length n >= 1 up front")
        self.n = n
        if forced_draw is not None:
            self.i, self.r = forced_draw
            if not (1 <= self.i <= n and 1 <= self.r <= config.M):
                raise ValueError(f"forced draw {forced_draw} outside [1,{n}] x [1,{config.M}]")
        else:
            self.i = rng.randrange(n) + 1
            self.r = rng.randrange(config.M) + 1

    def step(self, server, op, op_index):
        if op_index >= self.n:
            raise ModelViolationError(f"dummy-leaker was sized for n={self.n} ops")
        answer = server.probe(op.kind, op.addr, op.data if op.kind == WRITE else 0)
        j = op_index + 1
        if j < self.i:
            server.probe(READ, 1)
            server.probe(READ, 1)
        elif j == self.i:
            server.probe(READ, 1)
            if self.r <= op.addr:
                server.probe(READ, 1)
        return answer

    def export_state(self):
        return {"i": self.i, "r": self.r, "rng": self.rng.getstate()}

    def import_state(self, state):
        self.i = state["i"]
        self.r = state["r"]
        self.rng.setstate(state["rng"])


_FACTORIES: dict[str, Callable] = {
    "passthrough": lambda config, rng, **kw: Passthrough(config, rng),
    "linear-scan": lambda config, rng, **kw: LinearScan(config, rng),
    "tree": lambda config, rng, **kw: TreeOram(config, rng),
    "dummy-encoder": lambda config, rng, forced=None, **kw: DummyLengthEncoder(
        config, rng, forced_comparand=forced
    ),
    "dummy-leaker": lambda config, rng, n=None, forced=None, **kw: DummyLengthLeaker(
        config, rng, n=n, forced_draw=forced
    ),
}


def make_engine(
    kind: str,
    config: OramConfig,
    seed: int,
    n: int | None = None,
    forced=None,
) -> Engine:
    if kind not in _FACTORIES:
        raise ValueError(f"unknown engine {kind!r}; expected one of {', '.join(ENGINE_NAMES)}")
    if kind == "dummy-leaker" and n is None:
        raise ModelViolationError("dummy-leaker needs n in advance")
    return _FACTORIES[kind](config, random.Random(seed), n=n, forced=forced)


def run_sequence(
    kind: str,
    config: OramConfig,
    y: InputSequence,
    seed: int,
    record_meta: bool = True,
    forced=None,
) -> tuple[list[int], ServerState]:
    """Fresh engine + fresh server, the whole of y run in order (``Engine.run``).

    Returns the answers of all read ops and the final server state with its
    probe log.  Deterministic given the seed.
    """
    config.bind_workload_length(len(y))
    for op in y:
        config.check_op(op)
    engine = make_engine(kind, config, seed, n=len(y) or None, forced=forced)
    server = ServerState(config, record_meta=record_meta)
    answers = engine.run(server, y)
    return answers, server

"""Two-party transfer codec over a block workload.

The sender (Alice) and receiver (Bob) share everything about a block workload
except the data written in block i: the engine, config, seed, and all other
op data.  Alice simulates the engine through write block i, ships the
engine's client state, then continues through read block i and also ships
every probe that reads a cell last written during the write block.  Bob
replays his own simulation up to the write block, installs Alice's client
state, and serves exactly those reads from her list while simulating every
other probe himself; the answers of the read block are the hidden data.

Both drive the engine over op ranges with ``Engine.advance``, so an engine's
own fast path covers the prefix before the blocks (the linear scan logs it as
one repeating period).  Alice's simulation logs addresses only until the read
block; there ``ServerState.begin_meta`` turns on the metadata she reads.

The message is accounted as m*w bits of client state plus 2*w bits per
shipped (address, content) pair.  An engine whose true client state exceeds
m cells (the tree engine's position map) still gets charged only m*w here;
that undercount is the engine's documented compliance deviation, not the
codec's.

Decoding works for any deterministic engine because both simulations issue
the same probe sequence, and a read probe matches the front of Alice's list
if and only if it was one of her matched probes: once a cell's reader stops
matching (the cell was rewritten after the write block, or never written in
it), no later read of that cell can match again, so front-of-list address
comparison never fires early.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

from .core import READ, BlockLayout, InputSequence, OramConfig
from .orams import make_engine
from .server import ServerState


class DecodeError(RuntimeError):
    """Replay diverged from the encoded context."""


@dataclass(frozen=True)
class TransferMessage:
    """Client-state snapshot plus the matched (address, content) probe list."""

    m: int
    w: int
    client_state: dict
    matched: tuple[tuple[int, int], ...]
    checksum: str | None = None

    @property
    def bit_length(self) -> int:
        return self.m * self.w + 2 * self.w * len(self.matched)


def block_data(y: InputSequence, layout: BlockLayout, i: int) -> tuple[int, ...]:
    """The hidden payload: data of the i-th write block (i is 1-based)."""
    ws, we = _block_bounds(layout, i)[:2]
    return tuple(y[j].data for j in range(ws, we))


def _block_bounds(layout: BlockLayout, i: int) -> tuple[int, int, int, int]:
    if not 1 <= i <= layout.k:
        raise ValueError(f"block index {i} outside [1, {layout.k}]")
    ws, we = layout.write_ranges[i - 1]
    rs, re = layout.read_ranges[i - 1]
    return ws, we, rs, re


def _data_checksum(values: tuple[int, ...]) -> str:
    h = hashlib.blake2b(",".join(map(str, values)).encode(), digest_size=8)
    return h.hexdigest()


def alice_encode(
    engine: str,
    config: OramConfig,
    y: InputSequence,
    layout: BlockLayout,
    i: int,
    shared_seed: int,
    with_checksum: bool = False,
) -> TransferMessage:
    """Simulate through write block i, snapshot client state, then collect the
    read-block probes that read cells last written inside the write block."""
    config.bind_workload_length(len(y))
    ws, we, rs, re = _block_bounds(layout, i)
    machine = make_engine(engine, config, shared_seed, n=len(y))
    server = ServerState(config, record_meta=False)
    machine.advance(server, y, 0, we)  # everything before the read block, write block included
    snapshot = machine.export_state()
    mark = server.begin_meta()
    machine.advance(server, y, rs, re)
    srcs = server.read_src_column()
    hit = (server.kind_column() == 0) & (srcs >= ws) & (srcs < we)
    addrs = server.addr_column(mark)[hit]
    contents = server.data_column()[hit]
    matched = tuple(zip(addrs.tolist(), contents.tolist()))
    checksum = _data_checksum(block_data(y, layout, i)) if with_checksum else None
    return TransferMessage(
        m=config.m, w=config.w, client_state=snapshot, matched=matched, checksum=checksum
    )


def bob_decode(
    msg: TransferMessage,
    engine: str,
    config: OramConfig,
    y_template: InputSequence,
    layout: BlockLayout,
    i: int,
    shared_seed: int,
) -> tuple[int, ...]:
    """Replay up to the write block, install Alice's client state, and run the
    read block serving matched reads from her list.  Returns the read answers,
    which are exactly the write block's hidden data.

    Bob never executes the write block's ops, so the data inside them is dead
    weight in y_template as far as he is concerned.
    """
    config.bind_workload_length(len(y_template))
    ws, we, rs, re = _block_bounds(layout, i)
    machine = make_engine(engine, config, shared_seed, n=len(y_template))
    server = ServerState(config, record_meta=False)
    machine.advance(server, y_template, 0, ws)
    machine.import_state(msg.client_state)
    not_read = [idx for idx in range(rs, re) if y_template.ops[idx].kind != READ]
    if not_read:
        raise DecodeError(f"op {not_read[0]} in the read block is not a read")
    server.read_overrides = deque(msg.matched)
    recovered = tuple(machine.advance(server, y_template, rs, re))
    if server.read_overrides:
        raise DecodeError(f"{len(server.read_overrides)} matched probes were never consumed")
    if msg.checksum is not None and _data_checksum(recovered) != msg.checksum:
        raise DecodeError("recovered data fails the debug checksum")
    return recovered

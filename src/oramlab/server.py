"""The instrumented array-maintenance server.

The server executes probes with exact read-after-write semantics and records
every probe.  The recorded log keeps ground-truth metadata (kinds, payloads,
the input-op index that triggered each probe, and for reads the op index of
the probed cell's last writer).  ``adversary_view`` projects the log down to
the bare address list, which is all an adversary ever sees in this model.

There is one probe path, ``probe_batch``: every engine sends its probes in
batches, each probe tagged with the input op it serves.  The log is
columnar, so a batch lands in each column's numpy buffer as one array.  Cell
contents and last writers live in a dense store, two ``array('q')`` indexed
by address and doubled as needed to cover the highest address probed (so
addresses should stay of the order of the workload, not of 2^w); a batch
views them through ``np.frombuffer``; ``load`` and ``contents`` set and read
cells without a probe.  The linear scan logs its passes with no probe either,
through the one run logger ``_log_run``: with metadata off, a run is its
period of addresses and a repeat count; with metadata on, it logs every
column of every probe (each read logs its cell as it was before the op,
each write as it is after, and a read's last writer is the op before, or
the store's for the run's first op).  A trace that repeats one period (the
linear scan's, logged without metadata) is kept as ``AccessSequence.repeating``
through ``adversary_view``: ``window`` builds only what is read, and
``addrs`` and ``addr_column()`` build it all, once; ``addr_column(start)``
builds none of it when start is past it, and ``==`` builds neither of two
traces that repeat periods of one length.

Metadata can start part way through a run: a server made with
``record_meta=False`` logs addresses only until ``begin_meta()`` returns the
mark, the index of the next probe.  From then on the four metadata columns
(kind, data, op, read_src) log every probe, so they line up with
``addr_column(mark)``; the transfer codec's sender starts them at the
read block, the only probes she reads them for.
"""

from __future__ import annotations

import mmap
from array import array

import numpy as np

from ._util import ModelViolationError
from .core import OramConfig

# op sentinel for probes emitted after the last input op (engine wrap-up)
FINAL_OP = -2
# read_src sentinel for "cell never written" and for write probes
NO_WRITER = -1


class _Column:
    """Append-only int64 column.

    A repeating AccessSequence appended to an empty column stays its
    ``head``, built only by a read that starts inside it; one that repeats
    the same period right after the head lengthens it.  Later batches are
    copied into a buffer that grows fourfold (the first one becomes it
    uncopied).
    """

    __slots__ = ("head", "buf", "size")

    def __init__(self):
        self.head = AccessSequence(())
        self.buf = np.empty(0, dtype=np.int64)
        self.size = 0  # entries of buf in use

    def __len__(self) -> int:
        return self.head.N + self.size

    def extend(self, arr) -> None:
        """Append arr (array or repeating AccessSequence); the column may keep it, so leave it unchanged."""
        if isinstance(arr, AccessSequence):
            head, period = self.head, arr._period
            if not len(self):
                self.head = arr
                return
            if len(self) == head.N and head._period is not None and np.array_equal(head._period, period):
                self.head = AccessSequence.repeating(period, (head.N + arr.N) // len(period))
                return
            arr = arr.addrs
        end = self.size + len(arr)
        if not self.size:
            self.buf = arr
        else:
            if end > len(self.buf):
                # an anonymous map's pages cost memory once written and go back to the
                # system when freed, whatever the heap layout; 4x room keeps regrowth rare
                grown = np.frombuffer(mmap.mmap(-1, 4 * end * 8), dtype=np.int64)
                grown[: self.size] = self.buf[: self.size]
                self.buf = grown
            self.buf[self.size : end] = arr
        self.size = end

    def to_array(self, start: int = 0) -> np.ndarray:
        """Entries start..len-1; a start inside the head folds the head into the buffer, once."""
        if start < self.head.N:
            head, self.head = self.head.addrs, AccessSequence(())
            self.buf = np.concatenate((head, self.buf[: self.size])) if self.size else head
            self.size = len(self.buf)
        return self.buf[start - self.head.N : self.size]


class AccessSequence:
    """The adversary's view: the ordered list of probed server addresses."""

    __slots__ = ("_addrs", "_period", "N")

    def __init__(self, addrs):
        self._addrs, self._period = np.asarray(addrs, dtype=np.int64), None
        self.N = len(self._addrs)

    @classmethod
    def repeating(cls, period, reps: int) -> AccessSequence:
        """A non-empty period repeated reps times; ``addrs`` builds and caches the array on first use."""
        seq = cls.__new__(cls)
        seq._addrs, seq._period = None, np.asarray(period, dtype=np.int64)
        seq.N = len(seq._period) * reps
        return seq

    @property
    def addrs(self) -> np.ndarray:
        if self._addrs is None:
            self._addrs = self.window(0, self.N)
        return self._addrs

    def window(self, b: int, e: int) -> np.ndarray:
        """addrs[b:e]; of a repeating trace, e - b new addresses (plus at most a period's slack)."""
        if self._addrs is not None:
            return self._addrs[b:e]
        p, s, n = self._period, b % len(self._period), max(min(e, self.N) - b, 0)
        return np.concatenate((p[s:],) + (p,) * ((n + s - 1) // len(p)))[:n]  # p[s:], then whole periods

    def __len__(self) -> int:
        return self.N

    def __iter__(self):
        return iter(self.addrs.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, AccessSequence):
            return NotImplemented
        same = self.cheap_eq(other)
        return np.array_equal(self.addrs, other.addrs) if same is None else same

    def cheap_eq(self, other: AccessSequence) -> bool | None:
        """self == other where that builds no repeating trace, else None.

        Two explicit traces compare their arrays; two that repeat periods of
        one length compare N and the periods.
        """
        if self._period is None and other._period is None:
            return np.array_equal(self._addrs, other._addrs)
        if self._period is None or other._period is None or len(self._period) != len(other._period):
            return None
        return self.N == other.N and (not self.N or np.array_equal(self._period, other._period))

    def __repr__(self) -> str:
        return f"AccessSequence(N={self.N})"


class ServerState:
    """Dense cell store plus the probe log for one simulation run.

    record_meta=False keeps only the address column, until ``begin_meta``;
    large trace-statistics runs use it so a multi-million-probe log costs one
    int64 array instead of a Python object per probe.
    """

    def __init__(self, config: OramConfig, record_meta: bool = True):
        self.config = config
        self.record_meta = False
        # index 0 is never probed; it keeps np.frombuffer off empty buffers
        self._val = array("q", [0])
        self._writer = array("q", [NO_WRITER])
        self._addr = _Column()
        if record_meta:
            self.begin_meta()
        self._addr_limit = 1 << config.w

    def begin_meta(self) -> int:
        """Log the metadata columns from the next probe on; returns its index, the mark.

        Raises ValueError on a server that already logs metadata, so the
        columns of any server start at one well-defined probe: 0 for
        ``record_meta=True``, else the mark of the single ``begin_meta`` call.
        """
        if self.record_meta:
            raise ValueError("this server already logs metadata")
        self.record_meta = True
        self._kind, self._data, self._op, self._read_src = (_Column() for _ in range(4))
        return self.probe_count

    @property
    def probe_count(self) -> int:
        return len(self._addr)

    def probe_batch(self, kinds, addrs, data, op) -> np.ndarray:
        """Execute probes i = 0, 1, ... (kinds[i]: 0 read, 1 write) in order: the server's one probe.

        op is the input-op index of the probes, one int for the whole batch or
        one per probe; the log keeps it, and the cells a write stores data in
        keep it as their last writer.  Writes return 0; reads return the last
        value written at the address (0 if the cell was never written), seeing
        earlier writes of the batch; data is ignored for reads.  A batch with
        an address outside [1, 2^w], a write payload outside w bits or a kind
        other than 0 and 1 raises ModelViolationError, naming its first bad
        probe, before any work.
        """
        kinds, addrs, data = (np.array(x, dtype=np.int64) for x in (kinds, addrs, data))
        n = len(addrs)
        if not n:
            return addrs
        is_write = kinds == 1
        written = data[is_write]
        limit = self._addr_limit
        top = int(addrs.max())
        if (
            np.count_nonzero(kinds) != len(written)
            or not 1 <= addrs.min() <= top <= limit
            or (len(written) and not 0 <= written.min() <= written.max() < limit)
        ):
            # masks only now, to name the first bad probe
            bad_addr = (addrs < 1) | (addrs > limit)
            bad_data = is_write & ((data < 0) | (data >= limit))
            i = int(np.argmax(bad_addr | bad_data | ((kinds != 0) & ~is_write)))
            if bad_addr[i]:
                raise ModelViolationError(f"probe address {addrs[i]} outside [1, 2^{self.config.w}]")
            if bad_data[i]:
                raise ModelViolationError(f"probe payload {data[i]} does not fit in {self.config.w} bits")
            raise ModelViolationError(f"unknown probe kind {int(kinds[i])!r}")
        per_probe = not isinstance(op, (int, np.integer))
        if per_probe:
            op = np.array(op, dtype=np.int64)
        self._grow(top)
        vals = np.frombuffer(self._val, dtype=np.int64)
        writers = np.frombuffer(self._writer, dtype=np.int64)
        # sort stably by address (each address keeps batch order) and give
        # each probe the latest write at or before it in its group, else the store
        order = np.argsort(addrs, kind="stable")
        a = addrs[order]
        pos = np.arange(n)
        first = np.concatenate(([True], a[1:] != a[:-1]))
        group = np.maximum.accumulate(np.where(first, pos, 0))
        last_write = np.maximum.accumulate(np.where(is_write[order], pos, -1))
        hit = last_write >= group
        got = np.where(hit, data[order][last_write], vals[a])
        hit_op = op[order][last_write] if per_probe else op
        logged, src = np.empty((2, n), dtype=np.int64)
        logged[order] = got
        src[order] = np.where(hit, hit_op, writers[a])
        last = hit & np.append(first[1:], True)
        final = a[last]
        final_op = hit_op[last] if per_probe else op
        vals[final] = got[last]
        writers[final] = final_op
        src[is_write] = NO_WRITER
        del vals, writers  # release the buffers so the store can grow again
        self._addr.extend(addrs)
        if self.record_meta:
            self._kind.extend(kinds)
            self._data.extend(logged)
            self._op.extend(op if per_probe else np.full(n, op, dtype=np.int64))
            self._read_src.extend(src)
        return np.where(is_write, 0, logged)

    def load(self, pairs) -> None:
        """Set cell addr to content for each (addr, content) pair, in order, with no probe.

        Nothing is logged and last writers stay as they are.  Raises
        ModelViolationError, before changing anything, for the pairs that
        ``probe_batch`` would refuse as a write.
        """
        pairs, limit, w = list(pairs), self._addr_limit, self.config.w
        bad = [(a, c) for a, c in pairs if not (1 <= a <= limit and 0 <= c < limit)]
        if bad:
            raise ModelViolationError(f"cannot load {bad[0]}: cells are [1, 2^{w}] and contents fit in {w} bits")
        self._grow(max((addr for addr, _ in pairs), default=0))
        for addr, content in pairs:
            self._val[addr] = content

    def contents(self, m: int) -> np.ndarray:
        """Contents of cells 1..m as a fresh array (0 for a cell never written), with no probe."""
        self._grow(m)
        return np.frombuffer(self._val, dtype=np.int64)[1 : m + 1].copy()

    def _grow(self, top: int) -> None:
        """Extend the store to cover addresses up to top, at least doubling it."""
        size = len(self._val)
        if top >= size:
            extra = max(top + 1, 2 * size) - size
            self._val.frombytes(bytes(8 * extra))
            self._writer.extend(array("q", [NO_WRITER]) * extra)

    @property
    def cells(self) -> dict[int, int]:
        """Contents of every written cell, as a fresh dict."""
        return self._per_written_cell(self._val)

    @property
    def last_write_op(self) -> dict[int, int]:
        """Op index of the last write to every written cell, as a fresh dict."""
        return self._per_written_cell(self._writer)

    def _per_written_cell(self, store: array) -> dict[int, int]:
        written = np.flatnonzero(np.frombuffer(self._writer, dtype=np.int64) != NO_WRITER)
        return dict(zip(written.tolist(), np.frombuffer(store, dtype=np.int64)[written].tolist()))

    def _log_run(self, period: np.ndarray, kinds: np.ndarray, ops: range, cells) -> None:
        """Log the linear scan's passes for ops, one per op, with no probe.

        A pass probes the addresses of period, kinds[i] the kind of the i-th
        (0 read, 1 write), and reads and writes back every cell 1..m once:
        it reads a cell as it was before the op and writes it as it is after.
        cells holds cells 1..m after each op, one row per op; a server logging
        addresses only reads just the last row, so it may be the only one.
        The cells end holding the last row, every one written by the last op.
        """
        cells = np.asarray(cells, dtype=np.int64)
        m, reps = cells.shape[1], len(ops)
        self._grow(m)
        if self.record_meta:
            before = np.concatenate((self.contents(m)[None], cells[:-1]))
            is_write = kinds == 1
            src = np.empty((reps, len(period)), dtype=np.int64)
            src[0] = np.frombuffer(self._writer, dtype=np.int64)[period]
            src[1:] = np.arange(ops.start, ops.stop - 1)[:, None]  # each cell's writer is the op before
            src[:, is_write] = NO_WRITER
            self._kind.extend(np.tile(kinds, reps))
            self._data.extend(np.where(is_write, cells[:, period - 1], before[:, period - 1]).ravel())
            self._op.extend(np.repeat(np.arange(ops.start, ops.stop), len(period)))
            self._read_src.extend(src.ravel())
        np.frombuffer(self._val, dtype=np.int64)[1 : m + 1] = cells[-1]
        np.frombuffer(self._writer, dtype=np.int64)[1 : m + 1] = ops.stop - 1
        self._addr.extend(np.tile(period, reps) if self.record_meta else AccessSequence.repeating(period, reps))

    # -- columnar access -------------------------------------------------

    def addr_column(self, start: int = 0) -> np.ndarray:
        """Addresses of probes start..probe_count-1."""
        return self._addr.to_array(start)

    def kind_column(self) -> np.ndarray:
        return self._kind.to_array()

    def data_column(self) -> np.ndarray:
        return self._data.to_array()

    def op_column(self) -> np.ndarray:
        return self._op.to_array()

    def read_src_column(self) -> np.ndarray:
        return self._read_src.to_array()


def adversary_view(state: ServerState) -> AccessSequence:
    """Project the probe log to the bare address sequence.

    Everything else in the log (op boundaries, kinds, payloads) is ground
    truth for validation and the transfer codec, and is deliberately dropped
    here: the adversary sees addresses only.  A repeating log stays repeating.
    """
    col = state._addr
    return col.head if len(col) == col.head.N else AccessSequence(col.to_array())

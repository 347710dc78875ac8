"""The instrumented array-maintenance server.

The server executes probes with exact read-after-write semantics and records
every probe.  The recorded log keeps ground-truth metadata (kinds, payloads,
the input-op index that triggered each probe, and for reads the op index of
the probed cell's last writer).  ``adversary_view`` projects the log down to
the bare address list, which is all an adversary ever sees in this model.

There is one probe path, ``probe_batch``: every engine sends its probes in
batches, each probe tagged with the input op it serves.  The log is
columnar: each column keeps a batch's array as given (``probe_batch`` logs
copies of its inputs) and joins its arrays into one on a read.  Cell
contents and last writers live in a dense store, two int64 arrays indexed
by address, which a probe past the highest address covered reallocates at
least twice as large, copying the old cells in (so addresses should stay
of the workload's order, not of 2^w); ``load`` sets cells without a probe,
and ``contents`` and ``last_writers`` read them as read-only views of the
store.  ``probe_batch`` is the only writer of the metadata columns.  With
metadata off, ``_log_passes`` resolves a run of the linear scan's passes
with no probe, and logs it as its period of addresses and a repeat count;
both resolve reads with ``read_after_write``, the one place a read sees the
latest earlier write.  A trace that repeats one period is kept as
``AccessSequence.repeating`` through ``adversary_view``: ``window`` builds
only what is read, and ``addrs`` and ``addr_column()`` build it all, once;
``addr_column(start)`` builds none of it when start is past it, and ``==``
builds neither of two traces that repeat periods of one length.

Metadata can start part way through a run: a server made with
``record_meta=False`` logs addresses only until ``begin_meta()`` returns the
mark, the index of the next probe.  From then on the four metadata columns
(kind, data, op, read_src) log every probe, so they line up with
``addr_column(mark)``; the transfer codec's sender starts them at the
read block, the only probes she reads them for, and stops the read block once
``last_writers`` shows no cell last written in the write block.
"""

from __future__ import annotations

import numpy as np

from ._util import ModelViolationError
from .core import OramConfig

# op sentinel for probes emitted after the last input op (engine wrap-up)
FINAL_OP = -2
# read_src sentinel for "cell never written" and for write probes
NO_WRITER = -1


# below this many keys numpy's int64 stable sort beats its uint16 radix sort
RADIX_MIN_KEYS = 128


def stable_order(keys: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The stable argsort of int64 keys in [lo, hi]: it is unique, so keys in [0, 2^16) sort as uint16 (radix)
    when there are at least ``RADIX_MIN_KEYS`` of them."""
    radix = len(keys) >= RADIX_MIN_KEYS and 0 <= lo and hi < 1 << 16
    return np.argsort(keys.astype(np.uint16) if radix else keys, kind="stable")


def read_after_write(addrs, is_write, data, cells, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve probes i = 0, 1, ... (one or more) in order against cells indexed by address.

    Probe i writes data[i] at addrs[i] (in [1, top]) if the bool is_write[i]
    holds, else reads it.  Returns (got, source, final): got[i] is the latest
    write at or before probe i to its address (a write sees itself), and
    source[i] that write's index; with no such write, cells[addrs[i]] and -1.
    final indexes each written address's last write, so
    ``cells[addrs[final]] = data[final]`` leaves the cells as the probes do.
    """
    # sort stably by address (each address keeps probe order): the latest
    # write at or before a probe serves it if it has the probe's address
    order = stable_order(addrs, 1, top)
    a = addrs[order]
    last_write = np.maximum.accumulate(np.where(is_write[order], np.arange(len(a)), -1))
    hit = (last_write >= 0) & (a[last_write] == a)
    src = np.where(hit, order[last_write], -1)
    source = np.empty_like(src)
    source[order] = src
    hit[:-1] &= a[1:] != a[:-1]  # now: a written address's last probe
    return np.where(source >= 0, data[source], cells[addrs]), source, src[hit]


class _Column:
    """Append-only int64 column: a repeating ``head``, then the arrays appended after it, kept as given.

    A repeating AccessSequence appended to an empty column stays its
    ``head``, built only by a read that starts inside it; one that repeats
    the same period right after the head lengthens it.  Every other append
    goes on ``parts`` uncopied, and a read joins the parts into one, once.
    """

    __slots__ = ("head", "parts")

    def __init__(self):
        self.head, self.parts = AccessSequence(()), []

    def __len__(self) -> int:
        return self.head.N + sum(map(len, self.parts))

    def extend(self, arr) -> None:
        """Append arr (array or repeating AccessSequence); the column keeps it, so leave it unchanged."""
        if isinstance(arr, AccessSequence):
            head, period = self.head, arr._period
            if not len(self):
                self.head = arr
                return
            if not self.parts and head._period is not None and np.array_equal(head._period, period):
                self.head = AccessSequence.repeating(period, (head.N + arr.N) // len(period))
                return
            arr = arr.addrs
        self.parts.append(arr)

    def to_array(self, start: int = 0) -> np.ndarray:
        """Entries start..len-1; a start inside the head folds the head into the parts, which are joined once."""
        if start < self.head.N:
            self.parts.insert(0, self.head.addrs)
            self.head = AccessSequence(())
        if len(self.parts) > 1:
            self.parts = [np.concatenate(self.parts)]
        return self.parts[0][start - self.head.N :] if self.parts else np.empty(0, dtype=np.int64)


class AccessSequence:
    """The adversary's view: the ordered list of probed server addresses."""

    __slots__ = ("_addrs", "_period", "N", "_bounds")

    def __init__(self, addrs):
        self._addrs, self._period, self._bounds = np.asarray(addrs, dtype=np.int64), None, None
        self.N = len(self._addrs)

    @classmethod
    def repeating(cls, period, reps: int) -> AccessSequence:
        """A non-empty period repeated reps times; ``addrs`` builds and caches the array on first use."""
        if not len(period):
            raise ValueError("a repeating trace needs a non-empty period")
        seq = cls.__new__(cls)
        seq._addrs, seq._period, seq._bounds = None, np.asarray(period, dtype=np.int64), None
        seq.N = len(seq._period) * reps
        return seq

    @property
    def addrs(self) -> np.ndarray:
        if self._addrs is None:
            self._addrs = self.window(0, self.N)
        return self._addrs

    @property
    def bounds(self) -> tuple[int, int]:
        """(lo, hi) with every address in [lo, hi], (0, 0) for none; a repeating trace's from its period."""
        if self._bounds is None:
            keys = self._addrs if self._period is None else self._period[: self.N]
            self._bounds = (int(keys.min()), int(keys.max())) if len(keys) else (0, 0)
        return self._bounds

    def window(self, b: int, e: int) -> np.ndarray:
        """addrs[b:e]; of a repeating trace, e - b new addresses (plus at most a period's slack)."""
        if self._addrs is not None:
            return self._addrs[b:e]
        p, s, n = self._period, b % len(self._period), max(min(e, self.N) - b, 0)
        return np.concatenate((p[s:],) + (p,) * ((n + s - 1) // len(p)))[:n]  # p[s:], then whole periods

    def __len__(self) -> int:
        return self.N

    def __eq__(self, other) -> bool:
        if not isinstance(other, AccessSequence):
            return NotImplemented
        same = self.cheap_eq(other)
        return np.array_equal(self.addrs, other.addrs) if same is None else same

    def cheap_eq(self, other: AccessSequence) -> bool | None:
        """self == other where that builds no repeating trace, else None.

        Traces of two lengths differ and two empty ones are equal; two explicit
        traces compare their arrays; two that repeat periods of one length compare the periods.
        """
        if self.N != other.N or not self.N:
            return self.N == other.N
        if self._period is None and other._period is None:
            return np.array_equal(self._addrs, other._addrs)
        if self._period is None or other._period is None or len(self._period) != len(other._period):
            return None
        return np.array_equal(self._period, other._period)

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
        self._val = np.zeros(0, dtype=np.int64)  # indexed by address; cell 0 is never probed
        self._writer = np.zeros(0, dtype=np.int64)
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
        one per probe, and is made one int64 per probe on entry; the log keeps
        it, and the cells a write stores data in keep it as their last writer.
        Writes return 0; reads return the last value written at the address (0
        if the cell was never written), seeing earlier writes of the batch;
        data is ignored for reads.  A batch with an address outside [1, 2^w],
        a write payload outside w bits or a kind other than 0 and 1 raises
        ModelViolationError, naming its first bad probe, before any work.
        """
        kinds, addrs, data = (np.array(x, dtype=np.int64) for x in (kinds, addrs, data))
        n = len(addrs)
        if not n:
            return addrs
        op = np.full(n, op, dtype=np.int64) if isinstance(op, (int, np.integer)) else np.array(op, dtype=np.int64)
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
        self._grow(top)
        got, source, final = read_after_write(addrs, is_write, data, self._val, top)
        self._addr.extend(addrs)
        if self.record_meta:
            src = np.where(source >= 0, op[source], self._writer[addrs])  # the writers before this batch's
            src[is_write] = NO_WRITER
            for col, arr in zip((self._kind, self._data, self._op, self._read_src), (kinds, got, op, src)):
                col.extend(arr)
        cells = addrs[final]
        self._val[cells], self._writer[cells] = data[final], op[final]
        return np.where(is_write, 0, got)

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
        """Contents of cells 1..m (0 for a cell never written), with no probe.

        A read-only view of the store: the next probe or ``load`` may change
        it, so read it before either, or copy it.
        """
        self._grow(m)
        return _read_only(self._val[1 : m + 1])

    def last_writers(self) -> np.ndarray:
        """Op index of the last write to each cell the store covers, entry a - 1 for address a
        (``NO_WRITER`` for a cell never written), with no probe; a read-only view, as ``contents``."""
        return _read_only(self._writer[1:])

    def _grow(self, top: int) -> None:
        """Extend the store to cover addresses up to top, at least doubling it."""
        size = len(self._val)
        if top >= size:
            new = max(top + 1, 2 * size)
            val, writer = np.zeros(new, dtype=np.int64), np.full(new, NO_WRITER, dtype=np.int64)
            val[:size], writer[:size] = self._val, self._writer
            self._val, self._writer = val, writer

    def _log_passes(self, period: np.ndarray, ops: range, is_write, addrs, data) -> np.ndarray:
        """Log the linear scan's passes for ops (columns is_write, addrs, data) as addresses only, with no
        probe; returns the answers of their reads.

        A pass probes the addresses of period and writes back cells 1..M, so the ops resolve as a probe
        batch does (``read_after_write``) and each cell ends last written by the last op.  ``Engine.advance``
        has checked the ops: every address lies in [1, M] and every write fits in w bits.
        """
        if not ops:
            return addrs
        m = self.config.M
        self._grow(m)
        got, _, final = read_after_write(addrs, is_write, data, self._val, m)
        self._val[addrs[final]] = data[final]
        self._writer[1 : m + 1] = ops.stop - 1
        self._addr.extend(AccessSequence.repeating(period, len(ops)))
        return got[~is_write]

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


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def adversary_view(state: ServerState) -> AccessSequence:
    """Project the probe log to the bare address sequence.

    Everything else in the log (op boundaries, kinds, payloads) is ground
    truth for validation and the transfer codec, and is deliberately dropped
    here: the adversary sees addresses only.  A repeating log stays repeating.
    """
    col = state._addr
    return col.head if len(col) == col.head.N else AccessSequence(col.to_array())

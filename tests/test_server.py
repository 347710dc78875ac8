import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oramlab import (
    AccessSequence,
    ModelViolationError,
    OramConfig,
    ServerState,
    adversary_view,
    gen_alternating_sequence,
    make_engine,
    run_sequence,
)
from oramlab.adversary import trace_digest
from oramlab.server import FINAL_OP, NO_WRITER, RADIX_MIN_KEYS, read_after_write, stable_order

from conftest import R, ReferenceServer, W, last_write_ops, reference_read_after_write, seq, written_cells

CFG = OramConfig(m=1, M=16, w=8)


def _batch(probes):
    """kinds, addrs and data of a list of (kind, addr, data) probes, as int64 arrays."""
    return tuple(np.array([p[i] for p in probes], dtype=np.int64) for i in range(3))


def test_write_then_read_returns_payload():
    srv = ServerState(CFG)
    assert srv.probe_batch([1], [5], [0xAB], 0).tolist() == [0]
    assert srv.probe_batch([0], [5], [0], 0).tolist() == [0xAB]


def test_uninitialized_read_is_zero():
    srv = ServerState(CFG)
    assert srv.probe_batch([0], [7], [0], 0).tolist() == [0]


def test_address_and_payload_range_checks():
    srv = ServerState(CFG)
    with pytest.raises(ModelViolationError, match="address 257 outside"):
        srv.probe_batch([1], [2**8 + 1], [0], 0)
    with pytest.raises(ModelViolationError, match="payload 256 does not fit"):
        srv.probe_batch([1], [1], [2**8], 0)
    with pytest.raises(ModelViolationError, match="unknown probe kind 2"):
        srv.probe_batch([2], [1], [0], 0)
    srv.probe_batch([1], [2**8], [0], 0)  # top address is in range


def test_adversary_view_is_address_projection():
    srv = ServerState(CFG)
    srv.probe_batch([1, 1, 0], [3, 9, 3], [1, 2, 0], 0)
    assert adversary_view(srv).addrs.tolist() == [3, 9, 3]
    assert adversary_view(ServerState(CFG)).N == 0


def test_records_and_columns_agree():
    srv = ServerState(CFG)
    srv.probe_batch([1, 0], [2, 2], [7, 0], [4, 5])
    cols = (srv.kind_column(), srv.addr_column(), srv.data_column(), srv.op_column(), srv.read_src_column())
    assert list(zip(range(srv.probe_count), *(c.tolist() for c in cols))) == [
        (0, 1, 2, 7, 4, -1),
        (1, 0, 2, 7, 5, 4),
    ]
    assert srv.probe_count == 2
    ops, counts = np.unique(srv.op_column(), return_counts=True)
    assert dict(zip(ops.tolist(), counts.tolist())) == {4: 1, 5: 1}


@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(1, 8), st.integers(0, 255)), max_size=80
    )
)
@settings(max_examples=60)
def test_read_after_write_matches_dict_oracle(ops):
    srv = ServerState(CFG)
    oracle: dict[int, int] = {}
    want = []
    for is_write, addr, data in ops:
        if is_write:
            oracle[addr] = data
        want.append(0 if is_write else oracle.get(addr, 0))
    assert srv.probe_batch(*_batch(ops), 0).tolist() == want
    assert written_cells(srv) == oracle
    assert adversary_view(srv).N == len(ops)


def test_load_sets_cells_without_a_probe():
    srv = ServerState(CFG)
    srv.probe_batch([1], [2], [7], 0)
    srv.load([(2, 9), (5, 4), (2, 11)])
    assert srv.probe_count == 1
    assert srv.contents(6).tolist() == [0, 11, 0, 0, 4, 0]
    assert last_write_ops(srv) == {2: 0}
    assert srv.probe_batch([0], [5], [0], 0).tolist() == [4]
    assert srv.read_src_column().tolist() == [-1, -1]


def test_store_reads_are_read_only_views():
    srv = ServerState(CFG)
    srv.probe_batch([1, 1], [2, 3], [7, 8], [4, 5])
    cells, writers = srv.contents(4), srv.last_writers()
    assert cells.tolist() == [0, 7, 8, 0]
    assert writers[:4].tolist() == [NO_WRITER, 4, 5, NO_WRITER]
    for view in (cells, writers):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1
    srv.probe_batch([1], [1], [9], 6)  # a view shows the store as it is now, not as it was
    assert cells[0] == 9 and writers[0] == 6
    assert srv.contents(4).tolist() == [9, 7, 8, 0]


@pytest.mark.parametrize("n_keys", [RADIX_MIN_KEYS - 1, RADIX_MIN_KEYS, RADIX_MIN_KEYS + 1])
@pytest.mark.parametrize("top", [2**16 - 1, 2**16])
def test_stable_order_is_the_int64_stable_sort(n_keys, top):
    """Either side of the uint16 sort's key count and of 2^16, the order is the stable int64 one."""
    rng = np.random.default_rng(n_keys + top)
    keys = rng.choice(np.array([0, 1, 2**15, top - 1, top], dtype=np.int64), n_keys)  # many ties
    keys[[0, -1]] = 0, top
    assert np.array_equal(stable_order(keys, 0, top), np.argsort(keys, kind="stable"))


_NARROW = [1, 2, 3, 2**16 - 1]  # every address below 2^16: the uint16 sort from RADIX_MIN_KEYS probes on
_WIDE = _NARROW + [2**16, 2**16 + 1, 2**17]


@given(
    n=st.sampled_from([1, 2, RADIX_MIN_KEYS - 1, RADIX_MIN_KEYS, RADIX_MIN_KEYS + 1]),
    wide=st.booleans(),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_read_after_write_matches_the_probe_loop(n, wide, data):
    """Each probe sees its address's latest write at or before it, else the cell, and the last
    writes are those of the probe loop, with addresses on either side of 2^16 and batch sizes
    either side of the uint16 sort's."""
    pool = _WIDE if wide else _NARROW
    addrs = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n), label="addrs"))
    if wide:
        addrs[-1] = 2**16  # the top address reaches 2^16: the int64 sort
    is_write = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="is_write"), dtype=bool)
    values = np.array(data.draw(st.lists(st.integers(0, 255), min_size=n, max_size=n), label="data"))
    top = int(addrs.max())
    cells = np.arange(top + 1, dtype=np.int64) % 97 + 1000  # no write's data
    got, source, final = read_after_write(addrs.astype(np.int64), is_write, values, cells, top)
    want = reference_read_after_write(addrs.tolist(), is_write.tolist(), values.tolist(), cells.tolist())
    assert (got.tolist(), source.tolist(), sorted(final.tolist())) == want


@pytest.mark.parametrize("bad", [(0, 1), (2**8 + 1, 1), (3, 2**8), (3, -1)])
def test_load_refuses_what_a_write_probe_refuses_before_any_work(bad):
    srv = ServerState(CFG)
    srv.probe_batch([1], [2], [7], 0)
    before = srv.contents(CFG.M).tolist(), last_write_ops(srv), srv.probe_count
    with pytest.raises(ModelViolationError, match=rf"cannot load \({bad[0]}, {bad[1]}\)"):
        srv.load([(1, 5), bad])
    assert (srv.contents(CFG.M).tolist(), last_write_ops(srv), srv.probe_count) == before
    with pytest.raises(ModelViolationError):
        srv.probe_batch([1], [bad[0]], [bad[1]], 0)


def test_meta_free_log_keeps_addresses_only():
    srv = ServerState(CFG, record_meta=False)
    srv.probe_batch([1, 0], [4, 4], [1, 0], 0)
    assert adversary_view(srv).addrs.tolist() == [4, 4]
    with pytest.raises(AttributeError):
        srv.kind_column()


def _server_state(srv, meta):
    """Log (the metadata columns too if meta), cells and last writers, as lists and dicts."""
    cols = [srv.addr_column()]
    if meta:
        cols += [srv.kind_column(), srv.data_column(), srv.op_column(), srv.read_src_column()]
    return [c.tolist() for c in cols], written_cells(srv), last_write_ops(srv)


def _outcome(call):
    try:
        return call().tolist(), None
    except ModelViolationError as exc:
        return None, str(exc)


_PROBE = st.tuples(st.integers(0, 1), st.integers(1, 5), st.integers(0, 255))
_BAD_PROBES = [(1, 0, 0), (0, 2**8 + 1, 0), (1, 3, 2**8), (1, 3, -1), (2, 1, 0), (2, 0, 0), (1, -4, 2**8)]


@given(
    before=st.lists(_PROBE, max_size=8),
    batch=st.lists(_PROBE, max_size=24),
    bad=st.none() | st.tuples(st.sampled_from(_BAD_PROBES), st.integers(0, 24)),
    ops=st.integers(0, 4) | st.lists(st.sampled_from([0, 1, 2, 3, FINAL_OP]), min_size=25, max_size=25),
    record_meta=st.booleans(),
)
@example(before=[], batch=[], bad=None, ops=4, record_meta=True)
@example(before=[], batch=[(1, 2, 9), (0, 2, 0)], bad=None, ops=4, record_meta=True)
@example(before=[(1, 2, 4)], batch=[(0, 2, 0), (1, 2, 9), (0, 2, 0)], bad=None, ops=4, record_meta=True)
@example(before=[], batch=[(0, 2, 0), (1, 2, 5)], bad=None, ops=4, record_meta=True)
@example(before=[(1, 2, 4)], batch=[(1, 2, 9), (0, 2, 0), (1, 3, 1), (0, 2, 0)], bad=None, ops=[1, 2, 2, 3] * 7,
         record_meta=True)
@example(before=[(1, 2, 4)], batch=[(1, 1, 3), (0, 2, 0), (1, 4, 5)], bad=None, ops=[1, 2, 3] * 9, record_meta=True)
@settings(max_examples=200, deadline=None)
def test_probe_batch_matches_probe_loop(before, batch, bad, ops, record_meta):
    """probe_batch returns, logs and stores what the reference server's probes
    do one at a time, the op given once or per probe; a batch the reference
    refuses part way through raises the same error before any work."""
    if bad is not None:
        batch = batch[: bad[1]] + [bad[0]] + batch[bad[1] :]
    if isinstance(ops, int):
        op_arg, ops = ops, [ops] * len(batch)
    else:
        op_arg = ops = ops[: len(batch)]
    ref, srv = ReferenceServer(CFG), ServerState(CFG, record_meta=record_meta)
    for k, a, d in before:
        ref.probe(k, a, d, 3)
    srv.probe_batch(*_batch(before), 3)
    unchanged = _server_state(ref, record_meta)
    want = _outcome(lambda: np.array([ref.probe(k, a, d, op) for (k, a, d), op in zip(batch, ops)], dtype=np.int64))
    got = _outcome(lambda: srv.probe_batch(*_batch(batch), op_arg))
    assert got == want
    assert (bad is None) == (got[1] is None)
    assert _server_state(srv, record_meta) == (_server_state(ref, record_meta) if bad is None else unchanged)


@pytest.mark.parametrize("top", [2**16 - 1, 2**16, 2**16 + 1])
def test_probe_batch_matches_probe_loop_around_16_bit_addresses(top):
    """Batches whose top address sits just below, at and just above 2^16, where
    the sort by address changes key width, match the reference server probe for
    probe; 1 and 2^16 + 1 share their low 16 bits."""
    cfg = OramConfig(m=1, M=16, w=17)
    rng = np.random.default_rng(top)
    pool = np.array([1, 2, 3, top - 2, top - 1, top])
    ref, srv = ReferenceServer(cfg), ServerState(cfg)
    for op in range(3):
        batch = [(int(k), int(a), int(d)) for k, a, d in zip(
            rng.integers(0, 2, 300), np.append(rng.choice(pool, 299), top), rng.integers(0, 2**17, 300))]
        want = [ref.probe(k, a, d, op) for k, a, d in batch]
        assert srv.probe_batch(*_batch(batch), op).tolist() == want
    assert _server_state(srv, meta=True) == _server_state(ref, meta=True)


@pytest.mark.parametrize("bad", _BAD_PROBES)
def test_refused_batch_changes_nothing(bad):
    srv = ServerState(CFG)
    srv.probe_batch([1], [2], [7], 0)
    before = _server_state(srv, meta=True)
    with pytest.raises(ModelViolationError):
        srv.probe_batch(*_batch([(1, 2, 9), (1, 4, 5), (0, 2, 0), bad]), 1)
    assert _server_state(srv, meta=True) == before
    assert srv.contents(4).tolist() == [0, 7, 0, 0]


def test_probe_batch_reads_see_earlier_writes_of_the_batch():
    srv = ServerState(CFG)
    srv.probe_batch([1], [3], [5], 0)
    got = srv.probe_batch([0, 1, 0, 1, 0, 0], [3, 3, 3, 3, 3, 4], [0, 7, 0, 9, 0, 0], 1)
    assert got.tolist() == [5, 0, 7, 0, 9, 0]
    assert srv.read_src_column().tolist() == [-1, 0, -1, 1, -1, 1, -1]
    assert written_cells(srv) == {3: 9} and last_write_ops(srv) == {3: 1}
    # a batch spanning ops: a read names the op of the write it sees, a cell keeps its last write's op
    got = srv.probe_batch([1, 0, 1, 0, 0], [4, 4, 4, 3, 4], [6, 0, 8, 0, 0], [2, 3, 3, 4, 5])
    assert got.tolist() == [0, 6, 0, 9, 8]
    assert srv.read_src_column()[7:].tolist() == [-1, 2, -1, 1, 3]
    assert written_cells(srv) == {3: 9, 4: 8} and last_write_ops(srv) == {3: 1, 4: 3}


@given(
    period=st.lists(st.integers(1, 6), min_size=1, max_size=20),
    reps=st.integers(0, 30),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_repeating_sequence_matches_its_tile(period, reps, data):
    tiled = AccessSequence(np.tile(np.array(period, dtype=np.int64), reps))
    n = tiled.N
    b = data.draw(st.integers(0, n))
    e = data.draw(st.integers(b, n))
    seq = AccessSequence.repeating(period, reps)
    assert seq.N == len(seq) == n
    assert seq.window(b, e).tolist() == tiled.window(b, e).tolist() == tiled.addrs[b:e].tolist()
    assert np.array_equal(seq.addrs, tiled.addrs)
    assert seq.window(b, e).tolist() == tiled.addrs[b:e].tolist()  # now read off the cached array
    fresh = AccessSequence.repeating(period, reps)
    assert fresh.window(b, n + 7).tolist() == tiled.window(b, n + 7).tolist()  # clipped at N, as slices are
    assert fresh == tiled and tiled == AccessSequence.repeating(period, reps)
    assert AccessSequence.repeating(period, reps).addrs.tolist() == tiled.addrs.tolist()
    assert trace_digest(AccessSequence.repeating(period, reps)) == trace_digest(tiled)


def test_repeating_scan_log_is_its_tile():
    cfg = OramConfig(m=1, M=6, w=8)
    tile = np.tile(np.repeat(np.arange(1, 7), 2), 6)
    servers = [run_sequence("linear-scan", cfg, gen_alternating_sequence(6), seed=0, record_meta=False)[1]
               for _ in range(2)]
    for srv in servers:
        view = adversary_view(srv)
        assert srv.probe_count == view.N == len(tile)
        assert view.window(5, 40).tolist() == tile[5:40].tolist()
    assert np.array_equal(servers[0].addr_column(), tile)
    assert adversary_view(servers[0]) == AccessSequence(tile)
    servers[1].probe_batch([0], [3], [0], FINAL_OP)  # an append after the repeating run extends its array
    assert servers[1].probe_count == len(tile) + 1
    assert adversary_view(servers[1]).addrs.tolist() == tile.tolist() + [3]
    assert servers[1].addr_column().tolist() == tile.tolist() + [3]


def test_repeating_scan_views_compare_unbuilt(monkeypatch):
    cfg = OramConfig(m=1, M=6, w=8)
    y, y_other = gen_alternating_sequence(6), seq(*(W(3, 7), R(5)) * 3)
    views = [adversary_view(run_sequence("linear-scan", cfg, ops, seed=seed, record_meta=False)[1])
             for ops, seed in ((y, 0), (y_other, 9), (gen_alternating_sequence(4), 0))]
    monkeypatch.setattr(AccessSequence, "addrs", property(lambda view: pytest.fail("a repeating view was built")))
    assert views[0] == views[1]  # one period over the same N, whatever the input and seed
    assert views[0] != views[2]  # a shorter run


@given(
    period=st.lists(st.integers(1, 3), min_size=1, max_size=6),
    data=st.data(),
    reps=st.integers(0, 4),
    other_reps=st.integers(0, 4),
)
@settings(max_examples=100, deadline=None)
def test_repeating_sequences_compare_as_their_tiles(period, data, reps, other_reps):
    other = data.draw(st.lists(st.integers(1, 3), min_size=len(period), max_size=len(period)))
    a, b = AccessSequence.repeating(period, reps), AccessSequence.repeating(other, other_reps)
    tiles = np.tile(period, reps), np.tile(other, other_reps)
    assert (a == b) == a.cheap_eq(b) == (len(tiles[0]) == len(tiles[1]) and (tiles[0] == tiles[1]).all())
    assert a._addrs is None and b._addrs is None


def test_repeating_refuses_an_empty_period():
    with pytest.raises(ValueError, match="^a repeating trace needs a non-empty period$"):
        AccessSequence.repeating([], 3)


def test_zero_repeats_are_the_empty_trace():
    empty = AccessSequence.repeating([5, 6], 0)
    assert len(empty) == 0 and empty.bounds == (0, 0) and empty.window(0, 4).tolist() == []
    assert empty.cheap_eq(AccessSequence([])) is True and AccessSequence([]).cheap_eq(empty) is True
    assert empty == AccessSequence([]) and empty != AccessSequence([5])


# an append: an int64 array of addresses, or a repeating run (period, repeats) of one of two periods of one length
_APPEND = st.one_of(
    st.lists(st.integers(1, 9), min_size=1, max_size=5),
    st.tuples(st.sampled_from([(1, 2), (3, 1)]), st.integers(0, 3)),
)


def _logged(appends):
    """A server with no metadata whose address log holds appends, and the tiled list they stand for."""
    srv, tiled = ServerState(CFG, record_meta=False), []
    for part in appends:
        if isinstance(part, tuple):
            period, reps = part
            srv._addr.extend(AccessSequence.repeating(period, reps))
            tiled += list(period) * reps
        else:
            srv._addr.extend(np.array(part, dtype=np.int64))
            tiled += part
    return srv, tiled


@given(appends=st.lists(_APPEND, max_size=6))
@example(appends=[((1, 2), 2), ((1, 2), 3)])  # back-to-back runs of one period
@example(appends=[((1, 2), 0), [4], ((3, 1), 0), ((3, 1), 2), [5, 6]])
@example(appends=[[4, 4], ((1, 2), 2), ((1, 2), 1)])
@settings(max_examples=150, deadline=None)
def test_column_reads_are_its_tiled_appends(appends):
    srv, tiled = _logged(appends)
    view = adversary_view(srv)
    assert srv.probe_count == view.N == len(tiled) and view.addrs.tolist() == tiled
    for starts in (range(len(tiled) + 1), range(len(tiled), -1, -1)):
        srv, _ = _logged(appends)
        col = srv._addr
        for start in starts:
            assert len(col) == len(tiled) and col.to_array(start).tolist() == tiled[start:]
        assert srv.probe_count == len(tiled) and adversary_view(srv).addrs.tolist() == tiled


def test_a_repeating_run_after_an_array_is_built_only_by_a_read_that_covers_it(monkeypatch):
    built = []
    addrs = AccessSequence.addrs
    monkeypatch.setattr(AccessSequence, "addrs", property(lambda seq: built.append(seq) or addrs.fget(seq)))
    cfg = OramConfig(m=1, M=4, w=8)
    engine, srv = make_engine("linear-scan", cfg, 0), ServerState(cfg, record_meta=False)
    srv.probe_batch([0, 0], [3, 4], [0, 0], 0)
    engine.advance(srv, gen_alternating_sequence(4), 0, 2)  # two passes, logged as one repeating run
    srv.probe_batch([0], [2], [0], FINAL_OP)
    assert built == [] and srv.probe_count == 2 + 2 * 2 * cfg.M + 1
    (run,) = (part for part in srv._addr.parts if isinstance(part, AccessSequence))
    assert srv.addr_column(srv.probe_count - 1).tolist() == [2]  # a read of the probe after the run
    assert srv.addr_column(srv.probe_count).tolist() == []
    assert built == []
    tile = np.tile(run._period, 2).tolist()
    assert srv.addr_column(1).tolist() == [4] + tile + [2]
    assert built == [run]


_META_COLUMNS = ("kind_column", "data_column", "op_column", "read_src_column")


@given(probes=st.lists(_PROBE, max_size=16), mark=st.integers(0, 16), batched=st.booleans())
@example(probes=[(1, 2, 9), (0, 2, 0)], mark=1, batched=False)
@settings(max_examples=100, deadline=None)
def test_begin_meta_logs_metadata_from_the_mark(probes, mark, batched):
    mark = min(mark, len(probes))
    full, late = ServerState(CFG), ServerState(CFG, record_meta=False)

    def send(srv, part, op):
        if batched:
            srv.probe_batch(*_batch(part), op)
        else:
            for probe in part:
                srv.probe_batch(*_batch([probe]), op)

    for srv in (full, late):
        send(srv, probes[:mark], 0)
    assert late.begin_meta() == mark == late.probe_count
    for srv in (full, late):
        send(srv, probes[mark:], 1)
    for col in _META_COLUMNS:
        got = getattr(late, col)()
        assert len(got) == late.probe_count - mark
        assert got.tolist() == getattr(full, col)()[mark:].tolist()
    assert late.addr_column().tolist() == full.addr_column().tolist()
    assert (written_cells(late), last_write_ops(late)) == (written_cells(full), last_write_ops(full))
    # a second switch, or one on a server logging metadata from the start, is refused and changes nothing
    for srv in (late, full):
        before = _server_state(srv, meta=True)
        with pytest.raises(ValueError):
            srv.begin_meta()
        assert _server_state(srv, meta=True) == before


def test_log_keeps_copies_of_the_batches_and_joins_them_once():
    """Changing every array a caller sent changes no column, with metadata from a mark part way
    through; a column's second read shares the first's memory, so its batches are joined once."""
    probes = [(1, 3, 7), (0, 3, 0), (1, 5, 2), (0, 9, 0), (1, 3, 4), (0, 5, 0), (0, 3, 0), (1, 9, 1)]
    srv, want = ServerState(CFG, record_meta=False), ServerState(CFG, record_meta=False)
    sent = []
    for op, at in enumerate(range(0, len(probes), 2)):
        if at == 2:
            assert srv.begin_meta() == want.begin_meta() == at
        arrays = (*_batch(probes[at : at + 2]), np.full(2, op, dtype=np.int64))
        srv.probe_batch(*arrays)
        want.probe_batch(*_batch(probes[at : at + 2]), op)
        sent += arrays
    for arr in sent:
        arr[:] = 99
    for col in ("addr_column", *_META_COLUMNS):
        first = getattr(srv, col)()
        assert first.tolist() == getattr(want, col)().tolist()
        assert np.shares_memory(first, getattr(srv, col)())

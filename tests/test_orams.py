import functools
import hashlib
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oramlab import (
    AccessSequence,
    InputSequence,
    ModelViolationError,
    OramConfig,
    ServerState,
    adversary_view,
    alice_encode,
    bob_decode,
    dense_partition_frequency,
    gen_write_read_blocks,
    make_engine,
    run_sequence,
)
from oramlab import orams
from oramlab.orams import DummyLengthEncoder, StashOverflowError, TreeOram
from oramlab.server import FINAL_OP

from conftest import (
    ALL_ENGINES,
    ForcedEncoder,
    ForcedLeaker,
    R,
    ReferenceServer,
    W,
    all_rows,
    honest_scan_advance,
    honest_tree_advance,
    last_write_ops,
    op_key,
    prefix,
    reference_comparand_keys,
    run_forced,
    seq,
    written_cells,
)

CFG = OramConfig(m=1, M=24, w=12)


def random_sequence(rng: random.Random, n: int, m_range: int, w: int) -> InputSequence:
    ops = []
    for _ in range(n):
        if rng.random() < 0.5:
            ops.append(W(rng.randint(1, m_range), rng.getrandbits(w)))
        else:
            ops.append(R(rng.randint(1, m_range)))
    return seq(*ops)


def array_oracle(y: InputSequence) -> list[int]:
    mem: dict[int, int] = {}
    answers = []
    for is_write, addr, data in y.rows(0, len(y)):
        if is_write:
            mem[addr] = data
        else:
            answers.append(mem.get(addr, 0))
    return answers


def test_engine_names_keep_the_cli_order():
    assert orams.ENGINE_NAMES == ALL_ENGINES


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize(
    "config, n, admitted, message",
    [
        (OramConfig(m=1, M=4, w=16), 5, 4, "workload length n=5 exceeds address range M=4"),
        (OramConfig(m=3, M=64, w=16), 8, 9, "m=3 exceeds sqrt(n) for n=8"),
    ],
    ids=["n>M", "m^2>n"],
)
def test_make_engine_refuses_a_length_no_run_can_have_before_building(engine, config, n, admitted, message):
    with mock.patch.dict(orams._ENGINES, {engine: lambda *args: pytest.fail("an engine was built")}):
        with pytest.raises(ModelViolationError, match=f"^{re.escape(message)}$"):
            make_engine(engine, config, 0, n=n)
    assert make_engine(engine, config, 0, n=admitted).name == engine


def test_unknown_engine_error_names_every_engine():
    with pytest.raises(ValueError, match="unknown engine 'ring'") as info:
        make_engine("ring", CFG, 0)
    assert all(name in str(info.value) for name in ALL_ENGINES)


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_read_answers_match_array_oracle(engine, seed):
    rng = random.Random(seed)
    for trial in range(6):
        n = rng.randint(1, 24)
        y = random_sequence(rng, n, CFG.M, CFG.w)
        answers, _ = run_sequence(engine, CFG, y, seed=1000 + trial)
        assert answers == array_oracle(y), f"{engine} answered a read wrongly"


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_same_seed_same_run(engine):
    y = random_sequence(random.Random(5), 16, CFG.M, CFG.w)
    a1, s1 = run_sequence(engine, CFG, y, seed=77)
    a2, s2 = run_sequence(engine, CFG, y, seed=77)
    assert a1 == a2
    assert np.array_equal(s1.addr_column(), s2.addr_column())
    assert np.array_equal(s1.data_column(), s2.data_column())


SEEDED_ENGINES = [engine for engine in ALL_ENGINES if orams._ENGINES[engine].seeded]


def test_passthrough_and_the_scan_are_the_seed_free_engines():
    assert orams.SEED_FREE_ENGINES == set(ALL_ENGINES) - set(SEEDED_ENGINES) == {"passthrough", "linear-scan"}


def _whole_run(engine, cfg, y, seed, record_meta):
    """A run's answers, every column it logged, and each written cell's content and last writer."""
    answers, srv = run_sequence(engine, cfg, y, seed, record_meta=record_meta)
    cols = [srv.addr_column()]
    if record_meta:
        cols += [srv.kind_column(), srv.data_column(), srv.op_column(), srv.read_src_column()]
    return answers, [np.asarray(col).tolist() for col in cols], written_cells(srv), last_write_ops(srv)


@pytest.mark.parametrize("engine", sorted(orams.SEED_FREE_ENGINES))
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2),
    data_seed=st.integers(0, 2**32),
    n=st.integers(0, CFG.M),
    record_meta=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_a_seed_free_run_is_the_same_under_any_seed(engine, seeds, data_seed, n, record_meta):
    y = random_sequence(random.Random(data_seed), n, CFG.M, CFG.w)
    first, second = (_whole_run(engine, CFG, y, seed, record_meta) for seed in seeds)
    assert first == second


@pytest.mark.parametrize("record_meta", [True, False])
@pytest.mark.parametrize("engine", SEEDED_ENGINES)
def test_a_seeded_engine_draws(engine, record_meta):
    """Some two of a few seeds give different runs; with a read of address 1 first, the encoder's
    comparand falls below the input about half the time."""
    y = seq(R(1), *random_sequence(random.Random(4), 7, CFG.M, CFG.w).rows(0, 7))
    first, *rest = (_whole_run(engine, CFG, y, seed, record_meta) for seed in range(4))
    assert any(run != first for run in rest)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_only_a_seeded_engine_gets_an_rng(engine):
    machine = make_engine(engine, CFG, 5, n=4)
    assert machine.seeded == isinstance(machine.rng, random.Random)
    assert machine.seeded == (engine not in orams.SEED_FREE_ENGINES)


def test_a_seed_free_engine_that_draws_fails(monkeypatch):
    class DrawingPassthrough(orams.Passthrough):
        name = "drawing-passthrough"

        def _advance(self, server, y, start, stop):
            self.rng.random()
            return super()._advance(server, y, start, stop)

    monkeypatch.setitem(orams._ENGINES, DrawingPassthrough.name, DrawingPassthrough)
    with pytest.raises(AttributeError, match="'NoneType' object has no attribute 'random'"):
        run_sequence(DrawingPassthrough.name, CFG, seq(W(1, 3), R(1)), seed=7)


def test_trials_and_repeated_runs_do_no_per_op_work(monkeypatch):
    """The model check reduces a sequence's columns once, on its first run,
    however often it is run after that."""
    cfg = OramConfig(m=2, M=64, w=16)
    assert dense_partition_frequency("linear-scan", cfg, 64, 4, trials=1, seed=3) == 1
    bounds = InputSequence.bounds
    checked = []
    monkeypatch.setattr(bounds, "func", lambda seq, build=bounds.func: checked.append(seq) or build(seq))
    y, _ = gen_write_read_blocks(64, 4, cfg.w, random.Random(3))
    for engine in ALL_ENGINES:
        for seed in range(3):
            run_sequence(engine, cfg, y, seed=seed, record_meta=seed == 0)
    assert len(checked) == 1 and checked[0] is y


class TestPassthrough:
    def test_one_probe_per_op(self):
        y = random_sequence(random.Random(1), 10, CFG.M, CFG.w)
        _, srv = run_sequence("passthrough", CFG, y, seed=0)
        assert srv.probe_count == len(y)
        assert adversary_view(srv).addrs.tolist() == y.addr.tolist()


class TestLinearScan:
    def test_probe_count_is_two_m_n(self):
        y = random_sequence(random.Random(2), 12, CFG.M, CFG.w)
        _, srv = run_sequence("linear-scan", CFG, y, seed=0)
        assert srv.probe_count == 2 * CFG.M * len(y)

    def test_trace_is_input_independent(self):
        rng = random.Random(3)
        y1 = random_sequence(rng, 10, CFG.M, CFG.w)
        y2 = random_sequence(rng, 10, CFG.M, CFG.w)
        _, s1 = run_sequence("linear-scan", CFG, y1, seed=4)
        _, s2 = run_sequence("linear-scan", CFG, y2, seed=9)
        assert np.array_equal(s1.addr_column(), s2.addr_column())
        assert np.array_equal(s1.kind_column(), s2.kind_column())

    @staticmethod
    def _assert_same_log(fast, slow, record_meta):
        """fast logged exactly what slow did (slow logs metadata from probe 0)."""
        assert np.array_equal(fast.addr_column(), slow.addr_column())
        assert written_cells(fast) == written_cells(slow)
        assert last_write_ops(fast) == last_write_ops(slow)
        if record_meta:
            assert np.array_equal(fast.kind_column(), slow.kind_column())
            assert np.array_equal(fast.data_column(), slow.data_column())
            assert np.array_equal(fast.op_column(), slow.op_column())
            assert np.array_equal(fast.read_src_column(), slow.read_src_column())

    @pytest.mark.parametrize("record_meta", [True, False])
    def test_bulk_path_equals_honest_path(self, record_meta):
        cfg = OramConfig(m=1, M=6, w=8)
        for seed in range(4):
            y = random_sequence(random.Random(seed), 6, cfg.M, cfg.w)
            a_fast, s_fast = run_sequence("linear-scan", cfg, y, seed=0, record_meta=record_meta)
            s_slow = ReferenceServer(cfg)
            assert a_fast == honest_scan_advance(s_slow, cfg.M, y, 0, len(y))
            self._assert_same_log(s_fast, s_slow, record_meta)

    @pytest.mark.parametrize("record_meta", [True, False])
    def test_advance_after_load_equals_honest_path(self, record_meta):
        cfg = OramConfig(m=1, M=6, w=8)
        for seed in range(4):
            rng = random.Random(seed)
            y = random_sequence(rng, 8, cfg.M, cfg.w)
            cut = rng.randint(0, len(y))
            loaded = [(rng.randint(1, cfg.M), rng.getrandbits(cfg.w)) for _ in range(3)]
            engine = make_engine("linear-scan", cfg, 0)
            s_fast, s_slow = ServerState(cfg, record_meta=record_meta), ReferenceServer(cfg)
            a_fast = engine.advance(s_fast, y, 0, cut)
            a_slow = honest_scan_advance(s_slow, cfg.M, y, 0, cut)
            for srv in (s_fast, s_slow):
                srv.load(loaded)
            a_fast += engine.advance(s_fast, y, cut, len(y))
            a_slow += honest_scan_advance(s_slow, cfg.M, y, cut, len(y))
            assert a_fast == a_slow
            self._assert_same_log(s_fast, s_slow, record_meta)

    def test_address_only_run_past_2_16_equals_honest_path(self):
        """At M = 2^16 + 2 the address-only run resolves its ops with the int64 stable sort; a range
        starting mid-sequence, over a pre-written store, matches the honest loop."""
        cfg = OramConfig(m=1, M=2**16 + 2, w=20)
        top = cfg.M
        y = seq(W(1, 5), R(top), W(top - 1, 7), R(top - 1), R(top), R(2), W(top, 9))
        s_fast, s_slow = ServerState(cfg, record_meta=False), ReferenceServer(cfg)
        for srv in (s_fast, s_slow):
            srv.load([(top, 11), (2, 13), (2**16, 17)])
        a_fast = make_engine("linear-scan", cfg, 0).advance(s_fast, y, 2, 6)
        assert a_fast == honest_scan_advance(s_slow, cfg.M, y, 2, 6) == [7, 11, 13]
        self._assert_same_log(s_fast, s_slow, False)

    def test_run_without_metadata_matches_run_with_it(self):
        cfg = OramConfig(m=1, M=8, w=8)
        y = random_sequence(random.Random(11), 8, cfg.M, cfg.w)
        a1, s1 = run_sequence("linear-scan", cfg, y, seed=0, record_meta=False)
        a2, s2 = run_sequence("linear-scan", cfg, y, seed=0, record_meta=True)
        assert a1 == a2
        assert np.array_equal(s1.addr_column(), s2.addr_column())
        assert written_cells(s1) == written_cells(s2)

    def test_ranges_of_a_run_log_one_repeating_run(self):
        cfg = OramConfig(m=1, M=4, w=8)
        y = random_sequence(random.Random(12), 8, cfg.M, cfg.w)
        engine, srv = make_engine("linear-scan", cfg, 0), ServerState(cfg, record_meta=False)
        engine.advance(srv, y, 0, 3)
        srv.load([(2, 5)])
        engine.advance(srv, y, 5, 8)
        runs = srv._addr.parts  # one repeating run per range, each unbuilt
        assert [(type(run), run._addrs is None, run.N) for run in runs] == [(AccessSequence, True, 2 * cfg.M * 3)] * 2
        assert all(np.array_equal(run._period, engine._addrs) for run in runs)
        view = adversary_view(srv)
        assert view.N == 2 * cfg.M * 6
        assert view == AccessSequence(np.tile(engine._addrs, 6))
        srv.probe_batch([0], [1], [0], 8)
        engine.advance(srv, y, 0, 1)  # a run after a probe is one more part
        assert adversary_view(srv).addrs.tolist() == np.tile(engine._addrs, 6).tolist() + [1] + engine._addrs.tolist()


    def test_metadata_passes_are_probe_batches(self, monkeypatch):
        calls = []
        probe_batch = ServerState.probe_batch

        def counted(server, kinds, addrs, data, op):
            calls.append((len(addrs), op))
            return probe_batch(server, kinds, addrs, data, op)

        monkeypatch.setattr(ServerState, "probe_batch", counted)
        cfg = OramConfig(m=1, M=8, w=8)
        y = random_sequence(random.Random(5), 7, cfg.M, cfg.w)
        run_sequence("linear-scan", cfg, y, seed=0, record_meta=True)
        assert calls == [(2 * cfg.M, op) for op in range(len(y))]  # one pass per op, tagged with it
        calls.clear()
        _, srv = run_sequence("linear-scan", cfg, y, seed=0, record_meta=False)
        view = adversary_view(srv)
        assert calls == [] and [part is view for part in srv._addr.parts] == [True]  # the log's one part
        assert view == AccessSequence.repeating(view._period, len(y))

    @pytest.mark.parametrize("record_meta", [True, False])
    def test_pass_refuses_a_cell_outside_w_bits(self, record_meta):
        cfg = OramConfig(m=1, M=4, w=8)
        y = seq(W(2, 300), R(2))
        srv = ServerState(cfg, record_meta=record_meta)
        with pytest.raises(ModelViolationError, match="^data 300 does not fit in 8 bits$"):
            make_engine("linear-scan", cfg, 0).advance(srv, y, 0, 2)
        assert srv.probe_count == 0 and srv.contents(cfg.M).tolist() == [0] * cfg.M


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("record_meta", [True, False])
class TestRangeCheck:
    """Every engine refuses, on a direct ``advance``, an op that ``OramConfig.check_ops``
    refuses, with its message and before any probe, and checks only the range it runs."""

    CFG = OramConfig(m=1, M=4, w=8)

    def _refuses(self, engine, record_meta, y, message):
        srv = ServerState(self.CFG, record_meta=record_meta)
        with pytest.raises(ModelViolationError, match=f"^{re.escape(message)}$"):
            make_engine(engine, self.CFG, 0, n=len(y)).advance(srv, y, 0, len(y))
        assert srv.probe_count == 0 and not srv.contents(self.CFG.M).any()

    def test_a_write_overwritten_in_its_range_is_still_checked(self, engine, record_meta):
        self._refuses(engine, record_meta, seq(W(2, 300), W(2, 5)), "data 300 does not fit in 8 bits")

    @pytest.mark.parametrize("addr", [0, 5, 255])
    def test_an_address_outside_m_is_refused(self, engine, record_meta, addr):
        self._refuses(engine, record_meta, seq(W(addr, 7), R(4)), f"address {addr} outside [1, 4]")

    def test_only_the_range_is_checked(self, engine, record_meta):
        y = seq(W(0, 7), W(3, 7), R(3), W(2, 300))
        srv = ServerState(self.CFG, record_meta=record_meta)
        assert make_engine(engine, self.CFG, 0, n=len(y)).advance(srv, y, 1, 3) == [7]


class TestTreeEngine:
    def test_probe_count_formula(self):
        for M in (1, 2, 3, 8, 24):
            cfg = OramConfig(m=1, M=M, w=16)
            n = min(M, 9)
            y = random_sequence(random.Random(M), n, M, cfg.w)
            engine = make_engine("tree", cfg, 0)
            _, srv = run_sequence("tree", cfg, y, seed=0)
            levels = (M - 1).bit_length() + 1
            assert engine.probes_per_op() == 2 * TreeOram.Z * levels
            assert srv.probe_count == n * engine.probes_per_op()

    def test_stash_stays_small_on_random_workload(self):
        cfg = OramConfig(m=4, M=64, w=32)
        rng = random.Random(21)
        y = random_sequence(rng, 64, cfg.M, cfg.w)
        engine = make_engine("tree", cfg, 13)
        srv = ServerState(cfg)
        peak = 0
        for i in range(len(y)):
            engine.advance(srv, y, i, i + 1)
            peak = max(peak, len(engine.stash))
        assert peak <= TreeOram.STASH_LIMIT

    @staticmethod
    def _assert_prefix_filled(engine):
        """Every bucket's blocks sit in a prefix of its slots, the walk's stopping rule."""
        owners, z = engine.slot_owner, engine.Z
        for at in range(0, len(owners), z):
            filled = [owner is not None for owner in owners[at : at + z]]
            assert filled == sorted(filled, reverse=True), f"bucket {at // z} holds {owners[at : at + z]}"

    @pytest.mark.parametrize("z", [2, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_buckets_stay_prefix_filled(self, monkeypatch, z, seed):
        """After every op, after random advance cuts, with a bucket size of 2
        that leaves blocks in the stash, and after an export_state/import_state
        round trip, every bucket is filled from slot 0."""
        monkeypatch.setattr(TreeOram, "Z", z)
        rng = random.Random(seed)
        cfg = OramConfig(m=1, M=64, w=12)
        y = random_sequence(rng, 300, cfg.M, cfg.w)
        engine, srv = make_engine("tree", cfg, seed), ServerState(cfg, record_meta=False)
        peak = 0
        for i in range(100):
            engine.advance(srv, y, i, i + 1)
            self._assert_prefix_filled(engine)
            peak = max(peak, len(engine.stash))
        cuts = sorted(rng.sample(range(100, 200), 6))
        for start, stop in zip([100, *cuts], [*cuts, 200]):
            engine.advance(srv, y, start, stop)
            self._assert_prefix_filled(engine)
        imported = make_engine("tree", cfg, seed + 1)
        imported.import_state(engine.export_state())
        self._assert_prefix_filled(imported)
        imported.advance(srv, y, 200, len(y))
        self._assert_prefix_filled(imported)
        if z == 2 and seed == 1:
            assert peak >= 5  # blocks a full path left behind

    def test_buckets_stay_prefix_filled_after_a_stash_overflow(self, monkeypatch):
        monkeypatch.setattr(TreeOram, "Z", 2)
        monkeypatch.setattr(TreeOram, "STASH_LIMIT", 3)
        cfg = OramConfig(m=1, M=64, w=12)
        y = random_sequence(random.Random(1), 300, cfg.M, cfg.w)
        engine = make_engine("tree", cfg, 1)
        with pytest.raises(StashOverflowError):
            engine.advance(ServerState(cfg), y, 0, len(y))
        assert len(engine.stash) > 3
        self._assert_prefix_filled(engine)

    def test_engine_built_under_a_lower_batch_bound_advances_at_the_default(self):
        """A batch's probe columns are sized by its ops, not by the bound in force when the engine was built."""
        cfg = OramConfig(m=4, M=64, w=16)
        y = random_sequence(random.Random(3), 64, cfg.M, cfg.w)  # one 3584-probe batch at the default
        with mock.patch.object(orams, "BATCH_PROBES", 1024):
            built_low = make_engine("tree", cfg, 7)
        default = make_engine("tree", cfg, 7)
        srv, want = ServerState(cfg), ServerState(cfg)
        assert built_low.advance(srv, y, 0, len(y)) == default.advance(want, y, 0, len(y))
        n_cells = len(default.slot_owner)
        assert _server_state(srv, n_cells, 0) == _server_state(want, n_cells, 0)
        assert built_low.export_state() == default.export_state()

    def test_slot_space_must_fit_cell_width(self):
        with pytest.raises(ModelViolationError):
            make_engine("tree", OramConfig(m=1, M=256, w=10), 0)  # 511 buckets * 4 > 2^10

    def test_stash_overflow_aborts_loudly(self, monkeypatch):
        # zero allowance: the first block parked in the stash must abort the run
        monkeypatch.setattr(TreeOram, "STASH_LIMIT", 0)
        cfg = OramConfig(m=4, M=64, w=16)
        y = seq(*(W(a, a) for a in range(1, 65)))
        with pytest.raises(StashOverflowError):
            run_sequence("tree", cfg, y, seed=0)


class TestDummyEncoder:
    def test_length_is_2n_or_2n_plus_1(self):
        for seed in range(12):
            y = random_sequence(random.Random(seed), 7, CFG.M, CFG.w)
            _, srv = run_sequence("dummy-encoder", CFG, y, seed=seed)
            assert srv.probe_count in (2 * len(y), 2 * len(y) + 1)

    def test_every_op_followed_by_address_one_read(self):
        y = random_sequence(random.Random(4), 5, CFG.M, CFG.w)
        _, srv = run_sequence("dummy-encoder", CFG, y, seed=0)
        addrs = srv.addr_column().tolist()
        kinds = srv.kind_column().tolist()
        for j, (is_write, addr, _) in enumerate(all_rows(y)):
            assert addrs[2 * j] == addr and kinds[2 * j] == is_write
            assert (kinds[2 * j + 1], addrs[2 * j + 1]) == (0, 1)

    def test_comparison_is_strict(self):
        # forced comparand equal to the input: a tie never adds the extra probe
        y = random_sequence(random.Random(6), 4, CFG.M, CFG.w)
        forced = [op_key(*row) for row in all_rows(y)]
        _, srv = run_forced(ForcedEncoder(CFG, forced), CFG, y)
        assert srv.probe_count == 2 * len(y)

    def test_forced_smaller_and_larger(self):
        y = seq(R(2), R(2))
        cfg = OramConfig(m=1, M=4, w=4)
        smaller = ForcedEncoder(cfg, [op_key(*W(1, 0)), op_key(*R(4))])
        _, srv = run_forced(smaller, cfg, y)
        assert srv.probe_count == 2 * 2 + 1  # writes sort below reads
        larger = ForcedEncoder(cfg, [op_key(*R(3)), op_key(*W(1, 0))])
        _, srv = run_forced(larger, cfg, y)
        assert srv.probe_count == 2 * 2

    @pytest.mark.parametrize("seed", range(4))
    def test_snapshot_holds_every_comparand_draw(self, seed):
        # the comparison is decided within a few ops, and the snapshot still
        # shows the RNG after one comparand per op, as drawing them all leaves it
        y = random_sequence(random.Random(seed), 9, CFG.M, CFG.w)
        engine = make_engine("dummy-encoder", CFG, seed)
        engine.advance(ServerState(CFG), y, 0, 5)
        engine.advance(ServerState(CFG), y, 5, len(y))
        honest = random.Random(seed)
        for _ in range(len(y)):
            honest.getrandbits(1), honest.randrange(CFG.M), honest.getrandbits(CFG.w)
        assert engine.export_state()["rng"] == honest.getstate()
        assert engine.export_state()["rng"] == honest.getstate()  # owed draws are made once

    def test_op_order_key_total_order(self):
        ordering = [W(1, 0), W(1, 1), W(2, 0), W(2, 1), (False, 1, 0), (False, 1, 1), R(2), (False, 2, 1)]
        keys = [op_key(*row) for row in ordering]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_extra_probe_rate_is_exact_at_length_two(self):
        # enumerate the whole 64-element comparison space for a fixed 2-op input
        import itertools

        cfg = OramConfig(m=1, M=2, w=1)
        space = [(k, a, d) for k in (0, 1) for a in (1, 2) for d in (0, 1)]
        y = seq(R(1), W(2, 1))
        y_key = [op_key(*row) for row in all_rows(y)]
        rank = sum(1 for r in itertools.product(space, repeat=2) if list(r) < y_key)
        extras = 0
        for r in itertools.product(space, repeat=2):
            _, srv = run_forced(ForcedEncoder(cfg, list(r)), cfg, y)
            assert srv.probe_count in (4, 5)
            extras += srv.probe_count == 5
        assert extras == rank


@given(
    seed=st.integers(0, 2**32),
    M=st.integers(1, 4),
    w=st.integers(2, 63),
    tie=st.integers(0, 6),
    rows=st.lists(st.tuples(st.booleans(), st.integers(1, 4), st.integers(0, 3)), max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_encoder_keys_match_the_op_by_op_draws(seed, M, w, tie, rows):
    """The encoder's comparand keys, its decision and its snapshot are those of drawing each
    comparand as a kind string, an address and data and ordering ops W < R, then addr, then data;
    the input's first `tie` ops equal the comparands, so decisions fall past the first op too."""
    cfg = OramConfig(m=1, M=M, w=w)
    comparands = reference_comparand_keys(random.Random(seed), M, w, tie + len(rows))
    y = seq(*[(bit == 0, a, d) for bit, a, d in comparands[:tie]], *[(iw, min(a, M), d) for iw, a, d in rows])
    drawn = DummyLengthEncoder(cfg, random.Random(seed))
    assert [drawn._draw_key() for _ in range(len(y))] == comparands
    engine = DummyLengthEncoder(cfg, random.Random(seed))
    engine.advance(ServerState(cfg), y, 0, len(y))
    y_keys = [(("W", "R").index("W" if is_write else "R"), a, d) for is_write, a, d in all_rows(y)]
    assert engine._cmp == (comparands > y_keys) - (comparands < y_keys)
    assert engine.export_state() == {"cmp": engine._cmp, "rng": drawn.rng.getstate()}


class TestDummyLeaker:
    def test_probe_structure_and_length(self):
        cfg = OramConfig(m=1, M=8, w=8)
        y = random_sequence(random.Random(9), 6, cfg.M, cfg.w)
        n = len(y)
        for i in (1, 3, n):
            for r in (1, cfg.M):
                _, srv = run_forced(ForcedLeaker(cfg, n, i, r), cfg, y)
                extra = 2 if r <= y.addr[i - 1] else 1
                assert srv.probe_count == n + 2 * (i - 1) + extra

    def test_needs_length_up_front(self):
        with pytest.raises(ModelViolationError):
            make_engine("dummy-leaker", CFG, 0)

    def test_advance_past_n_probes_nothing(self):
        y = random_sequence(random.Random(7), 6, CFG.M, CFG.w)
        engine, srv = make_engine("dummy-leaker", CFG, 0, n=4), ServerState(CFG)
        engine.advance(srv, y, 0, 2)
        count = srv.probe_count
        with pytest.raises(ModelViolationError, match="sized for n=4"):
            engine.advance(srv, y, 2, 5)
        assert srv.probe_count == count


@pytest.mark.parametrize("engine", [e for e in ALL_ENGINES if e != "dummy-leaker"])
def test_online_prefix_property(engine):
    """Probes for ops 0..j-1 are unchanged when the input is truncated at j."""
    cfg = OramConfig(m=1, M=12, w=8)
    y = random_sequence(random.Random(31), 10, cfg.M, cfg.w)
    _, full = run_sequence(engine, cfg, y, seed=3)
    for j in (0, 4, 9):
        _, part = run_sequence(engine, cfg, prefix(y, j), seed=3)
        keep_full = full.op_column() < j
        keep_part = part.op_column() != FINAL_OP
        assert np.array_equal(full.addr_column()[keep_full], part.addr_column()[keep_part])
        assert np.array_equal(full.data_column()[keep_full], part.data_column()[keep_part])


def test_leaker_is_not_online():
    """Truncation changes earlier probes: the draw of i depends on n."""
    cfg = OramConfig(m=1, M=12, w=8)
    y = random_sequence(random.Random(8), 12, cfg.M, cfg.w)
    diffs = 0
    for seed in range(8):
        _, full = run_sequence("dummy-leaker", cfg, y, seed=seed)
        _, part = run_sequence("dummy-leaker", cfg, prefix(y, 6), seed=seed)
        k = part.probe_count
        diffs += not np.array_equal(full.addr_column()[:k], part.addr_column())
    assert diffs > 0

# blake2b-64 of a whole run per seed 0-3: answers, every logged column, the
# final cells and last writers, and each block's codec message and decode
GOLDEN_SERVER_LOGS = {
    ("passthrough", 64, 2, True): ("e4b87371b65e56f7", "cabb70f1556618e7", "af2abe725ad3c45c", "4bda76f01895e64a"),
    ("passthrough", 64, 2, False): ("80b76cb3f56f5ce4", "2849081da1de1d64", "02e02e32d7d92cc9", "731b9b553aa6d1ff"),
    ("passthrough", 128, 1, True): ("877a423ad24e0bfe", "3d1b926281e0a885", "41d57deb7c3f8c34", "1fafcd8c384e1384"),
    ("passthrough", 128, 1, False): ("cfd71b266b557793", "0bfcb1fed14b47db", "e913070901b28a40", "b5f3c5d4566bb8cd"),
    ("passthrough", 256, 4, True): ("7cb895ae27a1074c", "a77f53699fc9395e", "dff339d28f97b052", "9e129a171d354f31"),
    ("passthrough", 256, 4, False): ("1c04ed41e2795e13", "86361f3fe838a7b8", "8f04d8e000656e1d", "5e82767f4586ae91"),
    ("linear-scan", 64, 2, True): ("890b3d4b30ed97a8", "ec67a5061c489c94", "e6dd0ffb254d4ce5", "47077441ce242289"),
    ("linear-scan", 64, 2, False): ("36f84e01e074d187", "01639122df085c5a", "d8bc40f65af8fdff", "c6de915a8839acf4"),
    ("linear-scan", 128, 1, True): ("d6f7a977e39a0fe7", "b298b90a86af6fae", "b642438e67f4d817", "e3331440c19447b2"),
    ("linear-scan", 128, 1, False): ("c8a60298b4a67f35", "8719c63b15eda1d3", "d5160fafa75a3bee", "0f54b7c5a888997a"),
    ("linear-scan", 256, 4, True): ("35ad3f59b5212161", "a661f63dee748116", "fd03e8f0f4c7c5a1", "5ea7f8d6dede24c4"),
    ("linear-scan", 256, 4, False): ("b5d67015036cf35d", "8e96a0bfc6a73afa", "67bb64cd1f3438a0", "1698be59323431d5"),
    ("tree", 64, 2, True): ("ed08ed98500bc65e", "9c00b324f8243bb8", "b594325b63ba6c75", "7b9e029863928254"),
    ("tree", 64, 2, False): ("05ed15b73300a02d", "5bc14d1887a30f3c", "ad93ceb2bb0c9d63", "f34829dfd749e959"),
    ("tree", 128, 1, True): ("83517ad1ec09e849", "43c03b1837649752", "5f7a58d4f45d4c40", "facc2aa6cbd94c67"),
    ("tree", 128, 1, False): ("9d99f80f4e543914", "7e9c9ea852c46d8a", "4f429cc490d6b270", "95ac6869ad6e2dd0"),
    ("tree", 256, 4, True): ("0c0427d660d0aea7", "c4685dbb8fc725d0", "0cee50fb711807ca", "514b6afe1c50ad59"),
    ("tree", 256, 4, False): ("f9ccdf816bfac63d", "c04ec78b89feef4c", "66802b40e5a957b1", "fcaf5fda42d0758b"),
    ("dummy-encoder", 64, 2, True): ("455992183adc5784", "47eb2b2777722d9e", "d30660fc6a05be9b", "23259096c9daa251"),
    ("dummy-encoder", 64, 2, False): ("4a7b988aaa1db338", "88b5502a11f13d5c", "188be9ccd175d898", "b69cfa16b19d864c"),
    ("dummy-encoder", 128, 1, True): ("f14515ffaa3ddc53", "8d0360a7f06871bc", "686b82589d1bf407", "95bb6cb37cca1301"),
    ("dummy-encoder", 128, 1, False): ("9b7a08548d15365d", "c9098f3aaba55db4", "1b23cce7fe9a3647", "e9dabbf3967cbe58"),
    ("dummy-encoder", 256, 4, True): ("360e5e39f66be3f6", "d858169bd5682d9e", "9b39b602f3febed0", "46d5c26cf3c0eb0d"),
    ("dummy-encoder", 256, 4, False): ("927a0e11da1438b8", "105e25584c33b435", "5ff549213dea6e15", "d576cbdf1a02f470"),
    ("dummy-leaker", 64, 2, True): ("46a50ec149bbf491", "82a6984b57a72592", "5ce1d57e97f46f1e", "4af718685aa98607"),
    ("dummy-leaker", 64, 2, False): ("cc92231911fb47e3", "b96c584aa0d37bc7", "5913e219a0f31edf", "5131cdea1561bd07"),
    ("dummy-leaker", 128, 1, True): ("2fa4dafdb2ecd3e1", "f36870ca10a88195", "0b4c0657dbbabf07", "d61e8636db1c2686"),
    ("dummy-leaker", 128, 1, False): ("a4bbfb88ee487061", "636a8ff96f62f6b8", "eec2251b57d3fc01", "f052c3128b986c3c"),
    ("dummy-leaker", 256, 4, True): ("3bd5a24dae9bc013", "12d7296fed6e96a9", "58d6b9bfae92aeab", "ce3e6a923dc0ff82"),
    ("dummy-leaker", 256, 4, False): ("793e07bdbf537ed2", "3bb0203ed3e03c3c", "f7735b6bf548b109", "6f9272c1e4b1d556"),
}


def _golden_instance(seed: int, n: int, k: int):
    cfg = OramConfig(m=2, M=n, w=16)
    y, layout = gen_write_read_blocks(n, k, cfg.w, random.Random(seed))
    return cfg, y, layout


@functools.lru_cache(maxsize=None)
def _codec_bytes(engine: str, seed: int, n: int, k: int) -> bytes:
    cfg, y, layout = _golden_instance(seed, n, k)
    out = []
    for i in range(1, k + 1):
        msg = alice_encode(engine, cfg, y, layout, i, shared_seed=seed)
        out.append((msg.matched, bob_decode(msg, engine, cfg, y, layout, i, shared_seed=seed)))
    return repr(out).encode()


def _server_log_digest(engine: str, seed: int, n: int, k: int, record_meta: bool) -> str:
    cfg, y, _ = _golden_instance(seed, n, k)
    answers, srv = run_sequence(engine, cfg, y, seed=seed, record_meta=record_meta)
    h = hashlib.blake2b(repr(answers).encode(), digest_size=8)
    cols = [srv.addr_column()]
    if record_meta:
        cols += [srv.kind_column(), srv.data_column(), srv.op_column(), srv.read_src_column()]
    for col in cols:
        h.update(np.ascontiguousarray(col, dtype=np.int64).tobytes())
    h.update(repr(sorted(written_cells(srv).items())).encode())
    h.update(repr(sorted(last_write_ops(srv).items())).encode())
    h.update(_codec_bytes(engine, seed, n, k))
    return h.hexdigest()


@pytest.mark.parametrize("engine, n, k, record_meta", list(GOLDEN_SERVER_LOGS))
def test_server_logs_are_frozen(engine, n, k, record_meta):
    got = tuple(_server_log_digest(engine, seed, n, k, record_meta) for seed in range(4))
    assert got == GOLDEN_SERVER_LOGS[engine, n, k, record_meta]


# blake2b-64 of a tree run of n = M = 2048 random ops per seed 0-1, over at
# least 12 probe batches: answers, every logged column, the final cells and
# last writers, and the engine's export_state
GOLDEN_MANY_BATCH_TREE = ("8b543bc5ac365e2d", "d92a4fe702095e74")


def _many_batch_tree_digest(seed: int) -> tuple[str, int]:
    """The run's digest and the number of probe batches it sent."""
    cfg = OramConfig(m=2, M=2048, w=16)
    y = random_sequence(random.Random(seed), cfg.M, cfg.M, cfg.w)
    engine, srv = make_engine("tree", cfg, seed, n=len(y)), ServerState(cfg)
    with mock.patch.object(srv, "probe_batch", wraps=srv.probe_batch) as probe_batch:
        answers = engine.run(srv, y)
    h = hashlib.blake2b(repr(answers).encode(), digest_size=8)
    for col in (srv.addr_column(), srv.kind_column(), srv.data_column(), srv.op_column(), srv.read_src_column()):
        h.update(np.ascontiguousarray(col, dtype=np.int64).tobytes())
    h.update(repr(sorted(written_cells(srv).items())).encode())
    h.update(repr(sorted(last_write_ops(srv).items())).encode())
    h.update(repr(engine.export_state()).encode())
    return h.hexdigest(), probe_batch.call_count


def test_many_batch_tree_run_is_frozen():
    got = [_many_batch_tree_digest(seed) for seed in range(2)]
    assert all(batches >= 12 for _, batches in got)
    assert tuple(digest for digest, _ in got) == GOLDEN_MANY_BATCH_TREE


def _server_state(srv, n_cells, meta_from=None):
    """Log and store (cells 1..n_cells); metadata from meta_from on, if that is given."""
    cols = [srv.addr_column().tolist()]
    if meta_from is not None:
        meta = (srv.kind_column, srv.data_column, srv.op_column, srv.read_src_column)
        cols += [column()[meta_from:].tolist() for column in meta]
    return cols, written_cells(srv), last_write_ops(srv), srv.contents(n_cells).tolist()


def _scan_op(is_write, addr, data, M):
    addr = (addr - 1) % M + 1
    return W(addr, data) if is_write else R(addr)


_OP = st.tuples(st.booleans(), st.integers(1, 6), st.integers(0, 255))


def _advance_in_ranges(engine, srv, y, cuts, mark, before_range):
    """advance over the ranges the cuts make of y, then an empty range at n.

    Metadata starts at range `mark` (if there is one) and before_range(r,
    start, stop) runs before range r; returns the answers and the mark, or
    None for no metadata.
    """
    n = len(y)
    bounds = [0, *sorted(min(c, n) for c in cuts), n]
    answers, meta_from = [], None
    for r, (start, stop) in enumerate([*zip(bounds, bounds[1:]), (n, n)]):
        if r == mark:
            meta_from = srv.begin_meta()
        before_range(r, start, stop)
        answers += engine.advance(srv, y, start, stop)
    return answers, meta_from


def _honest_advance(engine, server, y, start, stop):
    """The honest per-op probe loop of engine (scan or tree) on a ReferenceServer."""
    if engine.name == "tree":
        return honest_tree_advance(engine, server, y, start, stop)
    return honest_scan_advance(server, engine.config.M, y, start, stop)


@pytest.mark.parametrize("engine", ["linear-scan", "tree"])
@given(
    M=st.integers(1, 6),
    ops=st.lists(_OP, max_size=12),
    cuts=st.lists(st.integers(0, 12), max_size=4),
    mark=st.none() | st.integers(0, 5),
    load_at=st.none() | st.integers(0, 5),
    loaded=st.lists(st.tuples(st.integers(1, 60), st.integers(0, 255)), min_size=1, max_size=4),
    extra=_OP,
    batch=st.integers(1, 64),
)
@settings(max_examples=150, deadline=None)
def test_advance_over_cuts_matches_honest_oracle(engine, M, ops, cuts, mark, load_at, loaded, extra, batch):
    """advance over consecutive ranges, in batches of any bound, with metadata
    from one cut on and a load at one cut, leaves the answers, the server and
    the client state exactly as the honest per-op probe loop does, also for
    an op that follows a skipped one, as the codec's read block can."""
    cfg = OramConfig(m=1, M=M, w=8)
    y = seq(*(_scan_op(*t, M) for t in [*ops, extra, extra]))
    n = len(ops)
    advanced, honest = make_engine(engine, cfg, 0), make_engine(engine, cfg, 0)
    n_cells = len(advanced.slot_owner) if engine == "tree" else M  # the server cells the engine uses
    srv, ref = ServerState(cfg, record_meta=False), ReferenceServer(cfg)
    want = []

    def honest_range(r, start, stop):
        if r == load_at:
            cells = [((a - 1) % n_cells + 1, c) for a, c in loaded]
            srv.load(cells)
            ref.load(cells)
        want.extend(_honest_advance(honest, ref, y, start, stop))

    with mock.patch.object(orams, "BATCH_PROBES", batch):
        answers, meta_from = _advance_in_ranges(advanced, srv, prefix(y, n), cuts, mark, honest_range)
        assert answers == want
        srv_from = None if meta_from is None else 0  # the advanced server's columns start at its mark
        assert _server_state(srv, n_cells, srv_from) == _server_state(ref, n_cells, meta_from)
        assert advanced.export_state() == honest.export_state()
        assert advanced.advance(srv, y, n + 1, n + 2) == _honest_advance(honest, ref, y, n + 1, n + 2)
        assert _server_state(srv, n_cells, srv_from) == _server_state(ref, n_cells, meta_from)
        assert advanced.export_state() == honest.export_state()


@pytest.mark.parametrize("ops_per_batch", [None, 3])
@pytest.mark.parametrize("limit", [0, 1])
def test_stash_overflow_mid_batch_matches_honest_oracle(monkeypatch, limit, ops_per_batch):
    """An op that overflows the stash in the middle of a batch sends the
    probes through it, then raises naming it, as the honest per-op loop does."""
    monkeypatch.setattr(TreeOram, "STASH_LIMIT", limit)
    cfg = OramConfig(m=4, M=64, w=16)
    y = seq(*(W(a, a) for a in range(1, 65)))
    engine, honest = make_engine("tree", cfg, 0), make_engine("tree", cfg, 0)
    if ops_per_batch is not None:
        monkeypatch.setattr(orams, "BATCH_PROBES", ops_per_batch * engine.probes_per_op())
    srv, ref = ServerState(cfg), ReferenceServer(cfg)
    with pytest.raises(StashOverflowError) as got:
        engine.advance(srv, y, 0, len(y))
    with pytest.raises(StashOverflowError) as want:
        honest_tree_advance(honest, ref, y, 0, len(y))
    assert str(got.value) == str(want.value)
    failing = int(str(got.value).rsplit(" ", 1)[1])
    per = orams.BATCH_PROBES // engine.probes_per_op()
    assert failing % per and failing < len(y) - 1  # its batch had ops before it and was cut after it
    n_cells = len(engine.slot_owner)
    assert _server_state(srv, n_cells, 0) == _server_state(ref, n_cells, 0)
    assert srv.op_column().max() == failing
    assert engine.export_state() == honest.export_state()


@pytest.mark.parametrize("seed", range(30))
def test_blocks_kept_in_the_stash_across_batches_match_honest_oracle(monkeypatch, seed):
    """With buckets of 2, blocks stay in the stash across ops and across the
    ends of small batches; their order decides where later evictions put them,
    so the run must still match the honest per-op loop probe for probe."""
    monkeypatch.setattr(TreeOram, "Z", 2)
    monkeypatch.setattr(TreeOram, "STASH_LIMIT", 1 << 10)
    monkeypatch.setattr(orams, "BATCH_PROBES", 200)
    cfg = OramConfig(m=1, M=64, w=12)
    y = random_sequence(random.Random(seed), 300, cfg.M, cfg.w)
    engine, honest = make_engine("tree", cfg, seed), make_engine("tree", cfg, seed)
    srv, ref = ServerState(cfg), ReferenceServer(cfg)
    kept, send = [], srv.probe_batch  # the stash's size as each batch is sent
    with mock.patch.object(srv, "probe_batch", side_effect=lambda *a: kept.append(len(engine.stash)) or send(*a)):
        answers = engine.advance(srv, y, 0, len(y))
    assert len(kept) > 1 and max(kept) > 1
    assert answers == honest_tree_advance(honest, ref, y, 0, len(y))
    n_cells = len(engine.slot_owner)
    assert _server_state(srv, n_cells, 0) == _server_state(ref, n_cells, 0)
    assert engine.export_state() == honest.export_state()


@pytest.mark.parametrize("engine", ["passthrough", "dummy-encoder", "dummy-leaker"])
@given(
    ops=st.lists(_OP, min_size=1, max_size=12),
    cuts=st.lists(st.integers(0, 12), max_size=4),
    mark=st.none() | st.integers(0, 5),
    batch=st.integers(1, 16),
)
@settings(max_examples=60, deadline=None)
def test_batched_engine_advance_over_cuts_matches_one_range(engine, ops, cuts, mark, batch):
    """advance over any cut of the ops into ranges, in batches of any bound,
    with metadata from one cut on as the codec's sender has it, leaves the
    server, the answers and the client state as one advance over all the ops
    in one batch does."""
    cfg = OramConfig(m=1, M=12, w=8)  # M admits every length drawn; the ops keep to addresses 1..6
    y = seq(*(_scan_op(*t, 6) for t in ops))
    cut, whole = (make_engine(engine, cfg, 5, n=len(y)) for _ in range(2))
    cut_srv, whole_srv = ServerState(cfg, record_meta=False), ServerState(cfg)
    with mock.patch.object(orams, "BATCH_PROBES", batch):
        answers, meta_from = _advance_in_ranges(cut, cut_srv, y, cuts, mark, lambda r, start, stop: None)
    assert answers == whole.advance(whole_srv, y, 0, len(y))
    cut_from = None if meta_from is None else 0
    assert _server_state(cut_srv, cfg.M, cut_from) == _server_state(whole_srv, cfg.M, meta_from)
    assert cut.export_state() == whole.export_state()

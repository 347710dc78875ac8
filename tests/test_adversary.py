import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oramlab import (
    OramConfig,
    WorkloadShapeError,
    adversary_view,
    dense_partition_frequency,
    distinguish,
    estimate_advantage,
    gen_alternating_sequence,
    gen_write_read_blocks,
    parse_block_shape,
    run_sequence,
    statistical_distance_empirical,
    statistical_distance_exact,
)
from oramlab import adversary
from oramlab._util import derive_seed
from oramlab.adversary import COIN_FLIP, NO_PARTITION, _has_dense_partition, _LastDecision, trace_digest
from oramlab.orams import SEED_FREE_ENGINES
from oramlab.server import AccessSequence

from conftest import R, W, all_rows, honest_advantage, honest_frequency, reference_block_shape, seq


class TestBlockShapeParsing:
    @pytest.mark.parametrize("n,k", [(8, 2), (40, 4), (12, 3), (20, 2)])
    def test_generated_blocks_parse_back(self, n, k):
        y, layout = gen_write_read_blocks(n, k, 8, random.Random(1))
        assert parse_block_shape(y) == (k, layout.ell)

    def test_alternating_parses_as_unit_blocks(self):
        # with ell = 1 the padding shape is itself a block pair
        y = gen_alternating_sequence(10)
        assert parse_block_shape(y) == (5, 1)

    def test_rejects_non_block_shapes(self):
        with pytest.raises(WorkloadShapeError):
            parse_block_shape(seq())
        with pytest.raises(WorkloadShapeError):
            parse_block_shape(seq(R(1), W(1, 0)))
        with pytest.raises(WorkloadShapeError):
            parse_block_shape(seq(W(2, 0), R(2)))
        # a broken tail after valid blocks
        y, _ = gen_write_read_blocks(10, 2, 8, random.Random(0))
        bad = seq(*y.rows(0, 8), W(3, 0), R(1))
        with pytest.raises(WorkloadShapeError):
            parse_block_shape(bad)


def _shape_or_error(parse, y):
    try:
        return parse(y)
    except WorkloadShapeError as exc:
        return str(exc)


# an op index (half the time one of the last 14, where the padding is), a field and a new value
_MUTATION = st.tuples(
    st.integers(0, 79) | st.integers(-14, -1), st.sampled_from(["kind", "addr", "data"]), st.integers(0, 3)
)


@given(
    k=st.integers(min_value=1, max_value=8),
    ell=st.integers(min_value=1, max_value=4),
    pad=st.integers(min_value=0, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32),
    keep=st.none() | st.integers(min_value=0, max_value=80),
    mutations=st.lists(_MUTATION, max_size=3),
)
@settings(max_examples=200)
def test_block_shape_matches_the_op_by_op_walk(k, ell, pad, seed, keep, mutations):
    """Block workloads with up to k - 1 padding pairs, cut short or not and
    with a few ops' kind, address or data changed, parse to the (k, ell) of
    the op-by-op walk or fail with its message, naming the same tail pair."""
    y, _ = gen_write_read_blocks(2 * (k * ell + min(pad, k - 1)), k, 8, random.Random(seed))
    ops = all_rows(y)[:keep]
    for i, field, value in mutations:
        if -len(ops) <= i < len(ops):
            row = list(ops[i])
            if field == "kind":
                row[0] = not row[0]
            else:
                row[("addr", "data").index(field) + 1] = value
            ops[i] = tuple(row)
    want = _shape_or_error(reference_block_shape, ops)
    assert _shape_or_error(parse_block_shape, seq(*ops)) == want


class TestDistinguisher:
    CFG = OramConfig(m=1, M=40, w=16)

    def setup_method(self):
        self.y_flat = gen_alternating_sequence(40)
        self.y_blocks, _ = gen_write_read_blocks(40, 2, 16, random.Random(5))

    def test_flat_trace_has_no_partition(self):
        _, srv = run_sequence("passthrough", self.CFG, self.y_flat, seed=0)
        v = distinguish(self.y_flat, self.y_blocks, adversary_view(srv), random.Random(0))
        assert (v.guess, v.reason) == (1, NO_PARTITION)

    def test_block_trace_forces_a_coin_flip(self):
        _, srv = run_sequence("passthrough", self.CFG, self.y_blocks, seed=0)
        seen = set()
        for coin_seed in range(8):
            v = distinguish(self.y_flat, self.y_blocks, adversary_view(srv), random.Random(coin_seed))
            assert v.reason == COIN_FLIP
            seen.add(v.guess)
        assert seen == {1, 2}

    def test_scan_trace_always_partitions(self):
        _, srv = run_sequence("linear-scan", self.CFG, self.y_flat, seed=0)
        v = distinguish(self.y_flat, self.y_blocks, adversary_view(srv), random.Random(1))
        assert v.reason == COIN_FLIP

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            distinguish(self.y_flat, gen_alternating_sequence(38), AccessSequence([]), random.Random(0))

    def test_shapeless_reference_input_rejected(self):
        backwards = seq(*all_rows(self.y_blocks)[::-1])
        _, srv = run_sequence("passthrough", self.CFG, self.y_flat, seed=0)
        with pytest.raises(WorkloadShapeError):
            distinguish(self.y_flat, backwards, adversary_view(srv), random.Random(0))

    def test_verdict_shape_is_enforced(self):
        from oramlab import DistinguisherVerdict

        with pytest.raises(ValueError):
            DistinguisherVerdict(2, NO_PARTITION)
        with pytest.raises(ValueError):
            DistinguisherVerdict(3, COIN_FLIP)

    def test_uses_only_the_address_projection(self):
        _, srv = run_sequence("passthrough", self.CFG, self.y_blocks, seed=0)
        full_view = adversary_view(srv)
        stripped = AccessSequence(full_view.addrs.tolist())  # rebuilt with no metadata at all
        v1 = distinguish(self.y_flat, self.y_blocks, full_view, random.Random(3))
        v2 = distinguish(self.y_flat, self.y_blocks, stripped, random.Random(3))
        assert v1 == v2


class TestAdvantage:
    CFG = OramConfig(m=1, M=40, w=16)

    def test_leaky_engine_has_visible_advantage(self):
        y0 = gen_alternating_sequence(40)
        yb, _ = gen_write_read_blocks(40, 2, 16, random.Random(5))
        est = estimate_advantage("passthrough", self.CFG, y0, yb, trials=120, seed=7)
        assert est.p1_on_y == 1.0
        assert est.advantage >= 0.3
        assert 0 < est.half_width < 0.2

    def test_identical_inputs_have_zero_advantage(self):
        yb, _ = gen_write_read_blocks(40, 2, 16, random.Random(5))
        est = estimate_advantage("passthrough", self.CFG, yb, yb, trials=60, seed=7)
        assert est.advantage == 0.0

    def test_oblivious_engine_has_zero_advantage(self):
        y0 = gen_alternating_sequence(40)
        yb, _ = gen_write_read_blocks(40, 2, 16, random.Random(5))
        est = estimate_advantage("linear-scan", self.CFG, y0, yb, trials=60, seed=7)
        assert est.advantage == 0.0

    @pytest.mark.parametrize("trials, seed", [(1, 7), (4, 1), (4, 27)])  # every coin of a run agrees
    def test_half_width_is_floored_at_one_over_trials(self, trials, seed):
        """Frequencies of 0 or 1 on both arms have no normal variance; the half-width is then 1/trials."""
        yb, _ = gen_write_read_blocks(40, 2, 16, random.Random(5))
        est = estimate_advantage("passthrough", self.CFG, yb, yb, trials=trials, seed=seed)
        assert {est.p1_on_y, est.p1_on_yprime} <= {0.0, 1.0}
        assert est.half_width == 1 / trials

    def test_needs_trials(self):
        y0 = gen_alternating_sequence(40)
        with pytest.raises(ValueError):
            estimate_advantage("passthrough", self.CFG, y0, y0, trials=0, seed=1)


class TestFrequency:
    def test_scan_engine_always_has_the_partition(self):
        cfg = OramConfig(m=1, M=64, w=32)
        freq = dense_partition_frequency("linear-scan", cfg, n=64, k=1, trials=50, seed=3)
        assert freq == 1

    def test_block_structure_shows_up_for_passthrough(self):
        cfg = OramConfig(m=1, M=40, w=32)
        freq = dense_partition_frequency("passthrough", cfg, n=40, k=2, trials=50, seed=3)
        assert freq == 1

    def test_flat_workload_never_has_block_structure(self):
        cfg = OramConfig(m=1, M=40, w=32)
        freq = dense_partition_frequency("passthrough", cfg, n=40, k=2, trials=50, seed=3, family="alt")
        assert freq == 0


ORACLE_CFG = OramConfig(m=1, M=40, w=16)
ORACLE_TRIALS = 16


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("engine", ["passthrough", "linear-scan", "dummy-encoder", "tree"])
def test_estimators_match_the_trial_by_trial_loops(engine, jobs):
    """Reusing the decision of a repeated trace, and splitting the trials
    over workers, changes no estimate: the first three engines repeat their
    traces, the tree's differ from trial to trial."""
    y = gen_alternating_sequence(40)
    y_prime, _ = gen_write_read_blocks(40, 2, 16, random.Random(5))
    est = estimate_advantage(engine, ORACLE_CFG, y, y_prime, trials=ORACLE_TRIALS, seed=11, jobs=jobs)
    assert (est.p1_on_y, est.p1_on_yprime) == honest_advantage(engine, ORACLE_CFG, y, y_prime, ORACLE_TRIALS, 11)
    for k, family in ((2, "blocks"), (4, "alt")):
        got = dense_partition_frequency(engine, ORACLE_CFG, 40, k, ORACLE_TRIALS, 11, family=family, jobs=jobs)
        assert got == honest_frequency(engine, ORACLE_CFG, 40, k, ORACLE_TRIALS, 11, family=family)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_frequency_matches_the_trial_loop_when_decisions_flip(jobs):
    # every probe hits address 1 and the leaker's draw sets the trace length,
    # so only the longer traces hold 30 parts
    got = dense_partition_frequency("dummy-leaker", ORACLE_CFG, 40, 30, 40, 11, family="alt", jobs=jobs)
    assert 0 < got < 1
    assert got == honest_frequency("dummy-leaker", ORACLE_CFG, 40, 30, 40, 11, family="alt")


def _refuse_any_run(monkeypatch):
    """Make any trial, in this process or in a worker, fail the test."""

    def fail(what):
        def refuse(*args, **kwargs):
            raise AssertionError(what)

        return refuse

    monkeypatch.setattr(adversary, "run_sequence", fail("an engine ran"))
    monkeypatch.setattr(adversary, "_map_chunks", fail("the trials were mapped"))


@pytest.mark.parametrize("jobs", [1, 2])
def test_frequency_refuses_an_unknown_family_before_any_run(monkeypatch, jobs):
    """No trial starts, in this process or in a worker."""
    _refuse_any_run(monkeypatch)
    with pytest.raises(ValueError, match="^unknown workload family 'x'$"):
        dense_partition_frequency("passthrough", ORACLE_CFG, 40, 2, trials=4, seed=0, family="x", jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("family", ["alt", "blocks"])
def test_frequency_refuses_k_below_one_before_any_run(monkeypatch, family, k, jobs):
    """Of either family: an alt workload ignores k, and the density n/5k has none at k = 0."""
    _refuse_any_run(monkeypatch)
    with pytest.raises(ValueError, match="^need k >= 1$"):
        dense_partition_frequency("passthrough", ORACLE_CFG, 40, k, trials=4, seed=0, family=family, jobs=jobs)


@pytest.mark.parametrize("engine, distinct", [("passthrough", 1), ("linear-scan", 1), ("tree", 12)])
def test_each_distinct_trace_is_decided_once(monkeypatch, engine, distinct):
    """Passthrough and the scan give one trace per arm over all trials; every tree trace differs."""
    calls = []
    greedy = adversary.greedy_dense_partition
    monkeypatch.setattr(adversary, "greedy_dense_partition", lambda *args: calls.append(args) or greedy(*args))
    y = gen_alternating_sequence(40)
    y_prime, _ = gen_write_read_blocks(40, 2, 16, random.Random(5))
    estimate_advantage(engine, ORACLE_CFG, y, y_prime, trials=12, seed=3)
    assert len(calls) == 2 * distinct
    del calls[:]
    dense_partition_frequency(engine, ORACLE_CFG, 40, 2, trials=12, seed=3)
    assert len(calls) == distinct


@pytest.mark.parametrize("engine, runs", [("passthrough", 2), ("linear-scan", 2), ("dummy-encoder", 24), ("tree", 24)])
def test_a_seed_free_engine_runs_once_per_arm(monkeypatch, engine, runs):
    """A seeded engine runs every trial of both arms; frequency draws a fresh input per trial, so it runs each."""
    seeds = []
    run = adversary.run_sequence

    def counted(kind, cfg, y, seed, **kwargs):
        seeds.append(seed)
        return run(kind, cfg, y, seed, **kwargs)

    monkeypatch.setattr(adversary, "run_sequence", counted)
    y = gen_alternating_sequence(40)
    y_prime, _ = gen_write_read_blocks(40, 2, 16, random.Random(5))
    estimate_advantage(engine, ORACLE_CFG, y, y_prime, trials=12, seed=3, jobs=1)
    assert len(seeds) == runs
    assert all(seed is None for seed in seeds) == (engine in SEED_FREE_ENGINES)  # no engine seed is derived
    del seeds[:]
    dense_partition_frequency(engine, ORACLE_CFG, 40, 2, trials=12, seed=3, jobs=1)
    assert len(seeds) == 12


def test_a_trial_builds_its_coin_only_to_flip_it(monkeypatch):
    """Passthrough finds no partition on y and one on y_prime: only y_prime's trials build a coin."""
    y = gen_alternating_sequence(40)
    y_prime, _ = gen_write_read_blocks(40, 2, 16, random.Random(5))
    built = []
    monkeypatch.setattr(random, "Random", lambda seed, cls=random.Random: built.append(seed) or cls(seed))
    est = estimate_advantage("passthrough", ORACLE_CFG, y, y_prime, trials=12, seed=3, jobs=1)
    assert built == [derive_seed(3, t, 2) for t in range(12)]
    assert est.p1_on_y == 1 and 0 < est.p1_on_yprime < 1


def test_last_decision_reuses_only_traces_it_compares_unbuilt(monkeypatch):
    period = np.repeat(np.arange(1, 9), 2)
    traces = [
        AccessSequence.repeating(period, 8),
        AccessSequence.repeating(period, 8),  # equal: reused
        AccessSequence(np.tile(period, 8)),  # equal, but comparing it would build the repeating trace
        AccessSequence(np.tile(period, 8)),  # equal: reused
        AccessSequence(np.arange(1, 129)),  # no edges, so no partition
        AccessSequence(np.arange(1, 129)),  # equal: reused
        AccessSequence.repeating(period, 8),  # the decision before last is gone
    ]
    want = [_has_dense_partition(t, 40, 1) for t in traces]
    assert want == [True] * 4 + [False] * 2 + [True]
    calls = []
    greedy = adversary.greedy_dense_partition
    monkeypatch.setattr(adversary, "greedy_dense_partition", lambda *args: calls.append(args) or greedy(*args))
    monkeypatch.setattr(AccessSequence, "addrs", property(lambda seq: pytest.fail("a trace was built")))
    last = _LastDecision()
    assert [last.decide(t, 40, 1) for t in traces] == want
    assert len(calls) == 4


class TestExactDistance:
    def test_identities(self):
        assert statistical_distance_exact({"a": 1}, {"a": 1}) == 0
        assert statistical_distance_exact({"a": 1}, {"b": 1}) == 1
        half = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        assert statistical_distance_exact(half, {"a": 1}) == Fraction(1, 2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            statistical_distance_exact({"a": Fraction(1, 2)}, {"a": 1})
        with pytest.raises(ValueError):
            statistical_distance_exact({"a": 2, "b": -1}, {"a": 1})

    @given(data=st.data())
    @settings(max_examples=80)
    def test_data_processing_inequality(self, data):
        outcomes = list(range(5))
        def table(draw_key):
            weights = data.draw(
                st.lists(st.integers(0, 6), min_size=5, max_size=5).filter(lambda w: sum(w) > 0),
                label=draw_key,
            )
            total = sum(weights)
            return {o: Fraction(w, total) for o, w in zip(outcomes, weights)}
        px = table("x")
        py = table("y")
        sd = statistical_distance_exact(px, py)
        f_bits = data.draw(st.lists(st.booleans(), min_size=5, max_size=5), label="digest")
        fx = sum((p for o, p in px.items() if f_bits[o]), Fraction(0))
        fy = sum((p for o, p in py.items() if f_bits[o]), Fraction(0))
        assert abs(fx - fy) <= sd


class TestEmpiricalDistance:
    def _traces(self, seqs):
        return [AccessSequence(s) for s in seqs]

    def test_same_multiset_is_zero(self):
        xs = self._traces([[1, 2], [1, 2], [3]])
        ys = self._traces([[3], [1, 2], [1, 2]])
        d = statistical_distance_empirical(xs, ys)
        assert d.distance == 0 and (d.n_x, d.n_y) == (3, 3)

    def test_disjoint_supports_is_one(self):
        d = statistical_distance_empirical(self._traces([[1], [2]]), self._traces([[3], [4]]))
        assert d.distance == 1

    def test_partial_overlap(self):
        d = statistical_distance_empirical(
            self._traces([[1], [1], [2], [2]]), self._traces([[1], [2], [2], [2]])
        )
        assert d.distance == Fraction(1, 4)
        d = statistical_distance_empirical(self._traces([[1], [2]]), self._traces([[1], [1], [2]]))
        assert (d.distance, d.n_x, d.n_y, d.support) == (Fraction(1, 6), 2, 3, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            statistical_distance_empirical([], self._traces([[1]]))

    def test_digest_separates_length_and_content(self):
        assert trace_digest(AccessSequence([1, 2])) != trace_digest(AccessSequence([2, 1]))
        assert trace_digest(AccessSequence([1])) != trace_digest(AccessSequence([1, 1]))
        assert trace_digest(AccessSequence([1, 2])) == trace_digest(AccessSequence([1, 2]))

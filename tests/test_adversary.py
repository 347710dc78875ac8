import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oramlab import (
    InputOp,
    InputSequence,
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
from oramlab.adversary import COIN_FLIP, NO_PARTITION, _has_dense_partition, _LastDecision, trace_digest
from oramlab.server import AccessSequence

from conftest import honest_advantage, honest_frequency


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
            parse_block_shape(InputSequence(()))
        with pytest.raises(WorkloadShapeError):
            parse_block_shape(InputSequence((InputOp("R", 1, 0), InputOp("W", 1, 0))))
        with pytest.raises(WorkloadShapeError):
            parse_block_shape(InputSequence((InputOp("W", 2, 0), InputOp("R", 2, 0))))
        # a broken tail after valid blocks
        y, _ = gen_write_read_blocks(10, 2, 8, random.Random(0))
        bad = InputSequence(y.ops[:8] + (InputOp("W", 3, 0), InputOp("R", 1, 0)))
        with pytest.raises(WorkloadShapeError):
            parse_block_shape(bad)


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
        backwards = InputSequence(tuple(reversed(self.y_blocks.ops)))
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
        stripped = AccessSequence(list(full_view))  # rebuilt with no metadata at all
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

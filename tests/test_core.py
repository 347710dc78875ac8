import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oramlab import (
    READ,
    WRITE,
    InputOp,
    InputSequence,
    ModelViolationError,
    OramConfig,
    gen_alternating_sequence,
    gen_write_read_blocks,
    instantiate_workload,
    parse_workload_spec,
    run_sequence,
)

from conftest import reference_write_read_blocks


class TestConfig:
    def test_basic_validation(self):
        cfg = OramConfig(m=2, M=16, w=8)
        assert cfg.M <= 2**cfg.w
        with pytest.raises(ModelViolationError):
            OramConfig(m=0, M=4, w=8)
        with pytest.raises(ModelViolationError):
            OramConfig(m=1, M=0, w=8)
        with pytest.raises(ModelViolationError):
            OramConfig(m=1, M=300, w=8)

    def test_workload_binding(self):
        cfg = OramConfig(m=3, M=16, w=8)
        cfg.bind_workload_length(9)  # m = 3 = sqrt(9) is allowed
        with pytest.raises(ModelViolationError):
            cfg.bind_workload_length(8)  # m too big
        with pytest.raises(ModelViolationError):
            OramConfig(m=1, M=4, w=8).bind_workload_length(5)  # n > M
        cfg.bind_workload_length(0)  # empty runs are fine
        with pytest.raises(ModelViolationError, match="n=-1 is negative"):
            cfg.bind_workload_length(-1)

    def test_op_check(self):
        cfg = OramConfig(m=1, M=4, w=4)
        cfg.check_ops(InputSequence.from_ops([InputOp(WRITE, 4, 15)]))
        with pytest.raises(ModelViolationError):
            cfg.check_ops(InputSequence.from_ops([InputOp(WRITE, 5, 0)]))
        with pytest.raises(ModelViolationError):
            cfg.check_ops(InputSequence.from_ops([InputOp(WRITE, 1, 16)]))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (InputOp("X", 1, 0), "unknown op kind 'X'"),
            (InputOp(READ, 0, 0), "address 0 outside [1, 4]"),
            (InputOp(WRITE, 5, 0), "address 5 outside [1, 4]"),
            (InputOp(WRITE, 1, -1), "data -1 does not fit in 4 bits"),
            (InputOp(WRITE, 1, 16), "data 16 does not fit in 4 bits"),
            (InputOp(WRITE, 1, 1 << 80), f"data {1 << 80} does not fit in int64"),
        ],
    )
    def test_sequence_check_names_the_first_bad_op(self, bad, message):
        """A kind or a payload the columns cannot hold is refused as the sequence is built; every
        other bad op fails the config's check and the run, which name the first bad op."""
        cfg = OramConfig(m=1, M=4, w=4)
        good = InputOp(WRITE, 4, 15)
        for ops in ((good, bad), (good, bad, InputOp(WRITE, 9, 99))):
            if bad.kind not in (READ, WRITE) or bad.data >= 1 << 63:
                with pytest.raises(ModelViolationError) as got:
                    InputSequence.from_ops(ops)
                assert str(got.value) == message
                continue
            for check in (cfg.check_ops, lambda seq: run_sequence("passthrough", cfg, seq, seed=0)):
                with pytest.raises(ModelViolationError) as got:
                    check(InputSequence.from_ops(ops))
                assert str(got.value) == message
        cfg.check_ops(InputSequence.from_ops((InputOp(WRITE, 4, 15), InputOp(READ, 1, 0))))
        cfg.check_ops(InputSequence.from_ops(()))


class TestAlternating:
    def test_n4(self):
        y = gen_alternating_sequence(4)
        assert [(o.kind, o.addr, o.data) for o in y] == [
            (WRITE, 1, 0),
            (READ, 1, 0),
            (WRITE, 1, 0),
            (READ, 1, 0),
        ]

    def test_empty(self):
        assert len(gen_alternating_sequence(0)) == 0

    def test_odd_rejected(self):
        with pytest.raises(ModelViolationError):
            gen_alternating_sequence(3)


class TestBlocks:
    def test_n8_k2_no_padding(self):
        y, layout = gen_write_read_blocks(8, 2, 8, random.Random(0))
        assert layout.ell == 2 and layout.pad_start == 8
        kinds_addrs = [(o.kind, o.addr) for o in y]
        assert kinds_addrs == [
            (WRITE, 1), (WRITE, 2), (READ, 1), (READ, 2),
            (WRITE, 1), (WRITE, 2), (READ, 1), (READ, 2),
        ]
        assert all(y[j].data == 0 for rs, re in layout.read_ranges for j in range(rs, re))

    def test_n10_k2_padding_tail(self):
        y, layout = gen_write_read_blocks(10, 2, 8, random.Random(0))
        assert layout.ell == 2 and layout.pad_start == 8
        assert [(o.kind, o.addr, o.data) for o in y[8:]] == [(WRITE, 1, 0), (READ, 1, 0)]

    def test_k_out_of_range(self):
        with pytest.raises(ModelViolationError):
            gen_write_read_blocks(8, 5, 8, random.Random(0))
        with pytest.raises(ModelViolationError):
            gen_write_read_blocks(8, 0, 8, random.Random(0))
        with pytest.raises(ModelViolationError):
            gen_write_read_blocks(7, 2, 8, random.Random(0))

    @given(
        n=st.integers(min_value=1, max_value=40).map(lambda x: 2 * x),
        k=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60)
    def test_shape_invariants(self, n, k, seed):
        if k > n // 2:
            k = n // 2 or 1
        y, layout = gen_write_read_blocks(n, k, 8, random.Random(seed))
        assert len(y) == n
        ell = layout.ell
        assert ell == n // (2 * k)
        assert layout.pad_start == 2 * k * ell
        spans = [r for pair in zip(layout.write_ranges, layout.read_ranges) for r in pair]
        assert spans[0][0] == 0 and spans[-1][1] == layout.pad_start
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert all(1 <= o.addr <= max(ell, 1) for o in y)

    def test_seed_determinism(self):
        a, _ = gen_write_read_blocks(24, 3, 16, random.Random(7))
        b, _ = gen_write_read_blocks(24, 3, 16, random.Random(7))
        c, _ = gen_write_read_blocks(24, 3, 16, random.Random(8))
        assert list(a) == list(b)
        assert list(a) != list(c)


def _sequence_or_error(gen, *args):
    try:
        return gen(*args)
    except ModelViolationError as exc:
        return str(exc)


@given(
    n=st.integers(min_value=-2, max_value=120),
    k=st.integers(min_value=-1, max_value=70),
    w=st.integers(min_value=1, max_value=63),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=150)
def test_block_columns_match_the_op_by_op_generator(n, k, w, seed):
    """The columns hold the ops the op-by-op generator makes, with its layout
    and its errors, and leave the rng in the state it leaves."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = _sequence_or_error(gen_write_read_blocks, n, k, w, rng)
    want = _sequence_or_error(reference_write_read_blocks, n, k, w, ref_rng)
    if isinstance(want, str):
        assert got == want
    else:
        (y, layout), (ops, ref_layout) = got, want
        assert (y.is_write.dtype, y.addr.dtype, y.data.dtype) == (bool, np.int64, np.int64)
        assert tuple(y) == ops
        assert layout == ref_layout
    assert rng.getstate() == ref_rng.getstate()


class TestWorkloadSpecs:
    def test_parse_round_trip(self):
        s = parse_workload_spec("alt:n=40")
        assert (s.family, s.n) == ("alt", 40) and s.render() == "alt:n=40"
        s = parse_workload_spec("blocks:n=40,k=2,seed=9")
        assert (s.family, s.n, s.k, s.seed) == ("blocks", 40, 2, 9)
        assert parse_workload_spec(s.render()) == s

    @pytest.mark.parametrize(
        "bad", ["alt:40", "blocks:n=4", "alt:n=4,k=2", "loop:n=4", "blocks:n=4,k=2,x=1", ""]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_workload_spec(bad)

    def test_instantiate(self):
        y, layout = instantiate_workload(parse_workload_spec("blocks:n=8,k=2,seed=3"), w=8)
        assert layout.k == 2 and len(y) == 8
        y2, layout2 = instantiate_workload(parse_workload_spec("alt:n=6"), w=8)
        assert layout2 is None and len(y2) == 6
        with pytest.raises(ModelViolationError):
            instantiate_workload(parse_workload_spec("blocks:n=8,k=2"), w=8)  # no seed anywhere

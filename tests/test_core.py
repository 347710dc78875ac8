import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oramlab import (
    BlockLayout,
    ModelViolationError,
    OramConfig,
    WorkloadSpec,
    gen_alternating_sequence,
    gen_write_read_blocks,
    instantiate_workload,
    parse_workload_spec,
    run_sequence,
)
from oramlab.core import WORKLOAD_FAMILIES

from conftest import R, W, all_rows, reference_write_read_blocks, seq


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
        cfg.check_ops(seq(W(4, 15)), 0, 1)
        with pytest.raises(ModelViolationError):
            cfg.check_ops(seq(W(5, 0)), 0, 1)
        with pytest.raises(ModelViolationError):
            cfg.check_ops(seq(W(1, 16)), 0, 1)

    @pytest.mark.parametrize(
        "bad, message",
        [
            pytest.param(R(0), "address 0 outside [1, 4]", id="bad1-address 0 outside [1, 4]"),
            pytest.param(W(5, 0), "address 5 outside [1, 4]", id="bad2-address 5 outside [1, 4]"),
            pytest.param(W(1, -1), "data -1 does not fit in 4 bits", id="bad3-data -1 does not fit in 4 bits"),
            pytest.param(W(1, 16), "data 16 does not fit in 4 bits", id="bad4-data 16 does not fit in 4 bits"),
        ],
    )
    def test_sequence_check_names_the_first_bad_op(self, bad, message):
        """A bad op fails the config's check and the run, which name the first bad op,
        and a range check sees only the ops in its range."""
        cfg = OramConfig(m=1, M=4, w=4)
        good = W(4, 15)
        for ops in ((good, bad), (good, bad, W(9, 99))):
            for check in (lambda y: cfg.check_ops(y, 0, len(y)), lambda y: cfg.check_ops(y, 1, len(y)),
                          lambda y: run_sequence("passthrough", cfg, y, seed=0)):
                with pytest.raises(ModelViolationError) as got:
                    check(seq(*ops))
                assert str(got.value) == message
            cfg.check_ops(seq(*ops), 0, 1)
        cfg.check_ops(seq(W(4, 15), R(1)), 0, 2)
        cfg.check_ops(seq(), 0, 0)

class TestAlternating:
    def test_n4(self):
        y = gen_alternating_sequence(4)
        assert all_rows(y) == [W(1, 0), R(1), W(1, 0), R(1)]

    def test_empty(self):
        assert len(gen_alternating_sequence(0)) == 0

    def test_odd_rejected(self):
        with pytest.raises(ModelViolationError):
            gen_alternating_sequence(3)


class TestBlocks:
    def test_n8_k2_no_padding(self):
        y, layout = gen_write_read_blocks(8, 2, 8, random.Random(0))
        assert layout.ell == 2 and 2 * layout.k * layout.ell == 8
        kinds_addrs = [(is_write, addr) for is_write, addr, _ in all_rows(y)]
        assert kinds_addrs == [
            (True, 1), (True, 2), (False, 1), (False, 2),
            (True, 1), (True, 2), (False, 1), (False, 2),
        ]
        for i in (1, 2):
            _, _, rs, re = layout.block(i)
            assert not y.data[rs:re].any()

    def test_n10_k2_padding_tail(self):
        y, layout = gen_write_read_blocks(10, 2, 8, random.Random(0))
        assert layout.ell == 2 and 2 * layout.k * layout.ell == 8
        assert list(y.rows(8, 10)) == [W(1, 0), R(1)]

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
        assert 2 * layout.k * layout.ell == 2 * k * ell
        assert 1 <= y.addr.min() and y.addr.max() <= max(ell, 1)

    def test_seed_determinism(self):
        a, _ = gen_write_read_blocks(24, 3, 16, random.Random(7))
        b, _ = gen_write_read_blocks(24, 3, 16, random.Random(7))
        c, _ = gen_write_read_blocks(24, 3, 16, random.Random(8))
        assert all_rows(a) == all_rows(b)
        assert all_rows(a) != all_rows(c)


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
        (y, layout), (ops, blocks, pad_start) = got, want
        assert (y.is_write.dtype, y.addr.dtype, y.data.dtype) == (bool, np.int64, np.int64)
        assert tuple(all_rows(y)) == ops
        assert tuple(layout.block(i) for i in range(1, layout.k + 1)) == blocks
        assert 2 * layout.k * layout.ell == pad_start
    assert rng.getstate() == ref_rng.getstate()


@given(
    n=st.integers(min_value=1, max_value=60).map(lambda x: 2 * x),
    k=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=100)
def test_block_layout_tiles_its_blocks(n, k, seed):
    """block(1..k) tiles [0, 2k*ell) as W1 R1 W2 R2 ..., as the op-by-op generator walks the
    blocks; padding starts at 2k*ell, and block(0) and block(k + 1) are refused."""
    k = min(k, n // 2)
    _, layout = gen_write_read_blocks(n, k, 8, random.Random(seed))
    ell = layout.ell
    assert layout == BlockLayout(k, ell)
    spans = [r for i in range(1, k + 1) for r in (layout.block(i)[:2], layout.block(i)[2:])]
    assert spans == [(j * ell, (j + 1) * ell) for j in range(2 * k)]
    _, blocks, pad_start = reference_write_read_blocks(n, k, 8, random.Random(seed))
    assert tuple(layout.block(i) for i in range(1, k + 1)) == blocks
    assert 2 * layout.k * layout.ell == pad_start == 2 * k * ell
    for i in (0, k + 1):
        with pytest.raises(ValueError, match=rf"^block index {i} outside \[1, {k}\]$"):
            layout.block(i)


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

    def test_instantiate_refuses_an_unknown_family(self):
        assert WORKLOAD_FAMILIES == ("alt", "blocks")
        with pytest.raises(ValueError, match="^unknown workload family 'x'$"):
            instantiate_workload(WorkloadSpec("x", 8, 2, 1), 8)

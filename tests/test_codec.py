import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oramlab import (
    AccessSequence,
    DecodeError,
    OramConfig,
    TransferMessage,
    alice_encode,
    block_data,
    bob_decode,
    gen_write_read_blocks,
)

from conftest import ALL_ENGINES

CFG = OramConfig(m=2, M=16, w=16)


def _instance(seed, n=16, k=2):
    y, layout = gen_write_read_blocks(n, k, CFG.w, random.Random(seed))
    return y, layout


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_round_trip_recovers_hidden_block(engine):
    for seed in range(4):
        y, layout = _instance(seed)
        for i in range(1, layout.k + 1):
            msg = alice_encode(engine, CFG, y, layout, i, shared_seed=100 + seed)
            got = bob_decode(msg, engine, CFG, y, layout, i, shared_seed=100 + seed)
            assert got == block_data(y, layout, i)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_bit_length_accounting_is_structural(engine):
    y, layout = _instance(9)
    msg = alice_encode(engine, CFG, y, layout, 1, shared_seed=5)
    assert msg.bit_length == CFG.m * CFG.w + 2 * CFG.w * len(msg.matched)


def test_passthrough_matches_one_probe_per_block_address():
    cfg = OramConfig(m=1, M=8, w=8)
    y, layout = gen_write_read_blocks(8, 2, cfg.w, random.Random(3))
    msg = alice_encode("passthrough", cfg, y, layout, 1, shared_seed=0)
    assert len(msg.matched) == layout.ell == 2
    assert [addr for addr, _ in msg.matched] == [1, 2]


def test_scan_engine_matches_every_cell_once():
    msg = alice_encode("linear-scan", CFG, *_instance(1), i=1, shared_seed=0)
    assert len(msg.matched) == CFG.M  # first read pass re-reads the whole memory


def test_scan_round_trip_builds_no_repeating_head(monkeypatch):
    y, layout = _instance(3)
    heads = []
    repeating = AccessSequence.repeating
    monkeypatch.setattr(
        AccessSequence, "repeating", lambda period, reps: heads.append(reps) or repeating(period, reps)
    )

    def unbuilt(seq):
        raise AssertionError("a codec party built the addresses of its repeating prefix")

    monkeypatch.setattr(AccessSequence, "addrs", property(unbuilt))
    msg = alice_encode("linear-scan", CFG, y, layout, 2, shared_seed=4)
    assert bob_decode(msg, "linear-scan", CFG, y, layout, 2, shared_seed=4) == block_data(y, layout, 2)
    assert len(heads) == 2  # each party logged its prefix as one repeating run


def test_block_index_bounds():
    y, layout = _instance(0)
    with pytest.raises(ValueError):
        alice_encode("passthrough", CFG, y, layout, 0, shared_seed=0)
    with pytest.raises(ValueError):
        alice_encode("passthrough", CFG, y, layout, layout.k + 1, shared_seed=0)


def test_corrupted_content_decodes_to_wrong_data():
    y, layout = _instance(2)
    msg = alice_encode("passthrough", CFG, y, layout, 1, shared_seed=0)
    addr, content = msg.matched[0]
    bad = TransferMessage(
        m=msg.m,
        w=msg.w,
        client_state=msg.client_state,
        matched=((addr, content ^ 1),) + msg.matched[1:],
        checksum=msg.checksum,
    )
    got = bob_decode(bad, "passthrough", CFG, y, layout, 1, shared_seed=0)
    assert got != block_data(y, layout, 1)


def test_checksum_flags_corruption():
    y, layout = _instance(2)
    msg = alice_encode("passthrough", CFG, y, layout, 1, shared_seed=0, with_checksum=True)
    assert bob_decode(msg, "passthrough", CFG, y, layout, 1, shared_seed=0) == block_data(y, layout, 1)
    addr, content = msg.matched[0]
    bad = TransferMessage(
        m=msg.m,
        w=msg.w,
        client_state=msg.client_state,
        matched=((addr, content ^ 1),) + msg.matched[1:],
        checksum=msg.checksum,
    )
    with pytest.raises(DecodeError):
        bob_decode(bad, "passthrough", CFG, y, layout, 1, shared_seed=0)


def test_unconsumed_entries_are_a_context_mismatch():
    y, layout = _instance(2)
    msg = alice_encode("passthrough", CFG, y, layout, 1, shared_seed=0)
    padded = TransferMessage(
        m=msg.m,
        w=msg.w,
        client_state=msg.client_state,
        matched=msg.matched + ((CFG.M, 0),),
        checksum=None,
    )
    with pytest.raises(DecodeError):
        bob_decode(padded, "passthrough", CFG, y, layout, 1, shared_seed=0)


@given(
    half_n=st.integers(min_value=2, max_value=10),
    k=st.integers(min_value=1, max_value=5),
    engine=st.sampled_from(("passthrough", "linear-scan", "tree")),
    data_seed=st.integers(0, 2**32),
    run_seed=st.integers(0, 2**32),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_over_random_geometries(half_n, k, engine, data_seed, run_seed, data):
    n = 2 * half_n
    k = min(k, half_n)
    cfg = OramConfig(m=1, M=n, w=8)
    y, layout = gen_write_read_blocks(n, k, cfg.w, random.Random(data_seed))
    i = data.draw(st.integers(1, layout.k))
    msg = alice_encode(engine, cfg, y, layout, i, shared_seed=run_seed)
    assert bob_decode(msg, engine, cfg, y, layout, i, shared_seed=run_seed) == block_data(y, layout, i)


def test_tree_round_trip_with_padding_blocks():
    # uneven split: 2k * ell < n exercises the padding tail before later blocks
    cfg = OramConfig(m=3, M=18, w=16)
    y, layout = gen_write_read_blocks(18, 4, cfg.w, random.Random(8))
    for i in (1, 4):
        msg = alice_encode("tree", cfg, y, layout, i, shared_seed=2)
        assert bob_decode(msg, "tree", cfg, y, layout, i, shared_seed=2) == block_data(y, layout, i)

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oramlab import (
    AccessSequence,
    DecodeError,
    InputSequence,
    ModelViolationError,
    OramConfig,
    ServerState,
    alice_encode,
    block_data,
    bob_decode,
    codec,
    gen_write_read_blocks,
)

from conftest import ALL_ENGINES, R, W, all_rows, reference_alice_encode, seq

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
    # each party logged its prefix as one repeating run, and Bob his read block as a second
    assert len(heads) == 3


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize(
    "j, op, message",
    [
        (6, R(0), "address 0 outside [1, 8]"),
        (6, R(9), "address 9 outside [1, 8]"),
        (0, W(1, 256), "data 256 does not fit in 8 bits"),
    ],
    ids=["address-0", "address-M+1", "payload-2^w"],
)
def test_both_parties_refuse_an_op_they_run(engine, j, op, message):
    # i = 2: both parties run write block 1 (op 0) and read block 2 (op 6)
    cfg = OramConfig(m=2, M=8, w=8)
    y, layout = gen_write_read_blocks(8, 2, cfg.w, random.Random(0))
    assert layout.block(1)[0] == 0 and layout.block(2)[2] == 6
    msg = alice_encode(engine, cfg, y, layout, 2, shared_seed=0)
    bad = seq(*(op if at == j else old for at, old in enumerate(all_rows(y))))
    with pytest.raises(ModelViolationError, match=f"^{re.escape(message)}$"):
        alice_encode(engine, cfg, bad, layout, 2, shared_seed=0)
    with pytest.raises(ModelViolationError, match=f"^{re.escape(message)}$"):
        bob_decode(msg, engine, cfg, bad, layout, 2, shared_seed=0)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_receiver_leaves_the_write_block_unchecked(engine):
    cfg = OramConfig(m=2, M=8, w=8)
    y, layout = gen_write_read_blocks(8, 2, cfg.w, random.Random(0))
    ws, we = layout.block(2)[:2]
    data = y.data.copy()
    data[ws:we] = 1 << cfg.w  # Bob never runs these ops
    msg = alice_encode(engine, cfg, y, layout, 2, shared_seed=0)
    template = InputSequence(y.is_write, y.addr, data)
    assert bob_decode(msg, engine, cfg, template, layout, 2, shared_seed=0) == block_data(y, layout, 2)


def test_block_index_bounds():
    y, layout = _instance(0)
    with pytest.raises(ValueError):
        alice_encode("passthrough", CFG, y, layout, 0, shared_seed=0)
    with pytest.raises(ValueError):
        alice_encode("passthrough", CFG, y, layout, layout.k + 1, shared_seed=0)


def test_corrupted_content_fails_the_checksum():
    y, layout = _instance(2)
    msg = alice_encode("passthrough", CFG, y, layout, 1, shared_seed=0)
    addr, content = msg.matched[0]
    bad = dataclasses.replace(msg, matched=((addr, content ^ 1),) + msg.matched[1:])
    with pytest.raises(DecodeError, match="checksum"):
        bob_decode(bad, "passthrough", CFG, y, layout, 1, shared_seed=0)


def test_checksum_flags_corruption():
    y, layout = _instance(2)
    msg = alice_encode("passthrough", CFG, y, layout, 1, shared_seed=0)
    assert msg.checksum is not None
    assert bob_decode(msg, "passthrough", CFG, y, layout, 1, shared_seed=0) == block_data(y, layout, 1)
    bad = dataclasses.replace(msg, checksum="0" * 16)
    with pytest.raises(DecodeError, match="checksum"):
        bob_decode(bad, "passthrough", CFG, y, layout, 1, shared_seed=0)


def test_two_contents_for_one_address_are_refused_before_loading(monkeypatch):
    y, layout = _instance(2)
    msg = alice_encode("passthrough", CFG, y, layout, 1, shared_seed=0)
    addr, content = msg.matched[0]
    bad = dataclasses.replace(msg, matched=msg.matched + ((addr, content ^ 1),))
    monkeypatch.setattr(ServerState, "load", lambda *a: pytest.fail("loaded a conflicting message"))
    with pytest.raises(DecodeError, match=f"address {addr} two contents"):
        bob_decode(bad, "passthrough", CFG, y, layout, 1, shared_seed=0)


def test_extra_entry_for_a_cell_never_read_still_decodes():
    y, layout = _instance(2)
    msg = alice_encode("passthrough", CFG, y, layout, 1, shared_seed=0)
    _, _, rs, re = layout.block(1)
    unread = min(set(range(1, CFG.M + 1)) - set(y.addr[rs:re].tolist()))
    padded = dataclasses.replace(msg, matched=msg.matched + ((unread, 1),))
    assert padded.bit_length == msg.bit_length + 2 * CFG.w
    assert bob_decode(padded, "passthrough", CFG, y, layout, 1, shared_seed=0) == block_data(y, layout, 1)


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


@given(
    half_n=st.integers(min_value=1, max_value=24),
    k=st.integers(min_value=1, max_value=6),
    extra_cells=st.integers(min_value=0, max_value=8),
    engine=st.sampled_from(ALL_ENGINES),
    data_seed=st.integers(0, 2**32),
    run_seed=st.integers(0, 2**32),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_sender_matches_the_whole_read_block_oracle(half_n, k, extra_cells, engine, data_seed, run_seed, data):
    """Stopping the read block once no cell holds write-block data ships the
    message that running all of it does, padding blocks included."""
    n = 2 * half_n
    k = min(k, half_n)  # 2k * floor(n / 2k) < n pads the workload
    cfg = OramConfig(m=1, M=n + extra_cells, w=16)
    y, layout = gen_write_read_blocks(n, k, cfg.w, random.Random(data_seed))
    i = data.draw(st.integers(1, layout.k))
    want = reference_alice_encode(engine, cfg, y, layout, i, run_seed)
    assert alice_encode(engine, cfg, y, layout, i, shared_seed=run_seed) == want


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_sender_matches_the_oracle_with_padding_blocks(engine):
    cfg = OramConfig(m=3, M=18, w=16)
    y, layout = gen_write_read_blocks(18, 4, cfg.w, random.Random(8))
    assert 2 * layout.k * layout.ell < len(y)
    for i in range(1, layout.k + 1):
        want = reference_alice_encode(engine, cfg, y, layout, i, 2)
        assert alice_encode(engine, cfg, y, layout, i, shared_seed=2) == want


@pytest.fixture
def codec_servers(monkeypatch):
    """Every ServerState the codec makes, in order."""
    servers = []

    class Captured(ServerState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            servers.append(self)

    monkeypatch.setattr(codec, "ServerState", Captured)
    return servers


def test_scan_sender_logs_metadata_for_one_pass(codec_servers):
    """The scan's first read-block op rewrites every cell, so the sender logs
    metadata for that one pass (2M probes) and runs no further."""
    y, layout = _instance(5, n=16, k=2)
    for i in (1, 2):
        _, _, rs, re = layout.block(i)
        assert re - rs > 1
        msg = alice_encode("linear-scan", CFG, y, layout, i, shared_seed=0)
        server = codec_servers[-1]
        assert len(server.kind_column()) == len(server.addr_column(rs * 2 * CFG.M)) == 2 * CFG.M
        assert server.probe_count == (rs + 1) * 2 * CFG.M
        assert set(server.op_column().tolist()) == {rs}
        assert msg == reference_alice_encode("linear-scan", CFG, y, layout, i, 0)
    assert len(codec_servers) == 2


def test_tree_sender_stops_once_its_paths_rewrite_the_write_block(codec_servers):
    # at seed 0 the first read's path rewrites every slot the write block's two ops wrote last
    cfg = OramConfig(m=1, M=4, w=16)
    y, layout = gen_write_read_blocks(4, 1, cfg.w, random.Random(0))
    msg = alice_encode("tree", cfg, y, layout, 1, shared_seed=0)
    _, _, rs, re = layout.block(1)
    assert set(codec_servers[0].op_column().tolist()) == {rs} and re - rs == 2
    assert msg == reference_alice_encode("tree", cfg, y, layout, 1, 0)
    assert bob_decode(msg, "tree", cfg, y, layout, 1, shared_seed=0) == block_data(y, layout, 1)

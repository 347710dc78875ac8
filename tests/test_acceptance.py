"""End-to-end acceptance suite.

One test per criterion, each printing a PASS line (visible with ``pytest -s``
or ``-rP``).  The heavy tests (codec at n=1024, scan-engine frequency at
n=4096) dominate the runtime; the whole module finishes in a few minutes on
one laptop-class core.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

from oramlab import (
    AccessGraph,
    OramConfig,
    adversary_view,
    alice_encode,
    block_data,
    bob_decode,
    dense_partition_frequency,
    estimate_advantage,
    gen_alternating_sequence,
    gen_write_read_blocks,
    greedy_dense_partition,
    run_sequence,
    statistical_distance_empirical,
    statistical_distance_exact,
)
from oramlab.traceio import TraceFile, analyze_trace

from conftest import (
    ALL_ENGINES,
    ForcedEncoder,
    ForcedLeaker,
    R,
    W,
    assert_graph_invariants,
    brute_force_dense_partition,
    graph_from_edges,
    random_degree_bounded_graph,
    run_forced,
    seq,
)


def _passed(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def _degree_ok(edges) -> bool:
    heads, tails = set(), set()
    for u, v in edges:
        if u in heads or v in tails:
            return False
        heads.add(u)
        tails.add(v)
    return True


def test_01_greedy_equals_brute_force_oracle():
    """Exhaustive small graphs plus 10,000 random ones: identical verdicts."""
    mismatches = 0
    checks = 0
    for n in range(0, 8):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for e in range(0, 5):
            for edges in itertools.combinations(pairs, e):
                if not _degree_ok(edges):
                    continue
                g = graph_from_edges(n, edges)
                for k in (1, 2, 3):
                    for ell in (1, 2, 3, 4):
                        greedy = greedy_dense_partition(g, k, ell) is not None
                        oracle = brute_force_dense_partition(g, k, ell) is not None
                        checks += 1
                        mismatches += greedy != oracle
    assert checks > 10_000
    rng = random.Random(0xACCE55)
    for _ in range(10_000):
        g = random_degree_bounded_graph(rng, max_n=10)
        for k in (1, 2, 3):
            for ell in (1, 2, 3, 4):
                greedy = greedy_dense_partition(g, k, ell) is not None
                oracle = brute_force_dense_partition(g, k, ell) is not None
                mismatches += greedy != oracle
    assert mismatches == 0
    _passed("01 greedy/oracle equivalence")


def test_02_access_graph_invariants_across_engine_traces():
    """Degree bounds and |edges| = N - #distinct on a trace battery."""
    workloads = []
    workloads.append(("alt16", gen_alternating_sequence(16)))
    for k in (1, 2, 4):
        y, _ = gen_write_read_blocks(16, k, 16, random.Random(k))
        workloads.append((f"blocks16k{k}", y))
    mixed = seq(W(3, 9), R(3), W(1, 5), R(2), W(3, 1), R(1))
    workloads.append(("mixed6", mixed))
    cfg = OramConfig(m=1, M=16, w=16)
    checked = 0
    for engine in ALL_ENGINES:
        for _, y in workloads:
            for seed in (0, 1, 2):
                _, srv = run_sequence(engine, cfg, y, seed=seed)
                assert_graph_invariants(AccessGraph(adversary_view(srv)))
                checked += 1
    # one larger trace per engine family
    big_cfg = OramConfig(m=2, M=256, w=32)
    y_big, _ = gen_write_read_blocks(256, 8, 32, random.Random(9))
    for engine in ("linear-scan", "tree", "dummy-encoder"):
        _, srv = run_sequence(engine, big_cfg, y_big, seed=5, record_meta=False)
        assert_graph_invariants(AccessGraph(adversary_view(srv)))
        checked += 1
    assert checked == len(ALL_ENGINES) * len(workloads) * 3 + 3
    _passed("02 access-graph invariants")


def test_03_leaker_length_distribution_is_exact():
    """Exhaustive (i, r) enumeration reproduces the length law with tolerance 0."""
    M = 4
    cfg = OramConfig(m=1, M=M, w=2)
    fixed = {
        2: [W(2, 1), R(4)],
        3: [W(3, 2), R(1), W(4, 3)],
        4: [R(2), W(1, 1), R(3), W(4, 0)],
    }
    for n, ops in fixed.items():
        y = seq(*ops)
        lengths = Counter()
        for i in range(1, n + 1):
            for r in range(1, M + 1):
                _, srv = run_forced(ForcedLeaker(cfg, len(y), i, r), cfg, y)
                lengths[srv.probe_count] += 1
        total = n * M
        for i in range(1, n + 1):
            a_i = int(y.addr[i - 1])
            assert Fraction(lengths[n + 2 * i], total) == Fraction(a_i, n * M)
            assert Fraction(lengths[n + 2 * i - 1], total) == Fraction(M - a_i, n * M)
        assert sum(lengths.values()) == total
    _passed("03 dummy leaker exact length law")


def test_04_encoder_length_law():
    """Lengths stay in {2n, 2n+1}; the extra-probe rate is rank(y)/8 exactly."""
    cfg = OramConfig(m=1, M=16, w=8)
    for seed in range(40):
        n = 1 + seed % 7
        rng = random.Random(seed)
        ops = tuple(
            W(rng.randint(1, 16), rng.getrandbits(8))
            if rng.random() < 0.5
            else R(rng.randint(1, 16))
            for _ in range(n)
        )
        _, srv = run_sequence("dummy-encoder", cfg, seq(*ops), seed=seed)
        assert srv.probe_count in (2 * n, 2 * n + 1)

    tiny = OramConfig(m=1, M=2, w=1)
    space = [(k, a, d) for k in (0, 1) for a in (1, 2) for d in (0, 1)]  # op keys: 0 writes, 1 reads
    for y_key in space:
        kind, a, d = y_key
        y = seq((kind == 0, a, d))
        rank = sum(1 for r in space if r < y_key)
        extras = 0
        for r in space:
            _, srv = run_forced(ForcedEncoder(tiny, [r]), tiny, y)
            assert srv.probe_count in (2, 3)
            extras += srv.probe_count == 3
        assert Fraction(extras, len(space)) == Fraction(rank, 8)
    _passed("04 dummy encoder length law")


def test_05_transfer_codec_round_trip_at_scale():
    """100 instances per engine at n=1024, k=2, both block indices."""
    n, k = 1024, 2
    cfg = OramConfig(m=32, M=n, w=32)
    ell = n // (2 * k)
    floor_bits = cfg.w * ell - 2 * cfg.w * 10 - 10 * cfg.w  # log2(1024) = 10
    for engine in ("passthrough", "linear-scan", "tree"):
        bits = []
        for instance in range(100):
            i = 1 + instance % k
            y, layout = gen_write_read_blocks(n, k, cfg.w, random.Random(7000 + instance))
            shared_seed = 9000 + instance
            msg = alice_encode(engine, cfg, y, layout, i, shared_seed=shared_seed)
            recovered = bob_decode(msg, engine, cfg, y, layout, i, shared_seed=shared_seed)
            assert recovered == block_data(y, layout, i)
            assert msg.bit_length == cfg.m * cfg.w + 2 * cfg.w * len(msg.matched)
            bits.append(msg.bit_length)
        # lossless recovery of ell fresh w-bit words cannot be cheap on average
        assert sum(bits) / len(bits) >= floor_bits, engine
    _passed("05 information-transfer codec")


def test_06_distinguisher_advantage_on_leaky_engines():
    cfg = OramConfig(m=1, M=200, w=32)
    y_flat = gen_alternating_sequence(200)
    y_blocks, _ = gen_write_read_blocks(200, 4, cfg.w, random.Random(64))
    for engine in ("passthrough", "dummy-encoder"):
        est = estimate_advantage(engine, cfg, y_flat, y_blocks, trials=1000, seed=1234)
        assert est.advantage >= 0.10, (engine, est)
    _passed("06 distinguisher advantage, leaky engines")


def test_07_oblivious_engine_is_indistinguishable():
    cfg = OramConfig(m=1, M=40, w=32)
    y_flat = gen_alternating_sequence(40)
    y_blocks, _ = gen_write_read_blocks(40, 2, cfg.w, random.Random(3))
    est = estimate_advantage("linear-scan", cfg, y_flat, y_blocks, trials=1000, seed=42)
    assert est.advantage <= 0.05
    traces_flat = []
    traces_blocks = []
    for t in range(40):
        _, s1 = run_sequence("linear-scan", cfg, y_flat, seed=t, record_meta=False)
        _, s2 = run_sequence("linear-scan", cfg, y_blocks, seed=t, record_meta=False)
        traces_flat.append(adversary_view(s1))
        traces_blocks.append(adversary_view(s2))
    dist = statistical_distance_empirical(traces_flat, traces_blocks)
    assert dist.distance == 0
    _passed("07 distinguisher advantage, oblivious engine")


def test_08_dense_partition_frequency_at_scale():
    """Scan engine, n=4096, m=4, w=32, M=4096: frequency 1.0 for k in {1, 4}."""
    cfg = OramConfig(m=4, M=4096, w=32)
    for k in (1, 4):
        freq = dense_partition_frequency("linear-scan", cfg, n=4096, k=k, trials=100, seed=2718)
        assert freq == 1, (k, freq)
    # spot-check the graph invariants on one full-size trace
    y, _ = gen_write_read_blocks(4096, 4, cfg.w, random.Random(0))
    _, srv = run_sequence("linear-scan", cfg, y, seed=0, record_meta=False)
    g = AccessGraph(adversary_view(srv))
    assert_graph_invariants(g)
    assert g.N == 2 * 4096 * 4096
    _passed("08 dense-partition frequency at scale")


def test_09_certified_bound_grows_superlinearly():
    rows = []
    for n in (2**10, 2**12, 2**14):
        cfg = OramConfig(m=4, M=n, w=32)
        y, _ = gen_write_read_blocks(n, 4, cfg.w, random.Random(n))
        _, srv = run_sequence("tree", cfg, y, seed=n + 1, record_meta=False)
        tf = TraceFile(
            engine="tree", workload=f"blocks:n={n},k=4,seed={n}", n=n, m=cfg.m, M=cfg.M,
            w=cfg.w, seed=n + 1, addrs=srv.addr_column(),
        )
        report = analyze_trace(tf)
        assert report.certified_probe_bound <= report.measured_probes
        assert report.deviations, "tree engine must disclose its memory-budget deviation"
        rows.append((n, report.certified_probe_bound, report.measured_probes))
        if n == 2**10:
            assert_graph_invariants(AccessGraph(tf.addrs))
    ratios = [bound / n for n, bound, _ in rows]
    assert ratios == sorted(ratios) and len(set(ratios)) == len(ratios), rows
    _passed("09 certificate soundness and growth")


def test_10_statistical_distance_identities():
    assert statistical_distance_exact({"a": 1}, {"a": 1}) == 0
    assert statistical_distance_exact({"a": 1}, {"b": 1}) == 1
    uniform = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    assert statistical_distance_exact(uniform, {"a": 1}) == Fraction(1, 2)
    rng = random.Random(31337)
    for _ in range(1000):
        size = rng.randint(1, 5)
        outcomes = list(range(size))
        def table():
            ws = [rng.randint(0, 8) for _ in outcomes]
            if not sum(ws):
                ws[0] = 1
            total = sum(ws)
            return {o: Fraction(wt, total) for o, wt in zip(outcomes, ws)}
        # the one-sided form is recomputed and compared inside on every call
        d = statistical_distance_exact(table(), table())
        assert 0 <= d <= 1
    _passed("10 statistical-distance identities")

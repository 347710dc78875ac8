import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oramlab import (
    AccessGraph,
    AccessSequence,
    CertificateError,
    OramConfig,
    Partition,
    adversary_view,
    certify,
    edge_lower_bound_from_certificate,
    gen_write_read_blocks,
    greedy_dense_partition,
    is_dense,
    run_sequence,
)

from conftest import (
    ALL_ENGINES,
    brute_force_dense_partition,
    expected_edge_lower_bound,
    graph_from_edges,
    random_degree_bounded_graph,
    reference_greedy_witness,
)

PATH4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
CROSSED4 = graph_from_edges(4, [(0, 2), (1, 3)])


class TestFrozenVerdicts:
    def test_path_graph_splits_in_two(self):
        for decide in (greedy_dense_partition, brute_force_dense_partition):
            p = decide(PATH4, 2, 1)
            assert p is not None and is_dense(PATH4, p, 1)

    def test_path_graph_has_no_double_cut(self):
        # any single cut m is crossed only by the edge (m-1, m)
        for decide in (greedy_dense_partition, brute_force_dense_partition):
            assert decide(PATH4, 1, 2) is None

    def test_interleaved_edges_cannot_be_separated(self):
        for decide in (greedy_dense_partition, brute_force_dense_partition):
            assert decide(CROSSED4, 2, 1) is None

    def test_zero_threshold_is_trivially_dense(self):
        for g in (PATH4, CROSSED4, graph_from_edges(0, [])):
            p = greedy_dense_partition(g, 1, 0)
            assert p is not None and p.boundaries == (0, 0, g.N)
            assert brute_force_dense_partition(g, 1, 0) is not None

    def test_empty_graph_has_no_dense_partition(self):
        g = graph_from_edges(0, [])
        assert greedy_dense_partition(g, 1, 1) is None
        assert brute_force_dense_partition(g, 1, 1) is None


def test_brute_force_is_capped():
    g = AccessGraph([1] * 19)
    with pytest.raises(ValueError):
        brute_force_dense_partition(g, 1, 1)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((0, 2, 1))
    with pytest.raises(ValueError):
        Partition((1, 2, 3))
    with pytest.raises(ValueError):
        Partition((0, 1))


@given(seed=st.integers(0, 2**32), k=st.integers(1, 3), ell=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_greedy_matches_brute_force(seed, k, ell):
    g = random_degree_bounded_graph(random.Random(seed), max_n=10)
    got = greedy_dense_partition(g, k, ell)
    want = brute_force_dense_partition(g, k, ell)
    assert (got is None) == (want is None)
    if got is not None:
        assert is_dense(g, got, ell)
        assert is_dense(g, want, ell)


@given(
    addrs=st.lists(st.integers(1, 4), max_size=12),
    k=st.integers(1, 3),
    ell=st.integers(1, 3),
)
@settings(max_examples=120, deadline=None)
def test_greedy_matches_brute_force_on_raw_traces(addrs, k, ell):
    # graphs born from address sequences, not synthetic edge sets
    g = AccessGraph(addrs)
    assert (greedy_dense_partition(g, k, ell) is None) == (
        brute_force_dense_partition(g, k, ell) is None
    )


@given(seed=st.integers(0, 2**32), k=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_density_monotone_in_threshold(seed, k):
    g = random_degree_bounded_graph(random.Random(seed), max_n=10)
    feasible = [ell for ell in range(1, 6) if greedy_dense_partition(g, k, ell) is not None]
    assert feasible == list(range(1, len(feasible) + 1))


@given(
    addrs=st.lists(st.integers(1, 5), max_size=40),
    k=st.integers(1, 3),
    ell=st.integers(1, 6),
)
@settings(max_examples=150, deadline=None)
def test_greedy_witness_matches_definition(addrs, k, ell):
    got = greedy_dense_partition(AccessGraph(addrs), k, ell)
    want = reference_greedy_witness(addrs, k, ell)
    assert (None if got is None else got.boundaries) == want


@given(
    period=st.lists(st.integers(1, 8), min_size=1, max_size=20),
    reps=st.integers(0, 30),
    k=st.sampled_from([1, 4, 16]),
    ell=st.integers(1, 40),
)
@example(period=[1, 2], reps=30, k=1, ell=40)  # every cut is crossed twice: gallops to N, None
@example(period=[1, 2, 3, 4], reps=30, k=4, ell=5)
@example(period=[1, 2, 3, 4], reps=30, k=16, ell=4)
@settings(max_examples=200, deadline=None)
def test_greedy_reads_a_repeating_trace_like_its_tile(period, reps, k, ell):
    tiled = AccessGraph(np.tile(np.array(period, dtype=np.int64), reps))
    lazy = AccessGraph(AccessSequence.repeating(period, reps))
    assert greedy_dense_partition(lazy, k, ell) == greedy_dense_partition(tiled, k, ell)


def test_greedy_builds_only_the_windows_it_reads(monkeypatch):
    period = np.repeat(np.arange(1, 65), 2)
    want = greedy_dense_partition(AccessGraph(np.tile(period, 64)), 4, 8)
    assert want is not None and want.boundaries[-2] < 8 * len(period)  # a prefix of 64 periods

    def unbuilt(seq):
        raise AssertionError("the greedy built the whole address array")

    monkeypatch.setattr(AccessSequence, "addrs", property(unbuilt))
    assert greedy_dense_partition(AccessGraph(AccessSequence.repeating(period, 64)), 4, 8) == want


def _witness_digest(engine: str, n: int, k_max: int) -> tuple[list[int], str]:
    cfg = OramConfig(m=4, M=n, w=32)
    y, _ = gen_write_read_blocks(n, 4, cfg.w, random.Random(n))
    _, srv = run_sequence(engine, cfg, y, seed=n + 1, record_meta=False)
    cert = certify(AccessGraph(adversary_view(srv)), Fraction(n, 5), k_max)
    items = sorted((k, p.boundaries) for k, p in cert.witnessed.items())
    return [k for k, _ in items], hashlib.blake2b(repr(items).encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize(
    "engine, n, k_max, ks, digest",
    [
        ("tree", 2**12, 16, [1, 4, 16], "97bf55743af96bd95d17f01727d6acdf"),
        ("linear-scan", 2**10, 4, [1, 4], "a9a20b41409a0dede9d3be651c45c532"),
    ],
)
def test_witnesses_are_frozen(engine, n, k_max, ks, digest):
    # pins full boundary sequences, which the oracle comparisons (verdicts
    # only) would let drift
    assert _witness_digest(engine, n, k_max) == (ks, digest)


def test_rational_thresholds_compare_exactly():
    # count >= 4/3 means count >= 2; an integer threshold of 1 would pass
    g = PATH4
    assert greedy_dense_partition(g, 1, Fraction(4, 3)) is None
    assert greedy_dense_partition(g, 1, Fraction(2, 3)) is not None
    assert brute_force_dense_partition(g, 1, Fraction(4, 3)) is None


class TestCertificates:
    def _scan_certificate(self, n=64, ell=Fraction(64, 5), k_max=16):
        cfg = OramConfig(m=1, M=64, w=32)
        y, _ = gen_write_read_blocks(n, 4, cfg.w, random.Random(12))
        _, srv = run_sequence("linear-scan", cfg, y, seed=0, record_meta=False)
        g = AccessGraph(adversary_view(srv))
        return g, certify(g, ell, k_max)

    def test_full_scan_certifies_at_least_k1(self):
        g, cert = self._scan_certificate()
        assert 1 in cert.K
        bound = edge_lower_bound_from_certificate(cert)
        assert 0 < bound <= g.edge_count

    def test_bound_formula(self):
        g, cert = self._scan_certificate()
        bound = edge_lower_bound_from_certificate(cert)
        assert bound == -(-cert.base_ell * len(cert.K) // 2)  # ceil(ell/2 * |K|)

    def test_bound_arithmetic_instantiations(self):
        # the scan trace is dense enough to witness k = 1, 4, 16 at these thresholds
        _, cert = self._scan_certificate(ell=Fraction(20), k_max=16)
        assert cert.K == {1, 4, 16}
        assert edge_lower_bound_from_certificate(cert) == 30
        _, cert = self._scan_certificate(ell=Fraction(10), k_max=1)
        assert cert.K == {1}
        assert edge_lower_bound_from_certificate(cert) == 5

    def test_empty_certificate_bounds_zero(self):
        g = graph_from_edges(5, [])
        cert = certify(g, 3, 16)
        assert cert.K == frozenset()
        assert edge_lower_bound_from_certificate(cert) == 0

    def test_tampered_witness_is_rejected(self):
        g, cert = self._scan_certificate()
        k = min(cert.witnessed)
        honest = cert.witnessed[k]
        cert.witnessed[k] = Partition((0,) * (2 * k) + (g.N,))  # degenerate, not dense
        with pytest.raises(CertificateError):
            edge_lower_bound_from_certificate(cert)
        cert.witnessed[k] = honest
        edge_lower_bound_from_certificate(cert)

    def test_non_power_of_4_key_is_rejected(self):
        g, cert = self._scan_certificate()
        cert.witnessed[2] = greedy_dense_partition(g, 2, 1)
        with pytest.raises(CertificateError):
            edge_lower_bound_from_certificate(cert)

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_bound_never_exceeds_edge_count(self, seed):
        g = random_degree_bounded_graph(random.Random(seed), max_n=10)
        cert = certify(g, 2, 16)
        assert edge_lower_bound_from_certificate(cert) <= g.edge_count

    def test_nested_partitions_leave_clean_parts(self):
        g, cert = self._scan_certificate()
        ks = sorted(cert.K)

        def part_edges(k):
            return [set(g.crossing_edges(b, m, e).tolist()) for b, m, e in cert.witnessed[k].parts()]

        for lo, hi in zip(ks, ks[1:]):
            coarse = set().union(*part_edges(lo))
            clean = sum(1 for edges in part_edges(hi) if not edges & coarse)
            assert clean >= hi - lo

    def test_inflated_base_ell_fails_the_exhibited_count(self):
        g, cert = self._scan_certificate()
        exhibited = cert.verify()
        assert edge_lower_bound_from_certificate(cert) <= exhibited <= g.edge_count
        # a bound one edge past what the witnesses exhibit
        cert.base_ell = Fraction(2 * (exhibited + 1), len(cert.K))
        with pytest.raises(CertificateError, match=f"exhibit {exhibited} distinct crossing edges, "
                                                   f"fewer than the bound {exhibited + 1}"):
            edge_lower_bound_from_certificate(cert)
        # a bound the witnesses meet, but whose thresholds they are not dense for
        cert.base_ell = Fraction(2 * exhibited, len(cert.K))
        with pytest.raises(CertificateError, match="density re-check"):
            edge_lower_bound_from_certificate(cert)

    def test_repeated_witness_edges_fail_the_density_check(self):
        g, cert = self._scan_certificate()
        _, m, _ = cert.witnessed[1].parts()[0]
        # k = 4 exhibits only k = 1's edges: the union still meets ell, the bound for |K| = 2
        cert.witnessed = {1: cert.witnessed[1], 4: Partition((0,) * 7 + (m, g.N))}
        with pytest.raises(CertificateError, match="witness for k=4 fails the density re-check"):
            edge_lower_bound_from_certificate(cert)

    @given(engine=st.sampled_from(ALL_ENGINES), half=st.integers(2, 48), seed=st.integers(0, 2**16),
           ell=st.fractions(min_value=0, max_value=40, max_denominator=7))
    @settings(max_examples=150, deadline=None)
    def test_verify_returns_between_bound_and_edge_count(self, engine, half, seed, ell):
        n = 2 * half
        cfg = OramConfig(m=2, M=n, w=32)
        y, _ = gen_write_read_blocks(n, 2, cfg.w, random.Random(seed))
        _, srv = run_sequence(engine, cfg, y, seed=seed, record_meta=False)
        g = AccessGraph(adversary_view(srv))
        cert = certify(g, ell, 64)
        exhibited = set()
        for partition in cert.witnessed.values():
            for b, m, e in partition.parts():
                exhibited.update(g.crossing_edges(b, m, e).tolist())
        assert edge_lower_bound_from_certificate(cert) <= cert.verify() == len(exhibited) <= g.edge_count


class TestExpectedEdgeBound:
    def test_instantiations(self):
        assert expected_edge_lower_bound(100, 1, 16, 1) == 100
        assert expected_edge_lower_bound(100, 4, 4, 1) == 0
        assert expected_edge_lower_bound(51, 1, 64, Fraction(3, 5)) == Fraction(459, 10)

    def test_degenerate_and_errors(self):
        assert expected_edge_lower_bound(10, 3, 4, 1) == 0  # ceil(log4 3) = 1 = floor(log4 4)
        with pytest.raises(ValueError):
            expected_edge_lower_bound(10, 5, 4, 1)
        with pytest.raises(ValueError):
            expected_edge_lower_bound(10, 1, 4, 2)

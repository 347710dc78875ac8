"""Shared helpers for the suite: graph invariant checks and random graphs."""

from __future__ import annotations

import random

import numpy as np
import pytest

from oramlab import AccessGraph, graph_from_edges

ALL_ENGINES = ("passthrough", "linear-scan", "tree", "dummy-encoder", "dummy-leaker")


def assert_graph_invariants(graph: AccessGraph) -> None:
    """Degree bounds and the edge-count identity every access graph must satisfy."""
    u, v = graph.edge_arrays()
    assert len(np.unique(u)) == len(u), "a vertex has outdegree > 1"
    assert len(np.unique(v)) == len(v), "a vertex has indegree > 1"
    distinct = len(np.unique(graph.A)) if graph.N else 0
    assert graph.edge_count == graph.N - distinct
    if len(v):
        assert (u < v).all()
        assert int(v.max()) < graph.N and int(u.min()) >= 0


def random_degree_bounded_graph(rng: random.Random, max_n: int = 10) -> AccessGraph:
    """Uniform-ish random ordered graph with in/outdegree at most one."""
    n = rng.randint(0, max_n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    heads: set[int] = set()
    tails: set[int] = set()
    edges = []
    for u, v in pairs:
        if u not in heads and v not in tails and rng.random() < 0.5:
            edges.append((u, v))
            heads.add(u)
            tails.add(v)
    return graph_from_edges(n, edges)


def brute_force_crossing(addrs, a: int, m: int, b: int) -> int:
    """Independent crossing-edge counter straight off the definition."""
    count = 0
    for j in range(m, b):
        target = addrs[j]
        for i in range(j - 1, a - 1, -1):
            if addrs[i] == target:
                if i < m:
                    count += 1
                break
    return count


def reference_greedy_witness(addrs, k: int, threshold: int) -> tuple[int, ...] | None:
    """The greedy's witness straight off the definition, for threshold >= 1.

    Each part [b, e) closes at its smallest end e for which some cut reaches
    the threshold, at the smallest such cut m; the last part's end is then
    widened to N without moving its cut.
    """
    n = len(addrs)
    boundaries = [0]
    b = 0
    for _ in range(k):
        close = next(
            (
                (m, e)
                for e in range(b, n + 1)
                for m in range(b, e + 1)
                if brute_force_crossing(addrs, b, m, e) >= threshold
            ),
            None,
        )
        if close is None:
            return None
        boundaries.extend(close)
        b = close[1]
    boundaries[-1] = n
    return tuple(boundaries)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

"""Shared helpers for the suite: graph invariant checks, random graphs and
line-by-line oracles for the vectorized code paths (the scan engine's honest
probe loop among them)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from oramlab import READ, WRITE, AccessGraph, TraceFile, graph_from_edges
from oramlab.orams import ENGINE_NAMES
from oramlab.traceio import _HEADER_KEYS, TRACE_FORMAT

ALL_ENGINES = ("passthrough", "linear-scan", "tree", "dummy-encoder", "dummy-leaker")


def assert_graph_invariants(graph: AccessGraph) -> None:
    """Degree bounds and the edge-count identity every access graph must satisfy.

    Linear in N: the range checks come first, so that an out-of-range index
    fails as an assertion and the degree counts can index by vertex.
    """
    u, v = graph.edge_arrays()
    assert len(u) == len(v)
    if len(v):
        assert int(v.max()) < graph.N and int(u.min()) >= 0
        assert (u < v).all()
    assert np.bincount(u, minlength=graph.N).max(initial=0) <= 1, "a vertex has outdegree > 1"
    assert np.bincount(v, minlength=graph.N).max(initial=0) <= 1, "a vertex has indegree > 1"
    distinct = len(np.unique(graph.A)) if graph.N else 0
    assert graph.edge_count == graph.N - distinct


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


def brute_force_crossing_edges(addrs, a: int, m: int, b: int) -> list[tuple[int, int]]:
    """Crossing edges (u, v), a <= u < m <= v < b, straight off the definition, ordered by v."""
    edges = []
    for j in range(m, b):
        target = addrs[j]
        for i in range(j - 1, a - 1, -1):
            if addrs[i] == target:
                if i < m:
                    edges.append((i, j))
                break
    return edges


def brute_force_crossing(addrs, a: int, m: int, b: int) -> int:
    """Independent crossing-edge counter straight off the definition."""
    return len(brute_force_crossing_edges(addrs, a, m, b))


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


def honest_scan_advance(server, M: int, y, start: int, stop: int) -> list[int]:
    """The linear scan straight off its definition over ops start..stop-1 of y.

    Each op reads every cell 1..M with a scalar probe and writes it back, its
    own data in place of what it read at its address for a write; returns the
    answers of the reads.
    """
    answers = []
    for i, op in enumerate(y.ops[start:stop], start):
        server.begin_op(i)
        for j in range(1, M + 1):
            v = server.probe(READ, j)
            if j == op.addr:
                if op.kind == WRITE:
                    v = op.data
                else:
                    answers.append(v)
            server.probe(WRITE, j, v)
    return answers


def reference_read_trace(path) -> TraceFile:
    """The trace reader one line at a time, straight off docs/formats.md.

    Each line is stripped and blank ones skipped; ``#op <int64>`` lines set
    the op of the addresses after them (-1 before the first), other ``#``
    lines are header keys and may not follow an address, and every other
    line is a base-10 address.
    """
    keys: list[str] = []
    header: dict[str, str] = {}
    addrs: list[int] = []
    ops: list[int] = []
    current_op: int | None = None
    saw_boundary = False
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#op "):
                saw_boundary = True
                current_op = int(line[4:])
                if not -(1 << 63) <= current_op < 1 << 63:
                    raise ValueError(f"trace op index {current_op} is outside int64")
            elif line.startswith("#"):
                if addrs:
                    raise ValueError(f"trace header line {line!r} after the first address")
                key, _, val = line[1:].partition("=")
                keys.append(key)
                header[key] = val
            else:
                addrs.append(int(line))
                ops.append(current_op if current_op is not None else -1)
    if keys != list(_HEADER_KEYS):
        raise ValueError(f"trace header keys {keys} are not exactly {list(_HEADER_KEYS)} in that order")
    if header["format"] != TRACE_FORMAT:
        raise ValueError(f"unsupported trace format {header['format']!r}")
    if int(header["N"]) != len(addrs):
        raise ValueError(f"header says N={header['N']} but body has {len(addrs)} addresses")
    if header["engine"] not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {header['engine']!r} in trace header")
    w = int(header["w"])
    out_of_range = ValueError(f"trace has an address outside [1, 2^{w}]")
    try:
        addr_array = np.asarray(addrs, dtype=np.int64)
    except OverflowError:
        raise out_of_range from None
    if len(addr_array) and not 1 <= int(addr_array.min()) <= int(addr_array.max()) <= 1 << min(w, 63):
        raise out_of_range
    return TraceFile(
        engine=header["engine"],
        workload=header["workload"],
        n=int(header["n"]),
        m=int(header["m"]),
        M=int(header["M"]),
        w=w,
        seed=int(header["seed"]),
        addrs=addr_array,
        op_index=np.asarray(ops, dtype=np.int64) if saw_boundary else None,
    )


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

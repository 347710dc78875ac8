"""Shared helpers for the suite: graph invariant checks, random graphs and
line-by-line oracles for the vectorized code paths (the exhaustive
dense-partition decider, the server's probe, one at a time, the scan and tree
engines' honest per-op probe loops, and the estimators' trial-by-trial loops
among them)."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from oramlab import (
    WRITE,
    AccessGraph,
    ModelViolationError,
    Partition,
    ServerState,
    StashOverflowError,
    TraceFile,
    adversary_view,
    derive_seed,
    distinguish,
    gen_alternating_sequence,
    gen_write_read_blocks,
    greedy_dense_partition,
    run_sequence,
)
from oramlab._util import as_fraction
from oramlab.orams import ENGINE_NAMES
from oramlab.server import NO_WRITER
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
    distinct = len(np.unique(graph.trace.addrs)) if graph.N else 0
    assert graph.edge_count == graph.N - distinct


def graph_from_edges(n: int, edges) -> AccessGraph:
    """Realize an ordered degree-bounded edge set as an actual access graph.

    Any ordered graph with in/outdegree at most one splits into vertex-disjoint
    forward paths; giving each path its own address (and every isolated vertex
    a fresh one) yields an address sequence whose access graph has exactly the
    requested edges.  Lets tests enumerate graphs directly.
    """
    succ = {}
    tails = set()
    for u, v in edges:
        if not 0 <= u < v < n:
            raise ValueError(f"edge ({u}, {v}) not ordered within [0, {n})")
        if u in succ or v in tails:
            raise ValueError("edge set violates the degree-one bound")
        succ[u] = v
        tails.add(v)
    addr = [0] * n
    next_name = 1
    for start in range(n):
        if start in tails:
            continue
        cur = start
        addr[cur] = next_name
        while cur in succ:
            cur = succ[cur]
            addr[cur] = next_name
        next_name += 1
    return AccessGraph(addr)


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


BRUTE_FORCE_CAP = 18


def brute_force_dense_partition(graph: AccessGraph, k: int, ell) -> Partition | None:
    """Exhaustive oracle over all monotone boundary sequences (N <= 18).

    Independent of the greedy: it enumerates (m, e) choices per part directly
    over the edge list, memoizing only part starts already proven dead.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if graph.N > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at N <= {BRUTE_FORCE_CAP}, got N={graph.N}")
    ell = as_fraction(ell)
    n = graph.N
    if ell <= 0:
        return Partition((0,) * (2 * k) + (n,))
    edges = graph.edges

    def cross(b: int, m: int, e: int) -> int:
        return sum(1 for u, v in edges if b <= u < m <= v < e)

    dead: list[set[int]] = [set() for _ in range(k + 1)]

    def search(b: int, parts_left: int) -> list[int] | None:
        if parts_left == 0:
            return [] if b == n else None
        if b in dead[parts_left]:
            return None
        for e in range(b, n + 1):
            for m in range(b, e + 1):
                if cross(b, m, e) >= ell:
                    rest = search(e, parts_left - 1)
                    if rest is not None:
                        return [m, e] + rest
                    break  # larger m in the same window cannot rescue this e
        dead[parts_left].add(b)
        return None

    found = search(0, k)
    if found is None:
        return None
    return Partition((0, *found))


def floor_log4(t: int) -> int:
    if t < 1:
        raise ValueError("floor_log4 needs t >= 1")
    return (t.bit_length() - 1) // 2


def ceil_log4(s: int) -> int:
    if s < 1:
        raise ValueError("ceil_log4 needs s >= 1")
    e = floor_log4(s)
    return e if 4**e == s else e + 1


def expected_edge_lower_bound(ell, s: int, t: int, p) -> Fraction:
    """Expected-edge bound (p*ell/2) * (floor(log4 t) - ceil(log4 s)), at least 0.

    s..t is the range of part counts known to admit an (ell/k)-dense
    k-partition with probability at least p; the log4 difference counts the
    powers of four inside the range.
    """
    if not 1 <= s <= t:
        raise ValueError(f"need 1 <= s <= t, got s={s}, t={t}")
    p = as_fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must be a probability")
    ell = as_fraction(ell)
    span = floor_log4(t) - ceil_log4(s)
    bound = p * ell / 2 * span
    return bound if bound > 0 else Fraction(0)


class ReferenceServer:
    """The server straight off the model, one probe at a time: the oracle for ``ServerState.probe_batch``.

    A dict maps each cell set so far to its content and the op of its last
    write; every probe appends to one list per log column, metadata included.
    The column, ``cells``, ``last_write_op`` and ``contents`` readers answer
    as the server's do.
    """

    def __init__(self, config):
        self.w = config.w
        self.store: dict[int, tuple[int, int]] = {}
        self.log: dict[str, list[int]] = {col: [] for col in ("addr", "kind", "data", "op", "read_src")}

    def probe(self, kind: int, addr: int, data: int, op: int) -> int:
        """One probe (kind 0 read, 1 write) for input op `op`; returns the value read, 0 for a write."""
        limit = 1 << self.w
        if not 1 <= addr <= limit:
            raise ModelViolationError(f"probe address {addr} outside [1, 2^{self.w}]")
        if kind == 1:
            if not 0 <= data < limit:
                raise ModelViolationError(f"probe payload {data} does not fit in {self.w} bits")
            self.store[addr] = (data, op)
            ret, logged, src = 0, data, NO_WRITER
        elif kind == 0:
            logged, src = self.store.get(addr, (0, NO_WRITER))
            ret = logged
        else:
            raise ModelViolationError(f"unknown probe kind {kind!r}")
        for col, v in zip(self.log.values(), (addr, kind, logged, op, src)):
            col.append(v)
        return ret

    def load(self, pairs) -> None:
        """Set cells with no probe; last writers stay as they are."""
        for addr, content in pairs:
            self.store[addr] = (content, self.store.get(addr, (0, NO_WRITER))[1])

    def contents(self, m: int) -> np.ndarray:
        return np.array([self.store.get(a, (0,))[0] for a in range(1, m + 1)], dtype=np.int64)

    @property
    def cells(self) -> dict[int, int]:
        return {a: c for a, (c, op) in self.store.items() if op != NO_WRITER}

    @property
    def last_write_op(self) -> dict[int, int]:
        return {a: op for a, (c, op) in self.store.items() if op != NO_WRITER}

    def addr_column(self) -> np.ndarray:
        return np.array(self.log["addr"], dtype=np.int64)

    def kind_column(self) -> np.ndarray:
        return np.array(self.log["kind"], dtype=np.int64)

    def data_column(self) -> np.ndarray:
        return np.array(self.log["data"], dtype=np.int64)

    def op_column(self) -> np.ndarray:
        return np.array(self.log["op"], dtype=np.int64)

    def read_src_column(self) -> np.ndarray:
        return np.array(self.log["read_src"], dtype=np.int64)


def honest_scan_advance(server: ReferenceServer, M: int, y, start: int, stop: int) -> list[int]:
    """The linear scan straight off its definition over ops start..stop-1 of y.

    Each op reads every cell 1..M with one probe and writes it back, its own
    data in place of what it read at its address for a write; returns the
    answers of the reads.
    """
    answers = []
    for i, op in enumerate(y.ops[start:stop], start):
        for j in range(1, M + 1):
            v = server.probe(0, j, 0, i)
            if j == op.addr:
                if op.kind == WRITE:
                    v = op.data
                else:
                    answers.append(v)
            server.probe(1, j, v, i)
    return answers


def honest_tree_advance(engine, server: ReferenceServer, y, start: int, stop: int) -> list[int]:
    """The tree engine straight off its definition over ops start..stop-1 of y, one probe at a time.

    For each op, engine's client state reads every slot on the op's path
    (moving owned blocks into the stash with the values it read), serves
    the op, remaps its address, plans the eviction and writes the path back
    slot by slot; it raises StashOverflowError after the write-back of an op
    that leaves the stash over its limit.  Returns the answers of the reads.
    """
    z, answers = engine.Z, []
    for i, op in enumerate(y.ops[start:stop], start):
        leaf = engine.pos[op.addr - 1]
        buckets = [((engine.leaves + leaf) >> (engine.depth - level)) - 1 for level in range(engine.depth + 1)]
        slots = [b * z + s for b in buckets for s in range(z)]
        for slot in slots:
            v = server.probe(0, slot + 1, 0, i)
            owner, engine.slot_owner[slot] = engine.slot_owner[slot], None
            if owner is not None:
                engine.stash[owner] = v
        if op.kind == WRITE:
            engine.stash[op.addr] = op.data
        else:
            answers.append(engine.stash.setdefault(op.addr, 0))
        engine.pos[op.addr - 1] = engine.rng.randrange(engine.leaves)
        data = [0] * len(slots)
        for level, blocks in enumerate(engine._plan_eviction(leaf)):
            for s, (addr, val) in enumerate(blocks):
                engine.slot_owner[slots[level * z + s]] = addr
                data[level * z + s] = val
        for slot, v in zip(slots, data):
            server.probe(1, slot + 1, v, i)
        if len(engine.stash) > engine.STASH_LIMIT:
            raise StashOverflowError(
                f"stash holds {len(engine.stash)} blocks (> {engine.STASH_LIMIT}) after op {i}"
            )
    return answers


def run_forced(engine, config, y) -> tuple[list[int], ServerState]:
    """``run_sequence`` for an engine built by the caller (say, with a forced draw).

    Makes the same checks of y against config, then runs all of y on a fresh
    server logging metadata; returns the answers and the server.
    """
    config.bind_workload_length(len(y))
    config.check_ops(y)
    server = ServerState(config)
    return engine.run(server, y), server


def honest_advantage(engine: str, config, y, y_prime, trials: int, seed: int) -> tuple[float, float]:
    """The advantage estimate's two guess-1 frequencies, trial by trial, straight off ``distinguish``.

    Trial t runs the engine on each input from seed derive_seed(seed, t, 1)
    and lets ``distinguish`` judge the trace with a coin seeded
    derive_seed(seed, t, 2); nothing is shared between trials.
    """
    ones = [0, 0]
    for t in range(trials):
        engine_seed, coin_seed = derive_seed(seed, t, 1), derive_seed(seed, t, 2)
        for arm, y_arm in enumerate((y, y_prime)):
            _, server = run_sequence(engine, config, y_arm, engine_seed, record_meta=False)
            verdict = distinguish(y, y_prime, adversary_view(server), random.Random(coin_seed))
            ones[arm] += verdict.guess == 1
    return ones[0] / trials, ones[1] / trials


def honest_frequency(engine: str, config, n: int, k: int, trials: int, seed: int, family: str = "blocks") -> Fraction:
    """The dense-partition frequency, trial by trial, with one greedy call per trial.

    Trial t samples its workload from seed derive_seed(seed, t, 3) and runs
    the engine from derive_seed(seed, t, 4).
    """
    found = 0
    for t in range(trials):
        if family == "blocks":
            y, _ = gen_write_read_blocks(n, k, config.w, random.Random(derive_seed(seed, t, 3)))
        else:
            y = gen_alternating_sequence(n)
        _, server = run_sequence(engine, config, y, derive_seed(seed, t, 4), record_meta=False)
        found += greedy_dense_partition(AccessGraph(adversary_view(server)), k, Fraction(n, 5 * k)) is not None
    return Fraction(found, trials)


def reference_read_trace(path) -> TraceFile:
    """The trace reader one line at a time, straight off docs/formats.md.

    Each line is stripped and blank ones skipped; ``#op <int64>`` lines set
    the op of the addresses after them (-1 before the first), other ``#``
    lines are header keys and may not follow an address, and every other
    line is a base-10 address.  The header's n, m and w must be at least 0,
    1 and 1.
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
    n, m, w = int(header["n"]), int(header["m"]), int(header["w"])
    if n < 0 or m < 1 or w < 1:
        raise ValueError(f"trace header has n={n}, m={m}, w={w}; need n >= 0, m >= 1 and w >= 1")
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
        n=n,
        m=m,
        M=int(header["M"]),
        w=w,
        seed=int(header["seed"]),
        addrs=addr_array,
        op_index=np.asarray(ops, dtype=np.int64) if saw_boundary else None,
    )


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

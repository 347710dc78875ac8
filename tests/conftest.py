"""Shared helpers for the suite: a row builder for input sequences (``seq``
of ``W``/``R`` rows), graph invariant checks, random graphs and
line-by-line oracles for the vectorized code paths (the exhaustive
dense-partition decider, the block workload generator and its shape parser
op by op, the server's probe and its read-after-write resolver, one probe
at a time, the scan and tree
engines' honest per-op probe loops, the length encoder's op-by-op comparand
draws, the codec sender that runs its whole read block, and the estimators'
trial-by-trial loops among them)."""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oramlab import (
    AccessGraph,
    InputSequence,
    ModelViolationError,
    Partition,
    ServerState,
    StashOverflowError,
    TraceFile,
    TransferMessage,
    WorkloadShapeError,
    adversary_view,
    block_data,
    derive_seed,
    distinguish,
    gen_alternating_sequence,
    gen_write_read_blocks,
    greedy_dense_partition,
    make_engine,
    run_sequence,
)
from oramlab._util import as_fraction
from oramlab.codec import _data_checksum
from oramlab.orams import ENGINE_NAMES, DummyLengthEncoder, DummyLengthLeaker
from oramlab.server import NO_WRITER
from oramlab.traceio import _HEADER_KEYS, TRACE_FORMAT

ALL_ENGINES = ("passthrough", "linear-scan", "tree", "dummy-encoder", "dummy-leaker")


def W(addr: int, data: int) -> tuple[bool, int, int]:
    """The row of a write of data to addr."""
    return True, addr, data


def R(addr: int) -> tuple[bool, int, int]:
    """The row of a read of addr."""
    return False, addr, 0


def seq(*rows) -> InputSequence:
    """The InputSequence of the given (is_write, addr, data) rows, in order."""
    is_write, addr, data = zip(*rows) if rows else ((), (), ())
    return InputSequence(
        np.array(is_write, dtype=bool), np.array(addr, dtype=np.int64), np.array(data, dtype=np.int64)
    )


def all_rows(y: InputSequence) -> list[tuple[bool, int, int]]:
    """Every op of y as an (is_write, addr, data) row of plain Python values."""
    return list(y.rows(0, len(y)))


def prefix(y: InputSequence, j: int) -> InputSequence:
    """The sequence of y's first j ops, as views of y's columns."""
    return InputSequence(y.is_write[:j], y.addr[:j], y.data[:j])


def edge_arrays(graph: AccessGraph) -> tuple[np.ndarray, np.ndarray]:
    """The graph's edges as parallel (u, v) = (pred[v], v) arrays, ordered by target v."""
    v = np.flatnonzero(graph.pred >= 0)
    return graph.pred[v], v


def assert_graph_invariants(graph: AccessGraph, edges=None) -> None:
    """Degree bounds and the edge-count identity every access graph must satisfy.

    edges, parallel (u, v) arrays, default to the graph's own
    (``edge_arrays``); a test of the checker hands in broken ones.  Linear in
    N: the range checks come first, so that an out-of-range index fails as an
    assertion and the degree counts can index by vertex.
    """
    u, v = edge_arrays(graph) if edges is None else edges
    assert len(u) == len(v)
    if len(v):
        assert int(v.max()) < graph.N and int(u.min()) >= 0
        assert (u < v).all()
    assert np.bincount(u, minlength=graph.N).max(initial=0) <= 1, "a vertex has outdegree > 1"
    assert np.bincount(v, minlength=graph.N).max(initial=0) <= 1, "a vertex has indegree > 1"
    distinct = np.count_nonzero(np.bincount(graph.trace.addrs))  # linear in N and the top address; no sort
    assert len(v) == graph.N - distinct


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
    widened to N without moving its cut.  Ends are tried one at a time: the
    window's crossing counts are kept per cut, and the vertex e - 1 that
    joins adds its edge, from the last earlier probe of its address in the
    window, to every cut it spans.
    """
    n = len(addrs)
    boundaries = [0]
    b = 0
    for _ in range(k):
        crossing = [0]  # crossing[m - b]: edges of the window [b, e) over cut m
        close = None
        for e in range(b + 1, n + 1):
            v = e - 1
            u = next((i for i in range(v - 1, b - 1, -1) if addrs[i] == addrs[v]), None)
            crossing.append(0)
            if u is not None:
                for m in range(u + 1, v + 1):
                    crossing[m - b] += 1
            m = next((m for m, count in enumerate(crossing) if count >= threshold), None)
            if m is not None:
                close = (b + m, e)
                break
        if close is None:
            return None
        boundaries.extend(close)
        b = close[1]
    boundaries[-1] = n
    return tuple(boundaries)


BRUTE_FORCE_CAP = 18


@functools.lru_cache(maxsize=16)
def _crossing_table(addrs: tuple[int, ...]) -> list[list[list[int]]]:
    """table[b][m][e] = #edges (u, v) with b <= u < m <= v < e of the access graph of addrs.

    The edges come from addrs by a plain loop over consecutive occurrences, not from
    the library, so the oracle shares no edge derivation with the greedy.  Cached by
    addresses: the oracle is asked about one graph at several (k, ell) in a row.
    """
    n = len(addrs)
    table = [[[0] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    last: dict[int, int] = {}
    for v, a in enumerate(addrs):
        u = last.get(a)
        last[a] = v
        if u is None:
            continue
        for b in range(u + 1):
            for m in range(u + 1, v + 1):
                row = table[b][m]
                for e in range(v + 1, n + 1):
                    row[e] += 1
    return table


def brute_force_dense_partition(graph: AccessGraph, k: int, ell) -> Partition | None:
    """Exhaustive oracle over all monotone boundary sequences (N <= 18).

    Independent of the greedy: it enumerates (m, e) choices per part directly
    over a crossing-count table of its own edges, memoizing only part starts
    already proven dead.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if graph.N > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at N <= {BRUTE_FORCE_CAP}, got N={graph.N}")
    ell = as_fraction(ell)
    n = graph.N
    if ell <= 0:
        return Partition((0,) * (2 * k) + (n,))
    need = math.ceil(ell)  # an integer count reaches ell exactly when it reaches ceil(ell)
    cross = _crossing_table(tuple(graph.trace.addrs.tolist()))

    dead: list[set[int]] = [set() for _ in range(k + 1)]

    def search(b: int, parts_left: int) -> list[int] | None:
        if parts_left == 0:
            return [] if b == n else None
        if b in dead[parts_left]:
            return None
        for e in range(b, n + 1):
            for m in range(b, e + 1):
                if cross[b][m][e] >= need:
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
    The column and ``contents`` readers answer as the server's do, and
    ``written_cells`` and ``last_write_ops`` read either server.
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


def reference_read_after_write(addrs, is_write, data, cells) -> tuple[list[int], list[int], list[int]]:
    """Probes one at a time, straight off the model: the oracle for ``server.read_after_write``.

    A dict maps each address written so far to the index of its latest
    write.  Returns what each probe sees (that write's data, else the cell),
    that write's index per probe (-1 for none), and the index of each written
    address's last write, in increasing order.
    """
    latest: dict[int, int] = {}
    got, source = [], []
    for i, (addr, write) in enumerate(zip(addrs, is_write)):
        if write:
            latest[addr] = i
        j = latest.get(addr, -1)
        source.append(j)
        got.append(data[j] if j >= 0 else cells[addr])
    return got, source, sorted(latest.values())


def written_cells(server) -> dict[int, int]:
    """Contents of every cell a probe wrote, of a ServerState or a ReferenceServer, as a fresh dict."""
    return _per_written_cell(server, 0)


def last_write_ops(server) -> dict[int, int]:
    """Op index of the last write to every written cell, of either server, as a fresh dict."""
    return _per_written_cell(server, 1)


def _per_written_cell(server, field: int) -> dict[int, int]:
    if isinstance(server, ReferenceServer):
        store = server.store
    else:
        writers = server.last_writers()  # entry a - 1 is address a, as in contents
        written = np.flatnonzero(writers != NO_WRITER)
        vals = server.contents(len(writers))[written]
        store = dict(zip((written + 1).tolist(), zip(vals.tolist(), writers[written].tolist())))
    return {addr: entry[field] for addr, entry in store.items() if entry[1] != NO_WRITER}


def reference_write_read_blocks(n: int, k: int, w: int, rng: random.Random):
    """The block workload op by op: the oracle for ``gen_write_read_blocks`` and ``BlockLayout``.

    Each write block draws rng.getrandbits(w) per op in op order, each read
    block re-reads addresses 1..ell, and write/read pairs at address 1 pad
    the ops to length n.  Returns the (is_write, addr, data) rows, each
    block's (ws, we, rs, re) op ranges as the walk meets them, and the index
    where the padding starts.
    """
    if n < 2 or n % 2 != 0:
        raise ModelViolationError(f"block workload needs even n >= 2, got {n}")
    if not 1 <= k <= n // 2:
        raise ModelViolationError(f"block count k={k} outside [1, {n // 2}]")
    ell = n // (2 * k)
    ops: list[tuple[bool, int, int]] = []
    blocks = []
    for _ in range(k):
        ws = len(ops)
        ops.extend(W(a, rng.getrandbits(w)) for a in range(1, ell + 1))
        rs = len(ops)
        ops.extend(R(a) for a in range(1, ell + 1))
        blocks.append((ws, rs, rs, len(ops)))
    pad_start = len(ops)
    while len(ops) < n:
        ops += [W(1, 0), R(1)]
    return tuple(ops), tuple(blocks), pad_start


def reference_block_shape(ops) -> tuple[int, int]:
    """``parse_block_shape`` op by op over (is_write, addr, data) rows, the same template matched."""
    ops = tuple(ops)
    n = len(ops)
    if n == 0 or n % 2:
        raise WorkloadShapeError("block workloads have positive even length")
    ell = 0
    while ell < n and ops[ell][0] and ops[ell][1] == ell + 1:
        ell += 1
    if ell == 0:
        raise WorkloadShapeError("sequence does not start with a write to address 1")
    k = pos = 0
    while pos + 2 * ell <= n:
        chunk = ops[pos : pos + 2 * ell]
        if all(o[0] and o[1] == j + 1 for j, o in enumerate(chunk[:ell])) and all(
            not o[0] and o[1] == j + 1 and o[2] == 0 for j, o in enumerate(chunk[ell:])
        ):
            k += 1
            pos += 2 * ell
        else:
            break
    if k == 0:
        raise WorkloadShapeError("no complete write/read block pair found")
    for j in range(pos, n, 2):
        (w_is_write, w_addr, w_data), (r_is_write, r_addr, _) = ops[j], ops[j + 1]
        if not (w_is_write and w_addr == 1 and w_data == 0 and not r_is_write and r_addr == 1):
            raise WorkloadShapeError(f"tail op pair at index {j} is not address-1 padding")
    return k, ell


def honest_scan_advance(server: ReferenceServer, M: int, y, start: int, stop: int) -> list[int]:
    """The linear scan straight off its definition over ops start..stop-1 of y.

    Each op reads every cell 1..M with one probe and writes it back, its own
    data in place of what it read at its address for a write; returns the
    answers of the reads.
    """
    answers = []
    for i, (is_write, addr, data) in enumerate(y.rows(start, stop), start):
        for j in range(1, M + 1):
            v = server.probe(0, j, 0, i)
            if j == addr:
                if is_write:
                    v = data
                else:
                    answers.append(v)
            server.probe(1, j, v, i)
    return answers


def plan_eviction(engine, leaf: int) -> list[list[tuple[int, int]]]:
    """Per level of leaf's path, the (addr, value) blocks that leave the tree engine's stash for it.

    Path ORAM's eviction as a plan: each stash block, in stash order, goes to
    the deepest non-full bucket at or above the level where its leaf's path
    leaves this one.
    """
    placement: list[list[tuple[int, int]]] = [[] for _ in range(engine.depth + 1)]
    for addr, val in list(engine.stash.items()):
        level = engine.depth - (leaf ^ engine.pos[addr - 1]).bit_length()
        while level >= 0 and len(placement[level]) == engine.Z:
            level -= 1
        if level >= 0:
            placement[level].append((addr, val))
            del engine.stash[addr]
    return placement


def honest_tree_advance(engine, server: ReferenceServer, y, start: int, stop: int) -> list[int]:
    """The tree engine straight off its definition over ops start..stop-1 of y, one probe at a time.

    For each op, engine's client state reads every slot on the op's path
    (moving owned blocks into the stash with the values it read), serves
    the op, remaps its address, plans the eviction and writes the path back
    slot by slot; it raises StashOverflowError after the write-back of an op
    that leaves the stash over its limit.  Returns the answers of the reads.
    """
    z, answers = engine.Z, []
    for i, (is_write, addr, data) in enumerate(y.rows(start, stop), start):
        leaf = engine.pos[addr - 1]
        buckets = [((engine.leaves + leaf) >> (engine.depth - level)) - 1 for level in range(engine.depth + 1)]
        slots = [b * z + s for b in buckets for s in range(z)]
        for slot in slots:
            v = server.probe(0, slot + 1, 0, i)
            owner, engine.slot_owner[slot] = engine.slot_owner[slot], None
            if owner is not None:
                engine.stash[owner] = v
        if is_write:
            engine.stash[addr] = data
        else:
            answers.append(engine.stash.setdefault(addr, 0))
        engine.pos[addr - 1] = engine.rng.randrange(engine.leaves)
        written = [0] * len(slots)
        for level, blocks in enumerate(plan_eviction(engine, leaf)):
            for s, (owner, val) in enumerate(blocks):
                engine.slot_owner[slots[level * z + s]] = owner
                written[level * z + s] = val
        for slot, v in zip(slots, written):
            server.probe(1, slot + 1, v, i)
        if len(engine.stash) > engine.STASH_LIMIT:
            raise StashOverflowError(
                f"stash holds {len(engine.stash)} blocks (> {engine.STASH_LIMIT}) after op {i}"
            )
    return answers


def reference_alice_encode(engine: str, config, y, layout, i: int, shared_seed: int) -> TransferMessage:
    """The transfer codec's sender running the whole read block in one ``advance``: the oracle for
    ``alice_encode``, which stops once no cell holds write-block data."""
    ws, we, rs, re = layout.block(i)
    machine = make_engine(engine, config, shared_seed, n=len(y))
    server = ServerState(config, record_meta=False)
    machine.advance(server, y, 0, we)
    snapshot = machine.export_state()
    mark = server.begin_meta()
    machine.advance(server, y, rs, re)
    srcs = server.read_src_column()
    hit = (server.kind_column() == 0) & (srcs >= ws) & (srcs < we)
    matched = tuple(zip(server.addr_column(mark)[hit].tolist(), server.data_column()[hit].tolist()))
    checksum = _data_checksum(block_data(y, layout, i))
    return TransferMessage(m=config.m, w=config.w, client_state=snapshot, matched=matched, checksum=checksum)


def op_key(is_write, addr: int, data: int) -> tuple[int, int, int]:
    """The length encoder's key of an op: writes before reads, then addr, then data."""
    return (0 if is_write else 1, addr, data)


def reference_comparand_keys(rng: random.Random, M: int, w: int, count: int) -> list[tuple[int, int, int]]:
    """The length encoder's first count comparands as drawn op by op, each mapped to its key.

    A comparand is a kind ('W' when a bit is 0, else 'R'), an address in
    [1, M] and w bits of data, drawn in that order; the order on ops puts
    W before R, then compares addr, then data.
    """
    keys = []
    for _ in range(count):
        kind = "W" if rng.getrandbits(1) == 0 else "R"
        addr = rng.randrange(M) + 1
        data = rng.getrandbits(w)
        keys.append((("W", "R").index(kind), addr, data))
    return keys


class ForcedEncoder(DummyLengthEncoder):
    """The length encoder with its comparands' keys given, in order, instead of drawn."""

    def __init__(self, config, comparands):
        super().__init__(config, random.Random(0))
        self._comparands = iter(comparands)

    def _draw_key(self):
        return next(self._comparands)


class ForcedLeaker(DummyLengthLeaker):
    """The length leaker for n ops with its draw (i, r) given instead of drawn."""

    def __init__(self, config, n: int, i: int, r: int):
        super().__init__(config, random.Random(0), n)
        self.i, self.r = i, r


def run_forced(engine, config, y) -> tuple[list[int], ServerState]:
    """``run_sequence`` for an engine built by the caller (say, with a forced draw).

    Makes the same length check of y against config, then runs all of y
    (``Engine.run``, which checks its ops) on a fresh server logging metadata;
    returns the answers and the server.
    """
    config.bind_workload_length(len(y))
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
    line is a base-10 address.  The header's n and m must be at least 0 and
    1, w must lie in [1, 63] and M in [1, 2^w], and unless n is 0, m^2 <= n <= M.
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
    n, m, M, w = (int(header[key]) for key in ("n", "m", "M", "w"))
    if n < 0 or m < 1 or not 1 <= w <= 63 or not 1 <= M <= 1 << w:
        raise ValueError(f"trace header has n={n}, m={m}, M={M}, w={w}: no run has it")
    if n and (m * m > n or n > M):
        raise ValueError(f"trace header has n={n}, m={m}, M={M}: no run has m^2 <= n <= M")
    out_of_range = ValueError(f"trace has an address outside [1, 2^{w}]")
    try:
        addr_array = np.asarray(addrs, dtype=np.int64)
    except OverflowError:
        raise out_of_range from None
    if len(addr_array) and not 1 <= int(addr_array.min()) <= int(addr_array.max()) <= 1 << w:
        raise out_of_range
    return TraceFile(
        engine=header["engine"],
        workload=header["workload"],
        n=n,
        m=m,
        M=M,
        w=w,
        seed=int(header["seed"]),
        addrs=addr_array,
        op_index=np.asarray(ops, dtype=np.int64) if saw_boundary else None,
    )


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

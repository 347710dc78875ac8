"""Trace files, graph exports, experiment reports and the output writer.

Trace files are line-oriented text: ``#key=value`` header lines in a fixed
order, then one decimal server address per line.  With boundary annotations
enabled, a ``#op <index>`` comment precedes each input op's probes (index -2
marks wrap-up probes after the last op); analyses must ignore those lines.
The format is documented in docs/formats.md and round-trips byte-exactly.
Reading rejects unknown engines, a header no run can have (one that
``OramConfig`` or ``bind_workload_length`` refuses) and addresses outside
[1, min(2^w, 2^63 - 1)], the range the server enforces on every probe as
far as an int64 holds it.  Both directions work in bulk, a block at a time,
and lay the header out from one key table.  ``read_trace`` reads the file
as one bytes object and parses it in blocks of whole lines, about
``_BLOCK`` bytes each, header included, into one int64 array of an entry a
line, allocated once, whose front the addresses fill in order.  In each
block every line of 1 to 18 digits is parsed in one numpy pass, and one
loop strips and classifies every other line once, as a blank, an ``#op``
mark, a header key or an address read through ``int()`` (a padded, signed
or underscored one).  The writer formats ``_BLOCK`` addresses at a time, as
``graph_export`` formats edges, and ``write_output``, the one writer of
every CLI output, writes each block as it is made and reads '-' as stdout:
an output is whole only once its command has exited 0.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from ._util import ModelViolationError, as_fraction, powers_of_4_up_to
from .core import OramConfig, WorkloadSpec, instantiate_workload
from .graph import AccessGraph
from .orams import ENGINE_NAMES, run_sequence
from .partition import CertificateError, certified_bound, certify, edge_lower_bound_from_certificate

TRACE_FORMAT = "oramlab-trace/1"
_HEADER_KEYS = ("format", "engine", "workload", "n", "m", "M", "w", "seed", "N")
_BLOCK = 1 << 16  # the numbers a writer formats, and the bytes the reader parses, at a time


@dataclass
class TraceFile:
    engine: str
    workload: str
    n: int
    m: int
    M: int
    w: int
    seed: int
    addrs: np.ndarray
    op_index: np.ndarray | None = None  # per-probe input-op index (debug only)

    @property
    def N(self) -> int:
        return len(self.addrs)


def run_trace(
    engine: str, config: OramConfig, spec: WorkloadSpec, seed: int, with_boundaries: bool = False
) -> TraceFile:
    """Run engine from seed on the workload spec names (a block spec without a seed takes seed)
    and keep its address log; the header's workload is the spec's rendering.

    with_boundaries also keeps each probe's input-op index, for ``#op`` lines.
    """
    y, _ = instantiate_workload(spec, config.w, default_seed=seed)
    _, server = run_sequence(engine, config, y, seed, record_meta=with_boundaries)
    return TraceFile(
        engine=engine,
        workload=spec.render(),
        n=len(y),
        m=config.m,
        M=config.M,
        w=config.w,
        seed=seed,
        addrs=server.addr_column(),
        op_index=server.op_column() if with_boundaries else None,
    )


def _decimal_lines(values: np.ndarray, terminators: bytes = b"\n") -> tuple[bytes, np.ndarray]:
    """Non-negative ints as decimal lines, and each line's end offset; line i ends in terminators[i % len(terminators)].

    Digits come from repeated division by 10 into an (N, W+1) byte matrix whose last
    column is the line's end; each row's leading zeros are masked off.  Callers pass
    at most ``_BLOCK`` values at a time.
    """
    values = np.asarray(values, dtype=np.int64)
    width = len(str(int(values.max()))) if len(values) else 1
    digits = np.empty((len(values), width + 1), dtype=np.uint8)
    cycles = -(-len(values) // len(terminators))  # np.tile: np.resize concatenates one array per copy
    digits[:, width] = np.tile(np.frombuffer(terminators, dtype=np.uint8), cycles)[: len(values)]
    rest = values.astype(np.uint32) if width <= 9 else values  # narrower words divide faster
    for col in range(width - 1, -1, -1):
        quot = rest // 10  # numpy divides by a constant without a division instruction; divmod does not
        digits[:, col] = rest - 10 * quot + ord("0")
        rest = quot
    lengths = np.searchsorted(10 ** np.arange(1, width), values, side="right") + 2
    keep = np.arange(width + 1) >= width + 1 - np.arange(width + 2)[:, None]  # row l keeps the last l bytes
    return digits[np.take(keep, lengths, axis=0)].tobytes(), np.cumsum(lengths)


def write_output(data: bytes | Iterable[bytes], path) -> None:
    """data, bytes or an iterable of byte blocks each written as it is made, to the file at path,
    or to stdout when path is '-' or unset (None or empty)."""
    blocks = (data,) if isinstance(data, bytes) else data
    if not path or path == "-":
        sys.stdout.writelines(block.decode("ascii") for block in blocks)
    else:
        with open(path, "wb") as fh:
            fh.writelines(blocks)


def write_trace(tf: TraceFile, path) -> None:
    """tf as a trace file at path (stdout for '-'): the header, then the body a block of lines at a time.

    The file is open while its body is formatted, so a failure to format a block leaves
    the file cut at a block edge, short of the addresses its header's ``#N`` counts."""
    write_output(_trace_blocks(tf), path)


def _trace_blocks(tf: TraceFile) -> Iterator[bytes]:
    header = "".join(f"#{key}={TRACE_FORMAT if key == 'format' else getattr(tf, key)}\n" for key in _HEADER_KEYS)
    yield header.encode("ascii")
    ops = tf.op_index
    for start in range(0, tf.N, _BLOCK):
        body, ends = _decimal_lines(tf.addrs[start : start + _BLOCK])
        if ops is None:
            yield body
            continue
        seg = ops[start : start + _BLOCK]
        # each op's first probe in the block; one that began in an earlier block has its mark there
        first = np.flatnonzero(np.r_[start == 0 or ops[start - 1] != seg[0], seg[1:] != seg[:-1]])
        cuts = np.append(0, ends)[first].tolist() + [len(body)]
        marks = (b"#op %d\n" % op for op in seg[first].tolist())
        yield body[: cuts[0]] + b"".join(mark + body[a:b] for mark, a, b in zip(marks, cuts, cuts[1:]))


def graph_export(tf: TraceFile, fmt: str) -> Iterator[bytes]:
    """The access graph of tf's addresses in byte blocks, one edge (pred[v], v) a line in increasing target
    order v: ``u v`` lines for fmt "edges", ``  u -> v;`` lines inside ``digraph access { }`` for "dot"."""
    pred = AccessGraph(tf.addrs).pred
    if fmt == "dot":
        yield b"digraph access {\n"
    edges, targets = 0, -(-_BLOCK // 2)  # a block formats _BLOCK numbers, two an edge
    for start in range(0, len(pred), targets):
        v = start + np.flatnonzero(pred[start : start + targets] >= 0)
        edges += len(v)
        pairs, _ = _decimal_lines(np.column_stack((pred[v], v)).ravel(), b" \n")
        if fmt == "dot":  # every line indented: the indent after the last one is cut off
            pairs = (b"  " + pairs.replace(b" ", b" -> ").replace(b"\n", b";\n  "))[:-2]
        yield pairs
    if fmt == "dot":
        yield b"}\n"
    elif not edges:
        yield b"\n"


def _digit_lines(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per line of buf, ASCII bytes that end in a line end: where it ends, its width, whether it is
    1 to 18 digits and nothing else (18 digits always fit in int64), and that line's value (else 0)."""
    ends = np.flatnonzero(buf == ord("\n"))
    widths = np.diff(ends, prepend=-1) - 1  # a line starts at its end minus its width
    is_digits = (widths > 0) & (widths <= 18)
    is_digits[np.searchsorted(ends, np.flatnonzero((buf - ord("0") >= 10) & (buf != ord("\n"))))] = False
    values = np.zeros(len(ends), dtype=np.int64)
    for width in np.flatnonzero(np.bincount(widths[is_digits])).tolist():
        rows = is_digits & (widths == width)
        pos = ends[rows]
        pos -= width
        acc = buf[pos].astype(np.int64)
        for _ in range(width - 1):
            pos += 1
            acc *= 10
            acc += buf[pos]
        values[rows] = acc - ord("0") * (10**width - 1) // 9  # each digit byte carried ord("0") along
    return ends, widths, is_digits, values


def read_trace(path) -> TraceFile:
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii():
        raise ValueError("trace file holds a byte outside ASCII")
    if b"\r" in raw:  # universal newlines
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if raw and not raw.endswith(b"\n"):
        raw += b"\n"
    values = np.empty(raw.count(b"\n"), dtype=np.int64)  # the addresses fill its front, in order
    n_addrs = 0
    keys: list[str] = []
    header: dict[str, str] = {}
    marks: list[tuple[int, str]] = []  # (addresses before it, #op index)
    texts: list[tuple[int, str]] = []  # (address index, an address not parsed in bulk)
    start = 0
    while start < len(raw):
        # a block of whole lines: to the last line end within _BLOCK bytes, or to the first one after
        stop = raw.rfind(b"\n", start, start + _BLOCK) + 1 or raw.index(b"\n", start) + 1
        ends, widths, is_addr, block = _digit_lines(np.frombuffer(raw, np.uint8, stop - start, start))
        ends += start
        # the block's first address line, or -1 once an earlier block held one
        first = -1 if n_addrs else int(np.argmax(is_addr)) if is_addr.any() else len(ends)
        n_marks, n_texts = len(marks), len(texts)
        others = np.flatnonzero(~is_addr & (widths > 0))  # read one at a time: marks, header keys, int() addresses
        for i, end, width in zip(others.tolist(), ends[others].tolist(), widths[others].tolist()):
            line = raw[end - width : end].decode("ascii").strip()
            if line and not line.startswith("#"):
                texts.append((i, line))
                is_addr[i] = True
                first = min(first, i)
            elif line.startswith("#op "):
                marks.append((i, line[4:]))
            elif line:
                if i > first:
                    raise ValueError(f"trace header line {line!r} after the first address")
                key, _, val = line[1:].partition("=")
                keys.append(key)
                header[key] = val
        if len(marks) > n_marks or len(texts) > n_texts:  # the block's line indexes become address counts
            upto = np.cumsum(is_addr) + n_addrs  # the addresses up to each line, that line included
            marks[n_marks:] = [(int(upto[i]), op) for i, op in marks[n_marks:]]
            texts[n_texts:] = [(int(upto[i]) - 1, text) for i, text in texts[n_texts:]]
        kept = block[is_addr]
        values[n_addrs : n_addrs + len(kept)] = kept
        n_addrs += len(kept)
        start = stop
    if keys != list(_HEADER_KEYS):
        raise ValueError(f"trace header keys {keys} are not exactly {list(_HEADER_KEYS)} in that order")
    if header["format"] != TRACE_FORMAT:
        raise ValueError(f"unsupported trace format {header['format']!r}")
    if int(header["N"]) != n_addrs:
        raise ValueError(f"header says N={header['N']} but body has {n_addrs} addresses")
    if header["engine"] not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {header['engine']!r} in trace header")
    n, m, M, w = (int(header[key]) for key in ("n", "m", "M", "w"))
    try:  # the header must be one a run can have; a malformed file stays a usage error
        OramConfig(m, M, w).bind_workload_length(n)
    except ModelViolationError as exc:
        raise ValueError(f"trace header fits no run: {exc}") from None
    top = f"2^{w}" if w < 63 else "2^63 - 1"  # an int64 holds no more
    out_of_range = ValueError(f"trace has an address outside [1, {top}]")
    op_index = None
    if marks:  # an address takes the index of the last #op line before it, else -1
        try:
            ops = np.array([mark for _, mark in marks], dtype=np.int64)
        except OverflowError:
            raise ValueError("trace has an #op index outside int64") from None
        starts = [at for at, _ in marks]
        op_index = np.repeat(np.append(-1, ops), np.diff(starts, prepend=0, append=n_addrs))
    try:
        values[[at for at, _ in texts]] = np.array([text for _, text in texts], dtype=np.int64)
    except OverflowError:
        raise out_of_range from None
    addr_array = values[:n_addrs]
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
        op_index=op_index,
    )


def default_analysis_params(n: int, m: int) -> tuple[int, int]:
    """Family threshold and part-count ceiling for the certified bound report:
    ell = floor(n/5) and k_max = floor(n / (10 (m + 2 log2 n + 11))), at least 1."""
    if n < 1:
        return 0, 1
    ell = n // 5
    k_max = int(n / (10 * (m + 2 * math.log2(n) + 11)))
    return ell, max(k_max, 1)


@dataclass
class ExperimentReport:
    """Certified-bound report for one trace.

    certified_probe_bound equals the certified edge bound: every vertex of an
    access graph has indegree at most one, so a trace always has at least as
    many probes as its graph has edges.  The constructor refuses reports that
    violate bound <= measured probes; that invariant is load-bearing.
    """

    engine: str
    workload: str
    n: int
    m: int
    M: int
    w: int
    seed: int
    measured_probes: int
    ell: Fraction
    k_max: int
    per_k: list[dict] = field(default_factory=list)
    certified_edge_bound: int = 0
    certified_probe_bound: int = 0
    overhead_ratio: float = 0.0
    deviations: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.certified_probe_bound > self.measured_probes:
            raise CertificateError(
                f"certified bound {self.certified_probe_bound} exceeds measured probes "
                f"{self.measured_probes}; the certificate audit is broken"
            )

    def as_dict(self) -> dict:
        return {**asdict(self), "ell": str(self.ell)}

    def csv_rows(self) -> list[str]:
        rows = ["k,ell_over_k,found,bound_cumulative"]
        rows.extend(
            f"{row['k']},{row['ell_over_k']},{str(row['found']).lower()},{row['bound_cumulative']}"
            for row in self.per_k
        )
        return rows


_ENGINE_DEVIATIONS = {
    "tree": [
        "tree engine keeps its position map and slot directory in client memory, "
        "beyond the m-cell budget"
    ],
}


def analyze_trace(tf: TraceFile, ell=None, k_max: int | None = None) -> ExperimentReport:
    """Build the access graph, certify dense partitions at powers of 4, and
    emit the certified probe-count bound."""
    default_ell, default_kmax = default_analysis_params(tf.n, tf.m)
    ell = as_fraction(ell) if ell is not None else Fraction(default_ell)
    k_max = k_max if k_max is not None else default_kmax
    graph = AccessGraph(tf.addrs)
    cert = certify(graph, ell, k_max)
    bound = edge_lower_bound_from_certificate(cert)
    per_k = []
    found_so_far = 0
    for k in powers_of_4_up_to(k_max):
        found = k in cert.witnessed
        found_so_far += 1 if found else 0
        per_k.append(
            {
                "k": k,
                "ell_over_k": str(ell / k),
                "found": found,
                "bound_cumulative": certified_bound(ell, found_so_far),
            }
        )
    return ExperimentReport(
        engine=tf.engine,
        workload=tf.workload,
        n=tf.n,
        m=tf.m,
        M=tf.M,
        w=tf.w,
        seed=tf.seed,
        measured_probes=tf.N,
        ell=ell,
        k_max=k_max,
        per_k=per_k,
        certified_edge_bound=bound,
        certified_probe_bound=bound,
        overhead_ratio=(tf.N / tf.n) if tf.n else 0.0,
        deviations=list(_ENGINE_DEVIATIONS.get(tf.engine, [])),
    )

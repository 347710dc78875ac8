"""Trace files and experiment reports.

Trace files are line-oriented text: ``#key=value`` header lines in a fixed
order, then one decimal server address per line.  With boundary annotations
enabled, a ``#op <index>`` comment precedes each input op's probes (index -2
marks wrap-up probes after the last op); analyses must ignore those lines.
The format is documented in docs/formats.md and round-trips byte-exactly.
Reading rejects unknown engines, n < 0, m < 1, w < 1 and addresses outside
[1, 2^w], the range the server enforces on every probe.  Both directions
work in bulk: the reader loops in Python over the header and the ``#op``
lines only and parses every address in one numpy call, and the writer
formats them all in one numpy pass.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import compress

import numpy as np

from ._util import as_fraction, powers_of_4_up_to
from .core import InputSequence, OramConfig
from .graph import AccessGraph
from .orams import ENGINE_NAMES, run_sequence
from .partition import CertificateError, certified_bound, certify, edge_lower_bound_from_certificate

TRACE_FORMAT = "oramlab-trace/1"
_HEADER_KEYS = ("format", "engine", "workload", "n", "m", "M", "w", "seed", "N")


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
    engine: str, config: OramConfig, y: InputSequence, seed: int, workload: str, with_boundaries: bool = False
) -> TraceFile:
    """Run engine on y from seed and keep its address log; workload is the header's spec string.

    with_boundaries also keeps each probe's input-op index, for ``#op`` lines.
    """
    _, server = run_sequence(engine, config, y, seed, record_meta=with_boundaries)
    return TraceFile(
        engine=engine,
        workload=workload,
        n=len(y),
        m=config.m,
        M=config.M,
        w=config.w,
        seed=seed,
        addrs=server.addr_column(),
        op_index=server.op_column() if with_boundaries else None,
    )


def _decimal_lines(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Non-negative ints as newline-ended decimal lines, and each line's end offset.

    Digits come from repeated divmod into an (N, W+1) byte matrix whose last
    column is the newline; each row's leading zeros are masked off.
    """
    values = np.asarray(values, dtype=np.int64)
    width = len(str(int(values.max()))) if len(values) else 1
    digits = np.full((len(values), width + 1), ord("\n"), dtype=np.uint8)
    rest = values
    for col in range(width - 1, -1, -1):
        rest, digit = np.divmod(rest, 10)
        digits[:, col] = digit + ord("0")
    lengths = np.searchsorted(10 ** np.arange(1, width), values, side="right") + 2
    keep = np.arange(width + 1) >= width + 1 - lengths[:, None]
    return digits[keep].tobytes(), np.cumsum(lengths)


def write_trace(tf: TraceFile, path) -> None:
    header = (
        f"#format={TRACE_FORMAT}\n#engine={tf.engine}\n#workload={tf.workload}\n"
        f"#n={tf.n}\n#m={tf.m}\n#M={tf.M}\n#w={tf.w}\n#seed={tf.seed}\n#N={tf.N}\n"
    )
    body, ends = _decimal_lines(tf.addrs)
    if tf.op_index is not None and len(ends):
        ops = tf.op_index
        first = np.flatnonzero(np.r_[True, ops[1:] != ops[:-1]])  # each op's first probe
        cuts = np.append(0, ends)[first].tolist() + [len(body)]
        marks = (b"#op %d\n" % op for op in ops[first].tolist())
        body = b"".join(mark + body[a:b] for mark, a, b in zip(marks, cuts, cuts[1:]))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + body)


def read_trace(path) -> TraceFile:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = list(filter(None, map(str.strip, text.split("\n"))))
    h = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    keys: list[str] = []
    header: dict[str, str] = {}
    marks: list[str] = []
    for line in lines[:h]:
        if line.startswith("#op "):
            marks.append(line)
        else:
            key, _, val = line[1:].partition("=")
            keys.append(key)
            header[key] = val
    starts = [0] * len(marks)  # addresses before each #op line
    body = lines[h:]
    if text.count("#") > h:  # only then does the body hold a '#'
        is_mark = np.array(body, dtype="U1") == "#"
        at = np.flatnonzero(is_mark)
        marks += [body[i] for i in at.tolist()]
        starts += (at - np.arange(len(at))).tolist()
        body = list(compress(body, (~is_mark).tolist()))
        stray = next((line for line in marks if not line.startswith("#op ")), None)
        if stray:
            raise ValueError(f"trace header line {stray!r} after the first address")
    if keys != list(_HEADER_KEYS):
        raise ValueError(f"trace header keys {keys} are not exactly {list(_HEADER_KEYS)} in that order")
    if header["format"] != TRACE_FORMAT:
        raise ValueError(f"unsupported trace format {header['format']!r}")
    if int(header["N"]) != len(body):
        raise ValueError(f"header says N={header['N']} but body has {len(body)} addresses")
    if header["engine"] not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {header['engine']!r} in trace header")
    n, m, w = int(header["n"]), int(header["m"]), int(header["w"])
    if n < 0 or m < 1 or w < 1:
        raise ValueError(f"trace header has n={n}, m={m}, w={w}; need n >= 0, m >= 1 and w >= 1")
    out_of_range = ValueError(f"trace has an address outside [1, 2^{w}]")
    try:
        ops = np.array([line[4:] for line in marks], dtype=np.int64)
    except OverflowError:
        raise ValueError("trace has an #op index outside int64") from None
    try:
        addr_array = np.array(body, dtype=np.int64)
    except OverflowError:
        raise out_of_range from None
    # int64 addresses never exceed 2^63, so a wider w needs no upper check
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
        op_index=np.repeat(np.append(-1, ops), np.diff([0, *starts, len(body)])) if marks else None,
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

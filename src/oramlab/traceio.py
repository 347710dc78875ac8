"""Trace files and experiment reports.

Trace files are line-oriented text: ``#key=value`` header lines in a fixed
order, then one decimal server address per line.  With boundary annotations
enabled, a ``#op <index>`` comment precedes each input op's probes (index -2
marks wrap-up probes after the last op); analyses must ignore those lines.
The format is documented in docs/formats.md and round-trips byte-exactly.
Reading rejects unknown engines and addresses outside [1, 2^w], the range
the server enforces on every probe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._util import as_fraction, frac_ceil, powers_of_4_up_to
from .graph import AccessGraph, build_access_graph
from .orams import ENGINE_NAMES
from .partition import CertificateError, certify, edge_lower_bound_from_certificate

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


def write_trace(tf: TraceFile, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"#format={TRACE_FORMAT}\n")
        fh.write(f"#engine={tf.engine}\n")
        fh.write(f"#workload={tf.workload}\n")
        fh.write(f"#n={tf.n}\n#m={tf.m}\n#M={tf.M}\n#w={tf.w}\n#seed={tf.seed}\n")
        fh.write(f"#N={tf.N}\n")
        addrs = tf.addrs.tolist()
        if tf.op_index is None:
            fh.write("\n".join(map(str, addrs)))
            if addrs:
                fh.write("\n")
        else:
            ops = tf.op_index.tolist()
            prev = None
            out = []
            for a, o in zip(addrs, ops):
                if o != prev:
                    out.append(f"#op {o}")
                    prev = o
                out.append(str(a))
            if out:
                fh.write("\n".join(out))
                fh.write("\n")


def read_trace(path) -> TraceFile:
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
    # int64 addresses never exceed 2^63, so a wider w needs no upper check
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
        return {
            "engine": self.engine,
            "workload": self.workload,
            "n": self.n,
            "m": self.m,
            "M": self.M,
            "w": self.w,
            "seed": self.seed,
            "measured_probes": self.measured_probes,
            "ell": str(self.ell),
            "k_max": self.k_max,
            "per_k": self.per_k,
            "certified_edge_bound": self.certified_edge_bound,
            "certified_probe_bound": self.certified_probe_bound,
            "overhead_ratio": self.overhead_ratio,
            "deviations": self.deviations,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)

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
    graph: AccessGraph = build_access_graph(tf.addrs)
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
                "bound_cumulative": frac_ceil(ell / 2 * found_so_far) if found_so_far else 0,
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

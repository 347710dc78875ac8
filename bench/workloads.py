"""The benchmark's four workloads: oramlab CLI invocations and their output checks.

A workload is a list of items; an item is one ``oramlab.cli.main(argv)`` call.
All CLI seeds derive from the benchmark seed, so one seed fixes every input.
At ``DEFAULT_SEED`` each item's exit code and output digest must equal the
ones recorded from the unmodified code in ``reference.json``; on every seed the
invariant checks below must hold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 9000
NAMES = ("tree-report", "scan-frequency", "codec-roundtrip", "distinguish-small")

# tree engine: 2 * Z * (log2(n) + 1) probes per op with Z = 4 and M = n
TREE_N = 8192
TREE_PROBES = TREE_N * 2 * 4 * (TREE_N.bit_length())
SCAN_N = 4096
SCAN_TRIALS = 12
CODEC_N = 1024
CODEC_M = 32
CODEC_W = 32  # the CLI's default cell width
CODEC_REPEATS = 6
DIST_TRIALS = 500

SIZES = {
    "tree-report": {"engine": "tree", "n": TREE_N, "M": TREE_N, "m": 4, "k": 4, "probes": TREE_PROBES},
    "scan-frequency": {"engine": "linear-scan", "n": SCAN_N, "M": SCAN_N, "m": 4, "k": [1, 4],
                       "trials": SCAN_TRIALS, "probes_per_trial": 2 * SCAN_N * SCAN_N},
    "codec-roundtrip": {"engines": ["passthrough", "linear-scan", "tree"], "n": CODEC_N, "k": 2,
                        "m": CODEC_M, "runs_per_engine": CODEC_REPEATS},
    "distinguish-small": {"arms": [["passthrough", 200, 4], ["dummy-encoder", 200, 4], ["linear-scan", 40, 2]],
                          "trials": DIST_TRIALS, "m": 1},
}


@dataclass
class Item:
    """One CLI invocation.

    ``check`` gets the item's output (parsed JSON from stdout, or the path of
    ``output_file``) and returns a list of violated invariants.  The digest
    covers ``output_file`` when set, stdout otherwise.
    """

    argv: list[str]
    check: Callable[[object], list[str]]
    output_file: Path | None = None


def _expect(cond: bool, msg: str) -> list[str]:
    return [] if cond else [msg]


def _check_trace_file(seed: int) -> Callable[[Path], list[str]]:
    def check(path: Path) -> list[str]:
        with open(path, encoding="ascii") as fh:
            header = dict(fh.readline()[1:].rstrip("\n").partition("=")[::2] for _ in range(9))
        return (
            _expect(header.get("engine") == "tree", f"trace engine {header.get('engine')!r}")
            + _expect(header.get("seed") == str(seed), f"trace seed {header.get('seed')!r}")
            + _expect(header.get("N") == str(TREE_PROBES), f"trace N {header.get('N')!r}")
        )

    return check


def _check_report(report: dict) -> list[str]:
    return (
        _expect(report["measured_probes"] == TREE_PROBES, f"measured_probes {report['measured_probes']}")
        + _expect(
            report["certified_probe_bound"] <= report["measured_probes"],
            f"certified bound {report['certified_probe_bound']} exceeds measured probes",
        )
        + _expect([row["k"] for row in report["per_k"]] == [1, 4, 16], f"per_k {report['per_k']}")
    )


def _check_frequency(out: dict) -> list[str]:
    return _expect(out["frequency_exact"] == "1", f"frequency_exact {out['frequency_exact']!r}")


def _check_codec(out: dict) -> list[str]:
    bits = CODEC_M * CODEC_W + 2 * CODEC_W * out["matched_probes"]
    return _expect(out["round_trip"] is True, "round_trip is not true") + _expect(
        out["bit_length"] == bits, f"bit_length {out['bit_length']} != m*w + 2*w*matched = {bits}"
    )


def _check_advantage(oblivious: bool) -> Callable[[dict], list[str]]:
    def check(out: dict) -> list[str]:
        if oblivious:
            return _expect(out["advantage"] == 0, f"oblivious engine advantage {out['advantage']}")
        return _expect(out["advantage"] >= 0.10, f"leaky engine advantage {out['advantage']} < 0.10")

    return check


def build(name: str, seed: int, workdir: Path) -> list[Item]:
    """The items of workload ``name`` for benchmark seed ``seed``."""
    if name == "tree-report":
        trace = workdir / "tree.trace"
        return [
            Item(["trace", "--engine", "tree", "--workload", f"blocks:n={TREE_N},k=4", "--m", "4",
                  "--seed", str(seed), "--out", str(trace)], _check_trace_file(seed), output_file=trace),
            Item(["analyze", "--trace", str(trace)], _check_report),
        ]
    if name == "scan-frequency":
        return [
            Item(["frequency", "--engine", "linear-scan", "--n", str(SCAN_N), "--M", str(SCAN_N), "--m", "4",
                  "--trials", str(SCAN_TRIALS), "--k", str(k), "--seed", str(seed)], _check_frequency)
            for k in (1, 4)
        ]
    if name == "codec-roundtrip":
        return [
            Item(["codec", "--engine", engine, "--n", str(CODEC_N), "--k", "2", "--m", str(CODEC_M),
                  "--i", str(1 + j % 2), "--seed", str(seed + j)], _check_codec)
            for engine in SIZES["codec-roundtrip"]["engines"]
            for j in range(CODEC_REPEATS)
        ]
    if name == "distinguish-small":
        return [
            Item(["distinguish", "--engine", engine, "--y", f"alt:n={n}", "--yprime", f"blocks:n={n},k={k}",
                  "--trials", str(DIST_TRIALS), "--m", "1", "--seed", str(seed)],
                 _check_advantage(engine == "linear-scan"))
            for engine, n, k in SIZES["distinguish-small"]["arms"]
        ]
    raise ValueError(f"unknown workload {name!r}")


def check_output(item: Item, stdout: str) -> list[str]:
    """Invariant problems of one item's output; unparsable output is one."""
    if item.output_file is not None:
        return item.check(item.output_file)
    try:
        parsed = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"stdout is not JSON: {stdout[:200]!r}"]
    try:
        return item.check(parsed)
    except (KeyError, TypeError) as exc:
        return [f"output lacks a checked field: {exc!r}"]

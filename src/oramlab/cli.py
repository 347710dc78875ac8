"""Experiment driver CLI.

Subcommands: trace, analyze, distinguish, frequency, codec, report,
graph-export.  Every randomized command needs an explicit seed, either
--seed or the ORAMLAB_SEED environment variable; there is no ambient
entropy anywhere, so any output can be regenerated bit for bit.

Exit codes: 0 success, 1 usage error (including malformed trace files),
2 model violation (including engine and audit failures), 3 I/O or resource error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from ._util import ModelViolationError, as_fraction
from .adversary import dense_partition_frequency, estimate_advantage
from .codec import DecodeError, alice_encode, block_data, bob_decode
from .core import WORKLOAD_FAMILIES, OramConfig, WorkloadSpec, instantiate_workload, parse_workload_spec
from .orams import ENGINE_NAMES, StashOverflowError
from .partition import CertificateError
from .traceio import TraceFile, analyze_trace, graph_export, read_trace, run_trace, write_output, write_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODEL = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; the contract says 1
        raise _UsageError(message)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", required=True, choices=ENGINE_NAMES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--m", type=int, default=1, help="client memory cells (default 1)")
    p.add_argument("--M", type=int, default=None, help="logical address range (default: workload length)")
    p.add_argument("--w", type=int, default=32, help="cell width in bits (default 32)")


def _at_least(low, parse):
    def check(text: str):  # an argparse type: parse(text), refused below low
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    return check


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ORAMLAB_SEED")
    if env is None:
        raise _UsageError("a seed is required: pass --seed or set ORAMLAB_SEED")
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"ORAMLAB_SEED must be an integer, got {env!r}") from None


def _config_for(args, n: int) -> OramConfig:
    M = args.M if args.M is not None else max(n, 1)
    config = OramConfig(m=args.m, M=M, w=args.w)
    config.bind_workload_length(n)  # refused before any workload is built
    return config


def _emit(payload: dict, path: str | None) -> None:
    write_output((json.dumps(payload, indent=2) + "\n").encode("ascii"), path)


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared after it: parse_args leaves it unchanged."""
    top = _Parser(prog="oramlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="run an engine on a workload and write the trace file")
    _add_run_flags(p)
    p.add_argument("--workload", required=True, help="alt:n=<N> or blocks:n=<N>,k=<K>[,seed=<S>]")
    p.add_argument("--out", required=True)
    p.add_argument("--with-boundaries", action="store_true", help="annotate op boundaries (debug)")

    p = sub.add_parser("analyze", help="certified edge/probe lower bound of a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--ell", type=_at_least(0, as_fraction), default=None,
                   help="density family threshold (rational >= 0, e.g. 64/5)")
    p.add_argument("--k-max", type=_at_least(1, int), default=None)
    p.add_argument("--json", dest="json_out", default=None, help="report path ('-' for stdout)")
    p.add_argument("--csv", dest="csv_out", default=None, help="per-k verdict CSV path ('-' for stdout)")

    p = sub.add_parser("distinguish", help="estimate the dense-partition distinguisher's advantage")
    _add_run_flags(p)
    p.add_argument("--y", required=True, help="first workload spec")
    p.add_argument("--yprime", required=True, help="second workload spec (block-shaped)")
    p.add_argument("--trials", type=_at_least(1, int), required=True)
    p.add_argument("--jobs", type=_at_least(1, int), default=1, help="worker processes, at least 1")
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("frequency", help="dense-partition frequency over fresh block workloads")
    _add_run_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=_at_least(1, int), required=True)
    p.add_argument("--trials", type=_at_least(1, int), required=True)
    p.add_argument("--family", choices=WORKLOAD_FAMILIES, default="blocks")
    p.add_argument("--jobs", type=_at_least(1, int), default=1, help="worker processes, at least 1")
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("codec", help="round-trip the two-party transfer codec on one block")
    _add_run_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i", type=int, required=True, help="block index, 1-based")
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("report", help="run + analyze in one step")
    _add_run_flags(p)
    p.add_argument("--workload", required=True)
    p.add_argument("--ell", type=_at_least(0, as_fraction), default=None)
    p.add_argument("--k-max", type=_at_least(1, int), default=None)
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("graph-export", help="export a trace's access graph")
    p.add_argument("--trace", required=True)
    p.add_argument("--format", choices=("dot", "edges"), default="edges")
    p.add_argument("--out", default=None, help="output path ('-' or none for stdout)")

    return top


def _run_workload(args, with_boundaries: bool = False) -> TraceFile:
    spec = parse_workload_spec(args.workload)
    return run_trace(args.engine, _config_for(args, spec.n), spec, args.seed, with_boundaries)


def _cmd_trace(args) -> int:
    write_trace(_run_workload(args, args.with_boundaries), args.out)
    return EXIT_OK


def _report_payload(tf: TraceFile, args) -> int:
    """Certify tf at the flags' --ell and --k-max and emit the report."""
    report = analyze_trace(tf, ell=args.ell, k_max=args.k_max)
    _emit(report.as_dict(), args.json_out)
    if getattr(args, "csv_out", None) is not None:
        write_output(("\n".join(report.csv_rows()) + "\n").encode("ascii"), args.csv_out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    return _report_payload(read_trace(args.trace), args)


def _cmd_distinguish(args) -> int:
    spec_y = parse_workload_spec(args.y)
    spec_yp = parse_workload_spec(args.yprime)
    if spec_y.n != spec_yp.n:
        raise _UsageError("the two workloads must have equal length")
    config = _config_for(args, spec_y.n)
    y, _ = instantiate_workload(spec_y, config.w, default_seed=args.seed)
    y_prime, _ = instantiate_workload(spec_yp, config.w, default_seed=args.seed + 1)
    est = estimate_advantage(args.engine, config, y, y_prime, args.trials, args.seed, jobs=args.jobs)
    _emit(est.as_dict(), args.json_out)
    return EXIT_OK


def _cmd_frequency(args) -> int:
    config = _config_for(args, args.n)
    freq = dense_partition_frequency(
        args.engine, config, args.n, args.k, args.trials, args.seed, family=args.family, jobs=args.jobs
    )
    _emit(
        {
            "engine": args.engine,
            "n": args.n,
            "k": args.k,
            "trials": args.trials,
            "family": args.family,
            "frequency": float(freq),
            "frequency_exact": str(freq),
        },
        args.json_out,
    )
    return EXIT_OK


def _cmd_codec(args) -> int:
    config = _config_for(args, args.n)
    y, layout = instantiate_workload(WorkloadSpec("blocks", args.n, args.k, args.seed), config.w)
    msg = alice_encode(args.engine, config, y, layout, args.i, shared_seed=args.seed)
    recovered = bob_decode(msg, args.engine, config, y, layout, args.i, shared_seed=args.seed)
    hidden = block_data(y, layout, args.i)
    _emit(
        {
            "engine": args.engine,
            "n": args.n,
            "k": args.k,
            "i": args.i,
            "round_trip": recovered == hidden,
            "matched_probes": len(msg.matched),
            "bit_length": msg.bit_length,
        },
        args.json_out,
    )
    return EXIT_OK


def _cmd_report(args) -> int:
    return _report_payload(_run_workload(args), args)


def _cmd_graph_export(args) -> int:
    write_output(graph_export(read_trace(args.trace), args.format), args.out)
    return EXIT_OK


_DISPATCH = {
    "trace": _cmd_trace,
    "analyze": _cmd_analyze,
    "distinguish": _cmd_distinguish,
    "frequency": _cmd_frequency,
    "codec": _cmd_codec,
    "report": _cmd_report,
    "graph-export": _cmd_graph_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "seed" in args:
            args.seed = _resolve_seed(args)
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"oramlab: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelViolationError, CertificateError, StashOverflowError, DecodeError) as exc:
        print(f"oramlab: model violation: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ValueError as exc:
        print(f"oramlab: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"oramlab: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("oramlab: resource error: out of memory", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Statements of oramlab that no CLI run executes.

Runs a fixed list of ``oramlab.cli.main`` argvs under ``sys.settrace``,
tracing only the files of the imported ``oramlab`` package (src/oramlab/),
and prints, per module, the statements inside functions that no argv
executed, leaving out ``raise`` statements.  A line such a run never
reaches serves no caller of the command line: a candidate for deletion, or
for a test that reaches it.  Module and class bodies run at import, before
tracing starts, so only statements inside functions are counted.

The list covers every subcommand on every engine at small sizes, then the
argv shapes of the benchmark's four workloads at reduced sizes.  Every run
that takes ``--jobs`` gets ``--jobs 1``: pool workers are not traced.

Usage:
    PYTHONPATH=src python scripts/traffic_lines.py
"""

import argparse
import ast
import contextlib
import io
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import oramlab
from oramlab import ENGINE_NAMES
from oramlab.cli import main as cli_main
from oramlab.core import WORKLOAD_FAMILIES

PACKAGE = Path(oramlab.__file__).resolve().parent


def traffic(tmp: str) -> list[list[str]]:
    """The fixed argv list; trace files and other outputs go under tmp."""
    runs = []
    for engine in ENGINE_NAMES:
        run, trace = ["--engine", engine, "--seed", "1"], f"{tmp}/{engine}.trace"
        runs += [
            ["trace", *run, "--workload", "blocks:n=16,k=2", "--out", trace, "--with-boundaries"],
            ["trace", *run, "--workload", "alt:n=16", "--out", f"{tmp}/alt.trace"],
            ["analyze", "--trace", trace, "--json", f"{tmp}/report.json", "--csv", "-"],
            ["report", *run, "--workload", "alt:n=16", "--k-max", "4"],
            ["distinguish", *run, "--y", "alt:n=16", "--yprime", "blocks:n=16,k=2", "--trials", "4", "--jobs", "1"],
            *(["frequency", *run, "--n", "16", "--k", "2", "--trials", "2", "--family", family, "--jobs", "1"]
              for family in WORKLOAD_FAMILIES),
            ["codec", *run, "--n", "16", "--k", "2", "--i", "2"],
            *(["graph-export", "--trace", trace, "--format", fmt] for fmt in ("edges", "dot")),
        ]
    seed, tree = "9000", f"{tmp}/tree-report.trace"
    runs += [
        ["trace", "--engine", "tree", "--workload", "blocks:n=256,k=4", "--m", "4", "--seed", seed, "--out", tree],
        ["analyze", "--trace", tree],
        *(["frequency", "--engine", "linear-scan", "--n", "256", "--M", "256", "--m", "4", "--trials", "3",
           "--k", k, "--seed", seed, "--jobs", "1"] for k in ("1", "4")),
        *(["codec", "--engine", engine, "--n", "64", "--k", "2", "--m", "8", "--i", i, "--seed", seed]
          for engine in ("passthrough", "linear-scan", "tree") for i in ("1", "2")),
        *(["distinguish", "--engine", engine, "--y", f"alt:n={n}", "--yprime", f"blocks:n={n},k={k}",
           "--trials", "20", "--m", "1", "--seed", seed, "--jobs", "1"]
          for engine, n, k in (("passthrough", 40, 4), ("dummy-encoder", 40, 4), ("linear-scan", 20, 2))),
    ]
    return runs


def run_traced(argvs: list[list[str]]) -> dict[str, set[int]]:
    """Run each argv through the CLI; per traced file, the lines executed.  Raises if a run exits nonzero."""
    hits: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    for argv in argvs:
        out, err, before = io.StringIO(), io.StringIO(), sys.gettrace()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            sys.settrace(calls)
            try:
                code = cli_main(argv)
            finally:
                sys.settrace(before)
        if code:
            raise RuntimeError(f"oramlab {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return hits


def _own_lines(node: ast.stmt) -> set[int]:
    """The lines of node that no statement nested in it covers."""
    lines = set(range(node.lineno, node.end_lineno + 1))
    for child in _nested(node):
        lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def _nested(node: ast.AST) -> list[ast.stmt]:
    """The statements directly nested in node: in its bodies and its exception handlers."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            found.append(child)
        elif isinstance(child, ast.excepthandler):
            found += _nested(child)
    return found


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _missed(body: list[ast.stmt], hit: set[int], out: list[int]) -> bool:
    """Add to out the first lines of the statements in body, and nested in them, that no hit line
    executed (leaving out raise statements); returns whether any statement ran."""
    ran_any = False
    for at, node in enumerate(body):
        if at == 0 and _is_docstring(node):
            continue  # a function's docstring runs no code
        ran = bool(_own_lines(node) & hit)
        ran = _missed(_nested(node), hit, out) or ran  # a nested statement that ran means this one did
        if not ran and not isinstance(node, ast.Raise):
            out.append(node.lineno)
        ran_any = ran_any or ran
    return ran_any


def _functions(body: list[ast.stmt]):
    """The functions defined in a module or class body, and in the classes nested in it."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body)


def unexecuted(hits: dict[str, set[int]]) -> dict[str, tuple[int, list[int]]]:
    """Per module file name: how many statements are counted, and the first lines of those that no hit line executed."""
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        missed, counted = [], []
        for fn in _functions(ast.parse(path.read_text(), str(path)).body):
            _missed(fn.body, hits.get(str(path), set()), missed)
            _missed(fn.body, set(), counted)
        report[path.name] = (len(counted), sorted(missed))
    return report


def main() -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        argvs = traffic(tmp)
        report = unexecuted(run_traced(argvs))
    for name, (counted, missed) in report.items():
        print(f"{name}: {len(missed)} of {counted} statements not executed")
        lines = (PACKAGE / name).read_text().splitlines()
        for at in missed:
            print(f"  {at:5}  {lines[at - 1].strip()}")
    missed = sum(len(m) for _, m in report.values())
    print(f"{missed} of {sum(c for c, _ in report.values())} statements not executed by {len(argvs)} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Per-layer spans for a traced benchmark pass, recorded from outside oramlab.

``Tracer.install`` wraps oramlab's public functions under the names their
callers look them up by (modules import by name, so ``oramlab.cli.run_sequence``
and ``oramlab.adversary.run_sequence`` are patched separately), and wraps
``ServerState.probe``, ``AccessGraph.pred`` and every engine's ``step`` on the
class.  A name that no longer exists is skipped and its metrics read 0, so a
refactor of oramlab loses per-layer detail rather than breaking a traced run.

Spans are kept in memory.  A span's self time is its duration minus the time
of the traced spans and probe calls inside it, so the self times of all
layers add up to the traced wall time; every ``*_s`` layer metric is a self
time.  ``ServerState.probe`` is too hot for one span object per call: its time
and call count are accumulated and still subtracted from the enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

clock = time.perf_counter

ENGINES = ("tree", "linear-scan", "passthrough", "dummy-encoder")
GREEDY_KS = (1, 4, 16)

# (metric, unit) of the traced run, in report order
METRICS = (
    ("core.gen_s", "s"), ("core.ops", "count"),
    ("orams.run_s", "s"), *((f"orams.{e}.run_s", "s") for e in ENGINES),
    ("orams.probes", "count"), ("orams.probes_per_op", "probe/op"), ("orams.ns_per_probe", "ns"),
    ("server.scalar_probes", "count"), ("server.bulk_probes", "count"), ("server.probe_s", "s"),
    ("server.collect_s", "s"), ("server.log_bytes", "bytes"),
    ("graph.pred_s", "s"), ("graph.pred_builds", "count"), ("graph.edges", "count"),
    ("partition.greedy_s", "s"), *((f"partition.greedy.k{k}_s", "s") for k in GREEDY_KS),
    ("partition.greedy_calls", "count"), ("partition.found", "count"), ("partition.verify_s", "s"),
    ("adversary.trials", "count"), ("adversary.self_s", "s"),
    ("adversary.parse_shape_calls", "count"), ("adversary.parse_shape_s", "s"),
    ("codec.encode_s", "s"), ("codec.decode_s", "s"), ("codec.matched_probes", "count"), ("codec.bits", "bit"),
    ("traceio.write_s", "s"), ("traceio.read_s", "s"), ("traceio.file_bytes", "bytes"), ("traceio.analyze_s", "s"),
    ("cli.self_s", "s"),
)

# bytes per logged probe: the address column alone, or all five metadata columns
_LOG_BYTES = {False: 8, True: 5 * 8}


def _arg(fn, name):
    """Getter for argument ``name`` of a call to ``fn``, however it was passed."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments.get(name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, str, float, float, float]] = []  # name, parent, start, end, self
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.probe = [0.0, 0]  # seconds, calls of ServerState.probe
        self.engine_incl_s = 0.0  # inclusive time of engine runs and codec steps
        self._stack = [["root", 0.0, 0.0]]  # open spans: [name, start, child seconds]
        self._servers: list = []
        self._in_run = 0

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> list:
        frame = [name, clock(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> float:
        end = clock()
        duration = end - frame[1]
        self._stack.pop()
        parent = self._stack[-1]
        parent[2] += duration
        own = duration - frame[2]
        self.self_s[frame[0]] += own
        self.spans.append((frame[0], parent[0], frame[1], end, own))
        return duration

    def _harvest_servers(self) -> None:
        """Count the probes of every server created since the last harvest."""
        for server in self._servers:
            n = getattr(server, "probe_count", 0)
            self.counts["orams.probes"] += n
            self.counts["server.log_bytes"] += n * _LOG_BYTES[bool(getattr(server, "record_meta", True))]
        self._servers.clear()

    def wrap(self, fn, name, after=None, harvest=False, engine_run=False):
        """``fn`` inside a span; ``name`` is a string or a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.open(name(args, kwargs) if callable(name) else name)
            tracer._in_run += engine_run
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._in_run -= engine_run
                duration = tracer.close(frame)
                if harvest:
                    tracer._harvest_servers()
            if engine_run:
                tracer.engine_incl_s += duration
            if after is not None:
                try:
                    after(result, args, kwargs)
                except (AttributeError, KeyError, TypeError):
                    pass  # the counted value changed shape in oramlab; its count stays as it is
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        mods = {}
        for m in ("core", "orams", "server", "graph", "partition", "adversary", "traceio", "cli"):
            with contextlib.suppress(ImportError):
                mods[m] = importlib.import_module(f"oramlab.{m}")
        counts = self.counts

        def patch(modules, attr, name, **kw):
            for mod in modules:
                fn = getattr(mods.get(mod), attr, None)
                if fn is not None:
                    setattr(mods[mod], attr, self.wrap(fn, name, **kw))

        def count_ops(result, args, kwargs):
            counts["core.ops"] += len(result[0] if isinstance(result, tuple) else result)

        patch(("core", "cli", "adversary"), "gen_write_read_blocks", "core.gen", after=count_ops)
        patch(("core", "adversary"), "gen_alternating_sequence", "core.gen", after=count_ops)
        patch(("cli",), "instantiate_workload", "core.gen")

        run_sequence = getattr(mods.get("orams"), "run_sequence", None)
        if run_sequence is not None:
            kind, y = _arg(run_sequence, "kind"), _arg(run_sequence, "y")

            def count_run(result, args, kwargs):
                counts["orams.ops"] += len(y(args, kwargs))

            patch(("cli", "adversary"), "run_sequence", lambda a, kw: f"orams.{kind(a, kw)}",
                  after=count_run, harvest=True, engine_run=True)
        self._patch_engines(mods.get("orams"))
        self._patch_server(mods.get("server"))
        patch(("adversary",), "adversary_view", "server.collect")
        self._patch_pred(mods.get("graph"))

        greedy = getattr(mods.get("partition"), "greedy_dense_partition", None)
        if greedy is not None:
            k_of = _arg(greedy, "k")

            def count_found(result, args, kwargs):
                counts["partition.found"] += result is not None

            patch(("partition", "adversary"), "greedy_dense_partition",
                  lambda a, kw: f"partition.greedy.k{k_of(a, kw)}", after=count_found)
        patch(("traceio",), "certify", "partition.certify")
        patch(("traceio",), "edge_lower_bound_from_certificate", "partition.verify")

        def count_trials(fn):
            trials = _arg(fn, "trials")
            return lambda result, args, kwargs: counts.update({"adversary.trials": trials(args, kwargs)})

        for attr in ("estimate_advantage", "dense_partition_frequency"):
            fn = getattr(mods.get("adversary"), attr, None)
            if fn is not None:
                patch(("cli",), attr, "adversary", after=count_trials(fn))
        patch(("adversary",), "distinguish", "adversary")
        patch(("adversary",), "parse_block_shape", "adversary.parse_shape")

        def count_message(msg, args, kwargs):
            counts["codec.matched_probes"] += len(msg.matched)
            counts["codec.bits"] += msg.bit_length

        patch(("cli",), "alice_encode", "codec.encode", after=count_message, harvest=True)
        patch(("cli",), "bob_decode", "codec.decode", harvest=True)

        write_trace = getattr(mods.get("traceio"), "write_trace", None)
        if write_trace is not None:
            path = _arg(write_trace, "path")

            def count_file(result, args, kwargs):
                counts["traceio.file_bytes"] += os.path.getsize(path(args, kwargs))

            patch(("cli",), "write_trace", "traceio.write", after=count_file)
        patch(("cli",), "read_trace", "traceio.read")
        patch(("cli",), "analyze_trace", "traceio.analyze")

    def _patch_engines(self, orams) -> None:
        base = getattr(orams, "Engine", None)
        if base is None:
            return
        tracer = self
        for cls in [c for c in vars(orams).values() if isinstance(c, type) and issubclass(c, base)]:
            if cls is base or "step" not in vars(cls):
                continue
            orig = cls.step

            @functools.wraps(orig)
            def step(engine, *args, orig=orig, **kwargs):
                # inside run_sequence the run span already covers every step
                if tracer._in_run:
                    return orig(engine, *args, **kwargs)
                frame = tracer.open(f"orams.{engine.name}")
                try:
                    return orig(engine, *args, **kwargs)
                finally:
                    tracer.engine_incl_s += tracer.close(frame)
                    tracer.counts["orams.ops"] += 1

            cls.step = step

    def _patch_server(self, server_mod) -> None:
        cls = getattr(server_mod, "ServerState", None)
        if cls is None:
            return
        tracer = self
        orig_init = cls.__init__

        @functools.wraps(orig_init)
        def init(server, *args, **kwargs):
            orig_init(server, *args, **kwargs)
            tracer._servers.append(server)

        cls.__init__ = init
        if hasattr(cls, "addr_column"):
            cls.addr_column = self.wrap(cls.addr_column, "server.collect")
        if hasattr(cls, "probe"):
            orig_probe = cls.probe
            acc, stack = self.probe, self._stack

            @functools.wraps(orig_probe)
            def probe(server, *args, **kwargs):
                t0 = clock()
                result = orig_probe(server, *args, **kwargs)
                dt = clock() - t0
                acc[0] += dt
                acc[1] += 1
                stack[-1][2] += dt
                return result

            cls.probe = probe

    def _patch_pred(self, graph_mod) -> None:
        cls = getattr(graph_mod, "AccessGraph", None)
        prop = vars(cls).get("pred") if cls is not None else None
        if not isinstance(prop, property):
            return
        tracer, getter = self, prop.fget

        def pred(graph):
            # a cached array is returned without work; only builds are spans
            if getattr(graph, "_pred", None) is not None:
                return getter(graph)
            frame = tracer.open("graph.pred")
            try:
                result = getter(graph)
            finally:
                tracer.close(frame)
            tracer.counts["graph.pred_builds"] += 1
            tracer.counts["graph.edges"] += int(np.count_nonzero(np.asarray(result) >= 0))
            return result

        cls.pred = property(pred, doc=prop.__doc__)

    # -- results ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block; the benchmark puts one around each CLI call."""
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)
            self._harvest_servers()

    def exact_counts(self) -> dict[str, int]:
        """Every count the traced pass made; two passes of one seed must agree."""
        names = Counter(name for name, *_ in self.spans)
        return {**{f"spans.{k}": v for k, v in sorted(names.items())},
                **dict(sorted(self.counts.items())), "server.scalar_probes": self.probe[1]}

    def metrics(self) -> dict[str, float]:
        own, counts = self.self_s, self.counts
        spans = Counter(name for name, *_ in self.spans)
        probes, ops, scalar = counts["orams.probes"], counts["orams.ops"], self.probe[1]
        engine_s = {name[len("orams."):]: v for name, v in own.items() if name.startswith("orams.")}
        values = {
            "core.gen_s": own["core.gen"],
            "core.ops": counts["core.ops"],
            "orams.run_s": sum(engine_s.values()),
            **{f"orams.{e}.run_s": engine_s.get(e, 0.0) for e in ENGINES},
            "orams.probes": probes,
            "orams.probes_per_op": probes / ops if ops else 0.0,
            "orams.ns_per_probe": self.engine_incl_s / probes * 1e9 if probes else 0.0,
            "server.scalar_probes": scalar,
            "server.bulk_probes": probes - scalar,
            "server.probe_s": self.probe[0],
            "server.collect_s": own["server.collect"],
            "server.log_bytes": counts["server.log_bytes"],
            "graph.pred_s": own["graph.pred"],
            "graph.pred_builds": counts["graph.pred_builds"],
            "graph.edges": counts["graph.edges"],
            "partition.greedy_s": own["partition.certify"]
            + sum(v for name, v in own.items() if name.startswith("partition.greedy.")),
            **{f"partition.greedy.k{k}_s": own[f"partition.greedy.k{k}"] for k in GREEDY_KS},
            "partition.greedy_calls": sum(v for name, v in spans.items() if name.startswith("partition.greedy.")),
            "partition.found": counts["partition.found"],
            "partition.verify_s": own["partition.verify"],
            "adversary.trials": counts["adversary.trials"],
            "adversary.self_s": own["adversary"],
            "adversary.parse_shape_calls": spans["adversary.parse_shape"],
            "adversary.parse_shape_s": own["adversary.parse_shape"],
            "codec.encode_s": own["codec.encode"],
            "codec.decode_s": own["codec.decode"],
            "codec.matched_probes": counts["codec.matched_probes"],
            "codec.bits": counts["codec.bits"],
            "traceio.write_s": own["traceio.write"],
            "traceio.read_s": own["traceio.read"],
            "traceio.file_bytes": counts["traceio.file_bytes"],
            "traceio.analyze_s": own["traceio.analyze"],
            "cli.self_s": own["cli"],
        }
        return {name: values[name] for name, _ in METRICS}


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median of the times over traced passes; counts repeat, so the first pass's."""
    units = dict(METRICS)
    return {name: statistics.median(p[name] for p in passes) if units[name] in ("s", "ns") else value
            for name, value in passes[0].items()}

"""Span tracer and per-layer metrics for the ledger's traced run.

The traced run measures each layer from outside the program: it wraps
the public entry points listed in :data:`ENTRY_POINTS` (replacing the
module or class attribute the caller looks up) so that every call
records a span — name, start, duration, parent span, and the Table II
cell it ran for.  Spans stay in memory.  A forked worker process (the
campaign executor's and the fleet's cell workers) spools the spans it
recorded to a file when its entry point returns, so one traced pass
sees every process it started.

A span's self time is its duration minus the durations of its direct
children.  :func:`layer_metrics` turns the aggregated spans plus the
program's own deterministic work counters (``repro.obs`` Recorder)
into the per-layer numbers listed in :data:`PER_LAYER`.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

#: (module, attribute, span name).  The span name's prefix before the
#: dot is the layer; an attribute is ``function`` or ``Class.method``.
#: Where a caller binds a function under its own module's name, that
#: binding is wrapped too (``repro.service.executor.run_cell``).
ENTRY_POINTS = (
    ("repro.bombs.suite", "compile_sources", "lang.compile"),
    ("repro.vm.machine", "Machine.run", "vm.run"),
    ("repro.concolic.engine", "record_trace", "trace.record"),
    ("repro.concolic.engine", "ConcolicEngine.run", "concolic.run"),
    ("repro.concolic.replay", "TraceReplayer.replay", "concolic.replay"),
    ("repro.symex.explorer", "AngrEngine.explore", "symex.explore"),
    ("repro.symex.cache", "PathSolver.check", "symex.check"),
    ("repro.smt.solver", "Solver.check", "smt.check"),
    ("repro.smt.solver", "IncrementalSolver.check", "smt.check"),
    ("repro.smt.sat", "SatSolver.solve", "smt.sat"),
    ("repro.smt.intervals", "presolve_unsat", "smt.presolve"),
    ("repro.fuzz.engine", "CoverageFuzzer.execute", "fuzz.execute"),
    ("repro.fuzz.engine", "CoverageFuzzer.campaign", "fuzz.campaign"),
    ("repro.tools.api", "Tool.analyze_bomb", "tools.analyze"),
    ("repro.bombs.suite", "Bomb.triggers", "tools.validate"),
    ("repro.eval.harness", "run_cell", "eval.cell"),
    ("repro.service.executor", "run_cell", "eval.cell"),
    ("repro.service.store", "ResultStore.get", "service.store_get"),
    ("repro.service.store", "ResultStore.put", "service.store_put"),
    ("repro.service.store", "ResultStore.put_lift", "service.lift_put"),
)

#: Forked-process entry points whose spans are spooled when they return.
PROCESS_ENTRIES = (
    ("repro.service.executor", "_worker_main"),
    ("repro.service.fleet", "_worker_main"),
)

#: Every per-layer metric: (name, unit, better).  Units ``count``,
#: ``ratio`` (of two counts) and ``pct`` are deterministic work
#: measures; the rest are timings or derived from timings.
PER_LAYER = (
    ("lang.compile_s", "s", "lower"),
    ("lang.images", "count", "lower"),
    ("vm.run_calls", "count", "lower"),
    ("vm.run_self_s", "s", "lower"),
    ("vm.instructions", "count", "lower"),
    ("vm.instructions_per_s", "1/s", "higher"),
    ("trace.record_calls", "count", "lower"),
    ("trace.record_s", "s", "lower"),
    ("taint.instructions_tainted", "count", "lower"),
    ("ir.lift_instructions", "count", "lower"),
    ("ir.superblock_hit_ratio", "ratio", "higher"),
    ("concolic.run_s", "s", "lower"),
    ("concolic.replay_self_s", "s", "lower"),
    ("concolic.rounds", "count", "lower"),
    ("concolic.branches_negated", "count", "lower"),
    ("symex.explore_self_s", "s", "lower"),
    ("symex.steps", "count", "lower"),
    ("symex.states", "count", "lower"),
    ("symex.steps_per_s", "1/s", "higher"),
    ("symex.enum_hit_ratio", "ratio", "higher"),
    ("smt.queries", "count", "lower"),
    ("smt.check_self_s", "s", "lower"),
    ("smt.sat_s", "s", "lower"),
    ("smt.presolve_s", "s", "lower"),
    ("smt.gates", "count", "lower"),
    ("smt.conflicts", "count", "lower"),
    ("smt.gates_per_s", "1/s", "higher"),
    ("smt.conflicts_per_s", "1/s", "higher"),
    ("smt.query_p50_s", "s", "lower"),
    ("smt.query_tail_s", "s", "lower"),
    ("smt.query_tail_pct", "pct", "higher"),
    ("smt.error_frac", "ratio", "lower"),
    ("fuzz.executions", "count", "lower"),
    ("fuzz.execute_s", "s", "lower"),
    ("fuzz.execs_per_s", "1/s", "higher"),
    ("fuzz.corpus_yield", "ratio", "higher"),
    ("tools.validations", "count", "lower"),
    ("tools.validate_s", "s", "lower"),
    ("tools.fallback_execs", "count", "lower"),
    ("tools.claim_yield", "ratio", "higher"),
    ("eval.cell_s", "s", "lower"),
    ("eval.harness_s", "s", "lower"),
    ("service.store_puts", "count", "lower"),
    ("service.store_put_s", "s", "lower"),
    ("service.store_gets", "count", "lower"),
    ("service.store_get_s", "s", "lower"),
    ("service.cache_hits", "count", "higher"),
    ("service.cache_misses", "count", "lower"),
    ("service.lift_stores", "count", "lower"),
    ("service.slot_idle_frac", "fraction", "lower"),
    ("obs.trace_overhead_frac", "fraction", "lower"),
)


def tail_percentile(values, beyond: int = 10) -> tuple[int, float]:
    """The highest whole percentile with at least *beyond* samples above
    it, as ``(percentile, value)`` by the nearest-rank definition."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"{n} samples cannot leave {beyond} beyond a percentile")
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= beyond:
            return pct, ordered[rank - 1]
    raise AssertionError("unreachable: percentile 1 always leaves n-1 beyond")


class Tracer:
    """An in-memory span stack shared by every wrapped entry point.

    Spans are ``(name, start, duration, self, span_id, parent_id,
    cell, pid)`` tuples; ids are ``<pid hex>.<seq>`` so spans from
    forked workers never collide and a worker's first span names the
    parent process's span that was open when it forked as its parent.
    """

    def __init__(self, workload: str, spool: Path | None = None,
                 clock=time.perf_counter):
        self.workload = workload
        self.spool = spool
        self.clock = clock
        self.spans: list[tuple] = []
        self.cell: str | None = None
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._pid = os.getpid()
        self._seq = 0

    def wrap(self, fn, name: str, cell_of=None):
        """*fn* wrapped to record one span per call.  *cell_of* maps the
        call's arguments to a cell id that spans inside it carry."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            tracer._seq += 1
            frame = [f"{tracer._pid:x}.{tracer._seq}", 0.0]
            outer_cell = tracer.cell
            if cell_of is not None:
                tracer.cell = cell_of(*args, **kwargs)
            stack.append(frame)
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = tracer.clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((name, start, duration,
                                     duration - frame[1], frame[0], parent,
                                     tracer.cell, tracer._pid))
                tracer.cell = outer_cell

        return traced

    def wrap_process(self, fn):
        """*fn* as a forked process's entry point: it keeps only the
        spans recorded in this process and spools them when it returns."""
        tracer = self

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            tracer.spans = []
            tracer._pid = os.getpid()
            tracer._seq = 0
            try:
                return fn(*args, **kwargs)
            finally:
                if tracer.spool is not None:
                    path = tracer.spool / f"{tracer._pid}.json"
                    path.write_text(json.dumps(tracer.spans))

        return entry

    def collected(self) -> list[tuple]:
        """This process's spans plus every spooled worker's."""
        spans = list(self.spans)
        if self.spool is not None:
            for path in sorted(self.spool.glob("*.json")):
                spans.extend(tuple(s) for s in json.loads(path.read_text()))
        return spans

    def events(self, spans: list[tuple]) -> list[dict]:
        """*spans* as ``repro.obs`` span events, the stream
        :func:`repro.obs.chrome_trace` turns into a Perfetto trace."""
        out = []
        for name, start, duration, self_s, sid, parent, cell, pid in spans:
            event = {"t": "span", "name": name, "path": name, "ts": start,
                     "wall_s": duration, "self_s": self_s, "span_id": sid,
                     "pid": pid, "trace": self.workload,
                     "attrs": {"workload": self.workload, "cell": cell}}
            if parent is not None:
                event["parent_id"] = parent
            out.append(event)
        return out


def _cell_of(bomb, tool_name, *args, **kwargs) -> str:
    return f"{bomb.bomb_id}/{tool_name}"


def _replace(tracer: Tracer, module: str, attr: str, make) -> None:
    """Replace *module*.*attr* with ``make(original)``, or note it missing."""
    try:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, leaf)
    except (ImportError, AttributeError):
        tracer.missing.append(f"{module}.{attr}")
        return
    setattr(owner, leaf, make(fn))


def install(tracer: Tracer, layers: tuple[str, ...] | None = None) -> None:
    """Wrap the entry points of *layers* (all layers when None).

    An entry point the program no longer has is reported on stderr and
    skipped; its metrics then read zero.
    """
    for module, attr, name in ENTRY_POINTS:
        if layers is None or name.split(".")[0] in layers:
            cell_of = _cell_of if name == "eval.cell" else None
            _replace(tracer, module, attr,
                     lambda fn: tracer.wrap(fn, name, cell_of))
    if layers is None:
        for module, attr in PROCESS_ENTRIES:
            _replace(tracer, module, attr, tracer.wrap_process)
    for missing in tracer.missing:
        print(f"ledger: no entry point {missing}; its spans read zero",
              file=sys.stderr)


def aggregate(spans: list[tuple]) -> dict:
    """Per-name span totals, plus every ``smt.check`` duration."""
    stats: dict[str, dict[str, float]] = {}
    queries: list[float] = []
    for name, _start, duration, self_s, *_ in spans:
        row = stats.setdefault(name, {"count": 0, "wall_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["wall_s"] += duration
        row["self_s"] += self_s
        if name == "smt.check":
            queries.append(duration)
    return {"spans": stats, "query_walls": queries}


def _ratio(num: float, den: float) -> float:
    """*num* / *den*, or 0.0 when the layer did no work."""
    return num / den if den else 0.0


def layer_metrics(agg: dict, counters: dict[str, int], *, wall: float,
                  slots: int, cell_elapsed: list[float], solved: int,
                  lang: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``obs.trace_overhead_frac``
    (which needs the untraced wall) for one traced pass.

    *agg* is :func:`aggregate` over the pass's spans, *counters* the
    Recorder's counters, *wall* the pass wall, *slots* its worker count,
    *cell_elapsed* each cell's time to verdict, *solved* the ✓ cells
    (a claim-validation yield over ``Bomb.triggers`` calls),
    and *lang* the set-up's ``lang.compile`` span totals.
    """
    spans = agg["spans"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def count(name: str) -> int:
        return counters.get(name, 0)

    out: dict[str, float] = {
        "lang.compile_s": lang.get("wall_s", 0.0),
        "lang.images": lang.get("count", 0),
        "vm.run_calls": span("vm.run", "count"),
        "vm.run_self_s": span("vm.run", "self_s"),
        "vm.instructions": count("vm.instructions"),
        "trace.record_calls": span("trace.record", "count"),
        "trace.record_s": span("trace.record", "wall_s"),
        "taint.instructions_tainted": count("taint.instructions_tainted"),
        "ir.lift_instructions": count("lift.instructions"),
        "ir.superblock_hit_ratio": _ratio(
            count("cache.superblock_hits"),
            count("cache.superblock_hits") + count("cache.superblock_misses")),
        "concolic.run_s": span("concolic.run", "wall_s"),
        "concolic.replay_self_s": span("concolic.replay", "self_s"),
        "concolic.rounds": count("concolic.rounds"),
        "concolic.branches_negated": count("concolic.branches_negated"),
        "symex.explore_self_s": span("symex.explore", "self_s"),
        "symex.steps": count("symex.steps"),
        "symex.states": count("symex.states"),
        "symex.enum_hit_ratio": _ratio(count("cache.enum_hits"),
                                       count("symex.enum_queries")),
        "smt.queries": count("smt.queries"),
        "smt.check_self_s": span("smt.check", "self_s"),
        "smt.sat_s": span("smt.sat", "wall_s"),
        "smt.presolve_s": span("smt.presolve", "wall_s"),
        "smt.gates": count("smt.gates"),
        "smt.conflicts": count("smt.conflicts"),
        "smt.error_frac": _ratio(count("smt.error"), count("smt.queries")),
        "fuzz.executions": count("fuzz.executions"),
        "fuzz.execute_s": span("fuzz.execute", "wall_s"),
        "fuzz.corpus_yield": _ratio(count("fuzz.corpus_adds"),
                                    count("fuzz.executions")),
        "tools.validations": span("tools.validate", "count"),
        "tools.validate_s": span("tools.validate", "wall_s"),
        "tools.fallback_execs": count("symex.fallback_execs"),
        "tools.claim_yield": _ratio(solved, span("tools.validate", "count")),
        "eval.cell_s": span("eval.cell", "wall_s"),
        "eval.harness_s": wall - span("eval.cell", "wall_s") / slots,
        "service.store_puts": span("service.store_put", "count"),
        "service.store_put_s": span("service.store_put", "wall_s"),
        "service.store_gets": span("service.store_get", "count"),
        "service.store_get_s": span("service.store_get", "wall_s"),
        "service.cache_hits": count("service.cache_hits"),
        "service.cache_misses": count("service.cache_misses"),
        "service.lift_stores": count("service.lift_stores"),
        "service.slot_idle_frac": 1.0 - _ratio(sum(cell_elapsed), slots * wall),
    }
    out["vm.instructions_per_s"] = _ratio(out["vm.instructions"],
                                          out["vm.run_self_s"])
    out["symex.steps_per_s"] = _ratio(out["symex.steps"],
                                      out["symex.explore_self_s"])
    out["smt.gates_per_s"] = _ratio(out["smt.gates"], out["smt.check_self_s"])
    out["smt.conflicts_per_s"] = _ratio(out["smt.conflicts"], out["smt.sat_s"])
    out["fuzz.execs_per_s"] = _ratio(out["fuzz.executions"],
                                     out["fuzz.execute_s"])
    queries = agg["query_walls"]
    out["smt.query_p50_s"] = statistics.median(queries) if queries else 0.0
    if len(queries) > 10:
        out["smt.query_tail_pct"], out["smt.query_tail_s"] = \
            tail_percentile(queries)
    else:
        out["smt.query_tail_pct"], out["smt.query_tail_s"] = 0, 0.0
    return {name: out[name] for name, _unit, _better in PER_LAYER
            if name in out}

"""The forked cell entry point and the synthesized infrastructure-failure cell.

Every cell that runs outside the serial in-process loop — ``table2
--jobs/--timeout``, ``run_cell(timeout=)``, ``campaign run`` and ``repro
worker`` — is started by :class:`repro.service.fleet.FleetWorker` as a
forked process running :func:`_worker_main`.  That function is the one
place that drops the session (:mod:`repro.obs.session`) a child
inherits across ``fork``, and it gives every attempt three properties:

* **wall-clock timeouts** — the worker's parent kills an attempt that
  exceeds the per-cell budget, and a SIGTERM flushes in-flight spans
  first, so killed cells still appear in traces;
* **crash isolation** — an attempt dying mid-cell (OOM-kill, SIGKILL,
  interpreter abort) only loses that attempt; the parent requeues or
  exhausts the job;
* **exact metrics** — each attempt records to a private JSONL stream the
  parent absorbs after a *successful* attempt or a terminal timeout, so
  merged counters and stage spans never double-count retried attempts.

Results travel through the filesystem as the store's cell document
(:func:`~repro.service.store.encode_cell` to a temp file, then
``os.replace``): a killed worker can leave no torn result, and the
parent distinguishes "finished" (result file exists) from "died"
(no file) purely by what survived.

Fault injection for tests: set ``REPRO_SERVICE_KILL_CELL=bomb:tool`` in
the environment and the worker SIGKILLs itself on the first attempt of
that cell, after the cell ran and before its result is persisted.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal

from .. import obs
from ..obs import session
from ..bombs import get_bomb
from ..bombs.suite import Bomb
from ..errors import DiagnosticKind, DiagnosticLog
from ..eval.classify import classify
from ..eval.harness import CellResult, run_cell
from ..tools.api import ToolReport
from .store import ResultStore, encode_cell

#: Crash retries before a job is classified E (attempts = retries + 1).
DEFAULT_RETRIES = 2

#: Environment variable for test fault injection ("<bomb>:<tool>").
KILL_CELL_ENV = "REPRO_SERVICE_KILL_CELL"


def _mp_context():
    """Fork when available: workers inherit compiled bomb images."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def infrastructure_failure_cell(bomb: Bomb, tool: str, detail: str,
                                elapsed: float) -> CellResult:
    """Synthesize the E cell for a timeout or an exhausted crash loop."""
    log = DiagnosticLog()
    log.emit(DiagnosticKind.RESOURCE_EXHAUSTED, detail)
    report = ToolReport(tool=tool, bomb_id=bomb.bomb_id, diagnostics=log,
                        aborted=detail, elapsed=elapsed)
    outcome = classify(report)
    return CellResult(
        bomb_id=bomb.bomb_id,
        tool=tool,
        outcome=outcome,
        expected=bomb.expected.get(tool),
        report=report,
        diagnostic=str(log.events[0]),
        infra_failure=True,
    )


def _worker_main(bomb_id: str, tool: str, attempt: int,
                 result_path: str, metrics_path: str | None,
                 trace_ctx: tuple | None = None,
                 store_root: str | None = None) -> None:
    """Worker process: evaluate one cell, persist its cell document.

    *trace_ctx* is ``(trace_id, parent_span_id, profiling)`` from the
    parent, so the worker's spans join the parent's trace and the
    attribution profiler mirrors the parent's state.  A SIGTERM (the
    timeout path) flushes in-flight spans with an ``aborted`` attribute
    and the profiler's buckets before exiting, so killed cells still
    appear in traces.  *store_root* names the result store, so lifts and
    fuzz corpora persist exactly as in-process.
    """
    store = None
    if store_root is not None:
        from ..ir import superblock

        store = ResultStore(store_root)
        # Inherited lift caches are clean with respect to some other
        # store (or none) and would never persist into this one.
        superblock.reset()
    # Nothing inherited stays on: the parent's recorder writes to the
    # parent's fds, and captures and collectors would be lost on exit.
    session.reset(session.Session(store=store))
    bomb = get_bomb(bomb_id)
    if metrics_path is not None:
        trace_id, parent_span_id, profiling_on = \
            trace_ctx or (None, None, False)
        recorder = obs.Recorder(sinks=[obs.JsonlSink(metrics_path)],
                                trace_id=trace_id,
                                parent_span_id=parent_span_id)
        profiler = obs.Profiler() if profiling_on else None

        def _terminated(signum, frame):
            if profiler is not None:
                profiler.flush_to(recorder)
            recorder.abort_open_spans("sigterm")
            recorder.close()
            os._exit(128 + signal.SIGTERM)

        signal.signal(signal.SIGTERM, _terminated)
        with session.overlay(recorder=recorder, profiler=profiler,
                             close=True):
            with obs.span("job", bomb=bomb_id, tool=tool, attempt=attempt):
                cell = run_cell(bomb, tool)
    else:
        cell = run_cell(bomb, tool)
    if os.environ.get(KILL_CELL_ENV) == f"{bomb_id}:{tool}" and attempt == 1:
        # After the metrics stream is complete: a parent that absorbed a
        # crashed attempt's stream would count this cell twice.
        os.kill(os.getpid(), signal.SIGKILL)
    tmp = result_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        json.dump(encode_cell(cell), fp)
    os.replace(tmp, result_path)

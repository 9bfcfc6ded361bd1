"""The cell slot process and the synthesized infrastructure-failure cell.

Every cell that runs outside the serial in-process loop — ``table2
--jobs/--timeout``, ``campaign run`` and ``repro worker`` — is run by
:class:`repro.service.fleet.FleetWorker` in one of up to *slots*
long-lived forked processes running :func:`_worker_main`.
A slot receives one job at a time as JSON bytes over its
``multiprocessing`` connection, runs it with :func:`_attempt`, and
answers with one JSON message, ``{"cell": <the store's cell document>,
"events": <the attempt's recorder events, or null>}``; it returns when
the worker closes the connection (or dies).  :func:`_attempt` is the
one place that drops the session (:mod:`repro.obs.session`) a slot
inherits across ``fork`` or kept from its previous job, and it gives
every attempt three properties:

* **wall-clock timeouts** — the worker kills a slot whose attempt
  exceeds the per-cell budget, and a SIGTERM sends the in-flight spans
  first (with ``"cell": null``), so killed cells still appear in traces;
* **crash isolation** — a slot dying mid-cell (OOM-kill, SIGKILL,
  interpreter abort) only loses that attempt; the worker requeues or
  exhausts the job and forks a fresh slot for the next one;
* **exact metrics** — the worker absorbs an attempt's events only for a
  computed cell or a terminal timeout, so merged counters and stage
  spans never double-count retried attempts.

A connection delivers whole messages only: a message with a cell is
"finished", a slot that hung up before one "died".

Fault injection for tests: set ``REPRO_SERVICE_KILL_CELL=bomb:tool`` in
the environment and the slot SIGKILLs itself on the first attempt of
that cell, after the cell ran and before its reply.
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


def _worker_main(conn, parent_end) -> None:
    """Slot process: run each job received on *conn*, answer it with
    its message, and return once the worker closes its end.

    *parent_end* is the worker's end of the same pipe, inherited across
    ``fork``; closing it here is what lets the slot see EOF, and exit,
    when the worker exits or is killed.  Returning (rather than exiting)
    after the last job lets a wrapper of this entry point run its own
    epilogue.
    """
    parent_end.close()
    while True:
        try:
            job = json.loads(conn.recv_bytes())
        except (EOFError, ConnectionError):
            return
        reply = _attempt(conn, **job)
        try:
            conn.send_bytes(reply)
        except ConnectionError:
            return


def _message(cell: dict | None, events: list | None) -> bytes:
    """A slot's answer, encoded like a JSONL sink's lines."""
    return json.dumps({"cell": cell, "events": events}, default=str).encode()


def _attempt(conn, bomb_id: str, tool: str, attempt: int,
             trace_ctx: list | None, store_root: str | None) -> bytes:
    """Evaluate one cell in this slot and return its message.

    *trace_ctx* is ``(trace_id, parent_span_id, profiling)`` from a
    recording worker, so the attempt's spans join the worker's trace
    and the attribution profiler mirrors the worker's state.  A SIGTERM
    (the timeout path) sends in-flight spans with an ``aborted``
    attribute and the profiler's buckets on *conn* before exiting, so
    killed cells still appear in traces; the handler is removed when
    the attempt ends.  *store_root* names the result store, so lifts
    and fuzz corpora persist exactly as in-process.
    """
    store = None
    if store_root is not None:
        from ..ir import superblock

        store = ResultStore(store_root)
        # Inherited lift caches are clean with respect to some other
        # store (or none) and would never persist into this one.
        superblock.reset()
    # Nothing inherited stays on: the worker's recorder writes to the
    # worker's fds, and captures and collectors would be lost on exit.
    session.reset(session.Session(store=store))
    bomb = get_bomb(bomb_id)
    events = None
    if trace_ctx is not None:
        trace_id, parent_span_id, profiling_on = trace_ctx
        sink = obs.MemorySink()
        events = sink.events
        recorder = obs.Recorder(sinks=[sink], trace_id=trace_id,
                                parent_span_id=parent_span_id)
        profiler = obs.Profiler() if profiling_on else None

        def _terminated(signum, frame):
            try:
                if profiler is not None:
                    profiler.flush_to(recorder)
                recorder.abort_open_spans("sigterm")
                recorder.close()
                conn.send_bytes(_message(None, events))
            finally:
                os._exit(128 + signal.SIGTERM)

        previous = signal.signal(signal.SIGTERM, _terminated)
        try:
            with session.overlay(recorder=recorder, profiler=profiler,
                                 close=True):
                with obs.span("job", bomb=bomb_id, tool=tool,
                              attempt=attempt):
                    cell = run_cell(bomb, tool)
        finally:
            signal.signal(signal.SIGTERM, previous)
    else:
        cell = run_cell(bomb, tool)
    if os.environ.get(KILL_CELL_ENV) == f"{bomb_id}:{tool}" and attempt == 1:
        # After the events are complete: a worker that absorbed a
        # crashed attempt's events would count this cell twice.
        os.kill(os.getpid(), signal.SIGKILL)
    return _message(encode_cell(cell), events)

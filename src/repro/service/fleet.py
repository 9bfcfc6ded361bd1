"""The one cell scheduler: a pull loop over the campaign journals.

:class:`FleetWorker` is the only code that schedules cell processes.
Worker processes (``repro worker --root DIR``, any number of hosts
sharing the filesystem) drain campaigns together through each
campaign's :class:`~repro.service.queue.JobQueue`, which owns the
journal, its lock and the lease rules; this module keeps only the
scheduling.  A worker keeps up to *slots* cells in flight: it claims a
leased cell, serves it from the store or sends it as a JSON job to one
of up to *slots* long-lived slot processes running
:func:`~repro.service.executor._worker_main` (forked on the first cell
that misses the store, replaced only after it dies or is killed on a
timeout), blocks on the slots' connections and process sentinels until
one answers with its cell and events or dies, or the nearest deadline
or lease renewal is due, and records the terminal transition.  The
connection is the only channel to a slot.  Results go through the
content-addressed store, so even a stalled worker's overlap with the
survivor that took its claim converges on byte-identical output.

Every parallel, timed or cached path is a thin client of it: ``repro
worker --jobs N`` is one worker with N slots (0 = one per usable CPU),
``campaign run`` a worker scoped to one campaign, and ``table2
--jobs/--timeout`` a worker over a private journal.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait

from .. import obs
from ..obs import session
from ..bombs import get_bomb
from .executor import _mp_context, _worker_main, infrastructure_failure_cell
from .fingerprint import cell_key
from .queue import (
    CLAIMED,
    DEFAULT_LEASE_S,
    EXHAUSTED,
    PENDING,
    Job,
    JobQueue,
    default_worker_id,
)
from .store import decode_cell

#: Fraction of the lease after which the holder heartbeats a renewal.
RENEW_FRACTION = 0.5
#: Base of the exponential requeue backoff, in seconds.
DEFAULT_BACKOFF = 0.05
#: Grace period between SIGTERM and SIGKILL on timeout: long enough for
#: the attempt's handler to send its partial spans, short enough that a
#: wedged attempt barely delays the worker.
_TERM_GRACE_S = 0.5


def auto_jobs() -> int:
    """Usable CPU count: ``os.process_cpu_count()`` (3.13+) falling
    back to the scheduling affinity mask, then ``os.cpu_count()``."""
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        n = counter()
        if n:
            return n
    try:
        n = len(os.sched_getaffinity(0))
        if n:
            return n
    except (AttributeError, OSError):
        pass
    return os.cpu_count() or 1


@dataclass
class WorkerStats:
    """One worker's tally of the transitions it recorded."""

    claimed: int = 0
    cached: int = 0
    computed: int = 0
    timeouts: int = 0
    requeued: int = 0
    exhausted: int = 0
    lease_lost: int = 0


def failure_cell(job: Job, timeout: float | None, elapsed: float = 0.0):
    """The synthesized E cell of a job whose journal ends in a timeout
    or an exhaustion, else None.  The worker's on-cell callback and
    ``campaign results`` both build it here, so they render alike."""
    if job.status == EXHAUSTED:
        detail = job.reason
    elif job.result == "timeout":
        detail = f"wall-clock timeout after {timeout:g}s"
    else:
        return None
    return infrastructure_failure_cell(get_bomb(job.bomb_id), job.tool,
                                       detail, elapsed)


@dataclass
class _Attempt:
    """One cell in flight in a slot."""

    cid: str
    queue: JobQueue
    job: Job
    key: str | None
    started: float
    deadline: float | None
    renew_at: float


@dataclass(eq=False)
class _Slot:
    """One long-lived cell process, the worker's end of its pipe, and
    the attempt it is running (None while idle)."""

    proc: object
    conn: object
    attempt: _Attempt | None = None


def _reply(conn) -> dict | None:
    """A slot's message, or None when the slot hung up before a whole
    one."""
    try:
        return json.loads(conn.recv_bytes())
    except (EOFError, ConnectionError):
        return None


@dataclass
class FleetWorker:
    """Pull-loop worker keeping up to *slots* cells in flight.

    *slots* 0 means one per usable CPU (:func:`auto_jobs`).  Claims
    from every campaign under *root*, or only from *campaign* when set.
    ``store`` starts as the root's shared result store;
    assign another store, or None, before :meth:`run` to override it.
    *on_cell* receives every cell whose terminal transition this worker
    recorded: cached, computed, or a synthesized E.
    """

    root: str | os.PathLike
    worker_id: str = field(default_factory=default_worker_id)
    lease_s: float = DEFAULT_LEASE_S
    poll_s: float = 0.2
    backoff: float = DEFAULT_BACKOFF
    clock: object = time.time
    slots: int = 1
    campaign: str | None = None
    on_cell: object = None

    def __post_init__(self):
        from .campaign import CampaignService

        self.slots = self.slots or auto_jobs()
        self.service = CampaignService(self.root)
        self.store = self.service.store
        self.stats = WorkerStats()
        self._queues: dict[str, JobQueue] = {}
        self._specs: dict[str, object] = {}
        self._slots: list[_Slot] = []

    # -- discovery -------------------------------------------------------

    def _campaigns(self) -> list[str]:
        if self.campaign is not None:
            return [self.campaign]
        return self.service.campaigns()

    def _queue_for(self, cid: str) -> JobQueue:
        queue = self._queues.get(cid)
        if queue is None:
            queue = self._queues[cid] = self.service._queue(
                cid, self.worker_id, lease_s=self.lease_s, clock=self.clock)
        return queue

    def _spec_for(self, cid: str):
        spec = self._specs.get(cid)
        if spec is None:
            spec = self._specs[cid] = self.service.spec(cid)
        return spec

    def claim_next(self):
        """(cid, queue, job) for the first claimable cell, or None."""
        for cid in self._campaigns():
            queue = self._queue_for(cid)
            job = queue.claim()
            if job is not None:
                self.stats.claimed += 1
                return cid, queue, job
        return None

    def drained(self) -> bool:
        """True when every job of every campaign in scope is terminal,
        as read by the claim attempt that just found nothing to claim."""
        return not any(job.status in (PENDING, CLAIMED)
                       for cid in self._campaigns()
                       for job in self._queue_for(cid).jobs.values())

    # -- the loop --------------------------------------------------------

    def run(self, *, drain: bool = False,
            max_idle: float | None = None) -> WorkerStats:
        """Claim-and-execute until stopped.

        *drain*: exit once every campaign in scope is terminal (the CI
        / batch mode).  *max_idle*: exit after that many seconds without
        a successful claim.  With neither, poll until the process is
        signalled.
        """
        idle_since = time.monotonic()
        try:
            while True:
                while len(self._busy()) < self.slots:
                    claimed = self.claim_next()
                    if claimed is None:
                        break
                    idle_since = time.monotonic()
                    self._start(*claimed)
                if self._busy():
                    self._wait()
                elif drain and self.drained():
                    break
                elif max_idle is not None and \
                        time.monotonic() - idle_since >= max_idle:
                    break
                else:
                    time.sleep(self.poll_s)
        finally:
            self._stop()
        return self.stats

    def _busy(self) -> list[_Slot]:
        return [slot for slot in self._slots if slot.attempt is not None]

    def _start(self, cid: str, queue: JobQueue, job: Job) -> None:
        """Serve *job* from the store, or send it to a slot."""
        key = None
        if self.store is not None:
            bomb = get_bomb(job.bomb_id)
            key = cell_key(bomb, job.tool)
            cached = self.store.get(key, bomb)
            if cached is not None:
                if self._record(queue, job, "cached", "complete",
                                result="cached"):
                    self._deliver(cached)
                return
        on = session.current
        trace_ctx = None
        if on.recorder is not None:
            trace_ctx = (on.recorder.trace_id, on.recorder.current_span_id(),
                         on.profiler is not None)
        slot = self._send(json.dumps({
            "bomb_id": job.bomb_id, "tool": job.tool,
            "attempt": job.attempts, "trace_ctx": trace_ctx,
            "store_root": str(self.store.root)
            if self.store is not None else None}).encode())
        started = time.monotonic()
        timeout = self._spec_for(cid).timeout
        slot.attempt = _Attempt(
            cid, queue, job, key, started,
            started + timeout if timeout is not None else None,
            self.clock() + self.lease_s * RENEW_FRACTION)

    def _send(self, payload: bytes) -> _Slot:
        """Hand the job *payload* to an idle slot, forking one when none
        is idle; a slot that died while idle is joined and passed over."""
        for slot in [s for s in self._slots if s.attempt is None]:
            try:
                slot.conn.send_bytes(payload)
                return slot
            except ConnectionError:
                self._retire(slot)
        ctx = _mp_context()
        conn, child_end = ctx.Pipe()
        proc = ctx.Process(target=_worker_main, args=(child_end, conn))
        proc.start()
        child_end.close()
        slot = _Slot(proc, conn)
        self._slots.append(slot)
        conn.send_bytes(payload)
        return slot

    def _wait(self) -> None:
        """Block until a busy slot replies or dies, or the nearest
        deadline or lease renewal is due (with a slot free, at most
        ``poll_s``, to look for new work), and settle what is due."""
        busy = self._busy()
        now, wall = time.monotonic(), self.clock()
        horizon = [slot.attempt.renew_at - wall for slot in busy]
        horizon += [slot.attempt.deadline - now for slot in busy
                    if slot.attempt.deadline is not None]
        if len(busy) < self.slots:
            horizon.append(self.poll_s)
        ready = wait([slot.conn for slot in busy] +
                     [slot.proc.sentinel for slot in busy],
                     timeout=max(0.0, min(horizon)))
        for slot in busy:
            attempt = slot.attempt
            if slot.conn in ready or slot.proc.sentinel in ready:
                # A message sent just before the slot died still counts.
                message = _reply(slot.conn) if slot.conn.poll() else None
                exitcode = None
                if slot.proc.sentinel in ready or message is None \
                        or message["cell"] is None:
                    exitcode = self._retire(slot)
                slot.attempt = None
                self._settle(attempt, message, timed_out=False,
                             exitcode=exitcode)
            elif attempt.deadline is not None and \
                    time.monotonic() >= attempt.deadline:
                message = self._kill(slot)
                slot.attempt = None
                self._settle(attempt, message, timed_out=True)
            elif self.clock() >= attempt.renew_at:
                attempt.queue.renew(attempt.job)
                attempt.renew_at = \
                    self.clock() + self.lease_s * RENEW_FRACTION

    # -- slot lifetime ---------------------------------------------------

    def _retire(self, slot: _Slot) -> int:
        """Join a slot that died or was killed, drop it, and return its
        exit code."""
        slot.proc.join()
        slot.conn.close()
        self._slots.remove(slot)
        return slot.proc.exitcode

    def _kill(self, slot: _Slot) -> dict | None:
        """SIGTERM first and return the slot's message: the attempt's
        handler sends its partial spans and profiler buckets.  SIGKILL
        only a slot that sent nothing within the grace period."""
        slot.proc.terminate()
        message = None
        if slot.conn.poll(_TERM_GRACE_S):
            message = _reply(slot.conn)
        if message is None:
            slot.proc.kill()
        self._retire(slot)
        return message

    def _stop(self) -> None:
        """Kill any slot still running a cell (the loop raised), then
        close every idle slot's connection, which it reads as EOF and
        returns, and join them all."""
        for slot in self._busy():
            self._kill(slot)
        for slot in self._slots:
            slot.conn.close()
        for slot in self._slots:
            slot.proc.join()
        self._slots.clear()

    # -- attempt outcomes ------------------------------------------------

    def _settle(self, attempt: _Attempt, message: dict | None, *,
                timed_out: bool, exitcode: int | None = None) -> None:
        """Classify an attempt that ended from its slot's *message* (None
        when none came) and record its transition.

        Metrics are absorbed from successful attempts and terminal
        timeouts only: a crashed attempt is retried (or exhausted), and
        absorbing its events would count the cell twice.
        """
        job, queue = attempt.job, attempt.queue
        spec = self._spec_for(attempt.cid)
        if message is not None and message["cell"] is not None:
            # Finished, possibly right at the deadline.
            cell = decode_cell(message["cell"], get_bomb(job.bomb_id))
            self._absorb(message)
            if self.store is not None:
                # Store before completing: once the journal says done,
                # any reader must find the result.
                self.store.put(attempt.key, cell)
            if self._record(queue, job, "computed", "complete",
                            result="computed"):
                self._deliver(cell)
            return
        if timed_out:
            obs.count("service.cells_timeout")
            # Terminal, never retried: the spans the SIGTERM handler sent.
            self._absorb(message)
            landed = self._record(queue, job, "timeouts", "complete",
                                  result="timeout")
        else:
            if job.attempts <= spec.retries:
                obs.count("service.retries")
                obs.count("service.requeues")
                delay = self.backoff * (2 ** (job.attempts - 1))
                self._record(queue, job, "requeued", "requeue",
                             reason=f"worker died (exit {exitcode}) on "
                                    f"attempt {job.attempts}",
                             not_before=self.clock() + delay)
                return
            landed = self._record(
                queue, job, "exhausted", "exhaust",
                reason=f"worker crashed on all {job.attempts} attempts "
                       f"(last exit {exitcode})")
        if landed:
            self._deliver(failure_cell(job, spec.timeout,
                                       time.monotonic() - attempt.started))

    def _record(self, queue: JobQueue, job: Job, tally: str,
                transition: str, **kw) -> bool:
        """Record *transition* iff we still hold *job*; tally it."""
        if not getattr(queue, transition)(job, **kw):
            self.stats.lease_lost += 1
            return False
        setattr(self.stats, tally, getattr(self.stats, tally) + 1)
        return True

    def _deliver(self, cell) -> None:
        if self.on_cell is not None:
            self.on_cell(cell)

    @staticmethod
    def _absorb(message: dict | None) -> None:
        recorder = session.current.recorder
        if recorder is not None and message and message["events"]:
            recorder.absorb(message["events"])


def run_fleet(root: str | os.PathLike, jobs: int, *,
              worker_id: str | None = None,
              lease_s: float = DEFAULT_LEASE_S, poll_s: float = 0.2,
              drain: bool = False, max_idle: float | None = None,
              metrics_out: str | None = None) -> int:
    """``repro worker --jobs N``: one worker with *jobs* slots over
    *root* (0 = one per usable CPU), optionally streaming its metrics
    (and its cells', absorbed) to *metrics_out*; returns the slot count.

    Module-level (picklable) so tests can fork it as a process target.
    """
    worker = FleetWorker(root, worker_id=worker_id or default_worker_id(),
                         lease_s=lease_s, poll_s=poll_s, slots=jobs)
    recording = contextlib.nullcontext()
    if metrics_out is not None:
        recording = obs.recording(obs.Recorder(
            sinks=[obs.JsonlSink(metrics_out)]))
    with recording, obs.span("worker", worker=worker.worker_id,
                             slots=worker.slots):
        worker.run(drain=drain, max_idle=max_idle)
    return worker.slots

"""The campaign journal: the one reader and writer of ``queue.jsonl``.

A campaign's jobs live in an append-only journal.  Every state
transition is one flushed-and-fsynced line::

    {"t": "submit",  "id": ..., "bomb": ..., "tool": ...}
    {"t": "claim",   "id": ..., "worker": ..., "attempt": N,
                     "lease_until": T}
    {"t": "renew",   "id": ..., "worker": ..., "lease_until": T}
    {"t": "requeue", "id": ..., "reason": ..., "not_before": T}
    {"t": "done",    "id": ..., "result": "computed"|"cached"|"timeout"|...}
    {"t": "exhaust", "id": ..., "reason": ...}

:class:`JobQueue` is one worker's view of a journal that any number of
worker processes, on any number of hosts sharing the filesystem, read
and write together without running a cell twice:

* opening a queue, and every :meth:`~JobQueue.refresh`, folds in the
  complete lines appended since the last look (an incremental,
  offset-tracked replay).  A line that does not parse is skipped; bytes
  after the last newline are left for the next look;
* every transition holds an exclusive ``flock`` on the sidecar
  ``queue.jsonl.lock``, refreshes, then opens the journal, appends one
  record per state change, fsyncs and closes it, so no file stays open
  between transitions.  Bytes after the last newline seen under the
  lock are a dead writer's torn tail: the record starts a fresh line;
* a claim carries the worker id and a wall-clock ``lease_until``
  deadline, which the holder renews while its cell runs.  Every claim
  also sweeps: a claim whose lease lapsed (the worker was SIGKILLed,
  OOM-killed, or its host died), or whose claimant is a process of this
  host that no longer exists, is requeued (``service.lease_expired``,
  ``service.requeues``), so a crashed worker's cell is re-run by a
  survivor with its attempt count intact, never lost;
* ``complete``, ``requeue`` and ``exhaust`` are recorded only while
  this worker still holds the claim: a worker that stalled past its
  lease and lost the job to a survivor drops its transition
  (``service.lease_lost``) instead of double-completing.

``not_before`` implements retry backoff without a scheduler thread: a
requeued job is pending but unclaimable until its backoff deadline.
"""

from __future__ import annotations

import fcntl
import json
import os
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .. import obs

#: Job lifecycle states.
PENDING = "pending"
CLAIMED = "claimed"
DONE = "done"
EXHAUSTED = "exhausted"

#: Default lease duration; a worker renews at half-life, so a lease is
#: only allowed to expire when the holder missed >= 2 heartbeats.
DEFAULT_LEASE_S = 30.0


def default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


def _gone_local(worker: str | None) -> bool:
    """True when *worker* is ``<this host>:<pid>`` and that pid is gone.

    A false positive (two containers sharing a hostname) only costs a
    duplicate run, whose stale transition is dropped.
    """
    host, _, pid = (worker or "").rpartition(":")
    if host != socket.gethostname() or not pid.isdigit():
        return False
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return True
    except OSError:  # EPERM: alive, owned by another user
        pass
    return False


@dataclass
class Job:
    """One (bomb, tool) cell evaluation to perform."""

    job_id: str
    bomb_id: str
    tool: str
    status: str = PENDING
    attempts: int = 0
    worker: str | None = None
    not_before: float = 0.0
    result: str | None = None
    reason: str | None = None
    #: Wall-clock deadline of the current claim's lease; None while
    #: the job is not claimed.
    lease_until: float | None = None

    @property
    def cell(self) -> tuple[str, str]:
        return (self.bomb_id, self.tool)


class JobQueue:
    """One worker's view of a campaign journal.

    *worker_id* names this worker's claims and *lease_s* their lease;
    *clock* is the fleet's wall clock, which stamps leases and is
    compared with them and with backoff deadlines.
    """

    def __init__(self, path: str | os.PathLike, worker_id: str | None = None,
                 *, lease_s: float = DEFAULT_LEASE_S, clock=time.time):
        self.path = Path(path)
        self.worker_id = worker_id or default_worker_id()
        self.lease_s = lease_s
        self.clock = clock
        #: Every job, in submission order.
        self.jobs: dict[str, Job] = {}
        self._lock_path = self.path.with_name(self.path.name + ".lock")
        self._offset = 0
        #: Bytes after the last newline at the last refresh.
        self._tail = 0
        self.refresh()

    # -- journal ---------------------------------------------------------

    def refresh(self) -> None:
        """Fold in the complete lines appended since the last look."""
        try:
            with self.path.open("rb") as fp:
                fp.seek(self._offset)
                data = fp.read()
        except FileNotFoundError:
            return
        end = data.rfind(b"\n") + 1
        for line in data[:end].split(b"\n"):
            try:
                record = json.loads(line)
            except ValueError:
                continue  # blank, or torn by a writer that died
            self._apply(record)
        self._offset += end
        self._tail = len(data) - end

    def _apply(self, record: dict) -> None:
        kind = record.get("t")
        if kind == "submit":
            self.jobs.setdefault(record["id"], Job(
                record["id"], record["bomb"], record["tool"]))
            return
        job = self.jobs.get(record.get("id"))
        if job is None:
            return
        if kind == "claim":
            job.status = CLAIMED
            job.worker = record.get("worker")
            job.attempts = record.get("attempt", job.attempts + 1)
            job.lease_until = record.get("lease_until")
        elif kind == "renew":
            # A lease extension is only honored while the renewing
            # worker still holds the claim; a renew that raced a
            # lease-expiry requeue is a no-op.
            if job.status == CLAIMED and job.worker == record.get("worker"):
                job.lease_until = record.get("lease_until")
        elif kind == "requeue":
            job.status = PENDING
            job.worker = None
            job.not_before = record.get("not_before", 0.0)
            job.reason = record.get("reason")
            job.lease_until = None
        elif kind == "done":
            job.status = DONE
            job.result = record.get("result")
            job.lease_until = None
        elif kind == "exhaust":
            job.status = EXHAUSTED
            job.reason = record.get("reason")
            job.lease_until = None

    @contextmanager
    def _locked(self):
        """Hold the journal's lock, with every record read."""
        fd = os.open(self._lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            self.refresh()
            yield
        finally:
            os.close(fd)  # releases the lock

    def _append(self, record: dict) -> None:
        """Append *record* (the lock held) and apply it."""
        line = json.dumps(record, separators=(",", ":")).encode() + b"\n"
        with self.path.open("ab") as fp:
            fp.write(b"\n" + line if self._tail else line)
            fp.flush()
            os.fsync(fp.fileno())
            self._offset = fp.tell()
        self._tail = 0
        self._apply(record)

    # -- transitions -----------------------------------------------------

    def submit(self, cells: list[tuple[str, str]]) -> list[Job]:
        """Enqueue one job per (bomb, tool) cell, in order."""
        ids = [f"job-{index:04d}" for index in range(len(cells))]
        with self._locked():
            for job_id, (bomb_id, tool) in zip(ids, cells):
                self._append({"t": "submit", "id": job_id,
                              "bomb": bomb_id, "tool": tool})
        obs.count("service.jobs_submitted", len(ids))
        return [self.jobs[job_id] for job_id in ids]

    def claim(self) -> Job | None:
        """Claim the next ready pending job (FIFO), if any, with a fresh
        lease.

        One walk under the lock also sweeps: every claim whose lease
        lapsed, or whose claimant is a process of this host that no
        longer exists, is requeued as the walk meets it, so the dead
        worker's cell is claimable at once, possibly by this very call.
        """
        with self._locked():
            now = self.clock()
            chosen, depth = None, 0
            for job in self.jobs.values():
                if job.status == CLAIMED and (
                        job.lease_until is not None and job.lease_until <= now
                        or _gone_local(job.worker)):
                    obs.count("service.lease_expired")
                    obs.count("service.requeues")
                    obs.count("service.jobs_requeued")
                    self._append({"t": "requeue", "id": job.job_id,
                                  "reason": f"lease expired "
                                            f"(worker {job.worker})",
                                  "not_before": 0.0})
                if job.status in (PENDING, CLAIMED):
                    depth += 1
                if chosen is None and job.status == PENDING \
                        and job.not_before <= now:
                    chosen = job
            if chosen is None:
                return None
            self._append({"t": "claim", "id": chosen.job_id,
                          "worker": self.worker_id,
                          "attempt": chosen.attempts + 1,
                          "lease_until": now + self.lease_s})
            obs.count("service.jobs_claimed")
            obs.observe("service.queue_depth", float(depth))
            return chosen

    def renew(self, job: Job) -> None:
        """Heartbeat: extend this worker's lease while *job* runs."""
        with self._locked():
            self._append({"t": "renew", "id": job.job_id,
                          "worker": self.worker_id,
                          "lease_until": self.clock() + self.lease_s})
        obs.count("service.lease_renewals")

    def complete(self, job: Job, result: str = "computed") -> bool:
        """Record *job* done; *result* says how (computed, cached...)."""
        return self._finish(job, "service.jobs_completed",
                            {"t": "done", "id": job.job_id,
                             "result": result})

    def requeue(self, job: Job, reason: str, not_before: float = 0.0) -> bool:
        """Return *job* to the pending set, claimable from *not_before*."""
        return self._finish(job, "service.jobs_requeued",
                            {"t": "requeue", "id": job.job_id,
                             "reason": reason, "not_before": not_before})

    def exhaust(self, job: Job, reason: str) -> bool:
        """Give up on *job* after bounded retries."""
        return self._finish(job, "service.jobs_exhausted",
                            {"t": "exhaust", "id": job.job_id,
                             "reason": reason})

    def _finish(self, job: Job, counter: str, record: dict) -> bool:
        """Record a terminal *record* iff this worker still holds *job*."""
        with self._locked():
            current = self.jobs.get(job.job_id)
            if current is None or current.status != CLAIMED \
                    or current.worker != self.worker_id:
                obs.count("service.lease_lost")
                return False
            self._append(record)
        obs.count(counter)
        return True

    # -- queries ---------------------------------------------------------

    def ordered_jobs(self) -> list[Job]:
        return list(self.jobs.values())

    def depth(self) -> int:
        """Jobs not yet terminally resolved."""
        return sum(1 for j in self.jobs.values()
                   if j.status in (PENDING, CLAIMED))

    def counts(self) -> dict[str, int]:
        out = {PENDING: 0, CLAIMED: 0, DONE: 0, EXHAUSTED: 0}
        for job in self.jobs.values():
            out[job.status] += 1
        return out

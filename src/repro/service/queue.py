"""Durable on-disk job queue: a JSONL journal with claim/complete records.

The queue is an append-only journal (``queue.jsonl``).  Every state
transition is one flushed-and-fsynced line::

    {"t": "submit",  "id": ..., "bomb": ..., "tool": ...}
    {"t": "claim",   "id": ..., "worker": ..., "attempt": N,
                     "lease_until": T}
    {"t": "renew",   "id": ..., "worker": ..., "lease_until": T}
    {"t": "requeue", "id": ..., "reason": ..., "not_before": T}
    {"t": "done",    "id": ..., "result": "computed"|"cached"|"timeout"|...}
    {"t": "exhaust", "id": ..., "reason": ...}

Opening a queue replays the journal to reconstruct the jobs.
``not_before`` implements retry backoff without a scheduler thread: a
requeued job is pending but unclaimable until its backoff deadline.
A truncated trailing line (torn write on power loss) is ignored.

Multi-writer coordination (worker processes sharing one journal over a
filesystem) is layered on top by
:class:`repro.service.fleet.FleetQueue`, which adds an exclusive lock
around transitions and **lease-based claims**: a claim carries a
wall-clock ``lease_until`` deadline, a live worker renews it with
``renew`` records, and a claim whose lease expired (the worker was
SIGKILLed, lost power, or vanished) or whose claimant process on this
host is gone is requeued by whichever worker observes it.  Replay
therefore preserves claims: only that sweep takes a claim back, so a
cell is re-run after a crash with its attempt count intact, never lost,
and never double-counted.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .. import obs

#: Job lifecycle states.
PENDING = "pending"
CLAIMED = "claimed"
DONE = "done"
EXHAUSTED = "exhausted"


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
    """Journal-backed job queue."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.jobs: dict[str, Job] = {}
        self._order: list[str] = []
        if self.path.exists():
            self._replay()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fp = self.path.open("a", encoding="utf-8")

    # -- journal ---------------------------------------------------------

    def _replay(self) -> None:
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn trailing write
            self._apply(record)

    def _apply(self, record: dict) -> None:
        kind = record.get("t")
        if kind == "submit":
            job = Job(record["id"], record["bomb"], record["tool"])
            if job.job_id not in self.jobs:
                self.jobs[job.job_id] = job
                self._order.append(job.job_id)
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

    def _append(self, record: dict) -> None:
        self._apply(record)
        self._fp.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fp.flush()
        os.fsync(self._fp.fileno())

    # -- operations ------------------------------------------------------

    def submit(self, cells: list[tuple[str, str]],
               prefix: str = "job") -> list[Job]:
        """Enqueue one job per (bomb, tool) cell, in order."""
        jobs = []
        for index, (bomb_id, tool) in enumerate(cells):
            job_id = f"{prefix}-{index:04d}"
            self._append({"t": "submit", "id": job_id,
                          "bomb": bomb_id, "tool": tool})
            jobs.append(self.jobs[job_id])
        obs.count("service.jobs_submitted", len(jobs))
        return jobs

    def claim(self, worker: str, now: float,
              lease_until: float) -> Job | None:
        """Atomically claim the next ready pending job (FIFO), if any.

        *now* and *lease_until* are on the journal's clock, the fleet's
        wall clock; *lease_until* is recorded in the claim so other
        journal readers can detect a dead claimant.
        """
        for job_id in self._order:
            job = self.jobs[job_id]
            if job.status == PENDING and job.not_before <= now:
                self._append({"t": "claim", "id": job_id, "worker": worker,
                              "attempt": job.attempts + 1,
                              "lease_until": lease_until})
                obs.count("service.jobs_claimed")
                obs.observe("service.queue_depth", float(self.depth()))
                return job
        return None

    def renew(self, job_id: str, worker: str, lease_until: float) -> None:
        """Extend *worker*'s lease on a claimed job (fleet heartbeat)."""
        self._append({"t": "renew", "id": job_id, "worker": worker,
                      "lease_until": lease_until})
        obs.count("service.lease_renewals")

    def complete(self, job_id: str, result: str = "computed") -> None:
        self._append({"t": "done", "id": job_id, "result": result})
        obs.count("service.jobs_completed")

    def requeue(self, job_id: str, reason: str,
                not_before: float = 0.0) -> None:
        """Return a claimed job to the pending set (worker crash path)."""
        self._append({"t": "requeue", "id": job_id, "reason": reason,
                      "not_before": not_before})
        obs.count("service.jobs_requeued")

    def exhaust(self, job_id: str, reason: str) -> None:
        """Give up on a job after bounded retries."""
        self._append({"t": "exhaust", "id": job_id, "reason": reason})
        obs.count("service.jobs_exhausted")

    # -- queries ---------------------------------------------------------

    def ordered_jobs(self) -> list[Job]:
        return [self.jobs[job_id] for job_id in self._order]

    def depth(self) -> int:
        """Jobs not yet terminally resolved."""
        return sum(1 for j in self.jobs.values()
                   if j.status in (PENDING, CLAIMED))

    def counts(self) -> dict[str, int]:
        out = {PENDING: 0, CLAIMED: 0, DONE: 0, EXHAUSTED: 0}
        for job in self.jobs.values():
            out[job.status] += 1
        return out

    def close(self) -> None:
        if self._fp is not None:
            self._fp.close()
            self._fp = None

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

"""Campaign client API: submit / run / status / results.

A *campaign* is a persisted evaluation request — bomb subset × tool
subset plus execution policy (worker count, per-cell timeout, crash
retries).  The service root is a directory::

    <root>/store/                     shared content-addressed result store
    <root>/campaigns/<cid>/spec.json  the campaign spec
    <root>/campaigns/<cid>/queue.jsonl  durable job journal

The store is shared by every campaign under the root, so re-submitting
an identical workload (a fresh campaign id) performs **zero** tool
analyses: every cell is served from the store and the Table II output
is byte-identical to the cold run.  ``run`` drives the campaign with a
:class:`~repro.service.fleet.FleetWorker` scoped to it.  Killing the
driver (or a worker) mid-campaign never loses or duplicates a cell: the
next ``run`` finds the dead process's claims and requeues them at once
(see :mod:`repro.service.queue`).  ``status`` and ``results`` only read
the journal.

Campaign ids are content-derived (``c<digest8>`` of the workload) with
a numeric suffix per submission, so ``submit`` is cheap to script and
``status``/``results`` address any past submission.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .. import obs
from ..bombs import get_bomb
from .executor import DEFAULT_RETRIES
from .fingerprint import cell_key
from .fleet import FleetWorker, failure_cell
from .queue import DONE, JobQueue
from .store import ResultStore


@dataclass
class CampaignSpec:
    """One analysis workload: the cell matrix plus execution policy."""

    bombs: tuple[str, ...]
    tools: tuple[str, ...]
    jobs: int = 1
    timeout: float | None = None
    retries: int = DEFAULT_RETRIES
    name: str = ""
    #: Quota-accounting tag: submissions are budgeted per tenant (see
    #: :func:`repro.service.spec.check_quota`).  Not part of the
    #: workload digest — two tenants evaluating the same matrix share
    #: the content-addressed store.
    tenant: str = ""

    def cells(self) -> list[tuple[str, str]]:
        return [(b, t) for b in self.bombs for t in self.tools]

    def workload_digest(self) -> str:
        payload = json.dumps({"bombs": list(self.bombs),
                              "tools": list(self.tools)},
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_json(self) -> dict:
        return {
            "bombs": list(self.bombs),
            "tools": list(self.tools),
            "jobs": self.jobs,
            "timeout": self.timeout,
            "retries": self.retries,
            "name": self.name,
            "tenant": self.tenant,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CampaignSpec":
        return cls(
            bombs=tuple(doc["bombs"]),
            tools=tuple(doc["tools"]),
            jobs=doc.get("jobs", 1),
            timeout=doc.get("timeout"),
            retries=doc.get("retries", DEFAULT_RETRIES),
            name=doc.get("name", ""),
            tenant=doc.get("tenant", ""),
        )


@dataclass
class CampaignReport:
    """Outcome of one ``run``: the matrix plus the worker's tallies."""

    campaign_id: str
    table: object  # Table2Result
    stats: dict = field(default_factory=dict)

    def summary(self) -> str:
        s = self.stats
        return (
            f"campaign {self.campaign_id}: cells={s.get('cells', 0)} "
            f"cache_hits={s.get('cache_hits', 0)} "
            f"computed={s.get('computed', 0)} "
            f"timeouts={s.get('timeouts', 0)} "
            f"requeued={s.get('requeued', 0)} "
            f"exhausted={s.get('exhausted', 0)}"
        )


class CampaignService:
    """Filesystem-rooted campaign service (the client API)."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.store = ResultStore(self.root / "store")
        self._campaigns_dir = self.root / "campaigns"
        self._campaigns_dir.mkdir(parents=True, exist_ok=True)

    # -- verbs -----------------------------------------------------------

    def submit(self, spec: CampaignSpec) -> str:
        """Persist *spec*, enqueue its cells, return the campaign id.

        Raises :class:`repro.service.spec.QuotaExceeded` when the
        tenant's outstanding-cell budget (``<root>/quotas.json``) would
        be exceeded.
        """
        from .spec import check_quota

        check_quota(self, spec)
        base = f"c{spec.workload_digest()[:8]}"
        seq = 1
        while (self._campaigns_dir / f"{base}-{seq}").exists():
            seq += 1
        cid = f"{base}-{seq}"
        cdir = self._campaigns_dir / cid
        cdir.mkdir(parents=True)
        (cdir / "spec.json").write_text(
            json.dumps(spec.to_json(), indent=2) + "\n", encoding="utf-8")
        self._queue(cid).submit(spec.cells())
        obs.count("service.campaigns_submitted")
        return cid

    def run(self, cid: str, jobs: int | None = None) -> CampaignReport:
        """Drive the campaign's queue to completion (resumable)."""
        from ..eval.harness import Table2Result

        slots = jobs if jobs is not None else self.spec(cid).jobs
        result = Table2Result()
        with obs.span("campaign", id=cid):
            tally = FleetWorker(self.root, slots=slots, campaign=cid,
                                on_cell=result.add).run(drain=True)
        stats = {"cells": len(result.cells), "cache_hits": tally.cached,
                 "computed": tally.computed, "timeouts": tally.timeouts,
                 "requeued": tally.requeued, "exhausted": tally.exhausted}
        return CampaignReport(campaign_id=cid, table=result, stats=stats)

    def status(self, cid: str) -> dict:
        """Queue-level progress snapshot (does not execute anything)."""
        spec = self.spec(cid)
        queue = self._queue(cid)
        results: dict[str, int] = {}
        for job in queue.ordered_jobs():
            if job.result is not None:
                results[job.result] = results.get(job.result, 0) + 1
        return {
            "campaign": cid,
            "name": spec.name,
            "tenant": spec.tenant,
            "cells": len(spec.cells()),
            "states": queue.counts(),
            "results": results,
        }

    def results(self, cid: str):
        """Assemble the campaign's matrix from its journal and the store.

        A job the journal ends in a timeout or an exhaustion is the same
        synthesized ``E`` cell ``run`` reports; every other cell comes
        from the shared store.  Cells not (yet) in the store are simply
        absent from the result — ``render_table2`` shows them as ``?``.
        """
        from ..eval.harness import Table2Result

        spec = self.spec(cid)
        jobs = {job.cell: job for job in self._queue(cid).ordered_jobs()}
        result = Table2Result()
        for bomb_id, tool in spec.cells():
            job = jobs.get((bomb_id, tool))
            cell = failure_cell(job, spec.timeout) if job else None
            if cell is None:
                bomb = get_bomb(bomb_id)
                cell = self.store.get(cell_key(bomb, tool), bomb)
            if cell is not None:
                result.add(cell)
        return result

    def unserved(self, cid: str, table) -> int:
        """How many of *cid*'s done jobs its :meth:`results` *table*
        lacks: cells the store does not serve under the current engine
        stamp (computed by another engine version, or since removed)."""
        return sum(1 for job in self._queue(cid).ordered_jobs()
                   if job.status == DONE and job.cell not in table.cells)

    # -- helpers ---------------------------------------------------------

    def campaigns(self) -> list[str]:
        return sorted(p.name for p in self._campaigns_dir.iterdir()
                      if (p / "spec.json").exists())

    def spec(self, cid: str) -> CampaignSpec:
        path = self._campaign_dir(cid) / "spec.json"
        return CampaignSpec.from_json(
            json.loads(path.read_text(encoding="utf-8")))

    def _queue(self, cid: str, *args, **kw) -> JobQueue:
        """*cid*'s journal; *args* and *kw* go to :class:`JobQueue`."""
        return JobQueue(self._campaign_dir(cid) / "queue.jsonl", *args, **kw)

    def _campaign_dir(self, cid: str) -> Path:
        cdir = self._campaigns_dir / cid
        if not cdir.exists():
            raise KeyError(f"unknown campaign {cid!r}; "
                           f"known: {self.campaigns()}")
        return cdir


def status_finished(status: dict) -> bool:
    """True when every job is terminal (done or exhausted)."""
    states = status["states"]
    return states["pending"] + states["claimed"] == 0


def status_events(service: CampaignService, cid: str,
                  max_polls: int | None = None):
    """Yield status snapshots until the campaign is terminal.

    The shared progress machinery behind both front doors: ``campaign
    status --watch`` prints one line per snapshot, the HTTP API streams
    each snapshot as one NDJSON line (``GET /campaigns/{id}/events``).
    The generator never sleeps — the consumer paces it (a blocking
    ``time.sleep`` or an ``await asyncio.sleep``) — and each snapshot
    carries a ``"final"`` flag so consumers need no duplicated
    termination logic.
    """
    polls = 0
    while True:
        status = service.status(cid)
        polls += 1
        done = status_finished(status) or \
            (max_polls is not None and polls >= max_polls)
        status["final"] = done
        yield status
        if done:
            return


def render_status_line(status: dict) -> str:
    """One-line progress rendering of a status snapshot."""
    states = status["states"]
    line = (f"{status['campaign']}: pending={states['pending']} "
            f"claimed={states['claimed']} done={states['done']} "
            f"exhausted={states['exhausted']}")
    if status["results"]:
        labels = " ".join(f"{k}={v}" for k, v
                          in sorted(status["results"].items()))
        line += f"  [{labels}]"
    return line


def watch_status(service: CampaignService, cid: str,
                 interval: float = 2.0, stream=None,
                 sleep=None, max_polls: int | None = None) -> dict:
    """Poll a campaign until no job is pending or claimed.

    Prints one progress line per poll to *stream* (default stdout) and
    returns the final status snapshot — check its
    ``states["exhausted"]`` to gate scripts/CI on cells that ended
    ``E`` after retries (``campaign status --watch`` exits non-zero on
    them).  *sleep* and *max_polls* exist for tests (inject a fake
    clock / bound the loop); the production path uses the real clock
    and no poll bound.
    """
    import sys
    import time

    out = stream if stream is not None else sys.stdout
    tick = sleep if sleep is not None else time.sleep
    status: dict = {}
    for status in status_events(service, cid, max_polls=max_polls):
        print(render_status_line(status), file=out, flush=True)
        if not status["final"]:
            tick(interval)
    return status

"""Campaign service: durable queue, fault-tolerant workers, result cache.

Turns the one-shot Table II harness into a durable analysis service:

* :mod:`~repro.service.fingerprint` — content addresses: a cell result
  is keyed by (REXF image digest, tool capability fingerprint, harness
  policy fingerprint);
* :mod:`~repro.service.store` — the content-addressed
  :class:`ResultStore` (atomic writes, schema-versioned documents);
* :mod:`~repro.service.queue` — the durable :class:`JobQueue` (JSONL
  journal with submit/claim/renew/requeue/done/exhaust records);
* :mod:`~repro.service.fleet` — :class:`FleetWorker`, the one cell
  scheduler: lease-based claims over a shared journal, up to N cells
  in flight, per-cell wall-clock timeouts, crash requeue with backoff,
  bounded retries, exact metrics absorption.  ``table2 --jobs/--timeout``,
  ``campaign run`` and ``repro worker`` are all thin clients of it;
* :mod:`~repro.service.executor` — ``_worker_main``, the forked
  per-cell entry point, and the synthesized infrastructure-failure cell;
* :mod:`~repro.service.campaign` — the :class:`CampaignService` client
  API behind ``repro campaign submit/run/status/results``;
* :mod:`~repro.service.spec` — declarative JSON/TOML campaign specs
  (selector resolution, strict validation, per-tenant quotas);
* :mod:`~repro.service.api` — the asyncio HTTP front door
  (``repro serve``): submit/status/results, NDJSON progress streams,
  Prometheus ``/metrics``.  It is not imported here, so processes that
  never serve HTTP do not load :mod:`asyncio`; import it directly.
"""

from .campaign import (
    CampaignReport,
    CampaignService,
    CampaignSpec,
    render_status_line,
    status_events,
    status_finished,
    watch_status,
)
from .executor import DEFAULT_RETRIES, KILL_CELL_ENV, infrastructure_failure_cell
from .fingerprint import (
    CACHE_SCHEMA,
    bomb_fingerprint,
    cell_key,
    harness_fingerprint,
    image_digest,
)
from .fleet import (
    DEFAULT_BACKOFF,
    DEFAULT_LEASE_S,
    FleetQueue,
    FleetWorker,
    WorkerStats,
    auto_jobs,
    run_fleet,
    run_worker,
)
from .queue import Job, JobQueue
from .spec import (
    QuotaExceeded,
    SpecError,
    TenantQuota,
    build_spec,
    check_quota,
    load_quotas,
    load_spec_file,
    parse_spec_text,
)
from .store import ResultStore, decode_cell, encode_cell

__all__ = [
    "CACHE_SCHEMA",
    "CampaignReport",
    "CampaignService",
    "CampaignSpec",
    "DEFAULT_BACKOFF",
    "DEFAULT_LEASE_S",
    "DEFAULT_RETRIES",
    "FleetQueue",
    "FleetWorker",
    "Job",
    "JobQueue",
    "KILL_CELL_ENV",
    "QuotaExceeded",
    "ResultStore",
    "SpecError",
    "TenantQuota",
    "WorkerStats",
    "auto_jobs",
    "bomb_fingerprint",
    "build_spec",
    "cell_key",
    "check_quota",
    "decode_cell",
    "encode_cell",
    "harness_fingerprint",
    "image_digest",
    "infrastructure_failure_cell",
    "load_quotas",
    "load_spec_file",
    "parse_spec_text",
    "render_status_line",
    "run_fleet",
    "run_worker",
    "status_events",
    "status_finished",
    "watch_status",
]

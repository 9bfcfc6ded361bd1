"""Exporters over recorded telemetry: Prometheus text + span profile.

Two read-only views of data the :class:`~repro.obs.core.Recorder`
already produces:

* :func:`prometheus_text` renders a recorder ``snapshot()`` in the
  Prometheus text exposition format, so a campaign box can drop the
  file behind any static HTTP server and be scraped.  Counters become
  ``repro_<name>`` counters, spans become
  ``repro_span_count``/``repro_span_wall_seconds_total`` families
  labelled by span name, histograms become summaries.
* :func:`self_time_profile` builds a flamegraph-style self-time table
  from a JSONL span event stream: per span ``path``, the exclusive
  ``self_s`` each span event recorded, so it reports where time was
  actually *spent* rather than merely enclosed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

#: Content type the Prometheus text exposition format is served under
#: (``GET /metrics`` on the campaign API).
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _metric_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(round(float(value), 9))


def prometheus_text(snapshot: dict) -> str:
    """Render a ``Recorder.snapshot()`` as Prometheus text."""
    counters = snapshot.get("counters", {})
    spans = snapshot.get("spans", {})
    hists = snapshot.get("histograms", {})

    lines: list[str] = []
    for name in sorted(counters):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counters[name]}")

    if spans:
        lines.append("# TYPE repro_span_count counter")
        for name in sorted(spans):
            lines.append(
                f'repro_span_count{{span="{name}"}} {int(spans[name]["count"])}')
        lines.append("# TYPE repro_span_wall_seconds_total counter")
        for name in sorted(spans):
            lines.append(
                f'repro_span_wall_seconds_total{{span="{name}"}} '
                f'{_fmt(spans[name]["wall_s"])}')
        lines.append("# TYPE repro_span_cpu_seconds_total counter")
        for name in sorted(spans):
            lines.append(
                f'repro_span_cpu_seconds_total{{span="{name}"}} '
                f'{_fmt(spans[name]["cpu_s"])}')

    for name in sorted(hists):
        h = hists[name]
        metric = _metric_name(name)
        if h.get("buckets"):
            # Full bucket series: cumulative counts per upper bound, the
            # native Prometheus histogram type.  Latency distributions
            # (solver queries, stage walls) become scrapeable as-is.
            lines.append(f"# TYPE {metric} histogram")
            finite = sorted(
                (b for b in h["buckets"] if b != "+Inf"), key=float)
            cumulative = 0
            for bound in finite:
                cumulative += h["buckets"][bound]
                lines.append(
                    f'{metric}_bucket{{le="{bound}"}} {cumulative}')
            cumulative += h["buckets"].get("+Inf", 0)
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
            if "total" in h:
                lines.append(f"{metric}_sum {_fmt(h['total'])}")
            lines.append(f"{metric}_count {cumulative}")
            continue
        lines.append(f"# TYPE {metric} summary")
        for q_label, key in (("0.5", "p50"), ("0.95", "p95")):
            if key in h:
                lines.append(
                    f'{metric}{{quantile="{q_label}"}} {_fmt(h[key])}')
        if "total" in h:
            lines.append(f"{metric}_sum {_fmt(h['total'])}")
        if "count" in h:
            lines.append(f"{metric}_count {int(h['count'])}")
    return "\n".join(lines) + "\n" if lines else ""


def _label_str(labels: dict) -> str:
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}" if inner else ""


def prometheus_gauges(name: str,
                      samples: list[tuple[dict, float]]) -> str:
    """Render one labelled gauge family as Prometheus text.

    Covers live state no counter can express — e.g. the campaign API's
    per-campaign/per-state job gauges::

        prometheus_gauges("campaign_jobs",
                          [({"campaign": cid, "state": "pending"}, 3.0)])
    """
    if not samples:
        return ""
    metric = _metric_name(name)
    lines = [f"# TYPE {metric} gauge"]
    for labels, value in samples:
        lines.append(f"{metric}{_label_str(labels)} {_fmt(value)}")
    return "\n".join(lines) + "\n"


def solverlab_class_wall(report: dict) -> str:
    """Render a solverlab report's per-class solve wall as the labelled
    ``repro_solverlab_class_wall_seconds`` gauge family.

    *report* is the document produced by
    :func:`repro.eval.solverlab.report_corpus`; one sample per feature
    class, so a scrape of ``repro solverlab report --prom`` output
    tracks where the matrix's solve budget goes over time.
    """
    samples = [({"class": cls}, row["wall_s"])
               for cls, row in sorted(report.get("by_class", {}).items())]
    return prometheus_gauges("solverlab_class_wall_seconds", samples)


@dataclass
class ProfileRow:
    """Aggregated timing for one span path in the hierarchy."""

    path: str
    count: int
    wall_s: float
    self_s: float
    cpu_s: float


def self_time_profile(events: list[dict]) -> list[ProfileRow]:
    """Self-time table from a span event stream, sorted by self time.

    Rows are keyed by span ``path`` (``cell/trace/vm``) and sum the
    ``self_s`` each span event recorded.  An event without ``self_s``
    counts as childless (self == wall), the rule
    :meth:`~repro.obs.core.Recorder.absorb` applies.
    """
    rows: dict[str, ProfileRow] = {}
    for event in events:
        if event.get("t") != "span":
            continue
        path = event.get("path") or event.get("name", "")
        wall = event.get("wall_s", 0.0)
        self_s = event.get("self_s", wall)
        row = rows.get(path)
        if row is None:
            rows[path] = ProfileRow(path, 1, wall, self_s,
                                    event.get("cpu_s", 0.0))
        else:
            row.count += 1
            row.wall_s += wall
            row.self_s += self_s
            row.cpu_s += event.get("cpu_s", 0.0)
    return sorted(rows.values(), key=lambda r: r.self_s, reverse=True)


def render_profile(rows: list[ProfileRow]) -> str:
    """Text flamegraph table: deepest self-time consumers first."""
    if not rows:
        return "no span events"
    total_self = sum(r.self_s for r in rows) or 1.0
    lines = [f"{'self s':>10s}{'self %':>8s}{'wall s':>10s}{'count':>8s}  path",
             "-" * 68]
    for row in rows:
        pct = 100.0 * row.self_s / total_self
        lines.append(
            f"{row.self_s:>10.4f}{pct:>7.1f}%{row.wall_s:>10.4f}"
            f"{row.count:>8d}  {row.path}"
        )
    return "\n".join(lines)

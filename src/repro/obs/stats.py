"""Offline aggregation of a recorded event stream (``repro stats``).

Reads the JSONL events a :class:`~repro.obs.sinks.JsonlSink` wrote,
re-aggregates them (spans by name, counters summed, histogram summaries
merged) and renders a text report.  Aggregating from the event stream —
rather than trusting the flush-time summaries alone — means streams
from several runs can be concatenated and summarized together.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Aggregate:
    """Re-aggregated view of one (or several concatenated) event streams."""

    spans: dict[str, dict[str, float]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    hists: dict[str, dict[str, float]] = field(default_factory=dict)
    events: int = 0


def read_events(path, strict: bool = True) -> list[dict]:
    """Parse a JSONL metrics file into a list of event dicts.

    ``strict=False`` skips undecodable lines instead of raising — the
    stream of a worker killed mid-write legitimately ends in a torn
    line, and the executor still wants the events before it.
    """
    events = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if strict:
                raise
    return events


def aggregate_events(events: list[dict]) -> Aggregate:
    agg = Aggregate()
    for event in events:
        agg.events += 1
        kind = event.get("t")
        if kind == "span":
            stat = agg.spans.setdefault(
                event["name"], {"count": 0, "wall_s": 0.0, "cpu_s": 0.0})
            stat["count"] += 1
            stat["wall_s"] += event.get("wall_s", 0.0)
            stat["cpu_s"] += event.get("cpu_s", 0.0)
        elif kind == "counter":
            name = event["name"]
            agg.counters[name] = agg.counters.get(name, 0) + event["value"]
        elif kind == "hist":
            name = event["name"]
            prev = agg.hists.get(name)
            if prev is None:
                agg.hists[name] = {
                    k: event[k]
                    for k in ("count", "total", "min", "max", "mean",
                              "p50", "p95")
                    if k in event
                }
                if "buckets" in event:
                    agg.hists[name]["buckets"] = dict(event["buckets"])
            else:
                prev["count"] += event["count"]
                prev["total"] += event["total"]
                prev["min"] = min(prev["min"], event["min"])
                prev["max"] = max(prev["max"], event["max"])
                prev["mean"] = prev["total"] / prev["count"]
                # Percentiles cannot be merged exactly; keep the widest.
                prev["p50"] = max(prev["p50"], event["p50"])
                prev["p95"] = max(prev["p95"], event["p95"])
                # Bucket counts, by contrast, merge exactly by bound.
                if "buckets" in event:
                    merged = prev.setdefault("buckets", {})
                    for bound, n in event["buckets"].items():
                        merged[bound] = merged.get(bound, 0) + n
    return agg


def render_stats(agg: Aggregate) -> str:
    """Human-readable summary of an aggregate."""
    lines = [f"events: {agg.events}"]
    if agg.spans:
        lines.append("")
        lines.append(f"{'span':24s}{'count':>8s}{'wall s':>12s}"
                     f"{'cpu s':>12s}{'mean ms':>12s}")
        lines.append("-" * 68)
        for name in sorted(agg.spans):
            stat = agg.spans[name]
            mean_ms = 1000.0 * stat["wall_s"] / max(1, stat["count"])
            lines.append(
                f"{name:24s}{stat['count']:>8d}{stat['wall_s']:>12.4f}"
                f"{stat['cpu_s']:>12.4f}{mean_ms:>12.3f}"
            )
    if agg.counters:
        lines.append("")
        lines.append(f"{'counter':40s}{'value':>12s}")
        lines.append("-" * 52)
        for name in sorted(agg.counters):
            lines.append(f"{name:40s}{agg.counters[name]:>12d}")
    if agg.hists:
        lines.append("")
        lines.append(f"{'histogram':24s}{'count':>8s}{'mean':>12s}"
                     f"{'p50':>12s}{'p95':>12s}{'max':>12s}")
        lines.append("-" * 80)
        for name in sorted(agg.hists):
            h = agg.hists[name]
            lines.append(
                f"{name:24s}{h['count']:>8d}{h['mean']:>12.5f}"
                f"{h['p50']:>12.5f}{h['p95']:>12.5f}{h['max']:>12.5f}"
            )
    return "\n".join(lines)

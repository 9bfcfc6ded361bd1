"""Reading and rendering a recorded event stream (``repro stats``).

:func:`read_events` parses the JSONL events a
:class:`~repro.obs.sinks.JsonlSink` wrote; ``repro stats`` folds them
into a sink-less :class:`~repro.obs.core.Recorder` with ``absorb`` (the
merge the fleet applies to its slots' events, exact for concatenated
streams too) and :func:`render_stats` renders its ``snapshot()``.
"""

from __future__ import annotations

import json
from pathlib import Path


def read_events(path) -> list[dict]:
    """Parse a JSONL metrics file into a list of event dicts; a line
    that does not parse, a torn last line included, raises
    :class:`json.JSONDecodeError`."""
    return [json.loads(line) for line in
            Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]


def render_stats(snapshot: dict, events: int) -> str:
    """Human-readable summary of a recorder ``snapshot()`` folded from
    *events* events."""
    spans = snapshot["spans"]
    counters = snapshot["counters"]
    hists = snapshot["histograms"]
    lines = [f"events: {events}"]
    if spans:
        lines.append("")
        lines.append(f"{'span':24s}{'count':>8s}{'wall s':>12s}"
                     f"{'cpu s':>12s}{'mean ms':>12s}")
        lines.append("-" * 68)
        for name in sorted(spans):
            stat = spans[name]
            mean_ms = 1000.0 * stat["wall_s"] / max(1, stat["count"])
            lines.append(
                f"{name:24s}{stat['count']:>8d}{stat['wall_s']:>12.4f}"
                f"{stat['cpu_s']:>12.4f}{mean_ms:>12.3f}"
            )
    if counters:
        lines.append("")
        lines.append(f"{'counter':40s}{'value':>12s}")
        lines.append("-" * 52)
        for name in sorted(counters):
            lines.append(f"{name:40s}{counters[name]:>12d}")
    if hists:
        lines.append("")
        lines.append(f"{'histogram':24s}{'count':>8s}{'mean':>12s}"
                     f"{'p50':>12s}{'p95':>12s}{'max':>12s}")
        lines.append("-" * 80)
        for name in sorted(hists):
            h = hists[name]
            lines.append(
                f"{name:24s}{h['count']:>8d}{h['mean']:>12.5f}"
                f"{h['p50']:>12.5f}{h['p95']:>12.5f}{h['max']:>12.5f}"
            )
    return "\n".join(lines)

"""Structured tracing & metrics for the whole pipeline.

A dependency-free instrumentation layer: hierarchical spans with
wall/CPU timing, named counters and histograms, and pluggable sinks
(in-memory aggregation plus a JSONL event stream).  A :class:`Recorder`
is on while it is the recorder of the process's session
(:mod:`repro.obs.session`, scoped with ``with session.overlay(...)`` or
the :func:`recording` shorthand); when none is on every hook degrades to
a near-free no-op, so the engines stay import-cheap and fast with
observability off.

The recorder's aggregate is the only one: a flushed stream carries each
histogram's raw values, so :meth:`Recorder.absorb` folds streams back
exactly, for the fleet and for ``repro stats`` alike.

The metric names form the measurement substrate for the paper's
artifacts (see the README glossary): ``taint.instructions_tainted`` is
Figure 3's tainted-instruction count, the ``trace``/``lift``/
``extract``/``solve``/``replay`` spans are the per-cell stage timeline
behind each Table II label, and ``smt.*`` exposes the CDCL core.
"""

from .core import NULL_SPAN, Recorder, Span, count, observe, span
from .export import prometheus_text, render_profile, self_time_profile
from .profile import Profiler
from .provenance import ProvenanceCollector
from .session import recording
from .sinks import JsonlSink, MemorySink
from .stats import read_events, render_stats
from .traceviz import (
    chrome_trace,
    collapsed_stacks,
    hotspots,
    render_hotspots,
    validate_chrome_trace,
)

__all__ = [
    "JsonlSink",
    "MemorySink",
    "NULL_SPAN",
    "Profiler",
    "ProvenanceCollector",
    "Recorder",
    "Span",
    "chrome_trace",
    "collapsed_stacks",
    "count",
    "hotspots",
    "observe",
    "prometheus_text",
    "read_events",
    "recording",
    "render_hotspots",
    "render_profile",
    "render_stats",
    "self_time_profile",
    "span",
    "validate_chrome_trace",
]

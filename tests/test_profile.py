"""Attribution profiler, trace stitching, and exporter tests.

Three layers are pinned here:

* :class:`repro.obs.profile.Profiler` bucket arithmetic — PC tallies,
  query telemetry, the flush/absorb roundtrip that merges worker
  profiles into the parent across process boundaries;
* cross-process trace stitching — a ``run_table2(jobs=N)`` fan-out must
  yield one trace id with every worker's top span parented under the
  harness span, and the Chrome trace-event export must validate;
* integration — running a real cell with the profiler installed
  attributes PCs and solver queries, and a timed-out worker still
  surfaces its partial spans with an ``aborted`` attribute.
"""

import json

import pytest

from repro import obs
from repro.bombs import get_bomb
from repro.eval.harness import run_cell, run_table2
from repro.obs import profile, session
from repro.obs.core import bucket_counts
from repro.obs.traceviz import (
    chrome_trace,
    collapsed_stacks,
    hotspots,
    render_hotspots,
    validate_chrome_trace,
)


@pytest.fixture(autouse=True)
def _no_leaked_profiler():
    """Every test starts and ends with nothing on."""
    session.reset()
    yield
    session.reset()


class TestProfilerBuckets:
    def test_record_pcs_accumulates_steps(self):
        prof = profile.Profiler()
        prof.set_cell("b", "t")
        prof.record_pcs("trace", {0x10: 3, 0x14: 1})
        prof.record_pcs("trace", {0x10: 2})
        assert prof.pc_buckets[("b", "t", "trace", 0x10)]["steps"] == 5
        assert prof.pc_buckets[("b", "t", "trace", 0x14)]["steps"] == 1

    def test_stages_and_cells_bucket_separately(self):
        prof = profile.Profiler()
        prof.set_cell("b1", "t")
        prof.record_pcs("trace", {0x10: 1})
        prof.record_pcs("extract", {0x10: 1})
        prof.set_cell("b2", "t")
        prof.record_pcs("trace", {0x10: 1})
        assert len(prof.pc_buckets) == 3

    def test_record_query_totals_and_status(self):
        prof = profile.Profiler()
        prof.set_cell("b", "t")
        prof.record_query((0x40, "negation"), 0.5, "sat",
                          conflicts=3, gates=100, learnt=2)
        prof.record_query((0x40, "negation"), 1.5, "unsat",
                          conflicts=1, gates=50, learnt=1)
        bucket = prof.query_buckets[("b", "t", 0x40, "negation")]
        assert bucket["n"] == 2
        assert bucket["wall_s"] == pytest.approx(2.0)
        assert bucket["max_s"] == pytest.approx(1.5)
        assert bucket["conflicts"] == 4
        assert bucket["gates"] == 150
        assert bucket["learnt"] == 3
        assert bucket["sat"] == 1 and bucket["unsat"] == 1

    def test_query_wall_feeds_solve_stage_pc_view(self):
        prof = profile.Profiler()
        prof.set_cell("b", "t")
        prof.record_query((0x40, "negation"), 0.25, "sat")
        assert prof.pc_buckets[("b", "t", "solve", 0x40)]["wall_s"] == \
            pytest.approx(0.25)

    def test_snapshot_sorts_hottest_first(self):
        prof = profile.Profiler()
        prof.set_cell("b", "t")
        prof.record_query((1, "negation"), 0.1)
        prof.record_query((2, "negation"), 0.9)
        snap = prof.snapshot()
        assert [q["pc"] for q in snap["queries"]] == [2, 1]
        assert snap["pcs"][0]["pc"] == 2  # solve wall dominates

    def test_module_hooks_are_noops_when_off(self):
        assert session.current.profiler is None
        profile.record_pcs("trace", {1: 1})
        profile.record_vm({1: 1})
        profile.record_query((1, "negation"), 0.1)
        with session.cell("b", "t"):
            pass  # must not raise with no profiler on

    def test_record_vm_attributes_to_innermost_stage_span(self):
        prof = profile.Profiler()
        rec = obs.Recorder()
        with obs.recording(rec, close=False), session.overlay(profiler=prof):
            with obs.span("cell"), obs.span("trace"):
                profile.record_vm({0x30: 7})
            profile.record_vm({0x31: 1})  # no stage span open
        assert prof.pc_buckets[(None, None, "trace", 0x30)]["steps"] == 7
        assert prof.pc_buckets[(None, None, "vm", 0x31)]["steps"] == 1


class TestFlushAbsorb:
    def _worker_stream(self, bomb, pc_steps, query_wall):
        """Simulate one worker: profile a cell, return its event stream."""
        sink = obs.MemorySink()
        rec = obs.Recorder(sinks=[sink])
        prof = profile.Profiler()
        with obs.recording(rec):
            with session.overlay(profiler=prof):
                with session.cell(bomb, "toolx"):
                    with obs.span("cell"), obs.span("trace"):
                        profile.record_vm(dict(pc_steps))
                    profile.record_query((0x99, "negation"), query_wall,
                                         "sat", gates=10)
                obs.count("widgets", 2)
                obs.observe("latency", query_wall)
        return sink.events

    def test_two_workers_merge_into_parent_profiler(self):
        stream_a = self._worker_stream("bomb_a", {0x10: 3}, 0.25)
        stream_b = self._worker_stream("bomb_b", {0x10: 5}, 0.75)

        parent_prof = profile.Profiler()
        parent = obs.Recorder(sinks=[obs.MemorySink()])
        with session.overlay(profiler=parent_prof):
            parent.absorb(stream_a)
            parent.absorb(stream_b)
            # Duplicate counter names across workers sum exactly.
            assert parent.counters["widgets"] == 4
            # Each worker had a trace bucket plus the solve-stage bucket
            # record_query feeds.
            assert parent.counters["prof.pc_buckets"] == 4
            assert parent.hists["latency"] == [0.25, 0.75]
            # Nested spans from both workers merged into span stats.
            assert parent.span_stats["cell"]["count"] == 2
            assert parent.span_stats["trace"]["count"] == 2
            # Prof events merged into the parent profiler, per cell.
            a = parent_prof.pc_buckets[("bomb_a", "toolx", "trace", 0x10)]
            b = parent_prof.pc_buckets[("bomb_b", "toolx", "trace", 0x10)]
            assert (a["steps"], b["steps"]) == (3, 5)
            qa = parent_prof.query_buckets[("bomb_a", "toolx", 0x99,
                                            "negation")]
            assert qa["n"] == 1 and qa["gates"] == 10
            # Prof events were routed to the profiler, not re-emitted.
            sink = parent.sinks[0]
            assert not any(e.get("t") == "prof" for e in sink.events)

    def test_absorb_reemits_prof_events_without_a_profiler(self):
        stream = self._worker_stream("bomb_a", {0x10: 3}, 0.25)
        sink = obs.MemorySink()
        parent = obs.Recorder(sinks=[sink])
        parent.absorb(stream)  # no profiler installed: lossless passthrough
        assert any(e.get("t") == "prof" for e in sink.events)

    def test_flush_absorb_roundtrip_is_exact(self):
        prof = profile.Profiler()
        prof.set_cell("b", "t")
        prof.record_pcs("trace", {1: 4, 2: 9})
        prof.record_query((3, "negation"), 0.5, "sat", conflicts=2)
        sink = obs.MemorySink()
        rec = obs.Recorder(sinks=[sink])
        prof.flush_to(rec)

        clone = profile.Profiler()
        for event in sink.events:
            if event.get("t") == "prof":
                clone.absorb_event(event)
        assert clone.pc_buckets == prof.pc_buckets
        assert clone.query_buckets == prof.query_buckets

    def test_max_latency_merges_as_max_not_sum(self):
        a, b = profile.Profiler(), profile.Profiler()
        a.record_query((1, "negation"), 0.9)
        b.record_query((1, "negation"), 0.4)
        sink = obs.MemorySink()
        rec = obs.Recorder(sinks=[sink])
        a.flush_to(rec)
        b.flush_to(rec)
        merged = profile.Profiler()
        for event in sink.events:
            if event.get("t") == "prof":
                merged.absorb_event(event)
        bucket = merged.query_buckets[(None, None, 1, "negation")]
        assert bucket["max_s"] == pytest.approx(0.9)
        assert bucket["wall_s"] == pytest.approx(1.3)


class TestTraceStitching:
    def test_parallel_table2_yields_one_stitched_trace(self):
        sink = obs.MemorySink()
        rec = obs.Recorder(sinks=[sink])
        with obs.recording(rec, close=False):
            with session.overlay(profiler=profile.Profiler()):
                run_table2(bomb_ids=("cp_stack", "sv_time"),
                           tools=("tritonx", "bapx"), jobs=2)
        rec.close()
        spans = [e for e in sink.events if e["t"] == "span"]
        # One trace id across harness + both workers.
        assert {e["trace"] for e in spans} == {rec.trace_id}
        # Four cells in at most two slot processes: a slot ran several
        # jobs, each with its own recorder.
        assert 2 <= len({e["pid"] for e in spans}) <= 3
        # Every worker top-level span is parented under the table2 span.
        table2 = [e for e in spans if e["name"] == "table2"]
        assert len(table2) == 1
        worker_tops = [e for e in spans
                       if e["pid"] != rec.pid and "/" not in e["path"]]
        assert worker_tops
        assert all(e["parent_id"] == table2[0]["span_id"]
                   for e in worker_tops)
        # Span ids are unique across processes (pid-prefixed) and across
        # the recorders of one process.
        ids = [e["span_id"] for e in spans]
        assert len(ids) == len(set(ids))

    def test_chrome_trace_export_validates(self):
        sink = obs.MemorySink()
        rec = obs.Recorder(sinks=[sink])
        with obs.recording(rec, close=False):
            run_table2(bomb_ids=("cp_stack",), tools=("tritonx",), jobs=2)
        rec.close()
        doc = chrome_trace(sink.events)
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["trace_ids"] == [rec.trace_id]
        # Survives a JSON roundtrip (what --trace-out writes to disk).
        assert validate_chrome_trace(json.loads(json.dumps(doc))) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"table2", "cell"} <= names
        # Process metadata distinguishes the harness from workers.
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        roles = {e["args"]["name"].split(" ")[0] for e in meta}
        assert {"harness", "worker"} <= roles

    def test_collapsed_stacks_from_span_stream(self):
        events = [
            {"t": "span", "name": "trace", "path": "cell/trace",
             "wall_s": 0.25, "cpu_s": 0.0, "self_s": 0.25},
            {"t": "span", "name": "cell", "path": "cell",
             "wall_s": 1.0, "cpu_s": 0.0, "self_s": 0.75},
        ]
        text = collapsed_stacks(events)
        assert "cell;trace 250000" in text
        assert "cell 750000" in text  # self time: 1.0 - 0.25


class TestIntegration:
    def test_profiled_cell_attributes_pcs_and_queries(self):
        prof = profile.Profiler()
        rec = obs.Recorder(sinks=[obs.MemorySink()])
        with obs.recording(rec, close=False):
            with session.overlay(profiler=prof):
                cell = run_cell(get_bomb("cp_stack"), "tritonx")
        assert str(cell.outcome) == "ok"
        snap = prof.snapshot()
        # The VM tallied per-PC steps in the trace stage...
        trace_rows = [r for r in snap["pcs"] if r["stage"] == "trace"]
        assert trace_rows and sum(r["steps"] for r in trace_rows) > 0
        assert all(r["bomb"] == "cp_stack" and r["tool"] == "tritonx"
                   for r in snap["pcs"])
        # ...and every solver query carries its guard's (pc, kind) tag.
        assert snap["queries"]
        assert all(isinstance(r["pc"], int) for r in snap["queries"])
        assert {r["kind"] for r in snap["queries"]} == {"negation"}
        # Bookkeeping counters flushed when the profiling block exited.
        with session.overlay(profiler=prof):
            pass
        assert rec.counters["prof.pc_buckets"] > 0

    def test_explorer_tags_queries_with_explore_kind(self):
        prof = profile.Profiler()
        with obs.recording(obs.Recorder(), close=False):
            with session.overlay(profiler=prof):
                run_cell(get_bomb("cp_stack"), "angrx_nolib")
        kinds = {r["kind"] for r in prof.snapshot()["queries"]}
        assert "explore" in kinds
        explore_pcs = [r for r in prof.snapshot()["pcs"]
                       if r["stage"] == "explore"]
        assert explore_pcs and sum(r["steps"] for r in explore_pcs) > 0

    def test_disabled_profiler_adds_no_per_step_state(self):
        from repro.trace.tracer import record_trace

        bomb = get_bomb("cp_stack")
        assert session.current.profiler is None
        trace = record_trace(bomb.image, [b"prog"] + bomb.seed_argv[1:])
        assert trace.instruction_count > 0  # ran with the step tally gated off

    def test_hotspot_report_renders_real_cell(self):
        prof = profile.Profiler()
        with obs.recording(obs.Recorder(), close=False):
            with session.overlay(profiler=prof):
                run_cell(get_bomb("cp_stack"), "tritonx")
        text = render_hotspots(prof.snapshot(), top=5)
        assert "Hot PCs" in text and "Hot guards" in text
        assert "cp_stack/tritonx" in text
        assert "0x" in text
        hot = hotspots(prof.snapshot(), top=3)
        assert len(hot["pcs"]) <= 3 and len(hot["queries"]) <= 3


class TestAbortedSpans:
    def test_abort_open_spans_flushes_with_reason(self):
        sink = obs.MemorySink()
        rec = obs.Recorder(sinks=[sink])
        with obs.recording(rec, close=False):
            obs.span("cell").__enter__()
            obs.span("explore").__enter__()
            rec.abort_open_spans("sigterm")
        spans = {e["name"]: e for e in sink.events if e["t"] == "span"}
        assert spans["explore"]["attrs"]["aborted"] == "sigterm"
        assert spans["cell"]["attrs"]["aborted"] == "sigterm"
        assert spans["explore"]["path"] == "cell/explore"
        assert rec._stack == []

    def test_timed_out_worker_surfaces_partial_spans(self):
        sink = obs.MemorySink()
        rec = obs.Recorder(sinks=[sink])
        with obs.recording(rec, close=False):
            result = run_table2(bomb_ids=("cf_aes",), tools=("angrx",),
                                timeout=0.4)
        cell = result.cells[("cf_aes", "angrx")]
        assert str(cell.outcome) == "E"
        assert cell.infra_failure
        aborted = [e for e in sink.events if e["t"] == "span"
                   and e.get("attrs", {}).get("aborted")]
        assert aborted, "killed worker left no partial spans"
        assert {e["attrs"]["aborted"] for e in aborted} == {"sigterm"}
        # The worker joined the parent's trace before it was killed.
        assert {e["trace"] for e in aborted} == {rec.trace_id}


class TestBucketCounts:
    def test_values_land_in_buckets(self):
        counts = bucket_counts([0.5e-6, 5e-6, 0.2, 2.0, 1e7])
        assert counts[repr(1e-06)] == 1   # 0.5µs ≤ 1µs
        assert counts[repr(5e-06)] == 1
        assert counts[repr(1.0)] == 1
        assert counts[repr(10.0)] == 1
        assert counts["+Inf"] == 1
        assert sum(counts.values()) == 5

    def test_sub_millisecond_values_resolve_within_a_decade(self):
        # Solver queries cluster between 10µs and 1ms; the 1-2.5-5
        # subdivisions must separate values a decade scheme would blur.
        counts = bucket_counts([20e-6, 40e-6, 80e-6, 300e-6])
        assert counts[repr(2.5e-05)] == 1
        assert counts[repr(5e-05)] == 1
        assert counts[repr(0.0001)] == 1
        assert counts[repr(0.0005)] == 1

    def test_bounds_are_sorted_and_decade_spaced_above_1ms(self):
        from repro.obs.core import BUCKET_BOUNDS

        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)
        assert len(set(BUCKET_BOUNDS)) == len(BUCKET_BOUNDS)
        # Keys are repr()s with no float-noise digits (they become
        # Prometheus le= label values).
        for bound in BUCKET_BOUNDS:
            assert "999" not in repr(bound), repr(bound)
        assert tuple(b for b in BUCKET_BOUNDS if b >= 1e-3) == \
            tuple(10.0 ** e for e in range(-3, 7))

    def test_prometheus_exposition_renders_sub_ms_buckets(self):
        from repro.obs import prometheus_text

        text = prometheus_text({"histograms": {"smt.solve_s": {
            "count": 3, "total": 0.00053, "p50": 2e-05, "p95": 0.0005,
            "buckets": {repr(2.5e-05): 2, repr(0.0005): 1},
        }}})
        assert 'repro_smt_solve_s_bucket{le="2.5e-05"} 2' in text
        # Cumulative across the finer bounds, sorted numerically.
        assert 'repro_smt_solve_s_bucket{le="0.0005"} 3' in text
        assert text.index('le="2.5e-05"') < text.index('le="0.0005"')

    def test_prometheus_exposition_renders_cumulative_buckets(self):
        from repro.obs import prometheus_text

        text = prometheus_text({"histograms": {"smt.solve_s": {
            "count": 3, "total": 1.11, "p50": 0.01, "p95": 1.0,
            "buckets": {repr(0.01): 2, repr(10.0): 1},
        }}})
        assert "# TYPE repro_smt_solve_s histogram" in text
        assert 'repro_smt_solve_s_bucket{le="0.01"} 2' in text
        # Cumulative: the 10.0 bucket includes the 0.01 entries.
        assert 'repro_smt_solve_s_bucket{le="10.0"} 3' in text
        assert 'repro_smt_solve_s_bucket{le="+Inf"} 3' in text
        assert "repro_smt_solve_s_sum 1.11" in text
        assert "repro_smt_solve_s_count 3" in text
        # Histogram output replaces the summary fallback entirely.
        assert "quantile" not in text

    def test_bucket_series_merge_in_aggregate(self):
        merged = obs.Recorder()
        for values in ([0.5], [0.75, 10.0]):
            sink = obs.MemorySink()
            rec = obs.Recorder(sinks=[sink])
            for value in values:
                rec.observe("h", value)
            rec.close()
            merged.absorb(sink.events)
        h = merged.snapshot()["histograms"]["h"]
        assert h["buckets"] == {repr(1.0): 2, repr(10.0): 1}
        assert h["count"] == 3 and h["p50"] == 0.75

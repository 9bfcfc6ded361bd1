"""Tests for the observability layer (spans, counters, sinks, wiring).

Spans are timed with injectable clocks, so every timing assertion here
is exact — no sleeps, no tolerances.  The wiring tests drive real
engine runs through the recorder and check that the metric stream
reports the same numbers the engines' own result objects carry.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs import (
    NULL_SPAN,
    JsonlSink,
    MemorySink,
    Recorder,
    read_events,
    render_stats,
    session,
)


class FakeClock:
    """Manually advanced clock for deterministic span timing."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_recorder(sinks=()):
    wall, cpu = FakeClock(), FakeClock()
    rec = Recorder(sinks=sinks, wall_clock=wall, cpu_clock=cpu)
    return rec, wall, cpu


class TestSpans:
    def test_span_timing_is_exact_with_fake_clock(self):
        rec, wall, cpu = make_recorder()
        with rec.span("outer"):
            wall.advance(2.0)
            cpu.advance(0.5)
        stat = rec.span_stats["outer"]
        assert stat == {"count": 1, "wall_s": 2.0, "cpu_s": 0.5, "self_s": 2.0}

    def test_nesting_paths_and_span_totals(self):
        sink = MemorySink()
        rec, wall, _ = make_recorder([sink])
        with rec.span("cell") as cell:
            with rec.span("trace"):
                wall.advance(1.0)
            with rec.span("solve"):
                wall.advance(0.25)
                with rec.span("solve"):
                    wall.advance(0.25)
        # Children before parents in the event stream.
        names = [e["name"] for e in sink.events if e["t"] == "span"]
        assert names == ["trace", "solve", "solve", "cell"]
        paths = [e["path"] for e in sink.events if e["t"] == "span"]
        assert paths == ["cell/trace", "cell/solve/solve", "cell/solve", "cell"]
        # The per-name totals are a flat per-stage timeline.  The nested
        # solve is counted under its own name and inside its parent
        # solve, so the solve wall total counts the inner 0.25 s twice.
        stats = rec.span_stats
        assert stats["trace"]["wall_s"] == 1.0
        assert stats["solve"]["wall_s"] == 0.75
        assert cell.wall_s == 1.5
        # Exclusive self-time strips nested children: the outer solve's
        # 0.5 s inclusive wall minus the inner solve's 0.25 s, and the
        # cell itself did no work of its own.
        assert stats["trace"]["self_s"] == 1.0
        assert stats["solve"]["self_s"] == 0.5
        assert cell.self_s == 0.0

    def test_abort_closes_spans_as_exit_does(self):
        def close_at_same_time(close):
            sink = MemorySink()
            rec, wall, cpu = make_recorder([sink])
            cell = rec.span("cell").__enter__()
            wall.advance(0.5)
            solve = rec.span("solve").__enter__()
            with rec.span("sat"):
                wall.advance(0.25)
            wall.advance(1.0)
            cpu.advance(0.75)
            close(rec, solve, cell)
            assert rec._stack == []
            events = {e["name"]: (e["wall_s"], e["cpu_s"], e["self_s"])
                      for e in sink.events if e["t"] == "span"}
            return events, rec.span_stats

        def exit_both(rec, solve, cell):
            solve.__exit__(None, None, None)
            cell.__exit__(None, None, None)

        exited = close_at_same_time(exit_both)
        aborted = close_at_same_time(
            lambda rec, *spans: rec.abort_open_spans("sigterm"))
        assert aborted == exited
        events, _ = exited
        # solve's own wall excludes the closed sat child; the cell's
        # self-time excludes the 1.25 s solve charged to it on close.
        assert events["solve"] == (1.25, 0.75, 1.0)
        assert events["cell"] == (1.75, 0.75, 0.5)

    def test_span_records_counter_deltas(self):
        sink = MemorySink()
        rec, _, _ = make_recorder([sink])
        rec.count("x", 10)
        with rec.span("work"):
            rec.count("x", 5)
            rec.count("y")
        event = next(e for e in sink.events if e["t"] == "span")
        assert event["counters"] == {"x": 5, "y": 1}

    def test_span_marks_exceptions(self):
        sink = MemorySink()
        rec, _, _ = make_recorder([sink])
        with pytest.raises(ValueError):
            with rec.span("broken"):
                raise ValueError("boom")
        event = next(e for e in sink.events if e["t"] == "span")
        assert event["attrs"]["error"] == "ValueError"
        assert not rec._stack  # the stack unwound


class TestCountersAndHists:
    def test_counters_aggregate(self):
        rec, _, _ = make_recorder()
        rec.count("a")
        rec.count("a", 4)
        rec.count("b", 2)
        assert rec.snapshot()["counters"] == {"a": 5, "b": 2}

    def test_histogram_summary(self):
        rec, _, _ = make_recorder()
        for v in [1.0, 2.0, 3.0, 4.0]:
            rec.observe("h", v)
        summary = rec.snapshot()["histograms"]["h"]
        assert summary["count"] == 4
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 3.0  # nearest-rank on the sorted list


class TestJsonlRoundTrip:
    def test_stream_reaggregates_to_the_snapshot(self, tmp_path):
        path = tmp_path / "m.jsonl"
        rec, wall, _ = make_recorder([JsonlSink(path)])
        with rec.span("stage"):
            wall.advance(1.5)
            rec.count("widgets", 7)
        rec.observe("latency", 0.25)
        rec.close()

        events = read_events(path)
        assert all(isinstance(e, dict) for e in events)
        folded = Recorder()
        folded.absorb(events)
        assert folded.snapshot() == rec.snapshot()
        text = render_stats(folded.snapshot(), len(events))
        assert "stage" in text and "widgets" in text and "latency" in text

    def test_concatenated_streams_merge(self, tmp_path):
        path = tmp_path / "m.jsonl"
        for _ in range(2):
            sink = MemorySink()
            rec, _, _ = make_recorder([sink])
            rec.count("runs")
            rec.close()
            with path.open("a") as fp:
                for event in sink.events:
                    fp.write(json.dumps(event) + "\n")
        folded = Recorder()
        folded.absorb(read_events(path))
        assert folded.counters["runs"] == 2

    def test_stats_merges_concatenated_percentiles_exactly(self, tmp_path,
                                                           capsys):
        # p50 of the eight observations is 20; the larger of the two
        # per-stream p50s (2 and 30) is not.
        parts = []
        for values in ([1.0, 2.0, 3.0], [10.0, 20.0, 30.0, 40.0, 50.0]):
            part = tmp_path / f"part{len(parts)}.jsonl"
            rec, _, _ = make_recorder([JsonlSink(part)])
            for value in values:
                rec.observe("latency", value)
            rec.close()
            parts.append(part.read_text())
        path = tmp_path / "both.jsonl"
        path.write_text("".join(parts))
        assert main(["stats", str(path)]) == 0
        captured = capsys.readouterr()
        row = next(line.split() for line in captured.out.splitlines()
                   if line.startswith("latency"))
        count, mean, p50, p95, top = row[1:]
        assert (int(count), float(mean), float(p50), float(p95),
                float(top)) == (8, 19.5, 20.0, 50.0, 50.0)
        assert captured.err == ""

    def test_stats_names_histograms_without_values(self, tmp_path, capsys):
        # A stream written before hist events carried their values: the
        # summary cannot be merged, so stats names it instead.
        events = [
            {"t": "counter", "name": "runs", "value": 1},
            {"t": "hist", "name": "smt.solve_s", "count": 2, "total": 0.5,
             "min": 0.1, "max": 0.4, "mean": 0.25, "p50": 0.4, "p95": 0.4},
        ]
        path = tmp_path / "old.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert main(["stats", str(path)]) == 0
        captured = capsys.readouterr()
        assert "runs" in captured.out
        assert "smt.solve_s" not in captured.out
        assert captured.err.count("\n") == 1
        assert "without raw values (not merged): smt.solve_s" in captured.err


class TestJsonlConcurrentWriters:
    """Forked processes sharing one JsonlSink must interleave whole
    lines, never fragments — the fleet's workers inherit the parent's
    descriptor and the kernel-shared offset is the only coordination."""

    N_CHILDREN = 4
    N_EVENTS = 200

    def test_forked_writers_produce_only_whole_lines(self, tmp_path):
        import os

        path = tmp_path / "fork.jsonl"
        sink = JsonlSink(path)
        pids = []
        for child in range(self.N_CHILDREN):
            pid = os.fork()
            if pid == 0:
                try:
                    # Distinct payload sizes per child so torn lines
                    # could not accidentally reassemble into valid JSON.
                    pad = "x" * (20 + 7 * child)
                    for i in range(self.N_EVENTS):
                        sink.emit({"t": "count", "name": f"c{child}",
                                   "n": 1, "i": i, "pad": pad})
                    os._exit(0)
                except BaseException:
                    os._exit(1)
            pids.append(pid)
        for pid in pids:
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
        sink.close()

        events = read_events(path)  # strict: ANY torn line raises
        assert len(events) == self.N_CHILDREN * self.N_EVENTS
        for child in range(self.N_CHILDREN):
            seen = [e["i"] for e in events if e["name"] == f"c{child}"]
            # Each child's own lines land in order and none are lost.
            assert seen == list(range(self.N_EVENTS))

    def test_torn_final_line_is_rejected(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        sink = JsonlSink(path)
        sink.emit({"t": "count", "name": "ok", "n": 1})
        sink.close()
        # Simulate a writer killed mid-flush: append half a line.
        with path.open("a", encoding="utf-8") as fp:
            fp.write('{"t":"count","name":"torn","n')
        with pytest.raises(json.JSONDecodeError):
            read_events(path)
        with pytest.raises(SystemExit, match="not a JSONL event stream"):
            main(["stats", str(path)])


class TestOffMode:
    def test_hooks_are_noops_without_a_recorder(self):
        assert session.current.recorder is None
        obs.count("nothing")
        obs.observe("nothing", 1.0)
        assert obs.span("nothing") is NULL_SPAN
        with obs.span("nothing") as sp:
            sp.set("k", "v")
            assert sp.attrs == {}

    def test_off_mode_overhead_is_tiny(self):
        # 200k disabled count() calls must stay well under a second:
        # the off path is one session-field load and a None check.  A
        # generous absolute bound keeps this robust on slow CI machines
        # while still catching an accidentally-heavy off path.
        import time

        assert session.current.recorder is None
        t0 = time.perf_counter()
        for _ in range(200_000):
            obs.count("x")
        assert time.perf_counter() - t0 < 1.0

    def test_recording_scopes_and_restores(self):
        outer = Recorder()
        with obs.recording(outer, close=False):
            assert session.current.recorder is outer
            inner = Recorder()
            with obs.recording(inner, close=False):
                assert session.current.recorder is inner
                obs.count("scoped")
            assert session.current.recorder is outer
        assert session.current.recorder is None
        assert inner.counters == {"scoped": 1}
        assert outer.counters == {}

    def test_recording_restores_on_exception(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with obs.recording(rec):
                raise RuntimeError
        assert session.current.recorder is None


class TestEngineWiring:
    def test_figure3_counts_flow_through_the_metrics_path(self):
        # The paper's Figure 3 reports 5 tainted instructions without the
        # printf and 66 with it (+61).  This reproduction measures its own
        # pair of counts; the regression being pinned here is that the
        # metrics path reports *exactly* the numbers the TaintSummary
        # carries, and that the blow-up shape (printing multiplies the
        # tainted count) is visible from the metric stream alone.
        from repro.eval import run_figure3

        sink = MemorySink()
        with obs.recording(Recorder(sinks=[sink])):
            result = run_figure3()
        deltas = {
            e["attrs"]["variant"]: e["counters"]
            for e in sink.events
            if e["t"] == "span" and e["name"] == "figure3"
        }
        off = deltas["fig3_printf_off"]
        on = deltas["fig3_printf_on"]
        assert off["taint.instructions_tainted"] == \
            result.off.tainted_instructions
        assert on["taint.instructions_tainted"] == \
            result.on.tainted_instructions
        assert on["taint.instructions_tainted"] > \
            2 * off["taint.instructions_tainted"]
        assert on["taint.model_nodes"] == result.on.model_nodes

    def test_vm_counters(self):
        from repro.bombs.suite import get_bomb
        from repro.vm import Machine

        bomb = get_bomb("cp_stack")
        rec = Recorder()
        with obs.recording(rec, close=False):
            result = Machine(
                bomb.image, [b"prog"] + bomb.seed_argv, bomb.base_env()
            ).run()
        counters = rec.snapshot()["counters"]
        assert counters["vm.instructions"] == result.steps
        assert counters["vm.syscalls"] >= 1
        # Per-opcode histogram totals match the retirement count.
        op_total = sum(v for k, v in counters.items() if k.startswith("vm.op."))
        assert op_total == result.steps

    def test_cell_records_stage_timings_and_replay(self):
        from repro.bombs.suite import get_bomb
        from repro.eval import run_cell

        rec = Recorder()
        with obs.recording(rec, close=False):
            cell = run_cell(get_bomb("cp_stack"), "tritonx")
        assert cell.outcome.solved
        for stage in ("trace", "lift", "extract", "solve", "replay"):
            assert stage in cell.timings, cell.timings
            assert cell.timings[stage] >= 0.0
        counters = rec.snapshot()["counters"]
        assert counters["taint.instructions_tainted"] > 0
        assert counters["smt.queries"] > 0
        assert "smt.conflicts" in counters

    def test_cell_timings_are_the_recorders_span_totals(self):
        # A cell's stage timeline is what the spans that closed inside
        # its cell span added to one recorder's per-name totals, also
        # when the recorder already holds earlier cells' spans.
        from repro.bombs.suite import get_bomb
        from repro.eval import run_cell

        def totals(rec, key):
            return {name: stat[key] for name, stat in rec.span_stats.items()}

        rec = Recorder()
        with obs.recording(rec, close=False):
            for bomb, tool in (("cp_stack", "tritonx"), ("sv_time", "bapx"),
                               ("cp_stack", "angrx_nolib")):
                before = {key: totals(rec, key)
                          for key in ("count", "wall_s", "self_s")}
                cell = run_cell(get_bomb(bomb), tool)
                ran = {name for name, n in totals(rec, "count").items()
                       if n > before["count"].get(name, 0)} - {"cell"}
                assert ran and set(cell.timings) == ran
                for timings, key in ((cell.timings, "wall_s"),
                                     (cell.timings_self, "self_s")):
                    after = totals(rec, key)
                    delta = {name: after[name] - before[key].get(name, 0.0)
                             for name in ran}
                    assert timings == pytest.approx(delta, abs=1e-9)
        assert "explore" in cell.timings

    def test_cell_diagnostic_names_the_root_cause(self):
        from repro.bombs.suite import get_bomb
        from repro.eval import run_cell

        cell = run_cell(get_bomb("sv_time"), "bapx")
        assert not cell.outcome.solved
        assert cell.diagnostic is not None
        # With no recorder installed there is no stage timeline.
        assert cell.timings == {}

    def test_solved_counts_includes_all_tools(self):
        from repro.bombs import TOOL_COLUMNS
        from repro.errors import ErrorStage
        from repro.eval.harness import CellResult, Table2Result
        from repro.tools.api import ToolReport

        result = Table2Result()
        # An unsolved cell for a tool outside TOOL_COLUMNS must still
        # appear in the counts (previously it was silently dropped).
        result.add(CellResult(
            bomb_id="sv_time", tool="rexx", outcome=ErrorStage.ES0,
            expected=None, report=ToolReport(tool="rexx", bomb_id="sv_time"),
        ))
        counts = result.solved_counts()
        assert counts["rexx"] == 0
        for tool in TOOL_COLUMNS:
            assert counts[tool] == 0

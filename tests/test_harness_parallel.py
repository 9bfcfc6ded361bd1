"""Parallel Table II harness: process fan-out must not change results.

Cells are independent (bomb, tool) pairs; ``run_table2(jobs=N)`` keeps
N of them in flight through the fleet worker, each cell process
recording to a private JSONL stream the parent absorbs.  These tests pin the two contracts: the
outcome matrix is byte-identical to a serial run, and the merged
metrics carry the same counters/stage spans a serial recorder would.
"""

import json

from repro import obs
from repro.eval import render_table2, run_table2

BOMBS = ("cp_stack", "sv_time")
TOOLS = ("tritonx", "bapx")


def _outcome_view(result):
    """The outcome-relevant projection (timings legitimately differ)."""
    data = result.to_json()
    return {
        "cells": [
            {k: c[k] for k in ("bomb", "tool", "outcome", "expected",
                               "matches_paper", "diagnostic")}
            for c in data["cells"]
        ],
        "solved_counts": data["solved_counts"],
        "agreement": data["agreement"],
    }


class TestParallelMatchesSerial:
    def test_outcome_matrix_is_identical(self):
        serial = run_table2(bomb_ids=BOMBS, tools=TOOLS)
        parallel = run_table2(bomb_ids=BOMBS, tools=TOOLS, jobs=2)
        assert _outcome_view(serial) == _outcome_view(parallel)
        assert render_table2(serial) == render_table2(parallel)

    def test_cell_results_pickle_cleanly(self):
        import pickle

        parallel = run_table2(bomb_ids=("cp_stack",), tools=("tritonx",),
                              jobs=2)
        cell = parallel.cells[("cp_stack", "tritonx")]
        clone = pickle.loads(pickle.dumps(cell))
        assert clone.outcome is cell.outcome
        assert clone.report.solved == cell.report.solved

    def test_metrics_merge_is_exact(self, tmp_path):
        sink_path = tmp_path / "par.jsonl"
        rec = obs.Recorder(sinks=[obs.JsonlSink(sink_path)])
        with obs.recording(rec, close=False):
            result = run_table2(bomb_ids=BOMBS, tools=TOOLS, jobs=2)
        snap = rec.snapshot()
        counters = snap["counters"]

        # Work counters from inside the workers made it back.
        assert counters["smt.queries"] > 0
        assert counters["eval.cells_merged"] == len(BOMBS) * len(TOOLS)
        assert counters["vm.instructions"] > 0
        # One "cell" span per cell, with the per-stage spans below it.
        assert snap["spans"]["cell"]["count"] == len(BOMBS) * len(TOOLS)
        for stage in ("trace", "solve"):
            assert stage in snap["spans"], snap["spans"].keys()
        # Histograms merged from raw worker values, not summaries.
        assert snap["histograms"]["smt.solve_s"]["count"] == \
            counters["smt.queries"]
        # Per-cell stage timings were measured in the worker itself.
        cell = result.cells[(BOMBS[0], TOOLS[0])]
        assert cell.timings and all(v >= 0.0 for v in cell.timings.values())

        # The parent JSONL stream carries the workers' span events.
        rec.close()
        events = [json.loads(line) for line in
                  sink_path.read_text().splitlines()]
        names = {e["name"] for e in events if e["t"] == "span"}
        assert {"cell", "trace", "solve", "table2"} <= names

    def test_serial_recorder_sees_equivalent_counters(self):
        rec_serial = obs.Recorder()
        with obs.recording(rec_serial, close=False):
            run_table2(bomb_ids=BOMBS, tools=TOOLS)
        rec_par = obs.Recorder()
        with obs.recording(rec_par, close=False):
            run_table2(bomb_ids=BOMBS, tools=TOOLS, jobs=3)
        def work(counters):
            # The parallel run adds only the scheduler's bookkeeping.
            return {name: n for name, n in counters.items()
                    if not name.startswith("service.")
                    and name != "eval.cells_merged"}

        serial = rec_serial.snapshot()["counters"]
        parallel = rec_par.snapshot()["counters"]
        assert parallel["eval.cells_merged"] == len(BOMBS) * len(TOOLS)
        assert work(serial) == work(parallel)


class TestAbsorb:
    def test_absorb_merges_spans_counters_hists(self):
        child = obs.Recorder(sinks=[obs.MemorySink()])
        child_sink = child.sinks[0]
        with obs.recording(child):
            with obs.span("stage"):
                obs.count("widgets", 3)
            obs.observe("latency", 0.5)
            obs.observe("latency", 1.5)
        # recording() closed the child, flushing summaries.
        parent_sink = obs.MemorySink()
        parent = obs.Recorder(sinks=[parent_sink])
        parent.count("widgets", 1)
        parent.absorb(child_sink.events)
        assert parent.counters["widgets"] == 4
        assert parent.hists["latency"] == [0.5, 1.5]
        assert parent.span_stats["stage"]["count"] == 1
        # Span events were re-emitted; summaries were not duplicated.
        kinds = [e["t"] for e in parent_sink.events]
        assert kinds.count("span") == 1
        assert kinds.count("hist") == 0

    def test_absorb_without_values_still_merges_counters(self):
        # A hist event written before every stream carried its values:
        # only its summary, which cannot be merged.
        parent = obs.Recorder()
        parent.absorb([
            {"t": "counter", "name": "n", "value": 2},
            {"t": "hist", "name": "h", "count": 1, "total": 1.0,
             "min": 1.0, "max": 1.0, "mean": 1.0, "p50": 1.0, "p95": 1.0},
        ])
        assert parent.counters == {"n": 2}
        assert parent.hists == {}

"""Tests for the matrix ledger.  Run from the repository root::

    PYTHONPATH=src python -m pytest matrix_ledger/test_ledger.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import ledger
import spans

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self, *readings: float):
        self.readings = list(readings)

    def __call__(self) -> float:
        return self.readings.pop(0)


# -- the >=10-beyond percentile rule -----------------------------------------

def test_tail_percentile_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert spans.tail_percentile(values) == (90, 90.0)
    # 66 cells: p84 leaves 10 beyond, p85 would leave only 9.
    pct, value = spans.tail_percentile(range(66))
    assert (pct, value) == (84, 55)
    assert sum(1 for v in range(66) if v > value) == 10


def test_tail_percentile_of_few_samples():
    assert spans.tail_percentile([5.0, *range(10)]) == (9, 0)
    with pytest.raises(ValueError):
        spans.tail_percentile(range(10))


# -- spans --------------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer("w", clock=FakeClock(0, 1, 2, 3, 4, 4, 7, 10))
    leaf = tracer.wrap(lambda: None, "smt.sat")
    inner = tracer.wrap(lambda: leaf(), "smt.check")
    outer = tracer.wrap(lambda: (inner(), tracer.wrap(lambda: None,
                                                      "smt.presolve")()),
                        "symex.explore")
    outer()
    by_name = {s[0]: s for s in tracer.spans}
    # (name, start, duration, self, id, parent, cell, pid)
    assert by_name["smt.sat"][2:4] == (1, 1)
    assert by_name["smt.check"][2:4] == (3, 2)
    assert by_name["smt.presolve"][2:4] == (3, 3)
    assert by_name["symex.explore"][2:4] == (10, 4)
    assert by_name["smt.check"][5] == by_name["symex.explore"][4]
    assert by_name["smt.sat"][5] == by_name["smt.check"][4]
    assert by_name["symex.explore"][5] is None


def test_spans_carry_the_cell_they_ran_for():
    tracer = spans.Tracer("w")
    inner = tracer.wrap(lambda: None, "vm.run")

    class Bomb:
        bomb_id = "cp_stack"

    cell = tracer.wrap(lambda bomb, tool: inner(), "eval.cell",
                       cell_of=spans._cell_of)
    cell(Bomb(), "angrx")
    inner()
    assert [(s[0], s[6]) for s in tracer.spans] == [
        ("vm.run", "cp_stack/angrx"), ("eval.cell", "cp_stack/angrx"),
        ("vm.run", None)]


def test_worker_spans_are_spooled_and_collected(tmp_path):
    tracer = spans.Tracer("w", spool=tmp_path)
    tracer.wrap(lambda: None, "vm.run")()
    inherited = list(tracer.spans)
    entry = tracer.wrap_process(tracer.wrap(lambda: None, "eval.cell"))
    entry()
    spooled = list(tmp_path.glob("*.json"))
    assert len(spooled) == 1
    assert [s[0] for s in json.loads(spooled[0].read_text())] == ["eval.cell"]
    tracer.spans = inherited
    assert sorted(s[0] for s in tracer.collected()) == ["eval.cell", "vm.run"]


def test_install_wraps_what_exists_and_reports_what_does_not(monkeypatch):
    import statistics

    monkeypatch.setattr(statistics, "median", statistics.median)
    monkeypatch.setattr(spans, "ENTRY_POINTS", (
        ("statistics", "median", "eval.median"),
        ("statistics", "no_such_function", "eval.gone")))
    monkeypatch.setattr(spans, "PROCESS_ENTRIES", ())
    tracer = spans.Tracer("w")
    spans.install(tracer)
    assert statistics.median([3, 1, 2]) == 2
    assert [s[0] for s in tracer.spans] == ["eval.median"]
    assert tracer.missing == ["statistics.no_such_function"]


def test_events_make_a_loadable_chrome_trace():
    from repro.obs import chrome_trace, validate_chrome_trace

    tracer = spans.Tracer("symbolic")
    tracer.wrap(lambda: tracer.wrap(lambda: None, "smt.sat")(), "smt.check")()
    doc = chrome_trace(tracer.events(tracer.spans))
    assert validate_chrome_trace(doc) == []
    assert {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"} == \
        {"smt.check", "smt.sat"}


def test_layer_metrics_read_zero_for_a_bypassed_layer():
    agg = spans.aggregate([
        ("vm.run", 0.0, 2.0, 2.0, "1.1", None, None, 1),
        ("smt.check", 0.0, 1.0, 0.25, "1.2", None, None, 1),
        ("smt.sat", 0.0, 0.75, 0.75, "1.3", "1.2", None, 1),
    ])
    counters = {"vm.instructions": 1000, "smt.gates": 50, "smt.queries": 1,
                "smt.conflicts": 3}
    out = spans.layer_metrics(agg, counters, wall=4.0, slots=1,
                              cell_elapsed=[3.0], solved=0, lang={})
    assert [name for name, _, _ in spans.PER_LAYER
            if name != "obs.trace_overhead_frac"] == list(out)
    assert out["vm.instructions_per_s"] == 500.0
    assert out["smt.gates_per_s"] == 200.0
    assert out["smt.conflicts_per_s"] == 4.0
    assert out["symex.explore_self_s"] == 0
    assert out["symex.steps_per_s"] == 0.0
    assert out["service.slot_idle_frac"] == 0.25


# -- seeds --------------------------------------------------------------------

def test_seed_zero_is_row_order_and_seeds_repeat():
    from repro.bombs import TABLE2_BOMB_IDS

    for workload in ledger.WORKLOADS.values():
        bombs = workload.bombs
        assert ledger.permuted(bombs, 0) == list(bombs)
        assert list(bombs) == [b for b in TABLE2_BOMB_IDS if b in bombs]
        assert ledger.permuted(bombs, 7) == ledger.permuted(bombs, 7)
        assert sorted(ledger.permuted(bombs, 7)) == sorted(bombs)
        assert ledger.permuted(bombs, 1) != ledger.permuted(bombs, 2)


def test_workloads_leave_out_the_disagreeing_cell():
    from repro.bombs import get_bomb

    for workload in ledger.WORKLOADS.values():
        cells = [(b, t) for b in workload.bombs for t in workload.tools]
        assert ("cf_aes", "angrx") not in cells
        assert len(cells) > 10  # the tail percentile needs 10 beyond it
        for bomb, tool in cells:
            assert tool in get_bomb(bomb).expected


# -- the comparison rule ------------------------------------------------------

def test_within_bound_is_not_a_regression():
    assert not compare.regressed([10.0, 10.2, 9.9], [10.9, 10.8, 11.0],
                                 0.10, "lower")


def test_beyond_bound_and_outside_the_baseline_spread_regresses():
    assert compare.regressed([10.0, 10.1, 9.9, 10.0], [11.5, 11.6, 11.4],
                             0.10, "lower")


def test_noisy_but_unchanged_does_not_fail():
    noisy = [0.8, 0.9, 1.0, 1.25, 1.3]   # quartiles 0.85 .. 1.275
    assert not compare.regressed(noisy, [1.12, 1.15, 1.2], 0.10, "lower")


def test_fewer_than_three_runs_use_the_bound_alone():
    noisy = [0.8, 1.0, 1.3]
    assert compare.regressed(noisy, [1.15, 1.16], 0.10, "lower")


def test_higher_is_better_mirrors_the_rule():
    assert compare.regressed([100.0, 101.0, 99.0], [80.0, 81.0, 79.0],
                             0.10, "higher")
    assert not compare.regressed([100.0, 101.0, 99.0], [120.0], 0.10,
                                 "higher")


def _run(workload, trace, failed=0, correct=True, **metrics):
    units = {"wall_s": "s", "smt.gates": "count",
             "ir.lift_instructions": "count", "smt.sat_s": "s"}
    return {"workload": workload, "trace": trace, "result": {
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}}


def _groups(*rows):
    out: dict = {}
    for row in rows:
        out.setdefault((row["workload"], row["trace"]), []).append(
            row["result"])
    return out


BENCH = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                         "bound": 0.1}]}


def test_compare_gates_counters_exactly_and_timings_by_rule():
    base = _groups(*[_run("symbolic", 0, wall_s=w) for w in (10, 10.2, 9.8)],
                   _run("symbolic", 1, **{"smt.gates": 500, "smt.sat_s": 3.0}))
    same = _groups(*[_run("symbolic", 0, wall_s=w) for w in (10.5, 10.1, 10)],
                   _run("symbolic", 1, **{"smt.gates": 500, "smt.sat_s": 9.0}))
    assert compare.compare(base, same, BENCH) == []
    worse = _groups(*[_run("symbolic", 0, wall_s=w) for w in (12, 12.5, 12.2)],
                    _run("symbolic", 1, **{"smt.gates": 501, "smt.sat_s": 3.0}))
    problems = compare.compare(base, worse, BENCH)
    assert len(problems) == 2
    assert "wall_s regressed" in problems[0]
    assert "smt.gates changed" in problems[1]


def test_compare_flags_failures_and_skips_racy_counters():
    base = _groups(_run("campaign", 1, **{"ir.lift_instructions": 2906}))
    racy = _groups(_run("campaign", 1, **{"ir.lift_instructions": 2896}))
    assert compare.compare(base, racy, BENCH) == []
    broken = _groups(_run("campaign", 1, failed=1, correct=False,
                          **{"ir.lift_instructions": 2906}))
    problems = compare.compare(base, broken, BENCH)
    assert any("not correct" in p for p in problems)
    assert any("failed cells" in p for p in problems)


# -- the benchmark's contract -------------------------------------------------

def test_benchmark_json_names_what_the_ledger_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(ledger.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(ledger.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(spans.PER_LAYER)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/ledger.py", "--workload", "symbolic",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

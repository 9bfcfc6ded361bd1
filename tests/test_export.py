"""Tests for telemetry exporters (Prometheus text, self-time profile)
and the campaign status watcher.

Exporters are pure functions over event streams / aggregates, so every
assertion here is exact: synthetic events in, known text out.
"""

import io
import json

import pytest

from repro.cli import main
from repro.obs import (
    Recorder,
    prometheus_text,
    render_profile,
    self_time_profile,
)
from repro.obs.export import ProfileRow
from repro.service import CampaignService, CampaignSpec, watch_status


class TestPrometheusText:
    def test_counters_become_prefixed_counters(self):
        text = prometheus_text({"counters": {"smt.queries": 7}})
        assert text == ("# TYPE repro_smt_queries counter\n"
                        "repro_smt_queries 7\n")

    def test_name_sanitization(self):
        text = prometheus_text({"counters": {"vm.steps-total": 1}})
        assert "repro_vm_steps_total 1" in text

    def test_span_families_are_labelled(self):
        text = prometheus_text({"spans": {
            "solve": {"count": 3, "wall_s": 1.5, "cpu_s": 0.5}}})
        assert '# TYPE repro_span_count counter' in text
        assert 'repro_span_count{span="solve"} 3' in text
        assert 'repro_span_wall_seconds_total{span="solve"} 1.5' in text
        assert 'repro_span_cpu_seconds_total{span="solve"} 0.5' in text

    def test_histograms_become_summaries(self):
        text = prometheus_text({"histograms": {
            "smt.gates": {"p50": 4.0, "p95": 9.0, "total": 20.0, "count": 5}}})
        assert '# TYPE repro_smt_gates summary' in text
        assert 'repro_smt_gates{quantile="0.5"} 4.0' in text
        assert 'repro_smt_gates{quantile="0.95"} 9.0' in text
        assert 'repro_smt_gates_sum 20.0' in text
        assert 'repro_smt_gates_count 5' in text

    def test_accepts_an_aggregate(self):
        rec = Recorder()
        rec.absorb([{"t": "counter", "name": "prov.drops", "value": 2}])
        assert "repro_prov_drops 2" in prometheus_text(rec.snapshot())

    def test_empty_input(self):
        assert prometheus_text({}) == ""


def span(path, wall, self_s=None, cpu=0.0):
    """A span event as a recorder writes it; *self_s* defaults to a
    childless span's (its wall)."""
    name = path.rsplit("/", 1)[-1]
    return {"t": "span", "name": name, "path": path, "wall_s": wall,
            "cpu_s": cpu, "self_s": wall if self_s is None else self_s}


class TestSelfTimeProfile:
    def test_child_wall_subtracts_from_parent(self):
        # Emission order is children-before-parents, as the recorder
        # guarantees: a span's event fires when it closes.
        rows = self_time_profile([
            span("cell/trace", 2.0),
            span("cell/solve", 1.0),
            span("cell", 5.0, self_s=2.0),
        ])
        by_path = {r.path: r for r in rows}
        assert by_path["cell"].self_s == pytest.approx(2.0)
        assert by_path["cell"].wall_s == pytest.approx(5.0)
        assert by_path["cell/trace"].self_s == pytest.approx(2.0)
        assert rows[0].path in ("cell", "cell/trace")  # sorted by self

    def test_multi_level_hierarchy(self):
        rows = self_time_profile([
            span("a/b/c", 1.0),
            span("a/b", 3.0, self_s=2.0),
            span("a", 10.0, self_s=7.0),
        ])
        by_path = {r.path: r for r in rows}
        assert by_path["a"].self_s == pytest.approx(7.0)
        assert by_path["a/b"].self_s == pytest.approx(2.0)
        assert by_path["a/b/c"].self_s == pytest.approx(1.0)

    def test_repeated_paths_aggregate(self):
        rows = self_time_profile([
            span("cell/solve", 1.0), span("cell", 2.0, self_s=1.0),
            span("cell/solve", 3.0), span("cell", 4.0, self_s=1.0),
        ])
        by_path = {r.path: r for r in rows}
        assert by_path["cell/solve"].count == 2
        assert by_path["cell/solve"].wall_s == pytest.approx(4.0)
        assert by_path["cell"].self_s == pytest.approx(2.0)

    def test_event_without_self_s_counts_as_childless(self):
        old = {"t": "span", "name": "cell", "path": "cell", "wall_s": 5.0}
        rows = self_time_profile([span("cell/trace", 2.0), old])
        assert {r.path: r.self_s for r in rows} == {"cell": 5.0,
                                                    "cell/trace": 2.0}

    def test_non_span_events_ignored(self):
        assert self_time_profile([{"t": "counter", "name": "x", "value": 1}]) == []

    def test_render(self):
        text = render_profile([ProfileRow("cell", 1, 5.0, 3.0, 0.1),
                               ProfileRow("cell/trace", 1, 2.0, 2.0, 0.0)])
        assert "cell/trace" in text and "60.0%" in text
        assert render_profile([]) == "no span events"


class TestStatsCli:
    @pytest.fixture
    def metrics_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        events = [
            {"t": "counter", "name": "smt.queries", "value": 4},
            span("cell/solve", 1.0),
            span("cell", 3.0, self_s=2.0),
        ]
        path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
        return str(path)

    def test_stats_prom(self, metrics_file, capsys):
        assert main(["stats", metrics_file, "--prom"]) == 0
        out = capsys.readouterr().out
        assert "repro_smt_queries 4" in out
        assert 'repro_span_wall_seconds_total{span="cell"} 3.0' in out

    def test_stats_profile(self, metrics_file, capsys):
        assert main(["stats", metrics_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cell/solve" in out and "self s" in out


class TestWatchStatus:
    def _service(self, tmp_path):
        service = CampaignService(tmp_path / "svc")
        cid = service.submit(CampaignSpec(bombs=("cp_stack",),
                                          tools=("tritonx",)))
        return service, cid

    def test_exits_when_no_work_remains(self, tmp_path):
        service, cid = self._service(tmp_path)
        service.run(cid)
        out = io.StringIO()
        naps = []
        status = watch_status(service, cid, interval=0.5, stream=out,
                              sleep=naps.append)
        assert naps == []  # already done: one poll, no sleeping
        assert status["states"]["done"] == 1
        line = out.getvalue().strip()
        assert line.startswith(f"{cid}: pending=0 claimed=0 done=1")
        assert "[computed=1]" in line

    def test_polls_until_bounded(self, tmp_path):
        service, cid = self._service(tmp_path)  # never run: stays pending
        out = io.StringIO()
        naps = []
        status = watch_status(service, cid, interval=0.25, stream=out,
                              sleep=naps.append, max_polls=3)
        assert naps == [0.25, 0.25]
        assert status["states"]["pending"] == 1
        assert len(out.getvalue().splitlines()) == 3

    def test_cli_watch_requires_a_campaign(self, tmp_path):
        with pytest.raises(SystemExit, match="needs a campaign"):
            main(["campaign", "status", "--root", str(tmp_path), "--watch"])

    def test_cli_watch_done_campaign(self, tmp_path, capsys):
        service, cid = self._service(tmp_path)
        service.run(cid)
        assert main(["campaign", "status", "--root", str(tmp_path / "svc"),
                     cid, "--watch", "--interval", "0.1"]) == 0
        assert "done=1" in capsys.readouterr().out

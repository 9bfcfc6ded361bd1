"""Campaign service end to end: warm cache, invalidation, fault injection.

The acceptance criteria under test (ISSUE 4):

* re-running an identical campaign against a warm cache performs zero
  tool analyses and renders Table II byte-identical to the cold run;
* editing one bomb's source invalidates only that bomb's cells;
* a worker SIGKILLed mid-cell is requeued and the campaign completes
  with correct merged metrics — no cell lost, none double-counted;
* a per-cell wall-clock overrun maps to outcome E (and is never
  cached, since it reflects the run's budget, not the tool);
* every way to run a matrix — serial, ``jobs=2``, ``jobs=2`` with a
  cache, ``campaign run`` and a fleet drain — renders the same table,
  and ``campaign results`` renders a timed-out or exhausted cell the
  way ``campaign run`` does, and says on stderr how many done cells the
  store no longer serves after an engine edit.
"""

import json
import os

import pytest

from repro import cli, obs
from repro.bombs import get_bomb
from repro.eval import render_table2, run_table2
from repro.service import (
    KILL_CELL_ENV,
    CampaignService,
    CampaignSpec,
    ResultStore,
    cell_key,
    fingerprint,
    run_fleet,
)
from repro.service.executor import _mp_context

from .test_service_store import edited_copy

BOMBS = ("cp_stack", "sv_time")
TOOLS = ("tritonx", "bapx")


@pytest.fixture
def service(tmp_path):
    return CampaignService(tmp_path / "svc")


class TestWarmCache:
    def test_identical_campaign_twice_is_all_hits_and_byte_identical(
            self, service):
        spec = CampaignSpec(bombs=BOMBS, tools=TOOLS, jobs=2)
        cold = service.run(service.submit(spec))
        assert cold.stats["computed"] == 4 and cold.stats["cache_hits"] == 0

        warm = service.run(service.submit(spec))
        assert warm.stats["cache_hits"] == 4
        assert warm.stats["computed"] == 0  # zero tool analyses
        assert render_table2(warm.table) == render_table2(cold.table)
        assert json.dumps(warm.table.to_json(), indent=2) == \
            json.dumps(cold.table.to_json(), indent=2)

    def test_results_verb_reassembles_from_store(self, service):
        spec = CampaignSpec(bombs=BOMBS, tools=("tritonx",))
        cid = service.submit(spec)
        run = service.run(cid)
        assembled = service.results(cid)
        assert render_table2(assembled) == render_table2(run.table)

    def test_status_reports_job_states(self, service):
        spec = CampaignSpec(bombs=("cp_stack",), tools=("tritonx",))
        cid = service.submit(spec)
        before = service.status(cid)
        assert before["states"]["pending"] == 1
        service.run(cid)
        after = service.status(cid)
        assert after["states"]["done"] == 1
        assert after["results"] == {"computed": 1}

    def test_campaign_ids_are_content_derived_and_unique(self, service):
        spec = CampaignSpec(bombs=("cp_stack",), tools=("tritonx",))
        first, second = service.submit(spec), service.submit(spec)
        assert first != second
        assert first.rsplit("-", 1)[0] == second.rsplit("-", 1)[0]


class TestInvalidation:
    def test_editing_one_bomb_recomputes_only_its_cells(
            self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            run_table2(bomb_ids=BOMBS, tools=("tritonx",), cache=store)
        cold = rec.snapshot()["counters"]
        assert cold["service.cache_misses"] == 2
        assert cold["service.cache_stores"] == 2

        # Edit cp_stack's source: its image digest changes, sv_time's
        # does not.
        edited = edited_copy("cp_stack", "int service_pad = argc + 40;")
        real_get_bomb = get_bomb

        def patched(bomb_id):
            return edited if bomb_id == "cp_stack" else real_get_bomb(bomb_id)

        monkeypatch.setattr("repro.eval.harness.get_bomb", patched)
        rec2 = obs.Recorder()
        with obs.recording(rec2, close=False):
            run_table2(bomb_ids=BOMBS, tools=("tritonx",), cache=store)
        counters = rec2.snapshot()["counters"]
        assert counters["service.cache_hits"] == 1       # sv_time reused
        assert counters["service.cache_misses"] == 1     # cp_stack recomputed
        assert counters["service.cache_stores"] == 1


class TestFaultTolerance:
    def test_sigkilled_worker_is_requeued_and_campaign_completes(
            self, service, monkeypatch):
        monkeypatch.setenv(KILL_CELL_ENV, "cp_stack:tritonx")
        spec = CampaignSpec(bombs=BOMBS, tools=("tritonx",), jobs=2)
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            report = service.run(service.submit(spec))

        assert report.stats["requeued"] == 1
        assert report.stats["computed"] == 2
        assert report.stats["exhausted"] == 0
        # The killed cell was re-run to its genuine outcome: no cell
        # lost, none duplicated.
        assert set(report.table.cells) == {(b, "tritonx") for b in BOMBS}
        assert report.table.cells[("cp_stack", "tritonx")].label == "ok"

        snap = rec.snapshot()
        counters = snap["counters"]
        assert counters["service.retries"] == 1
        assert counters["service.jobs_requeued"] == 1
        assert counters["service.jobs_completed"] == 2
        # Merged metrics carry exactly one successful attempt per cell:
        # the killed attempt contributed nothing.
        assert snap["spans"]["cell"]["count"] == 2
        assert snap["spans"]["job"]["count"] == 2
        assert counters["vm.instructions"] > 0

    def test_crash_on_every_attempt_exhausts_to_E(self, service, monkeypatch):
        monkeypatch.setenv(KILL_CELL_ENV, "cp_stack:tritonx")
        # retries=0 and the injector kills attempt 1: the only attempt.
        spec = CampaignSpec(bombs=("cp_stack",), tools=("tritonx",),
                            retries=0)
        report = service.run(service.submit(spec))
        assert report.stats["exhausted"] == 1
        cell = report.table.cells[("cp_stack", "tritonx")]
        assert cell.label == "E"
        assert cell.infra_failure
        assert "resource-exhausted" in cell.diagnostic
        # Infrastructure failures are never cached: a later run with the
        # injector gone computes the genuine result.
        monkeypatch.delenv(KILL_CELL_ENV)
        retry = service.run(service.submit(spec))
        assert retry.stats["computed"] == 1
        assert retry.table.cells[("cp_stack", "tritonx")].label == "ok"

    def test_journal_survives_driver_restart(self, service, monkeypatch):
        # First driver exhausts the injected-crash cell; the second
        # (fresh queue replay) picks up only the remaining pending job.
        monkeypatch.setenv(KILL_CELL_ENV, "cp_stack:tritonx")
        spec = CampaignSpec(bombs=BOMBS, tools=("tritonx",), retries=0)
        cid = service.submit(spec)
        report = service.run(cid)
        assert report.stats["exhausted"] == 1
        monkeypatch.delenv(KILL_CELL_ENV)
        again = service.run(cid)
        # Everything is terminal: the rerun performs no work at all.
        assert again.stats["cells"] == 0
        status = service.status(cid)
        assert status["states"]["done"] == 1
        assert status["states"]["exhausted"] == 1

    def test_killed_driver_claims_resume_without_waiting_for_the_lease(
            self, service):
        import socket

        cid = service.submit(CampaignSpec(bombs=BOMBS, tools=("tritonx",)))
        gone = _mp_context().Process(target=os.getpid)
        gone.start()
        gone.join()
        # A driver that died mid-cell: its claim holds a 30 s lease.
        service._queue(cid, f"{socket.gethostname()}:{gone.pid}").claim()
        report = service.run(cid)
        assert report.stats["computed"] == 2
        assert service.status(cid)["states"]["done"] == 2


def _run_campaign(root, cid):
    CampaignService(root).run(cid)


class TestAutoSlots:
    def test_a_jobs_zero_campaign_drains(self, service):
        cid = service.submit(CampaignSpec(bombs=("cp_stack",),
                                          tools=("tritonx",), jobs=0))
        # Forked and joined with a timeout: a run that never claims a
        # cell must fail this test, not hang the suite.
        child = _mp_context().Process(target=_run_campaign,
                                      args=(str(service.root), cid))
        child.start()
        child.join(60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("a campaign with jobs 0 never drained")
        assert child.exitcode == 0
        assert service.status(cid)["states"]["done"] == 1


class TestTimeouts:
    def test_serial_timeout_maps_to_E_and_is_not_cached(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = run_table2(bomb_ids=("cf_aes",), tools=("tritonx",),
                            timeout=0.05, cache=store)
        cell = result.cells[("cf_aes", "tritonx")]
        assert cell.label == "E"
        assert cell.infra_failure
        assert "wall-clock timeout" in cell.diagnostic
        assert len(store) == 0
        bomb = get_bomb("cf_aes")
        assert store.get(cell_key(bomb, "tritonx"), bomb) is None

    def test_pool_timeout_maps_to_E(self, service):
        spec = CampaignSpec(bombs=("cf_aes",), tools=("tritonx",),
                            timeout=0.05, jobs=2)
        report = service.run(service.submit(spec))
        assert report.stats["timeouts"] == 1
        assert report.table.cells[("cf_aes", "tritonx")].label == "E"


class TestResultsMatchRun:
    def test_timed_out_campaign(self, service):
        spec = CampaignSpec(bombs=("cf_aes",), tools=("tritonx",),
                            timeout=0.05)
        cid = service.submit(spec)
        report = service.run(cid)
        assert report.table.cells[("cf_aes", "tritonx")].label == "E"
        assert render_table2(service.results(cid)) == \
            render_table2(report.table)

    def test_exhausted_campaign(self, service, monkeypatch):
        monkeypatch.setenv(KILL_CELL_ENV, "cp_stack:tritonx")
        spec = CampaignSpec(bombs=("cp_stack",), tools=("tritonx",),
                            retries=0)
        cid = service.submit(spec)
        report = service.run(cid)
        assert report.stats["exhausted"] == 1
        results = service.results(cid)
        assert render_table2(results) == render_table2(report.table)
        assert results.cells[("cp_stack", "tritonx")].diagnostic == \
            report.table.cells[("cp_stack", "tritonx")].diagnostic


    def test_results_name_done_cells_another_engine_stored(
            self, service, monkeypatch, capsys):
        spec = CampaignSpec(bombs=BOMBS, tools=("tritonx",))
        cid = service.submit(spec)
        service.run(cid)
        argv = ["campaign", "results", cid, "--root", str(service.root)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        # The same store read after an engine edit: both cells miss.
        monkeypatch.setattr(fingerprint, "_ENGINE_DIGEST", "0" * 64)
        assert cli.main(argv) == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert "2 done cell(s)" in err[0]
        assert "engine 000000000000" in err[0]
        assert "resubmitting the campaign recomputes them" in err[0]


def _campaign_run(tmp_path):
    service = CampaignService(tmp_path / "svc")
    cid = service.submit(CampaignSpec(bombs=BOMBS, tools=TOOLS))
    return service.run(cid, jobs=2).table


def _fleet_drain(tmp_path):
    service = CampaignService(tmp_path / "svc")
    cid = service.submit(CampaignSpec(bombs=BOMBS, tools=TOOLS))
    run_fleet(tmp_path / "svc", 2, drain=True)
    return service.results(cid)


MATRIX_PATHS = {
    "serial": lambda tmp: run_table2(bomb_ids=BOMBS, tools=TOOLS),
    "jobs2": lambda tmp: run_table2(bomb_ids=BOMBS, tools=TOOLS, jobs=2),
    "jobs2-cache": lambda tmp: run_table2(bomb_ids=BOMBS, tools=TOOLS,
                                          jobs=2, cache=tmp / "store"),
    "campaign-run": _campaign_run,
    "fleet-drain": _fleet_drain,
}


@pytest.fixture(scope="module")
def serial_render():
    return render_table2(run_table2(bomb_ids=BOMBS, tools=TOOLS))


@pytest.mark.parametrize("path", sorted(MATRIX_PATHS))
def test_every_matrix_path_renders_the_same_table(path, tmp_path,
                                                  serial_render):
    assert render_table2(MATRIX_PATHS[path](tmp_path)) == serial_render


class TestServiceRoutedTable2:
    def test_cache_and_jobs_route_matches_plain_parallel(self, tmp_path):
        plain = run_table2(bomb_ids=BOMBS, tools=TOOLS, jobs=2)
        routed = run_table2(bomb_ids=BOMBS, tools=TOOLS, jobs=2,
                            cache=str(tmp_path / "store"))
        assert render_table2(plain) == render_table2(routed)
        # Second routed run: all hits, byte-identical JSON.
        rerouted = run_table2(bomb_ids=BOMBS, tools=TOOLS, jobs=2,
                              cache=str(tmp_path / "store"))
        assert json.dumps(routed.to_json()) == json.dumps(rerouted.to_json())

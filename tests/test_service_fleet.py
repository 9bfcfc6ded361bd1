"""Fleet workers: lease-based claims, crash recovery, no double-execution.

The acceptance criteria under test (ISSUE 7):

* two concurrent claimants over one shared journal never double-claim
  (and therefore never double-run) a cell;
* a worker SIGKILLed mid-cell loses its lease; a surviving worker
  requeues the expired claim and completes the campaign, and the
  fleet-produced store renders byte-identically to a single-process
  run;
* a stalled worker that outlives its lease discards its stale terminal
  transition (``service.lease_lost``) instead of double-completing;
* ``--jobs 0`` sizes the pack to the host's usable CPUs;
* a claim by a process of this host that no longer exists is swept at
  once, without waiting out its lease;
* fleet cells attach the store, and a crashed attempt's partial metrics
  never reach the worker's recorder;
* cells run in at most *slots* long-lived slot processes: the loop makes
  a bounded number of ``wait`` calls per cell, a timed-out slot is
  replaced, and no slot outlives its worker, whether ``run`` returns or
  raises, or the worker is SIGKILLed;
* a slot answers over its connection only: a run creates nothing in
  the temporary directory.
"""

import json
import multiprocessing
import os
import signal
import socket
import tempfile
import time
from pathlib import Path

import pytest

from repro import obs
from repro.bombs import get_bomb
from repro.eval import render_table2
from repro.service import (
    KILL_CELL_ENV,
    CampaignService,
    CampaignSpec,
    FleetWorker,
    auto_jobs,
    image_digest,
    run_fleet,
)
from repro.service import fleet
from repro.service.executor import _mp_context
from repro.service.queue import CLAIMED, DONE, JobQueue

BOMBS = ("cp_stack", "sv_time")


def make_queue(tmp_path, n_jobs=4):
    path = tmp_path / "queue.jsonl"
    JobQueue(path).submit([(f"bomb{i}", "tool") for i in range(n_jobs)])
    return path


class TestSharedJournal:
    """The journal's multi-writer protocol, one :class:`JobQueue` per
    worker over one shared file."""

    def test_claims_are_disjoint_and_mutually_visible(self, tmp_path):
        path = make_queue(tmp_path)
        alpha = JobQueue(path, "alpha")
        beta = JobQueue(path, "beta")
        a = alpha.claim()
        b = beta.claim()
        assert a.job_id != b.job_id
        # Each side sees the other's claim after its next refresh.
        alpha.refresh()
        assert alpha.jobs[b.job_id].worker == "beta"
        assert alpha.jobs[b.job_id].status == CLAIMED

    def test_refresh_is_incremental_and_idempotent(self, tmp_path):
        path = make_queue(tmp_path)
        queue = JobQueue(path, "alpha")
        job = queue.claim()
        queue.complete(job, result="computed")
        before = dict(queue.jobs[job.job_id].__dict__)
        # Re-applying our own already-folded records must converge.
        queue._offset = 0
        queue.refresh()
        assert dict(queue.jobs[job.job_id].__dict__) == before

    def test_expired_lease_is_swept_and_reclaimed(self, tmp_path):
        path = make_queue(tmp_path, n_jobs=1)
        now = [1000.0]
        dead = JobQueue(path, "dead", lease_s=5.0, clock=lambda: now[0])
        job = dead.claim()
        assert job.lease_until == 1005.0
        survivor = JobQueue(path, "survivor", lease_s=5.0,
                            clock=lambda: now[0])
        assert survivor.claim() is None  # lease still live
        now[0] = 1006.0
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            reclaimed = survivor.claim()
        assert reclaimed is not None and reclaimed.job_id == job.job_id
        assert reclaimed.worker == "survivor"
        assert reclaimed.attempts == 2
        counters = rec.snapshot()["counters"]
        assert counters["service.lease_expired"] == 1
        assert counters["service.requeues"] == 1

    def test_dead_local_claimant_is_swept_without_waiting_for_the_lease(
            self, tmp_path):
        path = make_queue(tmp_path, n_jobs=1)
        gone = _mp_context().Process(target=os.getpid)
        gone.start()
        gone.join()
        dead = JobQueue(path, f"{socket.gethostname()}:{gone.pid}",
                        lease_s=3600.0)
        job = dead.claim()
        survivor = JobQueue(path, "survivor", lease_s=3600.0)
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            reclaimed = survivor.claim()
        assert reclaimed is not None and reclaimed.job_id == job.job_id
        assert reclaimed.attempts == 2
        assert rec.snapshot()["counters"]["service.lease_expired"] == 1

    def test_live_local_claimant_keeps_its_claim(self, tmp_path):
        path = make_queue(tmp_path, n_jobs=1)
        holder = JobQueue(path, f"{socket.gethostname()}:{os.getpid()}",
                          lease_s=3600.0)
        job = holder.claim()
        rival = JobQueue(path, "rival", lease_s=3600.0)
        assert rival.claim() is None
        assert rival.jobs[job.job_id].status == CLAIMED

    def test_renewal_keeps_a_long_cell_alive(self, tmp_path):
        path = make_queue(tmp_path, n_jobs=1)
        now = [0.0]
        holder = JobQueue(path, "holder", lease_s=5.0, clock=lambda: now[0])
        job = holder.claim()
        now[0] = 4.0
        holder.renew(job)                # heartbeat at t=4: lease to t=9
        now[0] = 6.0                     # past the original deadline
        rival = JobQueue(path, "rival", lease_s=5.0, clock=lambda: now[0])
        assert rival.claim() is None
        assert rival.jobs[job.job_id].worker == "holder"

    def test_stalled_worker_drops_its_stale_transition(self, tmp_path):
        path = make_queue(tmp_path, n_jobs=1)
        now = [0.0]
        stalled = JobQueue(path, "stalled", lease_s=5.0,
                           clock=lambda: now[0])
        job = stalled.claim()
        now[0] = 10.0                    # stalled far past its lease
        rival = JobQueue(path, "rival", lease_s=5.0, clock=lambda: now[0])
        taken = rival.claim()
        assert taken.worker == "rival"
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            landed = stalled.complete(job, result="computed")
        assert landed is False           # the survivor owns the job now
        assert rec.snapshot()["counters"]["service.lease_lost"] == 1
        assert rival.complete(taken, result="computed")
        stalled.refresh()
        assert stalled.jobs[job.job_id].status == DONE


def _hammer(path, worker_id, out_path):
    """Claim-and-complete loop for the concurrency test (forked)."""
    queue = JobQueue(path, worker_id)
    claimed = []
    while True:
        job = queue.claim()
        if job is None:
            # The claim read the whole journal under the lock.
            if not queue.depth():
                break
            time.sleep(0.001)
            continue
        claimed.append(job.job_id)
        queue.complete(job, result="computed")
    Path(out_path).write_text(json.dumps(claimed))


class TestNoDoubleExecution:
    def test_concurrent_claimants_partition_the_queue_exactly(
            self, tmp_path):
        n_jobs, n_workers = 40, 4
        path = make_queue(tmp_path, n_jobs=n_jobs)
        ctx = _mp_context()
        procs, outs = [], []
        for i in range(n_workers):
            out = tmp_path / f"claims.{i}.json"
            outs.append(out)
            procs.append(ctx.Process(
                target=_hammer, args=(str(path), f"w{i}", str(out))))
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(60)
            assert proc.exitcode == 0
        claims = [json.loads(out.read_text()) for out in outs]
        flat = [job_id for per_worker in claims for job_id in per_worker]
        # Every job ran exactly once across the whole fleet: full
        # coverage, zero overlap.
        assert len(flat) == n_jobs
        assert len(set(flat)) == n_jobs
        assert all(j.status == DONE for j in JobQueue(path).jobs.values())


class TestFleetWorker:
    def test_drain_completes_a_campaign_like_a_single_process_run(
            self, tmp_path):
        fleet_svc = CampaignService(tmp_path / "fleet")
        spec = CampaignSpec(bombs=BOMBS, tools=("tritonx",))
        cid = fleet_svc.submit(spec)
        stats = FleetWorker(tmp_path / "fleet", worker_id="w0",
                            poll_s=0.01).run(drain=True)
        assert stats.computed == 2 and stats.lease_lost == 0
        status = fleet_svc.status(cid)
        assert status["states"]["done"] == 2

        solo_svc = CampaignService(tmp_path / "solo")
        solo = solo_svc.run(solo_svc.submit(spec))
        assert render_table2(fleet_svc.results(cid)) == \
            render_table2(solo.table)

    def test_worker_serves_warm_store_without_recomputing(
            self, tmp_path, monkeypatch):
        service = CampaignService(tmp_path / "svc")
        spec = CampaignSpec(bombs=("cp_stack",), tools=("tritonx",))
        service.run(service.submit(spec))          # warms the store
        cid = service.submit(spec)
        # Slots are forked on the first store miss: here there is none.
        monkeypatch.setattr(fleet, "_mp_context",
                            lambda: pytest.fail("forked a slot"))
        stats = FleetWorker(tmp_path / "svc", worker_id="w0",
                            poll_s=0.01).run(drain=True)
        assert stats.cached == 1 and stats.computed == 0
        assert service.status(cid)["results"] == {"cached": 1}

    def test_injected_crash_is_retried_to_the_genuine_result(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(KILL_CELL_ENV, "cp_stack:tritonx")
        service = CampaignService(tmp_path / "svc")
        cid = service.submit(CampaignSpec(bombs=("cp_stack",),
                                          tools=("tritonx",), retries=2))
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            stats = FleetWorker(tmp_path / "svc", worker_id="w0",
                                poll_s=0.01, backoff=0.01).run(drain=True)
        assert stats.requeued == 1 and stats.computed == 1
        counters = rec.snapshot()["counters"]
        assert counters["service.retries"] == 1
        assert counters["service.requeues"] == 1
        table = service.results(cid)
        assert table.cells[("cp_stack", "tritonx")].label == "ok"

    def test_crash_past_retries_exhausts(self, tmp_path, monkeypatch):
        monkeypatch.setenv(KILL_CELL_ENV, "cp_stack:tritonx")
        service = CampaignService(tmp_path / "svc")
        cid = service.submit(CampaignSpec(bombs=("cp_stack",),
                                          tools=("tritonx",), retries=0))
        stats = FleetWorker(tmp_path / "svc", worker_id="w0",
                            poll_s=0.01).run(drain=True)
        assert stats.exhausted == 1
        assert service.status(cid)["states"]["exhausted"] == 1

    def test_crashed_attempt_metrics_are_not_double_counted(
            self, tmp_path, monkeypatch):
        # The injector kills attempt 1 after its cell ran and streamed
        # its spans; only the retry's stream may be absorbed.
        monkeypatch.setenv(KILL_CELL_ENV, "cp_stack:tritonx")
        service = CampaignService(tmp_path / "svc")
        service.submit(CampaignSpec(bombs=BOMBS, tools=("tritonx",)))
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            stats = FleetWorker(tmp_path / "svc", worker_id="w0", slots=2,
                                poll_s=0.01, backoff=0.01).run(drain=True)
        assert stats.requeued == 1 and stats.computed == 2
        snap = rec.snapshot()
        assert snap["spans"]["cell"]["count"] == 2
        assert snap["spans"]["job"]["count"] == 2

    def test_fleet_cells_persist_lifts_into_the_store(self, tmp_path):
        root = tmp_path / "svc"
        service = CampaignService(root)
        service.submit(CampaignSpec(bombs=("cp_stack",), tools=("tritonx",)))
        run_fleet(root, 1, drain=True)
        bomb = get_bomb("cp_stack")
        assert service.store.get_lift(image_digest(bomb.image)) is not None

    def test_auto_jobs_is_a_positive_cpu_count(self):
        n = auto_jobs()
        assert isinstance(n, int) and n >= 1

    def test_zero_slots_means_one_per_usable_cpu(self, tmp_path):
        assert FleetWorker(tmp_path / "svc", slots=0).slots == auto_jobs()


class TestSigkillRecovery:
    def test_sigkilled_workers_cell_is_requeued_and_completed(
            self, tmp_path):
        """The ISSUE's headline scenario, with a real SIGKILL.

        A worker process is killed -9 mid-cell; its lease expires; a
        surviving worker requeues the claim, completes every cell, and
        the assembled results render identically to an untouched
        single-process run.
        """
        root = tmp_path / "fleet"
        service = CampaignService(root)
        spec = CampaignSpec(bombs=BOMBS, tools=("tritonx",))
        cid = service.submit(spec)
        journal = service._campaign_dir(cid) / "queue.jsonl"

        ctx = _mp_context()
        doomed = ctx.Process(
            target=run_fleet, args=(str(root), 1),
            kwargs={"worker_id": "doomed", "lease_s": 0.5,
                    "poll_s": 0.01, "drain": True})
        doomed.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if journal.exists() and '"t":"claim"' in journal.read_text():
                break
            time.sleep(0.005)
        else:
            pytest.fail("doomed worker never claimed a cell")
        os.kill(doomed.pid, signal.SIGKILL)
        doomed.join()

        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            stats = FleetWorker(root, worker_id="survivor", lease_s=0.5,
                                poll_s=0.01).run(drain=True)
        counters = rec.snapshot()["counters"]
        assert counters["service.lease_expired"] >= 1
        assert counters["service.requeues"] >= 1
        assert stats.lease_lost == 0

        status = service.status(cid)
        assert status["states"]["done"] == 2
        assert status["states"]["pending"] == 0
        # No cell lost, none double-run: one terminal record per job.
        done_records = [json.loads(line)
                        for line in journal.read_text().splitlines()
                        if '"t":"done"' in line]
        assert len(done_records) == 2
        assert len({r["id"] for r in done_records}) == 2

        solo_svc = CampaignService(tmp_path / "solo")
        solo = solo_svc.run(solo_svc.submit(spec))
        assert render_table2(service.results(cid)) == \
            render_table2(solo.table)
        # Byte-identical reassembly from the fleet-produced store.
        assert json.dumps(service.results(cid).to_json()) == \
            json.dumps(service.results(cid).to_json())


def _gone(pid: int) -> bool:
    """True once *pid* has exited (reaped, or a zombie nobody reaps)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fp:
            return fp.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.fixture
def slot_pids(tmp_path, monkeypatch):
    """A directory where every slot process started from now on (also
    by a worker forked from this test) leaves a file named by its pid:
    slots start from ``fleet._worker_main``, looked up at fork time."""
    pids = tmp_path / "pids"
    pids.mkdir()
    real_main = fleet._worker_main

    def recording_main(*args):
        (pids / str(os.getpid())).touch()
        return real_main(*args)

    monkeypatch.setattr(fleet, "_worker_main", recording_main)
    return pids


class TestSlots:
    def test_wait_calls_are_bounded_per_cell(self, tmp_path, monkeypatch):
        calls = []
        real_wait = fleet.wait

        def counting_wait(*args, **kwargs):
            calls.append(1)
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(fleet, "wait", counting_wait)
        service = CampaignService(tmp_path / "svc")
        service.submit(CampaignSpec(bombs=BOMBS, tools=("tritonx", "bapx")))
        stats = FleetWorker(tmp_path / "svc", worker_id="w0",
                            slots=2).run(drain=True)
        assert stats.computed == 4
        assert len(calls) <= 2 * 4, len(calls)

    def test_slots_answer_over_their_connections_only(self, tmp_path,
                                                      monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        seen = []
        service = CampaignService(tmp_path / "svc")
        service.submit(CampaignSpec(bombs=BOMBS, tools=("tritonx",)))
        worker = FleetWorker(
            tmp_path / "svc", worker_id="w0", slots=2, poll_s=0.01,
            on_cell=lambda cell: seen.append(list(scratch.iterdir())))
        with obs.recording(obs.Recorder(), close=False):
            stats = worker.run(drain=True)
        assert stats.computed == 2
        assert seen == [[], []]

    @pytest.mark.parametrize("ending", ["drain", "timeout", "crash",
                                        "on_cell raises"])
    def test_no_slot_outlives_run(self, tmp_path, monkeypatch, ending):
        bombs, timeout, on_cell = BOMBS, None, None
        if ending == "timeout":
            bombs, timeout = ("cf_aes",), 0.05
        elif ending == "crash":
            monkeypatch.setenv(KILL_CELL_ENV, "cp_stack:tritonx")
        elif ending == "on_cell raises":
            def on_cell(cell):
                raise RuntimeError("consumer failed")
        service = CampaignService(tmp_path / "svc")
        service.submit(CampaignSpec(bombs=bombs, tools=("tritonx",),
                                    timeout=timeout))
        worker = FleetWorker(tmp_path / "svc", worker_id="w0", slots=2,
                             poll_s=0.01, backoff=0.01, on_cell=on_cell)
        if on_cell is None:
            worker.run(drain=True)
        else:
            with pytest.raises(RuntimeError, match="consumer failed"):
                worker.run(drain=True)
        assert multiprocessing.active_children() == []

    def test_timed_out_slot_is_replaced(self, tmp_path):
        # One slot: cf_aes overruns and its slot is killed; the next
        # cell runs in a freshly forked slot and gets its own label.
        service = CampaignService(tmp_path / "svc")
        cid = service.submit(CampaignSpec(bombs=("cf_aes", "cp_stack"),
                                          tools=("tritonx",), timeout=0.5))
        sink = obs.MemorySink()
        with obs.recording(obs.Recorder(sinks=[sink]), close=False):
            stats = FleetWorker(tmp_path / "svc", worker_id="w0",
                                poll_s=0.01).run(drain=True)
        assert stats.timeouts == 1 and stats.computed == 1
        table = service.results(cid)
        assert table.cells[("cf_aes", "tritonx")].label == "E"
        cell = table.cells[("cp_stack", "tritonx")]
        assert cell.label == cell.expected == "ok"
        jobs = {e["attrs"]["bomb"]: e["pid"] for e in sink.events
                if e["t"] == "span" and e["name"] == "job"}
        assert set(jobs) == {"cf_aes", "cp_stack"}
        assert jobs["cf_aes"] != jobs["cp_stack"]

    def test_slot_killed_while_idle_is_replaced_without_a_retry(
            self, tmp_path, slot_pids):
        def kill_idle_slot(cell):
            # The one slot has just replied and waits for its next job.
            if cell.bomb_id == BOMBS[0]:
                (path,) = slot_pids.iterdir()
                os.kill(int(path.name), signal.SIGKILL)
                while not _gone(int(path.name)):
                    time.sleep(0.005)

        service = CampaignService(tmp_path / "svc")
        cid = service.submit(CampaignSpec(bombs=BOMBS, tools=("tritonx",),
                                          retries=0))
        stats = FleetWorker(tmp_path / "svc", worker_id="w0", poll_s=0.01,
                            on_cell=kill_idle_slot).run(drain=True)
        assert stats.computed == 2 and stats.requeued == 0
        assert service.status(cid)["states"]["done"] == 2
        assert len(list(slot_pids.iterdir())) == 2

    def test_sigkilled_workers_slots_exit(self, tmp_path, slot_pids):
        # The first two cells keep both slots busy for 0.1-0.3 s, so the
        # worker dies mid-campaign.
        root = tmp_path / "fleet"
        CampaignService(root).submit(CampaignSpec(
            bombs=("cp_stack",),
            tools=("angrx", "sandshrewx", "tritonx", "bapx")))
        doomed = _mp_context().Process(
            target=run_fleet, args=(str(root), 2),
            kwargs={"worker_id": "doomed", "poll_s": 0.01, "drain": True})
        doomed.start()
        deadline = time.monotonic() + 30
        while len(list(slot_pids.iterdir())) < 2:
            if time.monotonic() > deadline:
                pytest.fail("the worker never started two slots")
            time.sleep(0.005)
        os.kill(doomed.pid, signal.SIGKILL)
        doomed.join()
        assert doomed.exitcode == -signal.SIGKILL
        slots = [int(path.name) for path in slot_pids.iterdir()]
        deadline = time.monotonic() + 5
        while not all(_gone(pid) for pid in slots):
            if time.monotonic() > deadline:
                pytest.fail(f"slots {slots} outlived their worker")
            time.sleep(0.01)

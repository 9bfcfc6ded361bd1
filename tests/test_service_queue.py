"""The campaign journal: replay, claims, backoff, torn writes, bytes.

The journal contract: every transition is one appended record under
the sidecar lock, and opening a queue replays the journal.  Several
workers sharing one journal (the sweep, renewals, stale transitions,
forked claimants) are covered in test_service_fleet.py.
"""

import json

from repro import obs
from repro.service import JobQueue
from repro.service.queue import CLAIMED, DONE, EXHAUSTED, PENDING, Job

CELLS = [("cp_stack", "tritonx"), ("cp_stack", "bapx"), ("sv_time", "tritonx")]

#: The wall-clock time of the claims, as the fleet's clock reads it.
NOW = 100.0

#: The journal format, byte for byte, as earlier releases wrote it and
#: workers of every release must keep reading and writing it: three
#: submits, a claim, a renewal, a requeue with a backoff deadline, a
#: second claim completed, and a claim exhausted.
GOLDEN_JOURNAL = (
    b'{"t":"submit","id":"job-0000","bomb":"cp_stack","tool":"tritonx"}\n'
    b'{"t":"submit","id":"job-0001","bomb":"cp_stack","tool":"bapx"}\n'
    b'{"t":"submit","id":"job-0002","bomb":"sv_time","tool":"tritonx"}\n'
    b'{"t":"claim","id":"job-0000","worker":"host:7","attempt":1,'
    b'"lease_until":130.0}\n'
    b'{"t":"renew","id":"job-0000","worker":"host:7","lease_until":140.0}\n'
    b'{"t":"requeue","id":"job-0000","reason":"worker died (exit -9) on '
    b'attempt 1","not_before":111.05}\n'
    b'{"t":"claim","id":"job-0000","worker":"host:7","attempt":2,'
    b'"lease_until":142.0}\n'
    b'{"t":"done","id":"job-0000","result":"computed"}\n'
    b'{"t":"claim","id":"job-0001","worker":"host:7","attempt":1,'
    b'"lease_until":142.0}\n'
    b'{"t":"exhaust","id":"job-0001","reason":"worker crashed on all 1 '
    b'attempts (last exit -9)"}\n'
)


def clocked(path, worker="w0", now=None):
    """A queue whose clock reads ``now[0]`` (NOW unless given)."""
    now = now if now is not None else [NOW]
    return JobQueue(path, worker, clock=lambda: now[0])


def test_submit_claim_complete_lifecycle(tmp_path):
    queue = clocked(tmp_path / "q.jsonl")
    jobs = queue.submit(CELLS)
    assert [j.cell for j in jobs] == CELLS
    assert queue.depth() == 3

    first = queue.claim()
    assert first.cell == CELLS[0] and first.status == CLAIMED
    assert first.attempts == 1 and first.lease_until == NOW + 30.0
    assert queue.complete(first, result="computed")
    assert queue.jobs[first.job_id].status == DONE
    assert queue.counts() == {PENDING: 2, CLAIMED: 0, DONE: 1, EXHAUSTED: 0}


def test_fifo_order_and_exhaustion(tmp_path):
    path = tmp_path / "q.jsonl"
    JobQueue(path).submit(CELLS)
    w0, w1 = clocked(path, "w0"), clocked(path, "w1")
    a = w0.claim()
    b = w1.claim()
    assert (a.cell, b.cell) == (CELLS[0], CELLS[1])
    assert w0.exhaust(a, reason="worker crashed")
    assert w0.jobs[a.job_id].status == EXHAUSTED
    assert w0.jobs[a.job_id].reason == "worker crashed"


def test_journal_replay_reconstructs_state(tmp_path):
    path = tmp_path / "q.jsonl"
    queue = clocked(path)
    queue.submit(CELLS)
    done = queue.claim()
    queue.complete(done, result="cached")

    reopened = clocked(path)
    assert reopened.counts() == {PENDING: 2, CLAIMED: 0, DONE: 1,
                                 EXHAUSTED: 0}
    assert reopened.jobs[done.job_id].result == "cached"
    # Remaining jobs are claimable in the original order.
    assert reopened.claim().cell == CELLS[1]


def test_requeue_backoff_gates_claims(tmp_path):
    now = [NOW]
    queue = clocked(tmp_path / "q.jsonl", now=now)
    queue.submit(CELLS[:1])
    job = queue.claim()
    assert queue.requeue(job, reason="worker died", not_before=1000.0)
    now[0] = 999.0
    assert queue.claim() is None
    now[0] = 1000.5
    ready = queue.claim()
    assert ready.job_id == job.job_id and ready.attempts == 2


def test_one_claim_sweeps_picks_and_observes_depth(tmp_path):
    # A done job, a lapsed claim, a pending job in backoff and a ready
    # pending job: one claim requeues the lapsed claim, takes it (it
    # comes first), and observes the three jobs not yet resolved.
    path = tmp_path / "q.jsonl"
    now = [NOW]
    dead = JobQueue(path, "dead", lease_s=5.0, clock=lambda: now[0])
    dead.submit(CELLS + [("sv_time", "bapx")])
    dead.complete(dead.claim(), result="computed")
    lapsed = dead.claim()
    dead.requeue(dead.claim(), reason="worker died", not_before=1000.0)
    now[0] = NOW + 10.0
    survivor = clocked(path, "w1", now=now)
    size = path.stat().st_size
    rec = obs.Recorder()
    with obs.recording(rec, close=False):
        job = survivor.claim()
    assert (job.job_id, job.attempts) == (lapsed.job_id, 2)
    appended = [json.loads(line)
                for line in path.read_bytes()[size:].splitlines()]
    assert [(r["t"], r["id"]) for r in appended] == [
        ("requeue", lapsed.job_id), ("claim", lapsed.job_id)]
    assert rec.hists["service.queue_depth"] == [3.0]


def test_torn_trailing_line_is_ignored(tmp_path):
    path = tmp_path / "q.jsonl"
    JobQueue(path).submit(CELLS)
    with path.open("a", encoding="utf-8") as fp:
        fp.write('{"t": "claim", "id": "job-00')  # torn write
    assert JobQueue(path).counts()[PENDING] == 3


def test_record_after_a_torn_tail_starts_a_fresh_line(tmp_path):
    # A writer that died mid-append left bytes with no newline; the
    # next record must not be glued to them, or replay drops both.
    path = tmp_path / "q.jsonl"
    JobQueue(path).submit(CELLS[:1])
    with path.open("a", encoding="utf-8") as fp:
        fp.write('{"t": "claim", "id": "job-00')
    queue = clocked(path, "w1")
    job = queue.claim()
    assert queue.complete(job, result="computed")
    lines = path.read_bytes().split(b"\n")
    assert lines[1] == b'{"t": "claim", "id": "job-00'
    assert lines[2].startswith(b'{"t":"claim","id":"job-0000","worker":"w1"')
    replayed = JobQueue(path).jobs[job.job_id]
    assert (replayed.status, replayed.attempts) == (DONE, 1)


def test_transitions_write_the_golden_journal_bytes(tmp_path):
    path = tmp_path / "q.jsonl"
    JobQueue(path).submit(CELLS)
    now = [NOW]
    queue = clocked(path, "host:7", now=now)
    first = queue.claim()
    now[0] = 110.0
    queue.renew(first)
    now[0] = 111.0
    queue.requeue(first, reason="worker died (exit -9) on attempt 1",
                  not_before=111.05)
    now[0] = 112.0
    queue.complete(queue.claim(), result="computed")
    queue.exhaust(queue.claim(),
                  reason="worker crashed on all 1 attempts (last exit -9)")
    assert path.read_bytes() == GOLDEN_JOURNAL
    assert path.with_name("q.jsonl.lock").exists()


def test_golden_journal_replays_to_the_same_jobs(tmp_path):
    path = tmp_path / "q.jsonl"
    lines = GOLDEN_JOURNAL.split(b"\n")
    # A corrupt line in the middle and a torn tail, as a writer that
    # died mid-append leaves them.
    lines.insert(5, b'{"t":"renew","id":"job-0000","wor')
    path.write_bytes(b"\n".join(lines) + b'{"t":"claim","id":"job-0002"')
    assert JobQueue(path).ordered_jobs() == [
        Job("job-0000", "cp_stack", "tritonx", status=DONE, attempts=2,
            worker="host:7", not_before=111.05, result="computed",
            reason="worker died (exit -9) on attempt 1"),
        Job("job-0001", "cp_stack", "bapx", status=EXHAUSTED, attempts=1,
            worker="host:7",
            reason="worker crashed on all 1 attempts (last exit -9)"),
        Job("job-0002", "sv_time", "tritonx"),
    ]


def test_reading_a_journal_creates_nothing(tmp_path):
    path = tmp_path / "q.jsonl"
    assert JobQueue(path).counts()[PENDING] == 0
    assert list(tmp_path.iterdir()) == []

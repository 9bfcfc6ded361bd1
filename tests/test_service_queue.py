"""Durable job queue: journal replay, claim/complete, backoff.

The journal contract: every transition is one appended record, and
opening a queue replays the journal.  Taking back a crashed claimant's
job is the fleet sweep's concern (see test_service_fleet.py).
"""

from repro.service import JobQueue
from repro.service.queue import CLAIMED, DONE, EXHAUSTED, PENDING

CELLS = [("cp_stack", "tritonx"), ("cp_stack", "bapx"), ("sv_time", "tritonx")]

#: A claim's clock readings: the wall-clock time of the claim and its
#: lease deadline, as the fleet passes them.
NOW, LEASE = 100.0, 130.0


def test_submit_claim_complete_lifecycle(tmp_path):
    with JobQueue(tmp_path / "q.jsonl") as queue:
        jobs = queue.submit(CELLS)
        assert [j.cell for j in jobs] == CELLS
        assert queue.depth() == 3

        first = queue.claim("w0", NOW, LEASE)
        assert first.cell == CELLS[0] and first.status == CLAIMED
        assert first.attempts == 1 and first.lease_until == LEASE
        queue.complete(first.job_id, result="computed")
        assert queue.jobs[first.job_id].status == DONE
        assert queue.counts() == {PENDING: 2, CLAIMED: 0, DONE: 1,
                                  EXHAUSTED: 0}


def test_fifo_order_and_exhaustion(tmp_path):
    with JobQueue(tmp_path / "q.jsonl") as queue:
        queue.submit(CELLS)
        a = queue.claim("w0", NOW, LEASE)
        b = queue.claim("w1", NOW, LEASE)
        assert (a.cell, b.cell) == (CELLS[0], CELLS[1])
        queue.exhaust(a.job_id, reason="worker crashed")
        assert queue.jobs[a.job_id].status == EXHAUSTED
        assert queue.jobs[a.job_id].reason == "worker crashed"


def test_journal_replay_reconstructs_state(tmp_path):
    path = tmp_path / "q.jsonl"
    with JobQueue(path) as queue:
        queue.submit(CELLS)
        done = queue.claim("w0", NOW, LEASE)
        queue.complete(done.job_id, result="cached")

    with JobQueue(path) as reopened:
        assert reopened.counts() == {PENDING: 2, CLAIMED: 0, DONE: 1,
                                     EXHAUSTED: 0}
        assert reopened.jobs[done.job_id].result == "cached"
        # Remaining jobs are claimable in the original order.
        nxt = reopened.claim("w0", NOW, LEASE)
        assert nxt.cell == CELLS[1]


def test_requeue_backoff_gates_claims(tmp_path):
    with JobQueue(tmp_path / "q.jsonl") as queue:
        queue.submit(CELLS[:1])
        job = queue.claim("w0", NOW, LEASE)
        queue.requeue(job.job_id, reason="worker died", not_before=1000.0)
        assert queue.claim("w0", now=999.0, lease_until=1999.0) is None
        ready = queue.claim("w0", now=1000.5, lease_until=2000.5)
        assert ready.job_id == job.job_id and ready.attempts == 2


def test_torn_trailing_line_is_ignored(tmp_path):
    path = tmp_path / "q.jsonl"
    with JobQueue(path) as queue:
        queue.submit(CELLS)
    with path.open("a", encoding="utf-8") as fp:
        fp.write('{"t": "claim", "id": "job-00')  # torn write
    with JobQueue(path) as reopened:
        assert reopened.counts()[PENDING] == 3


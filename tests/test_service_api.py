"""HTTP front door: submit over the wire, stream progress, scrape metrics.

The server under test is the real one — :func:`start_api` bound to an
ephemeral port on a background event loop — and every request goes
through ``urllib`` over a real socket, so framing (Content-Length,
``Connection: close``, NDJSON chunk boundaries) is covered, not just
the routing table.
"""

import asyncio
import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.service import CampaignService, FleetWorker
from repro.service.api import start_api

SPEC = {"name": "t", "bombs": ["cp_stack"], "tools": ["tritonx"]}


class Api:
    """The server plus tiny request helpers for the tests."""

    def __init__(self, root, recorder=None):
        self.root = root
        self.recorder = recorder
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        async def _start():
            self.server, self.api = await start_api(
                root, port=0, recorder=recorder, poll_s=0.02)
            self.port = self.server.sockets[0].getsockname()[1]
            started.set()

        def _run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(_start())
            self.loop.run_forever()

        self.thread = threading.Thread(target=_run, daemon=True)
        self.thread.start()
        assert started.wait(10), "server failed to start"

    def url(self, path):
        return f"http://127.0.0.1:{self.port}{path}"

    def get(self, path):
        with urllib.request.urlopen(self.url(path), timeout=10) as resp:
            return resp.status, resp.headers, resp.read().decode()

    def get_json(self, path):
        status, _, body = self.get(path)
        return status, json.loads(body)

    def post_json(self, path, doc):
        req = urllib.request.Request(
            self.url(path), data=json.dumps(doc).encode(), method="POST")
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode())

    def stop(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)


@pytest.fixture
def api(tmp_path):
    server = Api(tmp_path / "svc")
    yield server
    server.stop()


def http_error(fn, *args):
    """Run a request expected to fail; returns (status, parsed body)."""
    with pytest.raises(urllib.error.HTTPError) as err:
        fn(*args)
    return err.value.code, json.loads(err.value.read().decode())


class TestRouting:
    def test_index_lists_the_endpoints(self, api):
        status, doc = api.get_json("/")
        assert status == 200
        assert "POST /campaigns" in doc["endpoints"]

    def test_unknown_paths_and_campaigns_are_404_json(self, api):
        status, doc = http_error(api.get, "/nope")
        assert status == 404 and "error" in doc
        status, doc = http_error(api.get, "/campaigns/c0000000-0")
        assert status == 404 and "unknown campaign" in doc["error"]

    def test_wrong_method_is_405(self, api):
        status, doc = http_error(api.post_json, "/metrics", {})
        assert status == 405


class TestSubmitAndStatus:
    def test_submit_status_results_round_trip(self, api):
        status, doc = api.post_json("/campaigns", SPEC)
        assert status == 201
        assert doc["cells"] == 1 and doc["bombs"] == ["cp_stack"]
        cid = doc["campaign"]

        status, listing = api.get_json("/campaigns")
        assert [row["campaign"] for row in listing["campaigns"]] == [cid]

        status, snap = api.get_json(f"/campaigns/{cid}")
        assert snap["states"]["pending"] == 1

        FleetWorker(api.root, worker_id="w0", poll_s=0.01).run(drain=True)
        status, snap = api.get_json(f"/campaigns/{cid}")
        assert snap["states"]["done"] == 1

        status, table = api.get_json(f"/campaigns/{cid}/results")
        assert status == 200
        assert table["cells"][0]["bomb"] == "cp_stack"

    def test_malformed_specs_are_400_with_the_field_named(self, api):
        status, doc = http_error(api.post_json, "/campaigns",
                                 {"bmobs": ["cp_stack"]})
        assert status == 400 and "bmobs" in doc["error"]
        status, doc = http_error(api.post_json, "/campaigns",
                                 {"bombs": ["zz_*"]})
        assert status == 400 and "matches nothing" in doc["error"]
        status, doc = http_error(api.post_json, "/campaigns", [1, 2])
        assert status == 400

    def test_over_quota_submit_is_429(self, tmp_path):
        root = tmp_path / "svc"
        root.mkdir()
        (root / "quotas.json").write_text(json.dumps(
            {"default": {"max_pending_cells": 1}}))
        api = Api(root)
        try:
            status, _ = api.post_json("/campaigns", SPEC)
            assert status == 201
            status, doc = http_error(api.post_json, "/campaigns", SPEC)
            assert status == 429
            assert "exceeds quota" in doc["error"]
        finally:
            api.stop()


class TestEventStream:
    def test_stream_follows_a_live_campaign_to_completion(self, api):
        _, doc = api.post_json("/campaigns", SPEC)
        cid = doc["campaign"]
        lines = []

        def drain_stream():
            with urllib.request.urlopen(
                    api.url(f"/campaigns/{cid}/events"), timeout=60) as resp:
                assert resp.headers["Content-Type"] == \
                    "application/x-ndjson"
                for raw in resp:
                    lines.append(json.loads(raw))

        watcher = threading.Thread(target=drain_stream)
        watcher.start()
        FleetWorker(api.root, worker_id="w0", poll_s=0.01).run(drain=True)
        watcher.join(60)
        assert not watcher.is_alive()
        # The stream terminated itself on the terminal snapshot.
        assert lines and lines[-1]["final"] is True
        assert lines[-1]["states"]["done"] == 1
        assert all(not snap["final"] for snap in lines[:-1])

    def test_stream_on_a_finished_campaign_is_one_final_line(self, api):
        _, doc = api.post_json("/campaigns", SPEC)
        cid = doc["campaign"]
        FleetWorker(api.root, worker_id="w0", poll_s=0.01).run(drain=True)
        _, _, body = api.get(f"/campaigns/{cid}/events")
        lines = [json.loads(raw) for raw in body.splitlines()]
        assert len(lines) == 1 and lines[0]["final"] is True


class TestMetrics:
    def test_metrics_exposes_recorder_counters_and_job_gauges(
            self, tmp_path):
        recorder = obs.Recorder()
        api = Api(tmp_path / "svc", recorder=recorder)
        try:
            with obs.recording(recorder, close=False):
                _, doc = api.post_json("/campaigns", SPEC)
                status, headers, body = api.get("/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            assert "# TYPE repro_campaign_jobs gauge" in body
            assert (f'repro_campaign_jobs{{campaign="{doc["campaign"]}",'
                    f'state="pending"}} 1.0') in body
        finally:
            api.stop()

    def test_http_traffic_is_counted(self, api):
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            api.get_json("/")
            http_error(api.get, "/nope")
        counters = rec.snapshot()["counters"]
        assert counters["service.http_requests"] == 2
        assert counters["service.http_errors"] == 1


def test_non_serving_processes_do_not_import_asyncio():
    """``table2``, ``worker`` and ``campaign`` never serve HTTP, so the
    packages they import must leave :mod:`asyncio` unloaded."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, repro.cli, repro.eval, repro.service\n"
            "print('asyncio' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"

"""CLI surface of the campaign service and the table2 cache/check flags.

Every path drives :func:`repro.cli.main` with an argv list, the same
entry point the console script uses — so these tests cover argument
parsing, verb wiring, and exit codes, not just the library API.
"""

import json
import re

import pytest

from repro import cli

BOMBS = ["cp_stack", "sv_time"]


def run_cli(argv):
    return cli.main(argv)


class TestCampaignVerbs:
    def test_submit_run_status_results(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        assert run_cli(["campaign", "submit", "--root", root,
                        "--bombs", *BOMBS, "--tools", "tritonx",
                        "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"submitted (c[0-9a-f]{8}-\d+): "
                          r"2 bombs x 1 tools = 2 cells", out)
        assert match, out
        cid = match.group(1)

        assert run_cli(["campaign", "status", cid, "--root", root]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["states"]["pending"] == 2

        assert run_cli(["campaign", "run", cid, "--root", root]) == 0
        out = capsys.readouterr().out
        assert f"campaign {cid}: cells=2" in out
        assert "computed=2" in out

        assert run_cli(["campaign", "results", cid, "--root", root,
                        "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {c["bomb"] for c in doc["cells"]} == set(BOMBS)

    def test_submit_with_run_hits_cache_on_resubmission(
            self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        argv = ["campaign", "submit", "--root", root,
                "--bombs", *BOMBS, "--tools", "tritonx", "--run"]
        assert run_cli(argv) == 0
        assert "computed=2" in capsys.readouterr().out
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert "cache_hits=2" in out and "computed=0" in out

    def test_status_without_cid_lists_campaigns(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        assert run_cli(["campaign", "status", "--root", root]) == 0
        assert "no campaigns" in capsys.readouterr().out
        run_cli(["campaign", "submit", "--root", root,
                 "--bombs", "cp_stack", "--tools", "tritonx"])
        capsys.readouterr()
        assert run_cli(["campaign", "status", "--root", root]) == 0
        listing = capsys.readouterr().out
        assert "pending=   1" in listing

    def test_submit_rejects_bad_jobs(self, tmp_path):
        with pytest.raises(SystemExit, match="jobs"):
            run_cli(["campaign", "submit", "--root", str(tmp_path),
                     "--jobs", "-1"])

    def test_submit_rejects_an_unknown_bomb(self, tmp_path):
        root = tmp_path / "svc"
        with pytest.raises(SystemExit, match="no_such_bomb"):
            run_cli(["campaign", "submit", "--root", str(root),
                     "--bombs", "no_such_bomb", "--tools", "tritonx",
                     "--run"])
        assert list(root.glob("campaigns/*")) == []

    def test_run_rejects_negative_jobs(self, tmp_path):
        with pytest.raises(SystemExit, match="--jobs"):
            run_cli(["campaign", "run", "c00000000-1", "--root",
                     str(tmp_path), "--jobs", "-1"])


class TestSpecSubmit:
    def test_spec_file_submission_json_and_toml(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        spec = tmp_path / "run.json"
        spec.write_text(json.dumps({"name": "nightly", "bombs": BOMBS,
                                    "tools": ["tritonx"]}))
        assert run_cli(["campaign", "submit", "--root", root,
                        "--spec", str(spec)]) == 0
        assert "2 bombs x 1 tools = 2 cells" in capsys.readouterr().out

        toml = tmp_path / "run.toml"
        toml.write_text('bombs = ["cp_stack"]\ntools = ["tritonx"]\n')
        assert run_cli(["campaign", "submit", "--root", root,
                        "--spec", str(toml)]) == 0
        assert "1 bombs x 1 tools = 1 cells" in capsys.readouterr().out

    def test_flags_override_the_spec_documents_keys(self, tmp_path,
                                                    capsys):
        root = tmp_path / "svc"
        spec = tmp_path / "run.json"
        spec.write_text(json.dumps({"bombs": ["cp_stack"],
                                    "tools": ["tritonx"], "retries": 1,
                                    "name": "nightly"}))
        assert run_cli(["campaign", "submit", "--root", str(root),
                        "--spec", str(spec), "--jobs", "0",
                        "--retries", "3"]) == 0
        cid = re.search(r"submitted (\S+):", capsys.readouterr().out)[1]
        doc = json.loads((root / "campaigns" / cid / "spec.json").read_text())
        assert (doc["bombs"], doc["jobs"], doc["retries"], doc["name"]) == \
            (["cp_stack"], 0, 3, "nightly")

    def test_spec_conflicts_with_matrix_flags(self, tmp_path):
        spec = tmp_path / "run.json"
        spec.write_text(json.dumps({"bombs": ["cp_stack"],
                                    "tools": ["tritonx"]}))
        with pytest.raises(SystemExit, match="drop --bombs"):
            run_cli(["campaign", "submit", "--root", str(tmp_path / "svc"),
                     "--spec", str(spec), "--bombs", "sv_time"])

    def test_invalid_spec_is_a_clean_exit_not_a_traceback(self, tmp_path):
        spec = tmp_path / "run.json"
        spec.write_text(json.dumps({"bmobs": ["cp_stack"]}))
        with pytest.raises(SystemExit, match="bmobs"):
            run_cli(["campaign", "submit", "--root", str(tmp_path / "svc"),
                     "--spec", str(spec)])

    def test_over_quota_submit_exits_3(self, tmp_path, capsys):
        root = tmp_path / "svc"
        root.mkdir()
        (root / "quotas.json").write_text(json.dumps(
            {"default": {"max_pending_cells": 1}}))
        argv = ["campaign", "submit", "--root", str(root),
                "--bombs", *BOMBS, "--tools", "tritonx"]
        assert run_cli(argv) == 3
        assert "quota rejected" in capsys.readouterr().err


class TestWatchExitCodes:
    def submit_and_run(self, root, capsys, retries="1"):
        assert run_cli(["campaign", "submit", "--root", root,
                        "--bombs", "cp_stack", "--tools", "tritonx",
                        "--retries", retries, "--run"]) == 0
        out = capsys.readouterr().out
        return re.search(r"submitted (c[0-9a-f]{8}-\d+):", out).group(1)

    def test_watch_exits_0_when_all_cells_complete(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        cid = self.submit_and_run(root, capsys)
        assert run_cli(["campaign", "status", cid, "--root", root,
                        "--watch", "--interval", "0.01"]) == 0

    def test_watch_exits_1_when_cells_exhausted(self, tmp_path, capsys,
                                                monkeypatch):
        from repro.service import KILL_CELL_ENV

        monkeypatch.setenv(KILL_CELL_ENV, "cp_stack:tritonx")
        root = str(tmp_path / "svc")
        cid = self.submit_and_run(root, capsys, retries="0")
        assert run_cli(["campaign", "status", cid, "--root", root,
                        "--watch", "--interval", "0.01"]) == 1
        err = capsys.readouterr().err
        assert "1 exhausted cell(s)" in err


class TestFleetVerbs:
    def test_worker_drains_a_submitted_campaign(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        assert run_cli(["campaign", "submit", "--root", root,
                        "--bombs", "cp_stack", "--tools", "tritonx"]) == 0
        capsys.readouterr()
        assert run_cli(["worker", "--root", root, "--drain",
                        "--poll", "0.01"]) == 0
        assert "1 loop(s) exited" in capsys.readouterr().out
        assert run_cli(["campaign", "status", "--root", root]) == 0
        assert "done=   1" in capsys.readouterr().out

    def test_worker_metrics_out_streams_jsonl(self, tmp_path, capsys):
        from repro.obs import Recorder, read_events

        root = str(tmp_path / "svc")
        metrics = tmp_path / "worker.jsonl"
        assert run_cli(["campaign", "submit", "--root", root,
                        "--bombs", "cp_stack", "--tools", "tritonx"]) == 0
        capsys.readouterr()
        assert run_cli(["worker", "--root", root, "--drain",
                        "--poll", "0.01",
                        "--metrics-out", str(metrics)]) == 0
        events = read_events(metrics)  # strict: the stream must be clean
        assert events, "worker --metrics-out produced no events"
        folded = Recorder()
        folded.absorb(events)
        assert folded.counters.get("service.jobs_completed") == 1
        # The stream feeds `repro stats` directly.
        assert run_cli(["stats", str(metrics)]) == 0
        assert "service" in capsys.readouterr().out

    def test_worker_slots_share_one_metrics_stream(self, tmp_path, capsys):
        from repro.obs import Recorder, read_events

        root = str(tmp_path / "svc")
        metrics = tmp_path / "fleet.jsonl"
        assert run_cli(["campaign", "submit", "--root", root,
                        "--bombs", *BOMBS, "--tools", "tritonx"]) == 0
        capsys.readouterr()
        assert run_cli(["worker", "--root", root, "--drain", "--jobs", "2",
                        "--poll", "0.01",
                        "--metrics-out", str(metrics)]) == 0
        assert "2 slot(s)" in capsys.readouterr().out
        # One process with two slots writes one strict-clean stream.
        assert sorted(p.name for p in tmp_path.glob("fleet.jsonl*")) == \
            ["fleet.jsonl"]
        folded = Recorder()
        folded.absorb(read_events(metrics))
        assert folded.counters.get("service.jobs_completed") == len(BOMBS)

    def test_worker_store_alias_and_validation(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        assert run_cli(["worker", "--store", root, "--drain",
                        "--poll", "0.01"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="--jobs"):
            run_cli(["worker", "--root", root, "--jobs", "-1"])
        with pytest.raises(SystemExit, match="--lease"):
            run_cli(["worker", "--root", root, "--lease", "0"])

    def test_serve_rejects_bad_poll(self, tmp_path):
        with pytest.raises(SystemExit, match="--poll"):
            run_cli(["serve", "--root", str(tmp_path), "--poll", "0"])


class TestTable2Flags:
    def test_check_passes_on_agreement(self, tmp_path, capsys):
        rc = run_cli(["table2", "--bombs", *BOMBS, "--tools", "tritonx",
                      "--cache", str(tmp_path / "store"), "--check"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "check: all labelled cells match the paper" in captured.err

    def test_check_fails_on_timeout_mismatch(self, capsys):
        # A 50 ms budget turns cf_aes (paper label Es2, a slow cell)
        # into E, which deviates from the paper — the CI gate must
        # catch that.
        rc = run_cli(["table2", "--bombs", "cf_aes", "--tools", "tritonx",
                      "--timeout", "0.05", "--check"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "observed E" in captured.err
        assert "deviate from the paper" in captured.err

    def test_cache_dir_round_trip_is_byte_identical(self, tmp_path, capsys):
        argv = ["table2", "--bombs", *BOMBS, "--tools", "tritonx",
                "--cache", str(tmp_path / "store"), "--json"]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_timeout_validation(self):
        with pytest.raises(SystemExit):
            run_cli(["table2", "--timeout", "0"])

    def test_jobs_zero_auto_detects(self, tmp_path, capsys):
        assert run_cli(["table2", "--bombs", "cp_stack",
                        "--tools", "tritonx", "--jobs", "0"]) == 0
        assert "cp_stack" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="auto-detect"):
            run_cli(["table2", "--jobs", "-1"])

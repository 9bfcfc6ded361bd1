"""Solver lab: capture -> replay -> report -> diff over a real slice.

One module-scoped capture of a small real matrix slice feeds every
test — capture is the expensive step, and the acceptance criteria
(zero replay drift, full wall attribution, store-level dedup) are all
properties of one corpus.
"""

import json
import shutil

import pytest

from repro.cli import main as cli_main
from repro.eval import solverlab
from repro.obs import session
from repro.service.store import ResultStore
from repro.smt import querylog

BOMBS = ("cp_stack", "sv_time")
TOOLS = ("tritonx", "bapx")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("solverlab") / "store"
    doc = solverlab.capture_matrix(bombs=BOMBS, tools=TOOLS,
                                   cache=str(root), verbose=False)
    return str(root), doc


@pytest.fixture(scope="module")
def oneshot_corpus(tmp_path_factory):
    """cp_stack under angrx: every occurrence is a one-shot query (the
    corpus above holds only incremental ones)."""
    root = tmp_path_factory.mktemp("solverlab-oneshot") / "store"
    solverlab.capture_matrix(bombs=["cp_stack"], tools=["angrx"],
                             cache=str(root), verbose=False)
    return str(root)


def _tamper_manifest(root, dest, edit):
    """Copy the store at *root* to *dest* and apply *edit* to the first
    occurrence of its first manifest; returns that occurrence."""
    shutil.copytree(root, dest)
    store = ResultStore(dest)
    manifest = store.query_manifests()[0]
    occ = manifest["queries"][0]
    edit(occ)
    store.put_query_manifest(manifest["bomb"], manifest["tool"], manifest)
    return occ


class TestCapture:
    def test_capture_summary_shape(self, corpus):
        root, doc = corpus
        assert doc["kind"] == "solverlab-capture"
        assert doc["queries"] > 0
        assert 0 < doc["distinct"] <= doc["queries"]
        assert doc["stored"] == doc["distinct"]
        assert doc["dedup_ratio"] == pytest.approx(
            1.0 - doc["distinct"] / doc["queries"], abs=1e-6)
        # The recorder was switched off again after the capture.
        assert session.current.queries is None

    def test_each_distinct_query_stored_once(self, corpus):
        root, doc = corpus
        store = ResultStore(root)
        digests = store.query_digests()
        assert len(digests) == doc["distinct"]
        # Record bodies decode and re-digest to their file name.
        digest = digests[0]
        body = store.get_query(digest)
        tagged, assumptions = querylog.decode_record(body)
        rebuilt, _ = querylog.build_record(tagged, assumptions,
                                           body["budget"])
        assert rebuilt == digest

    def test_manifests_reference_stored_records(self, corpus):
        root, _ = corpus
        store = ResultStore(root)
        manifests = store.query_manifests()
        assert manifests, "capture produced no manifests"
        for manifest in manifests:
            assert manifest["queries"], "empty manifest was persisted"
            for occ in manifest["queries"]:
                assert store.get_query(occ["digest"]) is not None

    def test_warm_rerun_captures_nothing_new(self, corpus):
        root, _ = corpus
        doc = solverlab.capture_matrix(bombs=BOMBS, tools=TOOLS,
                                       cache=root, verbose=False)
        # Every cell is served from the result cache: no engine runs,
        # no queries, and no manifests are clobbered.
        assert doc["queries"] == 0
        assert doc["stored"] == 0
        assert doc["manifests"] == 0


class TestReplay:
    def test_fresh_replay_has_zero_drift(self, corpus):
        root, cap = corpus
        doc = solverlab.replay_corpus(root, mode="fresh")
        assert doc["drift"] == []
        assert doc["queries"] == cap["queries"]
        assert doc["distinct"] == cap["distinct"]
        assert doc["missing_records"] == 0

    def test_incremental_replay_has_zero_drift(self, corpus):
        root, _ = corpus
        doc = solverlab.replay_corpus(root, mode="incremental")
        assert doc["drift"] == []

    def test_class_totals_cover_every_query(self, corpus):
        root, _ = corpus
        doc = solverlab.replay_corpus(root, mode="fresh")
        assert sum(b["n"] for b in doc["classes"].values()) == doc["queries"]
        for cls in doc["classes"]:
            assert cls in querylog.FEATURE_CLASSES

    def test_tool_filter_restricts_manifests(self, corpus):
        root, _ = corpus
        full = solverlab.replay_corpus(root, mode="fresh")
        one = solverlab.replay_corpus(root, mode="fresh",
                                      tools=["tritonx"])
        assert 0 < one["queries"] < full["queries"]
        # sv_time aborts before the solve stage (Es0), so only cp_stack
        # manifests exist and the bomb filter keeps all of them.
        same = solverlab.replay_corpus(root, mode="fresh",
                                       bombs=["cp_stack"])
        assert same["queries"] == full["queries"]
        none = solverlab.replay_corpus(root, mode="fresh",
                                       bombs=["sv_time"])
        assert none["queries"] == 0 and none["cells"] == 0

    def test_bad_mode_rejected(self, corpus):
        with pytest.raises(ValueError, match="fresh|incremental"):
            solverlab.replay_corpus(corpus[0], mode="warp")


class TestReplayEffort:
    def test_each_digest_carries_its_search_effort(self, oneshot_corpus):
        doc = solverlab.replay_corpus(oneshot_corpus, mode="fresh")
        assert set(doc["effort"]) == set(doc["verdicts"])
        for digest, effort in doc["effort"].items():
            assert set(solverlab.EFFORT_KEYS) <= set(effort)
            assert ("model" in effort) == (doc["verdicts"][digest] == "sat")
        assert sum(e["gates"] for e in doc["effort"].values()) > 0

    def test_fresh_replay_reproduces_one_shot_effort(self, oneshot_corpus):
        doc = solverlab.replay_corpus(oneshot_corpus, mode="fresh")
        assert doc["effort_checked"] == doc["queries"] > 0
        assert doc["effort_drift"] == []

    def test_one_shot_effort_drift_is_reported(self, oneshot_corpus,
                                               tmp_path, capsys):
        dest = tmp_path / "store"
        occ = _tamper_manifest(oneshot_corpus, dest,
                               lambda o: o.update(gates=o["gates"] + 1))
        doc = solverlab.replay_corpus(str(dest), mode="fresh")
        assert doc["drift"] == []
        [drift] = doc["effort_drift"]
        assert drift["digest"] == occ["digest"]
        assert drift["recorded"]["gates"] == drift["replayed"]["gates"] + 1
        assert cli_main(["solverlab", "replay", "--cache", str(dest)]) == 1
        assert "EFFORT DRIFT" in capsys.readouterr().out

    def test_incremental_occurrences_compare_verdicts_only(self, corpus,
                                                           tmp_path):
        root, _ = corpus
        dest = tmp_path / "store"
        occ = _tamper_manifest(root, dest,
                               lambda o: o.update(conflicts=99, gates=1))
        assert occ["solver"] == "incremental"
        doc = solverlab.replay_corpus(str(dest), mode="fresh")
        assert doc["effort_checked"] == 0
        assert doc["drift"] == doc["effort_drift"] == []

    def test_incremental_mode_checks_verdicts_only(self, oneshot_corpus,
                                                   tmp_path):
        dest = tmp_path / "store"
        _tamper_manifest(oneshot_corpus, dest,
                         lambda o: o.update(conflicts=99))
        doc = solverlab.replay_corpus(str(dest), mode="incremental")
        assert doc["effort_checked"] == 0
        assert doc["drift"] == doc["effort_drift"] == []


class TestReport:
    def test_report_attributes_all_wall_to_named_classes(self, corpus):
        root, cap = corpus
        doc = solverlab.report_corpus(root)
        assert doc["queries"] == cap["queries"]
        assert doc["attributed_wall_fraction"] == pytest.approx(1.0)
        assert set(doc["by_class"]) <= set(querylog.FEATURE_CLASSES)
        shares = [row["wall_share"] for row in doc["by_class"].values()]
        assert sum(shares) == pytest.approx(1.0, abs=1e-4)

    def test_top_offenders_are_sorted_and_bounded(self, corpus):
        root, _ = corpus
        doc = solverlab.report_corpus(root, top=3)
        assert len(doc["top_wall"]) <= 3
        walls = [o["wall_s"] for o in doc["top_wall"]]
        assert walls == sorted(walls, reverse=True)

    def test_prometheus_family_renders_per_class(self, corpus):
        from repro.obs.export import solverlab_class_wall

        root, _ = corpus
        text = solverlab_class_wall(solverlab.report_corpus(root))
        assert "# TYPE repro_solverlab_class_wall_seconds gauge" in text
        assert 'repro_solverlab_class_wall_seconds{class="' in text


class TestDiff:
    def test_store_vs_own_replay_has_no_drift(self, corpus, tmp_path):
        root, _ = corpus
        replay = solverlab.replay_corpus(root, mode="fresh")
        out = tmp_path / "replay.json"
        out.write_text(json.dumps(replay))
        doc = solverlab.diff_indices(solverlab.corpus_index(root),
                                     solverlab.corpus_index(out))
        assert doc["drift"] == []
        assert doc["common"] == replay["distinct"]
        assert doc["only_a"] == doc["only_b"] == 0

    def test_tampered_verdict_is_reported_as_drift(self, corpus, tmp_path):
        root, _ = corpus
        replay = solverlab.replay_corpus(root, mode="fresh")
        digest = next(iter(replay["verdicts"]))
        replay["verdicts"][digest] = (
            "unsat" if replay["verdicts"][digest] == "sat" else "sat")
        out = tmp_path / "tampered.json"
        out.write_text(json.dumps(replay))
        doc = solverlab.diff_indices(solverlab.corpus_index(root),
                                     solverlab.corpus_index(out))
        assert [d["digest"] for d in doc["drift"]] == [digest]

    def test_replays_of_the_same_corpus_agree_in_effort(self,
                                                         oneshot_corpus,
                                                         tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            path.write_text(json.dumps(
                solverlab.replay_corpus(oneshot_corpus, mode="fresh")))
        doc = solverlab.diff_indices(solverlab.corpus_index(a),
                                     solverlab.corpus_index(b))
        assert doc["common"] > 0
        assert doc["drift"] == doc["effort_drift"] == []

    @pytest.mark.parametrize("key, value", [("decisions", -1),
                                            ("model", "0" * 16)])
    def test_effort_or_model_difference_fails_the_diff(self, oneshot_corpus,
                                                       tmp_path, capsys,
                                                       key, value):
        replay = solverlab.replay_corpus(oneshot_corpus, mode="fresh")
        a = tmp_path / "a.json"
        a.write_text(json.dumps(replay))
        digest = next(d for d, v in replay["verdicts"].items() if v == "sat")
        replay["effort"][digest][key] = value
        b = tmp_path / "b.json"
        b.write_text(json.dumps(replay))
        doc = solverlab.diff_indices(solverlab.corpus_index(a),
                                     solverlab.corpus_index(b))
        assert doc["drift"] == []
        assert [d["digest"] for d in doc["effort_drift"]] == [digest]
        assert cli_main(["solverlab", "diff", str(a), str(b)]) == 1
        assert f"EFFORT DRIFT {digest[:12]}: {key}" in capsys.readouterr().out

    def test_non_replay_json_is_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="not a corpus directory"):
            solverlab.corpus_index(bogus)


class TestCli:
    def test_replay_verb_exits_0_and_writes_doc(self, corpus, tmp_path,
                                                capsys):
        root, _ = corpus
        out = tmp_path / "replay.json"
        assert cli_main(["solverlab", "replay", "--cache", root,
                         "--out", str(out)]) == 0
        assert "0 drift" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["kind"] == "solverlab-replay"

    def test_report_verb_json_and_prom(self, corpus, capsys):
        root, _ = corpus
        assert cli_main(["solverlab", "report", "--cache", root,
                         "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "solverlab-report"
        assert cli_main(["solverlab", "report", "--cache", root,
                         "--prom"]) == 0
        assert "repro_solverlab_class_wall_seconds" in \
            capsys.readouterr().out

    def test_diff_verb_exit_codes(self, corpus, tmp_path, capsys):
        root, _ = corpus
        assert cli_main(["solverlab", "diff", root, root]) == 0
        capsys.readouterr()
        replay = solverlab.replay_corpus(root, mode="fresh")
        digest = next(iter(replay["verdicts"]))
        replay["verdicts"][digest] = "error"
        tampered = tmp_path / "t.json"
        tampered.write_text(json.dumps(replay))
        assert cli_main(["solverlab", "diff", root, str(tampered)]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_replay_trace_out_writes_perfetto_json(self, corpus, tmp_path):
        root, _ = corpus
        trace = tmp_path / "trace.json"
        assert cli_main(["solverlab", "replay", "--cache", root,
                         "--trace-out", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "solve" in names and "solverlab" in names

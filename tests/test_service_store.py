"""Content-addressed result store: keys, stamps, round-trips, hit/miss
metrics.

The cache-key contract: a cell key is a pure function of the bomb's
compiled image + run context and the tool's capability matrix.  Editing
a bomb source changes its image digest — and only that bomb's keys;
editing a tool policy changes only that tool's keys; the paper's
expected labels are *not* part of the key and are re-read from the live
dataset on decode.  The engine source is not in the key either: the
store stamps what it writes with its digest and reads any other stamp
as a miss.
"""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro import obs
from repro.bombs import get_bomb
from repro.bombs.suite import Bomb
from repro.errors import Diagnostic, DiagnosticKind, DiagnosticLog, ErrorStage
from repro.eval import CellResult, run_cell
from repro.fuzz import CoverageFuzzer, FuzzConfig, HybridPolicy
from repro.lang import compile_sources
from repro.service import (
    ResultStore,
    bomb_fingerprint,
    cell_key,
    decode_cell,
    encode_cell,
    engine_digest,
    fingerprint,
    image_digest,
)
from repro.smt.querylog import QUERYLOG_SCHEMA
from repro.tools import ToolReport, capability_fingerprint
from repro.tools.profiles import TRITONX
from repro.vm import Environment


#: ``capability_fingerprint`` of every tool and ``cell_key`` of four
#: cells, pinned byte for byte.
GOLDEN_CAPABILITIES = {
    "bapx": "4e23a07226a3fcd145b0e5b4a30f0fea1d85c3d4e5c4c35839eef18223884625",
    "tritonx": "6bd1f905552fd3058b199466a42b6fc6f1da41568f84cb05817b5e321e39deca",
    "angrx": "c8fd61281c4012e7ff6e04c3c5353347ebc023f601f57966b73b5009ce966d45",
    "angrx_nolib": "e9fadc319d84acaaf1fd64cf97851b23ecaba96c2abb419fb75cd25472c18636",
    "sandshrewx": "f4517a78086becf6bec4ec9ca4a99ece3e1c1e02cb2c2b0d54e8bb6a27d25e84",
    "hybridx": "4862a37194f1d1770abfd36df3931a3f7c72450115c5b932c0c2fb964c825bf8",
    "rexx": "20ebe44c3bd8f61bbb772c690d714fb28199ca7e7c7ea8806644602645473346",
}
GOLDEN_CELL_KEYS = {
    ("cp_stack", "tritonx"):
        "03f44970e7f2c8eb09ec9f8fb5a423b7ea4d104ab75ae7eaab1b26cca00d5c2a",
    ("sv_time", "hybridx"):
        "b0cafaa608246671994c06b0a399111663684ed1f7d29bff0ebdeaa08f5e48dd",
    ("cf_sha1", "sandshrewx"):
        "ce8cc83bf83225f5c0463e790ec78a23eca2174e71eeb5de93d34e4426dd7cb2",
    ("sa_l1_array", "angrx_nolib"):
        "102b1d83ba8fcfa82a259e05143f87ce6da943c73c855e7caf4e8a7d095f78ab",
}
#: Corpus keys of an ``sv_time`` campaign seeded with ``1``, under the
#: default ``FuzzConfig`` and under ``HybridPolicy().fuzz_config()``.
GOLDEN_CAMPAIGN_KEYS = {
    "default": "5f7191b5ad125671d164529b83e04c8e30e237e94cc7a5f2b2dace6950b345b1",
    "hybrid": "900e332f5dc6b51744716968ac7e224b3f94ab1566c5c94af9f641adda364d34",
}


class EditedBomb(Bomb):
    """A bomb whose image compiles from an in-test (edited) source."""

    _edited_source: str = ""

    @property
    def image(self):
        return compile_sources([(f"{self.bomb_id}.bc", self._edited_source)])


def edited_copy(bomb_id: str, extra: str) -> Bomb:
    """Clone a dataset bomb with *extra* appended inside main()."""
    from repro.bombs.suite import _SRC_DIR

    base = get_bomb(bomb_id)
    source = (_SRC_DIR / f"{bomb_id}.bc").read_text()
    # Inject a live statement at the top of main(), so codegen emits
    # different bytes.
    marker = "int main(int argc, char **argv) {"
    assert marker in source
    edited = source.replace(marker, marker + "\n    " + extra, 1)
    clone = EditedBomb(
        **{f.name: getattr(base, f.name) for f in dataclasses.fields(Bomb)})
    clone._edited_source = edited
    return clone


class TestCellKeys:
    def test_key_is_stable_across_calls(self):
        bomb = get_bomb("cp_stack")
        assert cell_key(bomb, "tritonx") == cell_key(bomb, "tritonx")

    def test_key_distinguishes_tools_and_bombs(self):
        bomb = get_bomb("cp_stack")
        other = get_bomb("sv_time")
        keys = {cell_key(bomb, "tritonx"), cell_key(bomb, "bapx"),
                cell_key(other, "tritonx"), cell_key(other, "bapx")}
        assert len(keys) == 4

    def test_editing_a_bomb_source_changes_only_its_key(self):
        original = get_bomb("cp_stack")
        edited = edited_copy("cp_stack", "int service_pad = argc + 40;")
        assert image_digest(edited.image) != image_digest(original.image)
        assert bomb_fingerprint(edited) != bomb_fingerprint(original)
        assert cell_key(edited, "tritonx") != cell_key(original, "tritonx")
        # An untouched bomb keeps its key.
        untouched = get_bomb("sv_time")
        assert cell_key(untouched, "tritonx") == cell_key(untouched, "tritonx")

    def test_capability_edit_changes_the_tool_component(self):
        relaxed = dataclasses.replace(TRITONX, supports_fp=True)
        assert relaxed.fingerprint() != TRITONX.fingerprint()
        # And the tool-level fingerprint folds the family in.
        assert capability_fingerprint("tritonx") != \
            capability_fingerprint("bapx")

    def test_expected_labels_are_not_part_of_the_key(self):
        bomb = get_bomb("cp_stack")
        relabelled = dataclasses.replace(
            bomb, expected={t: "E" for t in bomb.expected})
        assert cell_key(relabelled, "tritonx") == cell_key(bomb, "tritonx")

    def test_golden_fingerprints(self):
        # A capability policy describes capabilities only: any change to
        # these digests invalidates every cached cell of the tool.
        assert {t: capability_fingerprint(t)
                for t in GOLDEN_CAPABILITIES} == GOLDEN_CAPABILITIES
        assert {(b, t): cell_key(get_bomb(b), t)
                for b, t in GOLDEN_CELL_KEYS} == GOLDEN_CELL_KEYS

    def test_golden_campaign_keys(self):
        bomb = get_bomb("sv_time")
        configs = {"default": FuzzConfig(),
                   "hybrid": HybridPolicy().fuzz_config()}
        keys = {}
        for name, config in configs.items():
            fuzzer = CoverageFuzzer(bomb.image, config, bomb.base_env(),
                                    argv0=b"sv_time",
                                    fixed_tail=bomb.seed_argv[1:])
            keys[name] = fuzzer._campaign_key((b"1",))
        assert keys == GOLDEN_CAMPAIGN_KEYS


@pytest.fixture(scope="module")
def solved_cell():
    return run_cell(get_bomb("cp_stack"), "tritonx")


class TestRoundTrip:
    def test_encode_decode_preserves_everything(self, solved_cell):
        bomb = get_bomb("cp_stack")
        doc = json.loads(json.dumps(encode_cell(solved_cell)))
        clone = decode_cell(doc, bomb)
        assert clone.outcome is solved_cell.outcome
        assert clone.expected == solved_cell.expected
        assert clone.timings == solved_cell.timings
        assert clone.diagnostic == solved_cell.diagnostic
        assert clone.report.solved == solved_cell.report.solved
        assert clone.report.solution == solved_cell.report.solution
        assert clone.report.elapsed == solved_cell.report.elapsed
        assert [d.kind for d in clone.report.diagnostics] == \
            [d.kind for d in solved_cell.report.diagnostics]
        assert clone.to_json() == solved_cell.to_json()

    def test_codec_is_lossless(self):
        # Fleet workers hand every cell to their parent through this
        # codec, so it must keep every field a worker's cell can carry.
        bomb = get_bomb("cs_file_name")
        env = Environment(time_value=7, pid=8, magic=9,
                          files={"/z": b"\xff\x00", "/a": b"a"},
                          network={"http://x": b"ok"}, stdin=b"\x80in")
        report = ToolReport(
            tool="rexx", bomb_id="cs_file_name", solved=True,
            solution=[b"cs", b"\xfe"], solution_env=env, goal_claimed=True,
            claimed_inputs=[[b"cs", b"a"], [b"cs"]],
            diagnostics=DiagnosticLog([
                Diagnostic(DiagnosticKind.CONCRETE_LENGTH, "len", 0x10c),
                Diagnostic(DiagnosticKind.NO_SYMBOLIC_SOURCE)]),
            aborted="budget", elapsed=1.25, false_positive=True)
        cell = CellResult("cs_file_name", "rexx", ErrorStage.ES0,
                          bomb.expected.get("rexx"), report,
                          timings={"solve": 0.5}, timings_self={"solve": 0.25},
                          diagnostic="why")
        doc = encode_cell(cell)
        assert set(doc["report"]) | {"tool", "bomb_id"} == \
            {f.name for f in dataclasses.fields(ToolReport)}
        assert set(doc["report"]["solution_env"]) == \
            {f.name for f in dataclasses.fields(Environment)}
        assert decode_cell(json.loads(json.dumps(doc)), bomb) == cell

    def test_decode_rereads_the_paper_label(self, solved_cell):
        bomb = get_bomb("cp_stack")
        doc = encode_cell(solved_cell)
        relabelled = dataclasses.replace(bomb, expected={"tritonx": "Es3"})
        clone = decode_cell(doc, relabelled)
        assert clone.expected == "Es3"
        assert clone.matches_paper is False

    def test_environment_round_trip(self):
        cell = run_cell(get_bomb("cs_file_name"), "bapx")
        bomb = get_bomb("cs_file_name")
        clone = decode_cell(json.loads(json.dumps(encode_cell(cell))), bomb)
        assert clone.report.diag_kinds() == cell.report.diag_kinds()


class TestResultStore:
    def test_put_get_counts_hits_and_misses(self, tmp_path, solved_cell):
        bomb = get_bomb("cp_stack")
        store = ResultStore(tmp_path / "store")
        key = cell_key(bomb, "tritonx")
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            assert store.get(key, bomb) is None
            store.put(key, solved_cell)
            hit = store.get(key, bomb)
        assert hit is not None and hit.outcome is solved_cell.outcome
        counters = rec.snapshot()["counters"]
        assert counters["service.cache_misses"] == 1
        assert counters["service.cache_hits"] == 1
        assert counters["service.cache_stores"] == 1
        assert len(store) == 1 and store._path(key).is_file()

    def test_corrupt_object_is_a_miss(self, tmp_path, solved_cell):
        bomb = get_bomb("cp_stack")
        store = ResultStore(tmp_path / "store")
        key = cell_key(bomb, "tritonx")
        store.put(key, solved_cell)
        store._path(key).write_text("{not json", encoding="utf-8")
        assert store.get(key, bomb) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path, solved_cell):
        bomb = get_bomb("cp_stack")
        store = ResultStore(tmp_path / "store")
        key = cell_key(bomb, "tritonx")
        store.put(key, solved_cell)
        doc = json.loads(store._path(key).read_text())
        assert doc["schema"] == engine_digest()
        doc["schema"] = "0" * 64
        store._path(key).write_text(json.dumps(doc), encoding="utf-8")
        assert store.get(key, bomb) is None


class TestEngineDigest:
    @pytest.fixture
    def package(self, tmp_path):
        """A copy of the ``repro`` package source to edit."""
        live = Path(fingerprint.__file__).resolve().parents[1]
        root = tmp_path / "repro"
        shutil.copytree(live, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert fingerprint._source_digest(root) == engine_digest()
        return root

    @pytest.mark.parametrize("rel, moves", [
        ("smt/sat.py", True),
        ("obs/core.py", False),
        ("cli.py", False),
        ("bombs/suite.py", False),
        ("tools/profiles.py", False),
    ])
    def test_only_engine_source_moves_the_digest(self, package, rel, moves):
        before = fingerprint._source_digest(package)
        with open(package / rel, "a", encoding="utf-8") as fp:
            fp.write("# an edit\n")
        assert (fingerprint._source_digest(package) != before) is moves


#: A payload for the kinds whose writer takes one as is.
_PAYLOAD = {"entries": [[1, "x"]], "verdict": None}


def _document_kind(kind, store, cell):
    """(write, read, path, stored document) of one document kind.

    *read* returns the document form of what the public reader hands
    back, so a round trip compares documents for every kind.
    """
    bomb = get_bomb("cp_stack")
    key = "ab" * 32
    stamp = engine_digest()
    if kind == "cell":
        def read():
            got = store.get(key, bomb)
            return None if got is None else {"schema": stamp,
                                             **encode_cell(got)}
        return (lambda: store.put(key, cell), read, store._path(key),
                {"schema": stamp, **encode_cell(cell)})
    if kind == "lift":
        return (lambda: store.put_lift(key, _PAYLOAD),
                lambda: store.get_lift(key), store._lift_path(key),
                {"schema": stamp, **_PAYLOAD})
    if kind == "corpus":
        return (lambda: store.put_corpus(key, _PAYLOAD),
                lambda: store.get_corpus(key), store._corpus_path(key),
                {"schema": stamp, **_PAYLOAD})
    if kind == "query":
        return (lambda: store.put_query(key, _PAYLOAD),
                lambda: store.get_query(key), store._query_path(key),
                _PAYLOAD)
    if kind == "manifest":
        return (lambda: store.put_query_manifest("b", "t", _PAYLOAD),
                lambda: store.get_query_manifest("b", "t"),
                store._manifest_path("b", "t"),
                {"schema": QUERYLOG_SCHEMA, "bomb": "b", "tool": "t",
                 **_PAYLOAD})
    from repro.eval import CellDiagnosis, EvidenceItem

    diagnosis = CellDiagnosis("b", "t", "Es2", "Es2", "lost", evidence=[
        EvidenceItem("drop", "gone", pc=0x10, count=2)])

    def read():
        got = store.get_diagnosis(key)
        return None if got is None else {"schema": stamp, **got.to_json()}
    return (lambda: store.put_diagnosis(key, diagnosis), read,
            store._diagnosis_path(key),
            {"schema": stamp, **diagnosis.to_json()})


class _TornFile:
    """A file whose write lands half its text, then fails."""

    def __init__(self, fp):
        self.fp = fp

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fp.close()
        return False

    def write(self, text):
        self.fp.write(text[:len(text) // 2])
        raise OSError("disk full")


class TestDocuments:
    @pytest.mark.parametrize("kind", ["cell", "lift", "corpus", "query",
                                      "manifest", "diagnosis"])
    def test_atomic_write_canonical_bytes_and_torn_reads(
            self, tmp_path, monkeypatch, kind, solved_cell):
        import os

        store = ResultStore(tmp_path / "store")
        write, read, path, doc = _document_kind(kind, store, solved_cell)
        # A write that fails midway leaves neither its temp file nor
        # the target behind.
        real_fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda fd, *a, **kw: _TornFile(
            real_fdopen(fd, *a, **kw)))
        with pytest.raises(OSError, match="disk full"):
            write()
        monkeypatch.undo()
        assert not path.exists()
        assert list(path.parent.glob("*.tmp")) == []
        assert read() is None
        # Round trip: the file holds the canonical JSON of the document.
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            write()
        assert path.read_bytes() == json.dumps(
            doc, sort_keys=True, separators=(",", ":")).encode()
        assert read() == doc
        stores = {"cell": "cache"}.get(kind, kind)
        assert rec.counters[f"service.{stores}_stores"] == 1
        # A torn document reads as missing.
        path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])
        assert read() is None

    @pytest.mark.parametrize("kind, stamped", [
        ("cell", True), ("lift", True), ("corpus", True),
        ("diagnosis", True), ("query", False), ("manifest", False)])
    def test_another_engine_is_a_miss_for_stamped_kinds(
            self, tmp_path, monkeypatch, kind, stamped, solved_cell):
        store = ResultStore(tmp_path / "store")
        write, read, _, doc = _document_kind(kind, store, solved_cell)
        write()
        assert read() == doc
        # The same store read by another engine source.
        monkeypatch.setattr(fingerprint, "_ENGINE_DIGEST", "0" * 64)
        assert read() == (None if stamped else doc)


class TestQueryStore:
    def test_put_query_dedups_by_digest(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        digest = "ab" * 32
        body = {"schema": 1, "nodes": [["v", 32, "x"]],
                "constraints": [[0, None, None]], "assumptions": [],
                "budget": {}, "features": {}, "class": "small-linear"}
        assert store.put_query(digest, body) is True
        assert store.put_query(digest, body) is False
        assert store.get_query(digest) == body
        assert store.get_query("cd" * 32) is None
        assert store.query_digests() == [digest]

    def test_query_layout_shards_by_digest_prefix(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        digest = "1234" + "0" * 60
        store.put_query(digest, {"schema": 1})
        assert (tmp_path / "store" / "smtlog" / "12"
                / f"{digest}.json").is_file()

    def test_manifest_round_trip_and_ordering(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put_query_manifest("b_late", "t", {"queries": [{"digest": "x"}]})
        store.put_query_manifest("a_early", "t", {"queries": []})
        got = store.get_query_manifest("b_late", "t")
        assert got["queries"] == [{"digest": "x"}]
        assert got["bomb"] == "b_late" and got["tool"] == "t"
        # Listing is sorted by (bomb, tool), not directory order.
        assert [m["bomb"] for m in store.query_manifests()] == \
            ["a_early", "b_late"]

    def test_manifest_overwrite_replaces(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put_query_manifest("b", "t", {"queries": [{"digest": "old"}]})
        store.put_query_manifest("b", "t", {"queries": [{"digest": "new"}]})
        assert store.get_query_manifest("b", "t")["queries"] == \
            [{"digest": "new"}]

    def test_torn_or_stale_manifests_are_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put_query_manifest("good", "t", {"queries": []})
        manifests_dir = tmp_path / "store" / "smtlog" / "manifests"
        (manifests_dir / "torn.json").write_text("{not json")
        stale = json.loads(
            next(p for p in manifests_dir.glob("*.json")
                 if p.name != "torn.json").read_text())
        stale["schema"] = QUERYLOG_SCHEMA + 1
        (manifests_dir / "stale.json").write_text(json.dumps(stale))
        listing = store.query_manifests()
        assert [m["bomb"] for m in listing] == ["good"]
        assert store.get_query_manifest("missing", "t") is None

"""The session: one scoped record of what instrumentation is on.

Two groups of tests:

* store scoping — a result store reaches only the run that named it.
  A storeless ``run_table2`` after a cached one, serial or forked, must
  write no lift cache or fuzz corpus into the earlier run's store;
* overlay semantics — a ``with`` overlays the fields it names, leaves
  the rest (and any field passed as ``None``) as they were, runs each
  collector's exit duty and restores the outer session, also when the
  block raises; with nothing on, every hook is a no-op.
"""

import pytest

from repro import obs
from repro.errors import DiagnosticKind, DiagnosticLog
from repro.eval import run_table2
from repro.ir import superblock
from repro.obs import profile, session
from repro.obs.provenance import ProvenanceCollector
from repro.service import ResultStore
from repro.smt import querylog
from repro.smt.querylog import QueryRecorder


@pytest.fixture(autouse=True)
def _fresh_process_state():
    """No lift cache and nothing on, before and after each test."""
    superblock.reset()
    assert session.current == session.Session()
    yield
    superblock.reset()
    assert session.current == session.Session()


def _derived(root):
    """Every lift cache and fuzz corpus file under the store at *root*."""
    return sorted(str(p.relative_to(root))
                  for tree in ("lift", "corpus")
                  for p in (root / tree).rglob("*.json"))


class TestStoreScope:
    def _cached_run(self, root):
        run_table2(("cp_stack",), ("tritonx",), cache=str(root))
        before = _derived(root)
        assert before, "the cached run itself persisted a lift cache"
        return before

    def test_serial_storeless_run_leaves_an_earlier_store_alone(
            self, tmp_path):
        before = self._cached_run(tmp_path / "A")
        run_table2(("sv_time",), ("hybridx", "tritonx"))
        assert _derived(tmp_path / "A") == before

    def test_forked_storeless_run_leaves_an_earlier_store_alone(
            self, tmp_path):
        before = self._cached_run(tmp_path / "A")
        result = run_table2(("sv_time", "sv_web"), ("hybridx", "tritonx"),
                            jobs=2)
        assert len(result.cells) == 4
        assert _derived(tmp_path / "A") == before


class TestOverlay:
    def test_nested_overlay_restores_the_outer_session(self):
        outer, inner = obs.Recorder(), obs.Recorder()
        with session.overlay(recorder=outer) as s:
            assert session.current is s and s.recorder is outer
            with session.overlay(recorder=inner):
                assert session.current.recorder is inner
            assert session.current is s
        assert session.current == session.Session()

    def test_nested_overlay_restores_when_the_block_raises(self):
        prof = profile.Profiler()
        with session.overlay(profiler=prof) as outer:
            with pytest.raises(RuntimeError):
                with session.overlay(queries=QueryRecorder(),
                                     provenance=ProvenanceCollector()):
                    raise RuntimeError
            assert session.current is outer
        assert session.current == session.Session()

    def test_overlay_naming_one_field_inherits_the_others(self, tmp_path):
        rec, prof = obs.Recorder(), profile.Profiler()
        store = ResultStore(tmp_path)
        with session.overlay(recorder=rec, profiler=prof, store=store):
            prov = ProvenanceCollector()
            with session.overlay(provenance=prov) as s:
                assert s == session.Session(recorder=rec, profiler=prof,
                                            provenance=prov, store=store)

    def test_none_leaves_an_outer_field_on(self):
        prof = profile.Profiler()
        with session.overlay(profiler=prof):
            with session.overlay(profiler=None, store=None) as s:
                assert s.profiler is prof

    def test_collectors_flush_into_the_block_recorder_before_it_closes(self):
        sink = obs.MemorySink()
        rec = obs.Recorder(sinks=[sink])
        prof, prov = profile.Profiler(), ProvenanceCollector()
        with session.overlay(recorder=rec, profiler=prof, provenance=prov,
                             close=True):
            profile.record_pcs("trace", {0x10: 2})
            prov.record_taint(0x10, "add", 0)
        assert rec._closed
        counters = {e["name"]: e["value"] for e in sink.events
                    if e["t"] == "counter"}
        assert counters["prof.pc_buckets"] == 1
        assert counters["prov.taint_pcs"] == 1
        assert any(e["t"] == "prof" for e in sink.events)

    def test_recorder_stays_open_unless_closing_is_asked(self):
        rec = obs.Recorder()
        with session.overlay(recorder=rec):
            pass
        assert not rec._closed
        with obs.recording(rec, close=False) as yielded:
            assert yielded is rec
        assert not rec._closed

    def test_reset_replaces_the_whole_session(self):
        with session.overlay(recorder=obs.Recorder()) as outer:
            session.reset()
            assert session.current == session.Session()
            session.reset(outer)

    def test_cell_scopes_both_profiler_and_query_recorder(self):
        prof, log = profile.Profiler(), QueryRecorder()
        with session.overlay(profiler=prof, queries=log):
            with session.cell("b", "t"):
                assert (prof._bomb, log._bomb) == ("b", "b")
                with session.cell("b2", "t2"):
                    assert (prof._tool, log._tool) == ("t2", "t2")
                assert (prof._bomb, log._tool) == ("b", "t")
            assert (prof._bomb, log._bomb) == (None, None)


class TestEmptySession:
    def test_every_hook_is_a_noop(self):
        assert session.current == session.Session()
        assert not session.current.times_queries
        obs.count("nothing")
        obs.observe("nothing", 1.0)
        with obs.span("nothing") as sp:
            assert sp is obs.NULL_SPAN
        profile.record_pcs("trace", {1: 1}, {1: 0.5})
        profile.record_vm({1: 1})
        profile.record_query((1, "negation"), 0.1, "sat", conflicts=1)
        querylog.record_check([], [], None, "sat", 0.0, {})
        with session.cell("b", "t"):
            pass
        log = DiagnosticLog()
        log.emit(DiagnosticKind.TAINT_LOST, "gone", pc=0x10)
        assert len(log) == 1
        assert session.current == session.Session()

"""Tests for per-cell failure forensics (`repro explain`, table2 --explain).

Uses real cells from the Table II matrix: cp_stack/tritonx solves,
sa_l1_array/tritonx is the canonical Es3 cell (symbolic array index),
sv_time/tritonx the canonical Es0 cell (no symbolic source).
"""

import json

import pytest

from repro.bombs import get_bomb
from repro.cli import main
from repro.eval import CellDiagnosis, EvidenceItem, explain_cell, explain_matrix
from repro.obs import session
from repro.service import ResultStore, cell_key


@pytest.fixture(scope="module")
def solved_cell():
    return explain_cell(get_bomb("cp_stack"), "tritonx")


@pytest.fixture(scope="module")
def es3_cell():
    return explain_cell(get_bomb("sa_l1_array"), "tritonx")


class TestExplainCell:
    def test_solved_cell(self, solved_cell):
        diag = solved_cell
        assert diag.outcome == "ok" and diag.solved
        assert diag.expected == "ok"
        assert diag.evidence, "even a solved cell shows its taint flow"
        assert diag.taint_pcs > 0
        assert diag.taint_instances >= diag.taint_pcs
        assert "solved" in diag.summary
        assert "trace" in diag.timings_s and "solve" in diag.timings_s

    def test_es3_cell_names_the_guilty_guard(self, es3_cell):
        diag = es3_cell
        assert diag.outcome == "Es3" and not diag.solved
        assert "constraint-modeling gap" in diag.summary
        kinds = {e.kind for e in diag.evidence}
        assert {"introduce", "drop", "unsat-core", "taint"} <= kinds
        cores = [e for e in diag.evidence if e.kind == "unsat-core"]
        assert cores and all(e.pc is not None for e in cores)
        # Root-cause drop (matching the classified stage) precedes the
        # unrelated drops in the evidence ordering.
        drops = [e for e in diag.evidence if e.kind == "drop"]
        assert "[Es3]" in drops[0].detail

    def test_es0_cell_still_has_evidence(self):
        diag = explain_cell(get_bomb("sv_time"), "tritonx")
        assert diag.outcome == "Es0"
        assert diag.evidence, "non-solved cells always carry evidence"
        assert any(e.kind == "drop" for e in diag.evidence)

    def test_no_collector_leaks(self, solved_cell):
        assert session.current.provenance is None

    def test_repeated_events_aggregate(self, es3_cell):
        # One concolic run re-replays per round; identical drops fold
        # into a single item with a count instead of repeating.
        details = [(e.kind, e.detail, e.pc) for e in es3_cell.evidence]
        assert len(details) == len(set(details))
        assert any(e.count > 1 for e in es3_cell.evidence)


class TestDiagnosisSerialization:
    def test_json_round_trip(self, es3_cell):
        doc = es3_cell.to_json()
        back = CellDiagnosis.from_json(json.loads(json.dumps(doc)))
        assert back.to_json() == doc
        assert back.bomb_id == "sa_l1_array" and back.tool == "tritonx"

    def test_render_mentions_outcome_and_evidence(self, es3_cell):
        text = es3_cell.render()
        assert "## sa_l1_array x tritonx: Es3" in text
        assert "Evidence:" in text
        assert "unsat-core" in text

    def test_evidence_item_render(self):
        item = EvidenceItem("drop", "taint lost", pc=0x2f0, count=3)
        assert item.render() == "[drop] @0x2f0 taint lost (x3)"

    def test_store_round_trip(self, tmp_path, es3_cell):
        store = ResultStore(tmp_path)
        key = cell_key(get_bomb("sa_l1_array"), "tritonx")
        assert store.get_diagnosis(key) is None
        store.put_diagnosis(key, es3_cell)
        back = store.get_diagnosis(key)
        assert back is not None
        assert back.to_json() == es3_cell.to_json()


class TestExplainMatrix:
    def test_persists_one_diagnosis_per_cell(self, tmp_path):
        store = ResultStore(tmp_path)
        diagnoses = explain_matrix(("cp_stack", "sv_time"), ("tritonx",),
                                   store=store)
        assert len(diagnoses) == 2
        for diag in diagnoses:
            key = cell_key(get_bomb(diag.bomb_id), "tritonx")
            assert store.get_diagnosis(key) is not None


class TestCli:
    def test_explain_json(self, capsys):
        assert main(["explain", "cp_stack", "tritonx", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bomb"] == "cp_stack" and doc["outcome"] == "ok"
        assert doc["evidence"]

    def test_explain_render_and_store(self, tmp_path, capsys):
        assert main(["explain", "sv_time", "tritonx",
                     "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "## sv_time x tritonx: Es0" in out
        key = cell_key(get_bomb("sv_time"), "tritonx")
        assert ResultStore(tmp_path).get_diagnosis(key) is not None

    def test_explain_rejects_unknown_names(self):
        with pytest.raises(SystemExit, match="unknown bomb"):
            main(["explain", "no_such_bomb", "tritonx"])
        with pytest.raises(SystemExit, match="unknown tool"):
            main(["explain", "cp_stack", "no_such_tool"])

    def test_table2_json_carries_diagnosis(self, capsys):
        assert main(["table2", "--bombs", "sv_time",
                     "--tools", "tritonx", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (cell,) = doc["cells"]
        assert cell["outcome"] == "Es0"
        assert cell["diagnosis"].startswith("declaration gap (Es0)")

    def test_table2_explain(self, capsys):
        assert main(["table2", "--explain", "--bombs", "cp_stack",
                     "--tools", "tritonx", "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 1 and docs[0]["outcome"] == "ok"

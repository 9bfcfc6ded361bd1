"""Tests for the provenance layer: collector, scoping, UNSAT cores,
and the Figure 3 differential as a per-instruction provenance chain.

Forensics are off by default — nothing installs a collector unless a
test (or ``repro explain``) asks for one — so the first test class
pins the off-state, then the rest exercise each record kind and the
end-to-end wiring through the taint replayer and the concolic engine.
"""

import pytest

from repro import obs
from repro.obs import session
from repro.obs.provenance import CoreMember, ProvenanceCollector
from repro.errors import SolverError
from repro.smt import mk_cmp, mk_const, mk_eq, mk_var, unsat_core

from .helpers import compile_bc


@pytest.fixture(autouse=True)
def _no_leaked_collector():
    assert session.current.provenance is None
    yield
    assert session.current.provenance is None


class TestCollector:
    def test_off_by_default(self):
        assert session.current.provenance is None

    def test_taint_aggregates_per_pc(self):
        prov = ProvenanceCollector()
        prov.record_taint(0x100, "add", 7)
        prov.record_taint(0x104, "cmp", 9)
        prov.record_taint(0x100, "add", 21)
        assert prov.instances == 3
        chain = prov.chain()
        assert [r.pc for r in chain] == [0x100, 0x104]  # first-seen order
        assert chain[0].hits == 2 and chain[0].first_index == 7
        assert chain[1].hits == 1 and chain[1].first_index == 9

    def test_introduce_and_drop_partition_events(self):
        prov = ProvenanceCollector()
        prov.introduce("argv[1] declared", pc=None)
        prov.drop("taint-lost", "strlen concretized", pc=0x200, stage="Es2")
        assert [e.kind for e in prov.events] == ["introduce", "drop"]
        assert len(prov.introductions) == 1
        (drop,) = prov.drops
        assert drop.cause == "taint-lost" and drop.stage == "Es2"
        assert drop.pc == 0x200

    def test_cores_and_snapshot(self):
        prov = ProvenanceCollector()
        prov.record_core(0x300, [CoreMember(0x2f0, "branch", "(x < 5)")])
        snap = prov.snapshot()
        assert snap["cores"] == [{"pc": 0x300, "members": [
            {"pc": 0x2f0, "kind": "branch", "expr": "(x < 5)"}]}]
        assert snap["taint"] == [] and snap["instances"] == 0

    def test_collecting_scopes_and_restores(self):
        outer = ProvenanceCollector()
        with session.overlay(provenance=outer) as s:
            assert session.current.provenance is s.provenance is outer
            inner = ProvenanceCollector()
            with session.overlay(provenance=inner):
                assert session.current.provenance is inner
                assert inner is not outer
            assert session.current.provenance is outer
        assert session.current.provenance is None

    def test_collecting_flushes_prov_counters(self):
        rec = obs.Recorder()
        with obs.recording(rec):
            prov = ProvenanceCollector()
            with session.overlay(provenance=prov):
                prov.record_taint(0x10, "add", 0)
                prov.record_taint(0x10, "add", 1)
                prov.introduce("argv")
                prov.drop("taint-lost", "gone")
                prov.record_core(None, [])
        counters = rec.counters
        assert counters["prov.taint_pcs"] == 1
        assert counters["prov.taint_instances"] == 2
        assert counters["prov.introduced"] == 1
        assert counters["prov.drops"] == 1
        assert counters["prov.unsat_cores"] == 1

    def test_empty_collector_flushes_nothing(self):
        rec = obs.Recorder()
        with obs.recording(rec):
            with session.overlay(provenance=ProvenanceCollector()):
                pass
        assert not [k for k in rec.counters if k.startswith("prov.")]


class TestUnsatCore:
    def test_minimizes_to_the_contradicting_pair(self):
        x = mk_var("uc_x", 8)
        y = mk_var("uc_y", 8)
        tagged = [
            ("lo", mk_cmp("ult", x, mk_const(5, 8))),
            ("irrelevant", mk_eq(y, mk_const(3, 8))),
            ("hi", mk_cmp("ult", mk_const(10, 8), x)),
        ]
        core = unsat_core(tagged)
        assert sorted(core) == ["hi", "lo"]

    def test_satisfiable_returns_none(self):
        x = mk_var("uc_s", 8)
        assert unsat_core([("only", mk_cmp("ult", x, mk_const(5, 8)))]) is None

    def test_const_false_is_its_own_core(self):
        assert unsat_core([("t", mk_const(1, 1)),
                           ("f", mk_const(0, 1))]) == ["f"]

    def test_counts_core_queries(self):
        x = mk_var("uc_q", 8)
        rec = obs.Recorder()
        with obs.recording(rec):
            unsat_core([("lo", mk_cmp("ult", x, mk_const(5, 8))),
                        ("hi", mk_cmp("ult", mk_const(10, 8), x))])
        assert rec.counters["prov.core_queries"] >= 1

    def test_budget_exhaustion_raises(self):
        x = mk_var("uc_b", 32)
        y = mk_var("uc_b2", 32)
        product = mk_cmp("ult", mk_const(7, 32), x)
        with pytest.raises(SolverError):
            unsat_core([("a", product), ("b", mk_eq(x, y))],
                       max_conflicts=100_000, max_clauses=1)


class TestFigure3Provenance:
    """Figure 3's 5 -> 66 blow-up, witnessed instruction by instruction."""

    def _summary(self, variant: str):
        from repro.bombs import get_bomb
        from repro.trace import taint_summary

        bomb = get_bomb(variant)
        prov = ProvenanceCollector()
        with session.overlay(provenance=prov):
            summary = taint_summary(bomb.image, [variant.encode(), b"77"],
                                    bomb.base_env())
        assert summary.provenance is prov
        return summary, prov

    def test_chain_accounts_for_every_tainted_instruction(self):
        off_sum, off = self._summary("fig3_printf_off")
        on_sum, on = self._summary("fig3_printf_on")
        # The provenance chain and the Figure 3 counter are the same
        # measurement: instance totals must agree exactly per variant.
        assert off.instances == off_sum.tainted_instructions
        assert on.instances == on_sum.tainted_instructions
        assert sum(r.hits for r in off.chain()) == off.instances
        assert sum(r.hits for r in on.chain()) == on.instances
        # The blow-up is attributable: the printf variant's chain is a
        # strict superset in PC count and the delta matches the figure.
        assert len(on.taint) > len(off.taint)
        extra = on_sum.tainted_instructions - off_sum.tainted_instructions
        assert on.instances - off.instances == extra
        assert extra > 30  # paper: +61, ours: +37

    def test_both_variants_introduce_the_symbolic_argv(self):
        _, off = self._summary("fig3_printf_off")
        assert any("argv[1]" in e.detail for e in off.introductions)


class TestEngineCores:
    """An impossible guard names itself: the engine explains UNSAT
    negations with a minimized core when forensics are on."""

    SOURCE = """
    int main(int argc, char **argv) {
        int v = atoi(argv[1]);
        if (v * v == 0 - 1) { bomb(); }
        return 0;
    }
    """

    def _run(self):
        from repro.concolic import ConcolicEngine
        from repro.tools.profiles import TRITONX

        image = compile_bc(self.SOURCE)
        prov = ProvenanceCollector()
        with session.overlay(provenance=prov):
            report = ConcolicEngine(TRITONX).run(image, [b"1"], argv0=b"x")
        return report, prov

    def test_core_names_the_squaring_guard(self):
        report, prov = self._run()
        assert not report.solved  # squares are never -1
        assert prov.cores, "the refused negation must leave a core"
        core = prov.cores[0]
        # Deletion-minimized: the negated guard alone is contradictory,
        # so the core is exactly that one member — the squaring compare.
        assert len(core.members) == 1
        (member,) = core.members
        assert member.kind == "negation"
        assert member.pc == core.pc
        assert "mul" in member.expr

    def test_no_cores_without_a_collector(self):
        from repro.concolic import ConcolicEngine
        from repro.tools.profiles import TRITONX

        image = compile_bc(self.SOURCE)
        report = ConcolicEngine(TRITONX).run(image, [b"1"], argv0=b"x")
        assert not report.solved


class TestPolicyFingerprint:
    def test_semantic_fields_still_move_the_fingerprint(self):
        import dataclasses

        from repro.tools.profiles import TRITONX

        changed = dataclasses.replace(TRITONX, div_guard=not TRITONX.div_guard)
        assert changed.fingerprint() != TRITONX.fingerprint()

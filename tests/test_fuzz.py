"""Coverage-guided fuzzing subsystem: bitmap, corpus, engine, hybrid.

Determinism is the subsystem's contract — campaigns consult no wall
clock and no OS randomness — so most tests here assert byte-identical
artifacts across repeated runs: corpus digests, campaign verdicts, and
whole Table II cells (serial and ``jobs=2``).
"""

import pytest

from repro import obs
from repro.bombs import get_bomb
from repro.errors import ErrorStage
from repro.eval import run_table2
from repro.fuzz import (
    CoverageFuzzer,
    FuzzConfig,
    HybridPolicy,
    run_hybrid,
)
from repro.fuzz.corpus import Corpus, EdgeCoverage, bucket_index, edge_slot
from repro.fuzz.mutator import (
    MAX_INPUT_LEN,
    Mutator,
    cracking_candidates,
    dictionary_tokens,
)
from repro.fuzz.random_fuzzer import _XorShift
from repro.obs import session
from repro.service import ResultStore


class TestCoverageBitmap:
    def test_edge_slot_is_stable_and_bounded(self):
        assert edge_slot(0x1000, 0x1004) == edge_slot(0x1000, 0x1004)
        assert edge_slot(0x1000, 0x1004) != edge_slot(0x1004, 0x1000)
        for src, dst in [(0, 0), (2**40, 7), (0x1234, 0x5678)]:
            assert 0 <= edge_slot(src, dst) < (1 << 16)

    def test_bucket_thresholds(self):
        assert bucket_index(1) == 0
        assert bucket_index(2) == 1
        assert bucket_index(4) == 3
        assert bucket_index(5) == 4
        assert bucket_index(33) == 7
        assert bucket_index(10**6) == 7

    def test_merge_reports_new_bits_only(self):
        cov = EdgeCoverage()
        assert cov.merge({5: 1, 9: 2})          # all new
        assert not cov.merge({5: 1})            # same (slot, bucket)
        assert cov.merge({5: 3})                # same slot, new bucket
        assert cov.edges == 2 and cov.bits == 3

    def test_payload_round_trip(self):
        cov = EdgeCoverage()
        cov.merge({1: 1, 2: 40})
        clone = EdgeCoverage.from_payload(cov.to_payload())
        assert clone.edges == cov.edges and clone.bits == cov.bits
        assert not clone.merge({1: 1, 2: 40})


class TestCorpus:
    def test_add_keeps_only_interesting_inputs(self):
        corpus = Corpus()
        assert corpus.add(b"a", {1: 1}, 1)
        assert not corpus.add(b"b", {1: 1}, 2)   # nothing new
        assert corpus.add(b"c", {2: 1}, 3)
        assert corpus.datas() == [b"a", b"c"]

    def test_digest_is_order_sensitive(self):
        one, two = Corpus(), Corpus()
        one.add(b"a", {1: 1}, 1)
        one.add(b"b", {2: 1}, 2)
        two.add(b"b", {2: 1}, 1)
        two.add(b"a", {1: 1}, 2)
        assert one.digest() != two.digest()

    def test_payload_round_trip_preserves_digest(self):
        corpus = Corpus()
        corpus.add(b"seed", {1: 1, 2: 2}, 1)
        corpus.add(b"x\xff", {3: 1}, 4)
        clone = Corpus.from_payload(corpus.to_payload())
        assert clone.digest() == corpus.digest()
        assert [e.execution for e in clone.entries] == [1, 4]

    def test_best_ranks_by_own_run_coverage(self):
        corpus = Corpus()
        corpus.add(b"small", {1: 1}, 1)
        corpus.add(b"wide", {2: 1, 3: 1, 4: 1}, 2)
        assert [e.data for e in corpus.best(2)] == [b"wide", b"small"]


class TestMutator:
    def test_cracking_candidates_cover_the_oracles(self):
        candidates = []
        stream = cracking_candidates()
        for _ in range(700):
            candidates.append(next(stream))
        # The leetspeak dictionary reaches the crypto passwords and the
        # numeric sweep reaches the magic numbers, all inside the
        # sandshrewx fallback budget.
        for oracle in (b"s3cret", b"k3y!", b"s3cr3t", b"15", b"7"):
            assert oracle in candidates, oracle

    def test_cracking_candidates_is_deterministic(self):
        a = [next(cracking_candidates()) for _ in range(1)]
        first = list(zip(cracking_candidates(), range(200)))
        second = list(zip(cracking_candidates(), range(200)))
        assert first == second
        assert a[0] == first[0][0]

    def test_mutate_is_deterministic_and_bounded(self):
        out_a = Mutator(_XorShift(42)).mutate(b"seed", [b"seed", b"pool"])
        out_b = Mutator(_XorShift(42)).mutate(b"seed", [b"seed", b"pool"])
        assert out_a == out_b
        mut = Mutator(_XorShift(7))
        for _ in range(300):
            assert len(mut.mutate(b"x" * MAX_INPUT_LEN, [b"y"])) \
                <= MAX_INPUT_LEN

    def test_mutate_never_returns_empty(self):
        mut = Mutator(_XorShift(3))
        for _ in range(300):
            assert mut.mutate(b"", [])

    def test_dictionary_tokens_include_leet_forms(self):
        tokens = dictionary_tokens()
        assert b"$3cr3t" in tokens and b"k3y" in tokens


class TestCoverageFuzzer:
    def _fuzzer(self, bomb_id, **overrides):
        bomb = get_bomb(bomb_id)
        config = FuzzConfig(**overrides)
        return bomb, CoverageFuzzer(
            bomb.image, config, bomb.base_env(), argv0=bomb_id.encode(),
            fixed_tail=tuple(bomb.seed_argv[1:]),
        )

    def test_campaign_triggers_small_domain_bomb(self):
        bomb, fuzzer = self._fuzzer("cp_stack")
        result = fuzzer.campaign((b"11",))
        assert result.triggered
        assert bomb.triggers([result.trigger_input])

    def test_campaign_is_deterministic(self):
        _, fuzzer = self._fuzzer("sj_jump")
        a = fuzzer.campaign((b"1",))
        b = fuzzer.campaign((b"1",))
        assert a.triggered == b.triggered
        assert a.executions == b.executions
        assert a.trigger_input == b.trigger_input
        assert a.corpus.digest() == b.corpus.digest()

    def test_coverage_feedback_populates_corpus(self):
        _, fuzzer = self._fuzzer("sv_time", budget=40)
        result = fuzzer.campaign((b"1",))
        assert not result.triggered
        assert len(result.corpus) >= 1
        assert result.corpus.coverage.edges > 0
        assert result.steps > 0

    def test_campaign_persists_and_restores(self, tmp_path):
        bomb = get_bomb("sv_time")
        config = FuzzConfig(budget=40)

        def fresh():
            return CoverageFuzzer(bomb.image, config, bomb.base_env(),
                                  argv0=b"sv_time")

        rec = obs.Recorder()
        with session.overlay(store=ResultStore(tmp_path), recorder=rec,
                             close=True):
            cold = fresh().campaign((b"1",))
            warm = fresh().campaign((b"1",))
        counters = rec.snapshot()["counters"]
        assert not cold.restored and warm.restored
        assert warm.executions == cold.executions
        assert warm.corpus.digest() == cold.corpus.digest()
        # The warm campaign executed nothing: same execution counter as
        # one cold campaign, plus one restore.
        assert counters["fuzz.executions"] == cold.executions
        assert counters["fuzz.campaign_restores"] == 1

    def test_different_seeds_get_different_keys(self, tmp_path):
        bomb = get_bomb("sv_time")
        fuzzer = CoverageFuzzer(bomb.image, FuzzConfig(budget=10),
                                bomb.base_env(), argv0=b"sv_time")
        assert fuzzer._campaign_key((b"1",)) != fuzzer._campaign_key((b"2",))
        other = CoverageFuzzer(bomb.image, FuzzConfig(budget=11),
                               bomb.base_env(), argv0=b"sv_time")
        assert fuzzer._campaign_key((b"1",)) != other._campaign_key((b"1",))


class TestHybrid:
    def test_fuzz_half_solves_and_is_deterministic(self):
        bomb = get_bomb("ef_srand")
        policy = HybridPolicy()
        runs = [run_hybrid(bomb.image, policy, bomb.seed_argv,
                           bomb.base_env(), argv0=b"ef_srand")
                for _ in range(2)]
        for report in runs:
            assert report.solved and report.solved_by == "fuzz"
            assert bomb.triggers(report.solution)
        assert runs[0].solution == runs[1].solution
        assert runs[0].corpus_digests == runs[1].corpus_digests
        assert runs[0].fuzz_executions == runs[1].fuzz_executions

    def test_policy_fingerprint_tracks_both_halves(self):
        base = HybridPolicy().fingerprint()
        assert HybridPolicy().fingerprint() == base
        assert HybridPolicy(seed=1).fingerprint() != base
        tweaked = HybridPolicy()
        tweaked.concolic.rounds += 1
        assert tweaked.fingerprint() != base

    def test_table2_cell_identical_serial_and_parallel(self):
        runs = [
            run_table2(bomb_ids=("cp_stack",), tools=("hybridx",)),
            run_table2(bomb_ids=("cp_stack",), tools=("hybridx",)),
            run_table2(bomb_ids=("cp_stack",), tools=("hybridx",), jobs=2),
        ]
        cells = [r.cells[("cp_stack", "hybridx")] for r in runs]
        assert all(c.outcome is ErrorStage.OK for c in cells)
        assert len({tuple(c.report.solution) for c in cells}) == 1
        assert len({c.label for c in cells}) == 1


class TestVmFuzzHooks:
    def test_on_edge_reports_control_flow(self):
        from repro.vm import Machine

        bomb = get_bomb("cp_stack")
        machine = Machine(bomb.image, [b"cp_stack", b"11"], bomb.base_env())
        edges = []
        machine.on_edge = lambda src, dst: edges.append((src, dst))
        machine.run(200_000)
        assert edges, "no control-flow edges reported"
        assert all(isinstance(s, int) and isinstance(d, int)
                   for s, d in edges)

    def test_call_function_runs_library_code(self):
        from repro.vm import Machine

        bomb = get_bomb("cf_sha1")
        image = bomb.image
        syms = image.lib_symbols()
        assert "sha1" in syms
        machine = Machine(image, [b"opaque"])
        memory = machine.processes[machine.main_pid].memory
        msg = machine.scratch_alloc(8)
        out_a = machine.scratch_alloc(20)
        out_b = machine.scratch_alloc(20)
        assert msg != out_a != out_b
        memory.write(msg, b"s3cret\x00")
        machine.call_function(syms["sha1"].addr, [msg, 6, out_a])
        machine.call_function(syms["sha1"].addr, [msg, 6, out_b])
        digest_a = bytes(memory.read(out_a, 20))
        digest_b = bytes(memory.read(out_b, 20))
        assert digest_a == digest_b != b"\x00" * 20

    def test_call_function_restores_context(self):
        from repro.errors import VMError
        from repro.vm import Machine

        bomb = get_bomb("cf_sha1")
        machine = Machine(bomb.image, [b"opaque"])
        proc = machine.processes[machine.main_pid]
        thread = proc.threads[0]
        before_pc = thread.ctx.pc
        addr = bomb.image.lib_symbols()["sha1"].addr
        with pytest.raises(VMError):
            machine.call_function(addr, [0, 6, 0], max_steps=5)
        assert thread.ctx.pc == before_pc and thread.state == "run"

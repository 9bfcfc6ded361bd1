"""Tests for the static symbolic engine: state, memory model, hooks."""

import pytest

from repro.bombs import get_bomb
from repro.errors import DiagnosticKind
from repro.lang import compile_single
from repro.smt import eval_expr, mk_const, mk_var
from repro.symex import AngrEngine, SymexPolicy, SymState, sym_atoi, sym_strlen


def _fast_policy(**kw):
    defaults = dict(name="t", with_libs=True, max_states=256,
                    max_total_steps=80_000, max_queries=400, time_limit=60.0)
    defaults.update(kw)
    return SymexPolicy(**defaults)


class TestSymState:
    def _image(self):
        return compile_single("int main(int argc, char **argv) { return 0; }")

    def test_memory_overlay_over_image(self):
        state = SymState(self._image())
        text = state.image.section(".text")
        # Unwritten memory reads come from the image bytes.
        byte = state.read_byte(text.vaddr)
        assert byte.is_const and byte.value == text.data[0]
        state.write_byte(text.vaddr, mk_const(0xAB, 8))
        assert state.read_byte(text.vaddr).value == 0xAB

    def test_wide_read_write(self):
        state = SymState(self._image())
        state.write_concrete_mem(0x5000, mk_const(0x1122334455667788, 64), 8)
        assert state.read_concrete_mem(0x5000, 8).value == 0x1122334455667788
        assert state.read_concrete_mem(0x5004, 2).value == 0x3344

    def test_symbolic_roundtrip_collapses(self):
        state = SymState(self._image())
        var = mk_var("ss_v", 64)
        state.write_concrete_mem(0x6000, var, 8)
        assert state.read_concrete_mem(0x6000, 8) is var

    def test_fork_isolation(self):
        state = SymState(self._image())
        state.write_byte(0x7000, mk_const(1, 8))
        state.constraints.append(mk_const(1, 1))
        fork = state.fork()
        fork.write_byte(0x7000, mk_const(2, 8))
        fork.constraints.append(mk_const(1, 1))
        assert state.read_byte(0x7000).value == 1
        assert len(state.constraints) == 1
        assert fork.sid != state.sid

    def test_cstr_helpers(self):
        state = SymState(self._image())
        for i, ch in enumerate(b"name\0"):
            state.write_byte(0x8000 + i, mk_const(ch, 8))
        assert state.read_cstr_concrete(0x8000) == b"name"
        assert not state.cstr_has_symbolic(0x8000)
        state.write_byte(0x8001, mk_var("ss_c", 8))
        assert state.cstr_has_symbolic(0x8000)


class TestSymbolicLibSummaries:
    @pytest.mark.parametrize("text", [b"", b"0", b"123", b"-45", b"9x", b"abc"])
    def test_sym_atoi_matches_guest(self, text):
        width = 8
        bts = [mk_var(f"sa_{text!r}_{i}", 8) for i in range(width)]
        node = sym_atoi(bts)
        model = {f"sa_{text!r}_{i}": (text[i] if i < len(text) else 0)
                 for i in range(width)}
        got = eval_expr(node, model)
        expected = 0
        body = text[1:] if text[:1] == b"-" else text
        digits = b""
        for ch in body:
            if 48 <= ch <= 57:
                digits += bytes([ch])
            else:
                break
        expected = int(digits) if digits else 0
        if text[:1] == b"-":
            expected = -expected
        assert got == expected % 2**64

    @pytest.mark.parametrize("text", [b"", b"a", b"hello", b"1234567"])
    def test_sym_strlen_matches(self, text):
        width = 8
        bts = [mk_var(f"sl_{text!r}_{i}", 8) for i in range(width)]
        node = sym_strlen(bts)
        model = {f"sl_{text!r}_{i}": (text[i] if i < len(text) else 0)
                 for i in range(width)}
        assert eval_expr(node, model) == len(text)


class TestEngineBasics:
    def test_claims_validated_input_for_simple_guard(self):
        image = compile_single(
            "int main(int argc, char **argv) {"
            " if (atoi(argv[1]) == 77) { bomb(); } return 0; }"
        )
        engine = AngrEngine(image, _fast_policy())
        report = engine.explore([b"1"], argv0=b"x")
        assert report.goal_claimed
        from repro.vm import Machine

        assert Machine(image, [b"x"] + report.claimed_inputs[0]).run().bomb_triggered

    def test_unreachable_reports_nothing(self):
        image = compile_single(
            "int main(int argc, char **argv) {"
            " int v = atoi(argv[1]);"
            " if (v * 0 == 5) { bomb(); } return 0; }"
        )
        report = AngrEngine(image, _fast_policy()).explore([b"1"], argv0=b"x")
        assert not report.goal_claimed

    def test_symbolic_read_resolution(self):
        bomb = get_bomb("sa_l1_array")
        report = AngrEngine(bomb.image, _fast_policy()).explore(
            bomb.seed_argv, argv0=b"x")
        assert report.claimed_inputs == [[b"6"]]

    def test_resolution_limit_concretizes(self):
        bomb = get_bomb("sa_l1_array")
        policy = _fast_policy(mem_resolve_limit=2)
        engine = AngrEngine(bomb.image, policy)
        report = engine.explore(bomb.seed_argv, argv0=b"x")
        assert report.diagnostics.has(DiagnosticKind.CONCRETIZED_READ)
        assert not any(bomb.triggers(c) for c in report.claimed_inputs)

    def test_two_level_limit(self):
        bomb = get_bomb("sa_l2_array")
        report = AngrEngine(bomb.image, _fast_policy()).explore(
            bomb.seed_argv, argv0=b"x")
        assert report.diagnostics.has(DiagnosticKind.UNMODELED_MEMORY_REF)
        assert not any(bomb.triggers(c) for c in report.claimed_inputs)

    def test_two_levels_allowed_solves(self):
        bomb = get_bomb("sa_l2_array")
        policy = _fast_policy(sym_mem_levels=2, time_limit=90.0)
        report = AngrEngine(bomb.image, policy).explore(bomb.seed_argv, argv0=b"x")
        assert any(bomb.triggers(c) for c in report.claimed_inputs)

    def test_unsupported_syscall_aborts(self):
        bomb = get_bomb("sv_web")
        report = AngrEngine(bomb.image, _fast_policy()).explore(
            bomb.seed_argv, argv0=b"x")
        assert report.aborted is not None
        assert report.diagnostics.has(DiagnosticKind.UNSUPPORTED_SYSCALL)

    def test_fp_crash_with_libs(self):
        bomb = get_bomb("fp_float")
        report = AngrEngine(bomb.image, _fast_policy()).explore(
            bomb.seed_argv, argv0=b"x")
        assert report.aborted is not None
        assert report.diagnostics.has(DiagnosticKind.ENGINE_CRASH)

    def test_nolib_hooks_installed(self):
        bomb = get_bomb("ef_sin")
        engine = AngrEngine(bomb.image, _fast_policy(with_libs=False))
        hooked = {bomb.image.symbols_by_addr()[a] for a in engine.hooks}
        assert "sin" in hooked and "atoi" in hooked
        assert "bomb" not in hooked  # the goal is never hooked

    def test_with_libs_has_no_hooks(self):
        bomb = get_bomb("ef_sin")
        assert not AngrEngine(bomb.image, _fast_policy()).hooks


class TestRexxCapabilities:
    def test_env_symbolic_time(self):
        bomb = get_bomb("sv_time")
        from repro.tools.rexx import REXX

        engine = AngrEngine(bomb.image, REXX)
        report = engine.explore(bomb.seed_argv, argv0=b"x")
        assert report.goal_claimed
        env = engine.claim_env
        assert env is not None and env.time_value % 7777 == 4321
        assert bomb.triggers(report.claimed_inputs[0], env=env)

    def test_tool_validates_claims_under_the_claimed_env(self):
        bomb = get_bomb("sv_time")
        from repro.tools import get_tool

        report = get_tool("rexx").analyze_bomb(bomb)
        assert report.solved
        assert report.solution_env is not None
        assert not bomb.triggers(report.solution)
        assert bomb.triggers(report.solution, env=report.solution_env)

    def test_honest_claims_reject_invented_values(self):
        bomb = get_bomb("neg_square")
        from repro.tools import get_tool

        report = get_tool("rexx").analyze_bomb(bomb)
        assert not report.goal_claimed
        assert not report.false_positive

    def test_fp_search_solves_float_bomb(self):
        bomb = get_bomb("fp_float")
        from repro.tools import get_tool

        report = get_tool("rexx").analyze_bomb(bomb)
        assert report.solved
        assert bomb.triggers(report.solution)

"""Tests for the static symbolic engine: state, memory model, hooks."""

import pytest

from repro.bombs import get_bomb
from repro.errors import DiagnosticKind
from repro.ir import il
from repro.isa import Instruction, Op
from repro.lang import compile_single, compile_sources
from repro.smt import eval_expr, mk_const, mk_var
from repro.symex import (
    AngrEngine, EngineAbort, SymexPolicy, SymState, sym_atoi, sym_strlen)
from repro.symex.cache import compile_stmts
from repro.tools.profiles import SYMEX_PROFILES
from repro.vm import Machine


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

    @pytest.mark.parametrize("bomb_id, attr, name, content", [
        ("sv_web", "network", "http://bomb.example/trigger", b"ok"),
        ("cp_file_exception", "files", "/etc/bomb.conf", b"o"),
        ("cs_file_name", "files", "nofile", b"K"),
    ])
    def test_claimed_contents_carry_no_nul_padding(self, bomb_id, attr,
                                                   name, content):
        bomb = get_bomb(bomb_id)
        from repro.tools import get_tool

        report = get_tool("rexx").analyze_bomb(bomb)
        assert report.solved
        assert getattr(report.solution_env, attr) == {name: content}
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


# -- compiled statement handlers ----------------------------------------------

_R, _T, _C = il.RegRef(1), il.TmpRef(0), il.ConstRef(8)

#: One instance of every IL statement kind.
_STMT_SAMPLES = {
    il.Move: il.Move(_R, _C),
    il.BinOp: il.BinOp("add", _R, _R, _C, set_flags=True),
    il.UnOp: il.UnOp("bvnot", _R, _R),
    il.Load: il.Load(_R, _T, 4, signed=True),
    il.Store: il.Store(_T, _R, 8),
    il.Lea: il.Lea(_T, _R, 16),
    il.SetFlags: il.SetFlags("sub", _R, _C),
    il.CondBranch: il.CondBranch("jz", 0x1000),
    il.Jump: il.Jump(_R),
    il.Call: il.Call(_C, 0x1005),
    il.Ret: il.Ret(),
    il.Push: il.Push(_R),
    il.Pop: il.Pop(_R),
    il.Syscall: il.Syscall(),
    il.Halt: il.Halt(),
    il.FpOp: il.FpOp("fadd64", il.FRegRef(0), (il.FRegRef(0), il.FRegRef(1))),
    il.FpFlags: il.FpFlags("fcmp64", il.FRegRef(0), il.FRegRef(1)),
    il.DivGuard: il.DivGuard(_R),
}


def _concrete_stmt_kinds(cls=il.Stmt):
    for sub in cls.__subclasses__():
        yield sub
        yield from _concrete_stmt_kinds(sub)


class TestCompiledHandlers:
    @pytest.mark.parametrize("kind", sorted(_concrete_stmt_kinds(),
                                            key=lambda k: k.__name__),
                             ids=lambda k: k.__name__)
    def test_every_stmt_kind_compiles_to_a_handler(self, kind):
        assert kind in _STMT_SAMPLES, f"add a sample {kind.__name__} here"
        instr = Instruction(Op.NOP, (), 0x1000)
        (handler,) = compile_stmts([_STMT_SAMPLES[kind]], instr)
        assert callable(handler)


#: Four 16-byte blocks (movi 10 + ret 1 + 5 nops); ``pick`` jumps to
#: block ``r1``, which returns its own index.
_JUMP_GADGET = """
.text
.global pick
pick:
    muli r1, 16
    movi r2, pick_blocks
    add r2, r1
    jmpr r2
pick_blocks:
""" + "".join(f"    movi r0, {k}\n    ret\n" + "    nop\n" * 5
              for k in range(4))

_SIGFPE_DIV = r"""
int g = 0;
int handler(int signo) { g = 1; return 0; }
int main(int argc, char **argv) {
    signal(8, handler);
    int v = argv[1][0] - 48;
    int q = 100 / v;
    if (g == 1) { bomb(); }
    return q - q;
}
"""


class TestTerminators:
    def test_symbolic_jump_forks_one_state_per_code_target(self):
        image = compile_sources(
            [("jump.bc", "int main(int argc, char **argv) {"
                         " int v = argv[1][0] - 48;"
                         " if (v < 0 || v > 3) { return 1; }"
                         " if (pick(v) == 2) { bomb(); } return 0; }")],
            asm_modules=[("pick.s", _JUMP_GADGET)])
        engine = AngrEngine(image, _fast_policy(enumerate_jumps=True))
        targets = []
        enumerate_jump = engine._enumerated_jump

        def observed(state, target):
            forks = enumerate_jump(state, target)
            targets.append(sorted([state.pc] + [f.pc for f in forks]))
            return forks

        engine._enumerated_jump = observed
        report = engine.explore([b"0"], argv0=b"x")
        blocks = image.symbols["pick_blocks"].addr
        assert targets == [[blocks, blocks + 16, blocks + 32, blocks + 48]]
        assert report.claimed_inputs == [[b"2"]]

    def test_symbolic_divisor_forks_into_the_sigfpe_handler(self):
        image = compile_single(_SIGFPE_DIV)
        report = AngrEngine(image, _fast_policy(model_signals=True)).explore(
            [b"5"], argv0=b"x")
        assert report.states_explored == 2
        assert report.claimed_inputs == [[b"0"]]
        assert Machine(image, [b"x", b"0"]).run().bomb_triggered
        assert not any("fault edge dropped" in str(d)
                       for d in report.diagnostics)

    def test_without_signal_modelling_the_fault_edge_is_dropped(self):
        image = compile_single(
            "int main(int argc, char **argv) {"
            " int q = 100 / (argv[1][0] - 48);"
            " if (q == 20) { bomb(); } return 0; }")
        report = AngrEngine(image, _fast_policy()).explore([b"5"], argv0=b"x")
        assert report.claimed_inputs == [[b"5"]]
        assert any("division fault edge dropped" in str(d)
                   for d in report.diagnostics)

    def test_a_pc_outside_code_aborts_the_engine(self):
        image = compile_single("int main(int argc, char **argv) { return 0; }")
        engine = AngrEngine(image, _fast_policy())
        with pytest.raises(EngineAbort,
                           match="execution left mapped code at 0x50000"):
            engine._program_at(0x50000)

    def test_concrete_zero_divisor_kills_the_state(self):
        image = compile_single(
            "int main(int argc, char **argv) {"
            " int q = 100 / (argc - 2); bomb(); return q; }")
        report = AngrEngine(image, _fast_policy()).explore([b"5"], argv0=b"x")
        assert not report.goal_claimed and report.aborted is None
        assert report.states_explored == 1
        assert any("concrete division fault; state killed" in str(d)
                   for d in report.diagnostics)


#: (steps, states explored, queries) per cell, pinned so a change to
#: the explorer's dispatch cannot silently change the search.
_PINNED_SEARCH = {
    ("cp_stack", "angrx"): (6577, 41, 59),
    ("cp_stack", "angrx_nolib"): (71, 2, 1),
    ("cp_stack", "rexx"): (71, 2, 1),
    ("sv_time", "angrx"): (38, 1, 0),
    ("sv_time", "rexx"): (63, 2, 1),
    ("fp_float", "angrx"): (3638, 20, 19),
    ("fp_float", "angrx_nolib"): (126, 3, 0),
    ("pp_pthread", "angrx"): (8554, 41, 57),
    ("pp_pthread", "angrx_nolib"): (93, 2, 1),
    ("pp_pthread", "rexx"): (229, 2, 1),
}


@pytest.mark.parametrize("bomb_id,tool", sorted(_PINNED_SEARCH),
                         ids=[f"{b}-{t}" for b, t in sorted(_PINNED_SEARCH)])
def test_search_is_pinned(bomb_id, tool):
    bomb = get_bomb(bomb_id)
    report = AngrEngine(bomb.image, SYMEX_PROFILES[tool]).explore(
        bomb.seed_argv, argv0=bomb_id.encode())
    assert (report.steps, report.states_explored, report.queries) == \
        _PINNED_SEARCH[bomb_id, tool]

"""Differential tests of ALU/flag semantics: helper functions vs the
machine executing real instructions, and both vs Python reference
arithmetic (hypothesis-driven)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.binfmt import FLAG_X, TEXT_BASE, Image, Section
from repro.errors import VMError
from repro.isa import COND_BRANCHES, OPSPEC, Imm, Instruction, Op, Reg, Target, encode
from repro.vm import Flags, Machine, alu, s64, sext, u64
from repro.vm.cpu import bits_to_f32, bits_to_f64, f32_round, f32_to_bits, f64_to_bits

from .helpers import run_asm

u64s = st.integers(min_value=0, max_value=2**64 - 1)


class TestScalarHelpers:
    @given(a=u64s)
    def test_s64_u64_roundtrip(self, a):
        assert u64(s64(a)) == a

    def test_sext(self):
        assert sext(0xFF, 8) == 2**64 - 1
        assert sext(0x7F, 8) == 0x7F
        assert sext(0x8000, 16) == u64(-0x8000)

    @given(a=u64s, b=u64s)
    def test_add_sub_inverse(self, a, b):
        assert alu("sub", alu("add", a, b), b) == a

    @given(a=u64s, b=u64s)
    def test_reference_semantics(self, a, b):
        assert alu("add", a, b) == (a + b) % 2**64
        assert alu("mul", a, b) == (a * b) % 2**64
        assert alu("and", a, b) == a & b
        assert alu("or", a, b) == a | b
        assert alu("xor", a, b) == a ^ b

    @given(a=u64s, b=st.integers(min_value=0, max_value=63))
    def test_shift_semantics(self, a, b):
        assert alu("shl", a, b) == (a << b) % 2**64
        assert alu("shr", a, b) == a >> b
        assert alu("sar", a, b) == u64(s64(a) >> b)

    @given(a=u64s, b=u64s.filter(lambda v: v != 0))
    def test_udiv_urem_identity(self, a, b):
        q, r = alu("udiv", a, b), alu("urem", a, b)
        assert q * b + r == a and r < b

    @given(a=st.integers(min_value=-(2**62), max_value=2**62),
           b=st.integers(min_value=-(2**62), max_value=2**62).filter(lambda v: v != 0))
    def test_sdiv_truncates_toward_zero(self, a, b):
        q = s64(alu("sdiv", u64(a), u64(b)))
        r = s64(alu("srem", u64(a), u64(b)))
        expected_q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            expected_q = -expected_q
        assert q == expected_q
        assert q * b + r == a
        assert r == 0 or (r < 0) == (a < 0)  # remainder follows the dividend

    def test_division_by_zero_faults(self):
        for op in ("udiv", "sdiv", "urem", "srem"):
            with pytest.raises(VMError) as err:
                alu(op, 5, 0)
            assert err.value.signo == 8


class TestFlags:
    def test_sub_flags_equal(self):
        flags = Flags()
        alu("sub", 5, 5, flags)
        assert flags.zf and not flags.cf

    def test_sub_flags_borrow(self):
        flags = Flags()
        alu("sub", 3, 5, flags)
        assert flags.cf and not flags.zf

    def test_signed_overflow(self):
        flags = Flags()
        alu("sub", u64(-2**63), 1, flags)
        assert flags.of

    @given(a=u64s, b=u64s)
    def test_conditions_match_comparisons(self, a, b):
        flags = Flags()
        alu("sub", a, b, flags)
        sa, sb = s64(a), s64(b)
        assert flags.condition("jz") == (a == b)
        assert flags.condition("jnz") == (a != b)
        assert flags.condition("jb") == (a < b)
        assert flags.condition("jbe") == (a <= b)
        assert flags.condition("ja") == (a > b)
        assert flags.condition("jae") == (a >= b)
        assert flags.condition("jl") == (sa < sb)
        assert flags.condition("jle") == (sa <= sb)
        assert flags.condition("jg") == (sa > sb)
        assert flags.condition("jge") == (sa >= sb)


_JCC_CASES = [
    ("jl", -3, 2, True), ("jl", 2, -3, False),
    ("jg", 7, 7, False), ("jge", 7, 7, True),
    ("jb", 1, 2, True), ("ja", 2, 1, True),
]


class TestMachineBranches:
    @pytest.mark.parametrize("cc,a,b,taken", _JCC_CASES)
    def test_branch_taken_in_machine(self, cc, a, b, taken):
        result = run_asm(f"""
        .text
        .global _start
        _start:
            movi r1, {a}
            movi r2, {b}
            cmp r1, r2
            {cc} .Ltaken
            movi r1, 0
            jmp .Lend
        .Ltaken:
            movi r1, 1
        .Lend:
            movi r0, 0
            syscall
            hlt
        """)
        assert result.exit_code == (1 if taken else 0)

    @given(a=st.integers(min_value=0, max_value=2**32), b=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_machine_alu_matches_helper(self, a, b):
        result = run_asm(f"""
        .text
        .global _start
        _start:
            movi r1, {a}
            movi r2, {b}
            add r1, r2
            xori r1, {b}
            mov r3, r1
            andi r3, 0xff
            mov r1, r3
            movi r0, 0
            syscall
            hlt
        """)
        expected = (((a + b) % 2**64) ^ b) & 0xFF
        assert result.exit_code == expected


class TestFloatHelpers:
    def test_f32_rounding_at_1024(self):
        # The fp_float bomb's arithmetic fact.
        assert f32_round(1024.0 + 1e-5) == 1024.0
        assert f32_round(1024.0 + 1e-3) != 1024.0

    @given(bits=st.integers(min_value=0, max_value=2**32 - 1))
    def test_f32_bits_roundtrip(self, bits):
        value = bits_to_f32(bits)
        if value == value:  # skip NaNs (payloads are not preserved)
            assert bits_to_f32(f32_to_bits(value)) == value

    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    def test_f64_bits_roundtrip(self, value):
        assert bits_to_f64(f64_to_bits(value)) == value


# -- machine vs reference: every ALU op and conditional branch ---------------

INT64_MIN = 2**63
#: Operands where ALU semantics have edges: zero divisors, shift counts
#: at and past 64, the signed extremes.
EDGES = (0, 1, 2, 63, 64, 65, 127, 2**32, INT64_MIN - 1, INT64_MIN, 2**64 - 1)
operands = st.one_of(u64s, st.sampled_from(EDGES))

#: Every register-form and immediate-form ALU op, cmp/cmpi/test and the
#: one-operand not/neg.
ALU_OPS = [op for op in Op if Op.ADD <= op <= Op.TEST]
BRANCHES = sorted(COND_BRANCHES)
FLAG_SETTERS = [Op.CMP, Op.ADD, Op.SUB, Op.AND, Op.XOR, Op.SHL, Op.TEST, Op.NEG]


def _layout(*instrs: tuple) -> tuple[Image, list[int]]:
    """An image whose ``.text`` is *instrs*, ``(op, operands)`` pairs laid
    out from ``TEXT_BASE`` (an int operand is the index of the
    instruction a branch targets), and the instructions' addresses."""
    addrs = [TEXT_BASE]
    for op, _ in instrs:
        addrs.append(addrs[-1] + Instruction(op, ()).size)
    code = b"".join(
        encode(Instruction(op, tuple(Target(addrs[o]) if isinstance(o, int) else o
                                     for o in operands), addr))
        for (op, operands), addr in zip(instrs, addrs))
    return Image(TEXT_BASE, [Section(".text", TEXT_BASE, code, FLAG_X)]), addrs


def _rhs(op: Op, b: int) -> tuple:
    """The operands after ``r1`` of *op* when its right-hand side is *b*
    (in ``r2`` for the register form)."""
    return {"R": (), "RR": (Reg(2),), "RI": (Imm(b),)}[OPSPEC[op]]


def _reference(op: Op, a: int, b: int) -> tuple[int, Flags]:
    """(r1 after *op* with r1=a and right-hand side b, flags), from
    ``cpu.alu`` and :class:`Flags`."""
    flags = Flags()
    name = op.name.lower()
    if op in (Op.CMP, Op.CMPI):
        alu("sub", a, b, flags)
        return a, flags
    if op is Op.TEST:
        flags.set_logic(a & b)
        return a, flags
    if op is Op.NOT:
        flags.set_logic(~a)
        return u64(~a), flags
    if op is Op.NEG:
        return alu("sub", 0, a, flags), flags
    if OPSPEC[op] == "RI":
        name = name[:-1]
    return alu(name, a, b, flags), flags


def _check_op(op: Op, a: int, b: int) -> None:
    """Run ``movi r1, a; movi r2, b; <op> r1, ...; hlt`` and compare r1
    and the flags with the reference."""
    image, addrs = _layout((Op.MOVI, (Reg(1), Imm(a))), (Op.MOVI, (Reg(2), Imm(b))),
                           (op, (Reg(1), *_rhs(op, b))), (Op.HLT, ()))
    machine = Machine(image, [b"t"])
    exit_code = machine.run(10).exit_code
    ctx = machine.processes[machine.main_pid].threads[0].ctx
    try:
        expected, flags = _reference(op, a, b)
    except VMError as err:
        # SIGFPE with no handler: the process dies at the faulting
        # instruction with r1 and the flags untouched.
        assert err.signo == 8
        assert (exit_code, ctx.pc) == (128 + 8, addrs[2])
        assert (ctx.regs[1], ctx.flags.snapshot()) == (a, Flags().snapshot())
        return
    assert exit_code == 0
    assert ctx.regs[1] == expected
    assert ctx.flags.snapshot() == flags.snapshot()


class TestMachineMatchesReference:
    @given(op=st.sampled_from(ALU_OPS), a=operands, b=operands)
    @settings(max_examples=400, deadline=None)
    def test_alu_op(self, op, a, b):
        _check_op(op, a, b)

    def test_alu_edges(self):
        for op in ALU_OPS:
            for a in EDGES:
                for b in EDGES:
                    _check_op(op, a, b)

    @given(setter=st.sampled_from(FLAG_SETTERS), cc=st.sampled_from(BRANCHES),
           a=operands, b=operands)
    @settings(max_examples=400, deadline=None)
    def test_branch_follows_condition(self, setter, cc, a, b):
        _, flags = _reference(setter, a, b)
        taken = flags.condition(cc.name.lower())
        image, addrs = _layout(
            (Op.MOVI, (Reg(1), Imm(a))), (Op.MOVI, (Reg(2), Imm(b))),
            (setter, (Reg(1), *_rhs(setter, b))), (cc, (6,)),
            (Op.MOVI, (Reg(3), Imm(0))), (Op.HLT, ()),
            (Op.MOVI, (Reg(3), Imm(1))), (Op.HLT, ()))
        machine = Machine(image, [b"t"])
        edges = []
        machine.on_edge = lambda src, dst: edges.append((src, dst))
        machine.run(10)
        assert machine.processes[machine.main_pid].threads[0].ctx.regs[3] == taken
        assert edges == [(addrs[3], addrs[6] if taken else addrs[4])]

"""The RX64 -> REX IL lifter, plus flag/branch condition semantics.

``lift`` is a complete, faithful lifter.  Tool capability gaps (missing
FP semantics, stack ops without memory effects, absent division guards)
are enforced by the *engines* against their tool profile when they
interpret the IL — the observable failures are therefore produced at
exactly the pipeline stage the paper attributes them to.

``flag_condition`` builds the symbolic branch condition from the last
flag-setting operation, the way real lifters condense cmp+jcc pairs.
"""

from __future__ import annotations

from ..errors import SolverError
from ..isa import COND_BRANCHES, LOAD_INFO, STORE_INFO, Imm, Instruction, Op
from ..smt import (
    Expr,
    mk_binop,
    mk_bool_not,
    mk_cmp,
    mk_const,
    mk_eq,
    mk_extract,
    mk_fp,
    mk_zext,
)
from . import il

_ALU_MAP = {
    Op.ADD: "add", Op.ADDI: "add",
    Op.SUB: "sub", Op.SUBI: "sub",
    Op.MUL: "mul", Op.MULI: "mul",
    Op.UDIV: "udiv", Op.SDIV: "sdiv",
    Op.UREM: "urem", Op.SREM: "srem",
    Op.AND: "and", Op.ANDI: "and",
    Op.OR: "or", Op.ORI: "or",
    Op.XOR: "xor", Op.XORI: "xor",
    Op.SHL: "shl", Op.SHLI: "shl",
    Op.SHR: "lshr", Op.SHRI: "lshr",
    Op.SAR: "ashr", Op.SARI: "ashr",
}

_FP_BIN_MAP = {
    Op.FADDS: "fadd32", Op.FSUBS: "fsub32", Op.FMULS: "fmul32", Op.FDIVS: "fdiv32",
    Op.FADDD: "fadd64", Op.FSUBD: "fsub64", Op.FMULD: "fmul64", Op.FDIVD: "fdiv64",
}

_FP_CVT_MAP = {
    Op.CVTIFS: "i2f32", Op.CVTFIS: "f2i32",
    Op.CVTIFD: "i2f64", Op.CVTFID: "f2i64",
    Op.CVTSD: "f32to64", Op.CVTDS: "f64to32",
}


def _src(operand) -> il.Src:
    if isinstance(operand, Imm):
        return il.ConstRef(operand.value)
    return il.RegRef(operand.index)


def lift(instr: Instruction) -> list[il.Stmt]:
    """Lift one instruction to REX IL."""
    op = instr.op
    ops = instr.operands
    if op is Op.NOP:
        return []
    if op is Op.MOV:
        return [il.Move(il.RegRef(ops[0].index), il.RegRef(ops[1].index))]
    if op is Op.MOVI:
        return [il.Move(il.RegRef(ops[0].index), il.ConstRef(ops[1].value))]
    if op in LOAD_INFO:
        width, signed = LOAD_INFO[op]
        return [
            il.Lea(il.TmpRef(0), il.RegRef(ops[1].base), ops[1].disp),
            il.Load(il.RegRef(ops[0].index), il.TmpRef(0), width, signed),
        ]
    if op in STORE_INFO:
        return [
            il.Lea(il.TmpRef(0), il.RegRef(ops[0].base), ops[0].disp),
            il.Store(il.TmpRef(0), il.RegRef(ops[1].index), STORE_INFO[op]),
        ]
    if op is Op.LEA:
        return [il.Lea(il.RegRef(ops[0].index), il.RegRef(ops[1].base), ops[1].disp)]
    if op in _ALU_MAP:
        name = _ALU_MAP[op]
        dst = il.RegRef(ops[0].index)
        rhs = _src(ops[1])
        stmts: list[il.Stmt] = []
        if name in ("udiv", "sdiv", "urem", "srem"):
            stmts.append(il.DivGuard(rhs))
        stmts.append(il.BinOp(name, dst, dst, rhs, set_flags=True))
        return stmts
    if op is Op.NOT:
        return [il.UnOp("bvnot", il.RegRef(ops[0].index), il.RegRef(ops[0].index),
                        set_flags=True)]
    if op is Op.NEG:
        dst = il.RegRef(ops[0].index)
        return [il.BinOp("sub", dst, il.ConstRef(0), dst, set_flags=True)]
    if op in (Op.CMP, Op.CMPI):
        return [il.SetFlags("sub", il.RegRef(ops[0].index), _src(ops[1]))]
    if op is Op.TEST:
        return [il.SetFlags("test", il.RegRef(ops[0].index), il.RegRef(ops[1].index))]
    if op is Op.JMP:
        return [il.Jump(il.ConstRef(ops[0].addr))]
    if op in COND_BRANCHES:
        return [il.CondBranch(op.name.lower(), ops[0].addr)]
    if op is Op.JMPR:
        return [il.Jump(il.RegRef(ops[0].index))]
    if op is Op.CALL:
        return [il.Call(il.ConstRef(ops[0].addr), instr.next_addr)]
    if op is Op.CALLR:
        return [il.Call(il.RegRef(ops[0].index), instr.next_addr)]
    if op is Op.RET:
        return [il.Ret()]
    if op is Op.PUSH:
        return [il.Push(il.RegRef(ops[0].index))]
    if op is Op.POP:
        return [il.Pop(il.RegRef(ops[0].index))]
    if op is Op.SYSCALL:
        return [il.Syscall()]
    if op is Op.HLT:
        return [il.Halt()]
    if op is Op.FLD:
        return [
            il.Lea(il.TmpRef(0), il.RegRef(ops[1].base), ops[1].disp),
            il.Load(il.FRegRef(ops[0].index), il.TmpRef(0), 8),
        ]
    if op is Op.FST:
        return [
            il.Lea(il.TmpRef(0), il.RegRef(ops[0].base), ops[0].disp),
            il.Store(il.TmpRef(0), il.FRegRef(ops[1].index), 8),
        ]
    if op is Op.FMOV:
        return [il.Move(il.FRegRef(ops[0].index), il.FRegRef(ops[1].index))]
    if op is Op.FMOVR:
        return [il.Move(il.FRegRef(ops[0].index), il.RegRef(ops[1].index))]
    if op is Op.RMOVF:
        return [il.Move(il.RegRef(ops[0].index), il.FRegRef(ops[1].index))]
    if op in _FP_BIN_MAP:
        dst = il.FRegRef(ops[0].index)
        return [il.FpOp(_FP_BIN_MAP[op], dst, (dst, il.FRegRef(ops[1].index)))]
    if op is Op.FCMPS:
        return [il.FpFlags("fcmp32", il.FRegRef(ops[0].index), il.FRegRef(ops[1].index))]
    if op is Op.FCMPD:
        return [il.FpFlags("fcmp64", il.FRegRef(ops[0].index), il.FRegRef(ops[1].index))]
    if op in _FP_CVT_MAP:
        name = _FP_CVT_MAP[op]
        if op in (Op.CVTIFS, Op.CVTIFD):
            return [il.FpOp(name, il.FRegRef(ops[0].index), (il.RegRef(ops[1].index),))]
        if op in (Op.CVTFIS, Op.CVTFID):
            return [il.FpOp(name, il.RegRef(ops[0].index), (il.FRegRef(ops[1].index),))]
        return [il.FpOp(name, il.FRegRef(ops[0].index), (il.FRegRef(ops[1].index),))]
    raise SolverError(f"lift: unhandled opcode {op.name}")  # pragma: no cover


def apply_binop(name: str, a: Expr, b: Expr) -> Expr:
    """Apply an IL binop to expression operands.

    Signed division/remainder expand into the unsigned primitives the
    bit-blaster supports (truncating-toward-zero semantics, matching
    the concrete ALU).  A symbolic divisor raises :class:`SolverError`
    — the engines map that to an unsupported-theory diagnostic.
    """
    from ..smt import mk_ite, mk_neg

    if name in ("sdiv", "srem"):
        if a.is_const and b.is_const:
            from ..vm.cpu import alu

            return mk_const(alu(name, a.value, b.value), a.width)
        if not b.is_const or b.value == 0:
            raise SolverError(f"{name}: non-constant or zero divisor")
        from ..smt import to_signed as _ts

        divisor = _ts(b.value, b.width)
        negative = divisor < 0
        magnitude = mk_const(abs(divisor), a.width)
        zero = mk_const(0, a.width)
        a_neg = mk_cmp("slt", a, zero)
        abs_a = mk_ite(a_neg, mk_neg(a), a)
        q_mag = mk_binop("udiv", abs_a, magnitude)
        if name == "sdiv":
            flip = mk_bool_not(a_neg) if negative else a_neg
            return mk_ite(flip, mk_neg(q_mag), q_mag)
        r_mag = mk_binop("urem", abs_a, magnitude)
        return mk_ite(a_neg, mk_neg(r_mag), r_mag)
    return mk_binop(name, a, b)


# -- flag semantics --------------------------------------------------------------

def flag_condition(kind: str, a: Expr, b: Expr | None, cc: str) -> Expr:
    """Symbolic branch condition for jcc after a flag-setting op.

    *kind* is ``sub`` (cmp a,b), ``test`` (a & b), ``logic`` (flags from
    a result value in *a*), ``fcmp32``/``fcmp64`` (ucomis-style).
    """
    if kind == "sub":
        table = {
            "jz": lambda: mk_eq(a, b),
            "jnz": lambda: mk_bool_not(mk_eq(a, b)),
            "jl": lambda: mk_cmp("slt", a, b),
            "jle": lambda: mk_cmp("sle", a, b),
            "jg": lambda: mk_cmp("slt", b, a),
            "jge": lambda: mk_cmp("sle", b, a),
            "jb": lambda: mk_cmp("ult", a, b),
            "jbe": lambda: mk_cmp("ule", a, b),
            "ja": lambda: mk_cmp("ult", b, a),
            "jae": lambda: mk_cmp("ule", b, a),
        }
        return table[cc]()
    if kind in ("test", "logic"):
        result = mk_binop("and", a, b) if kind == "test" else a
        zero = mk_const(0, result.width)
        table = {
            "jz": lambda: mk_eq(result, zero),
            "jnz": lambda: mk_bool_not(mk_eq(result, zero)),
            "jl": lambda: mk_cmp("slt", result, zero),
            "jle": lambda: mk_cmp("sle", result, zero),
            "jg": lambda: mk_cmp("slt", zero, result),
            "jge": lambda: mk_cmp("sle", zero, result),
            "jb": lambda: mk_const(0, 1),     # CF is cleared
            "jbe": lambda: mk_eq(result, zero),
            "ja": lambda: mk_bool_not(mk_eq(result, zero)),
            "jae": lambda: mk_const(1, 1),
        }
        return table[cc]()
    if kind in ("fcmp32", "fcmp64"):
        suffix = kind[-2:]
        if suffix == "32":
            a32, b32 = mk_extract(a, 31, 0), mk_extract(b, 31, 0)
        else:
            a32, b32 = a, b
        table = {
            "jz": lambda: mk_fp(f"feq{suffix}", a32, b32),
            "jnz": lambda: mk_bool_not(mk_fp(f"feq{suffix}", a32, b32)),
            "jb": lambda: mk_fp(f"flt{suffix}", a32, b32),
            "jbe": lambda: mk_fp(f"fle{suffix}", a32, b32),
            "ja": lambda: mk_fp(f"flt{suffix}", b32, a32),
            "jae": lambda: mk_fp(f"fle{suffix}", b32, a32),
            # Signed jcc after fcmp never appears in compiled code; fall
            # back to the unsigned forms.
            "jl": lambda: mk_fp(f"flt{suffix}", a32, b32),
            "jle": lambda: mk_fp(f"fle{suffix}", a32, b32),
            "jg": lambda: mk_fp(f"flt{suffix}", b32, a32),
            "jge": lambda: mk_fp(f"fle{suffix}", b32, a32),
        }
        return table[cc]()
    raise SolverError(f"flag_condition: unknown kind {kind}")


def apply_fp_op(name: str, args: list[Expr]) -> Expr:
    """Apply an FP micro-op to 64-bit register expressions, handling the
    low-32-bit packing the single-precision instructions use."""
    if name.endswith("32") and name not in ("f2i32", "i2f32", "f64to32"):
        narrowed = [mk_extract(a, 31, 0) for a in args]
        return mk_zext(mk_fp(name, *narrowed), 64)
    if name == "f2i32":
        return mk_fp(name, mk_extract(args[0], 31, 0))
    if name in ("i2f32", "f64to32"):
        return mk_zext(mk_fp(name, *args), 64)
    if name == "f32to64":
        return mk_fp(name, mk_extract(args[0], 31, 0))
    return mk_fp(name, *args)

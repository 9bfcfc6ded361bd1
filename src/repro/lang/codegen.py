"""RX64 code generation for BombC.

The generator is deliberately simple (tree-walking, temporaries in
``r7..r12`` with frame spills) but complete: every bomb, the libc
subset, SHA1 and AES compile through it.  Calling convention:

* integer/pointer/float arguments in ``r1..r6`` (floats pass their raw
  IEEE bit patterns in GPRs), return value in ``r0``;
* ``fp``/``sp`` callee-saved via the standard prologue;
* expression temporaries are caller-saved by spilling to frame slots
  around calls.

Floats live in GPRs as bit patterns and are moved into ``f0``/``f1``
only around arithmetic, so taint and symbolic expressions flow through
ordinary integer moves except at the actual FP instructions — exactly
the property the floating-point challenge needs (tools lacking FP
lifting lose the trail at the FP instruction itself).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..errors import CompileError
from . import cast as A

TEMP_REGS = (7, 8, 9, 10, 11, 12)

_INT_OPS = {
    "+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem",
    "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "sar", ">>>": "shr",
}
_FLOAT_OPS = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}
_INT_CC = {"==": "jz", "!=": "jnz", "<": "jl", "<=": "jle", ">": "jg", ">=": "jge"}
_FLOAT_CC = {"==": "jz", "!=": "jnz", "<": "jb", "<=": "jbe", ">": "ja", ">=": "jae"}
_CMP_OPS = frozenset(_INT_CC)


def f32_bits(value: float) -> int:
    try:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    except OverflowError:
        return 0x7F800000 if value > 0 else 0xFF800000


def f64_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


@dataclass
class ProgramInfo:
    """Program-wide symbol information shared by all units."""

    functions: dict[str, tuple[A.CType, list[A.CType]]] = field(default_factory=dict)
    globals: dict[str, A.CType] = field(default_factory=dict)
    #: Functions defined in raw assembly modules: arity checked loosely.
    asm_functions: set[str] = field(default_factory=set)

    @classmethod
    def collect(cls, units: list[A.Unit]) -> "ProgramInfo":
        info = cls()
        for unit in units:
            for fn in unit.functions:
                if fn.name in info.functions:
                    raise CompileError(f"duplicate function {fn.name!r}")
                info.functions[fn.name] = (fn.ret, [p.type for p in fn.params])
            for gv in unit.globals:
                if gv.name in info.globals:
                    raise CompileError(f"duplicate global {gv.name!r}")
                info.globals[gv.name] = gv.type
        return info

    def merge(self, other: "ProgramInfo") -> None:
        """Add *other*'s functions and globals, with :meth:`collect`'s
        duplicate checks."""
        for name, sig in other.functions.items():
            if name in self.functions:
                raise CompileError(f"duplicate function {name!r}")
            self.functions[name] = sig
        for name, ctype in other.globals.items():
            if name in self.globals:
                raise CompileError(f"duplicate global {name!r}")
            self.globals[name] = ctype


class UnitCodegen:
    """Generates RX64 assembly text for one BombC unit."""

    def __init__(self, unit: A.Unit, info: ProgramInfo, code_section: str = ".text"):
        self.unit = unit
        self.info = info
        self.code_section = code_section
        self.lines: list[str] = []
        self.rodata: list[str] = []
        self.data: list[str] = []
        self.bss: list[str] = []
        self._label_n = 0
        self._str_labels: dict[bytes, str] = {}
        # per-function state
        self.locals: dict[str, tuple[int, A.CType]] = {}
        self.frame = 0
        self.in_use: set[int] = set()
        self.loop_stack: list[tuple[str, str]] = []
        self.current_fn: A.FuncDef | None = None

    # -- helpers --------------------------------------------------------

    def err(self, node, msg: str) -> CompileError:
        line = getattr(node, "line", 0)
        return CompileError(f"{self.unit.name}:{line}: {msg}")

    def emit(self, text: str) -> None:
        self.lines.append("    " + text)

    def label(self, prefix: str = "L") -> str:
        self._label_n += 1
        return f".L{prefix}{self._label_n}_{_sanitize(self.unit.name)}"

    def place(self, lbl: str) -> None:
        self.lines.append(f"{lbl}:")

    def alloc_reg(self, node=None) -> int:
        for reg in TEMP_REGS:
            if reg not in self.in_use:
                self.in_use.add(reg)
                return reg
        raise self.err(node, "expression too complex (out of temporaries)")

    def free_reg(self, reg: int) -> None:
        self.in_use.discard(reg)

    def alloc_slot(self, size: int = 8) -> int:
        size = (size + 7) & ~7
        self.frame += size
        return self.frame

    def string_label(self, data: bytes) -> str:
        lbl = self._str_labels.get(data)
        if lbl is None:
            lbl = self.label("str")
            self._str_labels[data] = lbl
            escaped = "".join(
                chr(b) if 32 <= b < 127 and chr(b) not in '"\\' else f"\\x{b:02x}"
                for b in data
            )
            self.rodata.append(f'{lbl}: .asciz "{escaped}"')
        return lbl

    # -- top level ---------------------------------------------------------

    def generate(self) -> str:
        for gv in self.unit.globals:
            self._gen_global(gv)
        for fn in self.unit.functions:
            self._gen_function(fn)
        parts = [self.code_section]
        parts += self.lines
        if self.rodata:
            parts.append(".rodata")
            parts += self.rodata
        if self.data:
            parts.append(".data")
            parts += self.data
        if self.bss:
            parts.append(".bss")
            parts += self.bss
        return "\n".join(parts) + "\n"

    def _gen_global(self, gv: A.GlobalVar) -> None:
        t = gv.type
        if gv.init is None:
            self.bss.append(f".align 8")
            self.bss.append(f"{gv.name}:")
            self.bss.append(f".space {max(t.size, 1)}")
            return
        if isinstance(gv.init, bytes):
            if not (t.kind == "char" and t.ptr == 1):
                raise self.err(gv, "string initializer needs char*")
            lbl = self.string_label(gv.init)
            self.data.append(f"{gv.name}: .quad {lbl}")
            return
        if isinstance(gv.init, list):
            if t.array is None:
                raise self.err(gv, "initializer list needs an array")
            items = list(gv.init) + [0] * (t.array - len(gv.init))
            elem = t.elem()
            directive = {8: ".quad", 4: ".long", 2: ".word", 1: ".byte"}[elem.size]
            values = []
            for item in items:
                if elem.kind == "float" and not elem.ptr:
                    values.append(str(f32_bits(float(item))))
                elif elem.kind == "double" and not elem.ptr:
                    values.append(str(f64_bits(float(item))))
                else:
                    values.append(str(int(item) & ((1 << (8 * elem.size)) - 1)))
            self.data.append(f"{gv.name}: {directive} {', '.join(values)}")
            return
        if t.kind == "float" and not t.is_pointer:
            self.data.append(f"{gv.name}: .long {f32_bits(float(gv.init))}")
        elif t.kind == "double" and not t.is_pointer:
            self.data.append(f"{gv.name}: .quad {f64_bits(float(gv.init))}")
        elif t.kind == "char" and not t.is_pointer:
            self.data.append(f"{gv.name}: .byte {int(gv.init) & 0xFF}")
        else:
            self.data.append(f"{gv.name}: .quad {int(gv.init) & ((1 << 64) - 1)}")

    # -- functions -----------------------------------------------------------

    def _gen_function(self, fn: A.FuncDef) -> None:
        if len(fn.params) > 6:
            raise self.err(fn, "more than 6 parameters")
        self.locals = {}
        self.frame = 0
        self.in_use = set()
        self.loop_stack = []
        self.current_fn = fn
        self.ret_label = self.label(f"ret_{fn.name}")

        body_start = len(self.lines)
        self.lines.append(f"{fn.name}:")
        self.emit("push fp")
        self.emit("mov fp, sp")
        frame_line = len(self.lines)
        self.emit("subi sp, {FRAME}")
        for i, param in enumerate(fn.params):
            off = self.alloc_slot(8)
            self.locals[param.name] = (off, param.type)
            self.emit(f"st [fp-{off}], r{i + 1}")
        for stmt in fn.body:
            self._gen_stmt(stmt)
        self.place(self.ret_label)
        self.emit("mov sp, fp")
        self.emit("pop fp")
        self.emit("ret")

        frame = (self.frame + 15) & ~15
        self.lines[frame_line] = self.lines[frame_line].replace("{FRAME}", str(frame))
        del body_start  # kept for symmetry / debugging

    # -- statements --------------------------------------------------------------

    def _gen_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Decl):
            if stmt.name in self.locals:
                raise self.err(stmt, f"duplicate local {stmt.name!r}")
            size = stmt.type.size if stmt.type.array is not None else 8
            off = self.alloc_slot(size)
            self.locals[stmt.name] = (off, stmt.type)
            if stmt.init is not None:
                if stmt.type.array is not None:
                    raise self.err(stmt, "local arrays cannot have initializers")
                reg, rtype = self._expr(stmt.init)
                reg = self._convert(reg, rtype, stmt.type, stmt)
                self._store_local(off, reg, stmt.type)
                self.free_reg(reg)
        elif isinstance(stmt, A.Assign):
            self._gen_assign(stmt)
        elif isinstance(stmt, A.ExprStmt):
            if stmt.expr is not None:
                reg, _ = self._expr(stmt.expr, want_value=False)
                if reg is not None:
                    self.free_reg(reg)
        elif isinstance(stmt, A.If):
            l_true, l_false = self.label(), self.label()
            l_end = self.label() if stmt.orelse else l_false
            self._branch(stmt.cond, l_true, l_false)
            self.place(l_true)
            for s in stmt.then:
                self._gen_stmt(s)
            if stmt.orelse:
                self.emit(f"jmp {l_end}")
                self.place(l_false)
                for s in stmt.orelse:
                    self._gen_stmt(s)
            self.place(l_end)
        elif isinstance(stmt, A.While):
            l_head, l_body, l_end = self.label(), self.label(), self.label()
            self.place(l_head)
            self._branch(stmt.cond, l_body, l_end)
            self.place(l_body)
            self.loop_stack.append((l_end, l_head))
            for s in stmt.body:
                self._gen_stmt(s)
            self.loop_stack.pop()
            self.emit(f"jmp {l_head}")
            self.place(l_end)
        elif isinstance(stmt, A.For):
            if stmt.init is not None:
                self._gen_stmt(stmt.init)
            l_head, l_body, l_step, l_end = (self.label() for _ in range(4))
            self.place(l_head)
            if stmt.cond is not None:
                self._branch(stmt.cond, l_body, l_end)
            self.place(l_body)
            self.loop_stack.append((l_end, l_step))
            for s in stmt.body:
                self._gen_stmt(s)
            self.loop_stack.pop()
            self.place(l_step)
            if stmt.step is not None:
                self._gen_stmt(stmt.step)
            self.emit(f"jmp {l_head}")
            self.place(l_end)
        elif isinstance(stmt, A.Return):
            if stmt.value is not None:
                reg, rtype = self._expr(stmt.value)
                reg = self._convert(reg, rtype, self.current_fn.ret, stmt)
                self.emit(f"mov r0, r{reg}")
                self.free_reg(reg)
            self.emit(f"jmp {self.ret_label}")
        elif isinstance(stmt, A.Break):
            if not self.loop_stack:
                raise self.err(stmt, "break outside loop")
            self.emit(f"jmp {self.loop_stack[-1][0]}")
        elif isinstance(stmt, A.Continue):
            if not self.loop_stack:
                raise self.err(stmt, "continue outside loop")
            self.emit(f"jmp {self.loop_stack[-1][1]}")
        else:  # pragma: no cover
            raise self.err(stmt, f"unhandled statement {type(stmt).__name__}")

    def _gen_assign(self, stmt: A.Assign) -> None:
        target = stmt.target
        # Fast path: plain scalar variable — no address register held
        # across the value computation, which keeps register pressure low.
        if isinstance(target, A.Ident):
            name = target.name
            if name in self.locals and self.locals[name][1].array is None:
                off, ctype = self.locals[name]
                val = self._assign_value(stmt, target, ctype)
                self.emit(f"{self._store_mnem(ctype)} [fp-{off}], r{val}")
                self.free_reg(val)
                return
            if name in self.info.globals and self.info.globals[name].array is None:
                ctype = self.info.globals[name]
                val = self._assign_value(stmt, target, ctype)
                addr = self.alloc_reg(stmt)
                self.emit(f"movi r{addr}, {name}")
                self.emit(f"{self._store_mnem(ctype)} [r{addr}], r{val}")
                self.free_reg(addr)
                self.free_reg(val)
                return
        addr_reg, elem_type = self._addr(target)
        if stmt.op == "=":
            val, vtype = self._expr(stmt.value)
            val = self._convert(val, vtype, elem_type, stmt)
        else:
            base_op = stmt.op[:-1]
            cur = self.alloc_reg(stmt)
            self._load(cur, addr_reg, elem_type)
            rhs, rtype = self._expr(stmt.value)
            val = self._binop_values(base_op, cur, elem_type, rhs, rtype, stmt)[0]
            val = self._convert(val, self._unified(elem_type, rtype), elem_type, stmt)
        self._store(addr_reg, val, elem_type)
        self.free_reg(val)
        self.free_reg(addr_reg)

    def _assign_value(self, stmt: A.Assign, target: A.Ident, ctype: A.CType) -> int:
        """Compute the value to store for an assignment to a scalar var."""
        if stmt.op == "=":
            val, vtype = self._expr(stmt.value)
            return self._convert(val, vtype, ctype, stmt)
        base_op = stmt.op[:-1]
        cur, cur_type = self._expr(target)
        rhs, rtype = self._expr(stmt.value)
        val = self._binop_values(base_op, cur, cur_type, rhs, rtype, stmt)[0]
        return self._convert(val, self._unified(cur_type, rtype), ctype, stmt)

    # -- addressing / loads / stores --------------------------------------------

    def _addr(self, expr: A.Expr) -> tuple[int, A.CType]:
        """Compile an lvalue; returns (reg holding address, value type)."""
        if isinstance(expr, A.Ident):
            if expr.name in self.locals:
                off, ctype = self.locals[expr.name]
                reg = self.alloc_reg(expr)
                self.emit(f"lea r{reg}, [fp-{off}]")
                return reg, ctype
            if expr.name in self.info.globals:
                ctype = self.info.globals[expr.name]
                reg = self.alloc_reg(expr)
                self.emit(f"movi r{reg}, {expr.name}")
                return reg, ctype
            raise self.err(expr, f"undefined variable {expr.name!r}")
        if isinstance(expr, A.Index):
            base, btype = self._expr(expr.base)
            if not btype.is_pointer:
                raise self.err(expr, f"cannot index non-pointer {btype}")
            elem = btype.elem() if btype.array is not None else btype.elem()
            idx, itype = self._expr(expr.index)
            if itype.is_float:
                raise self.err(expr, "array index must be integral")
            if elem.size != 1:
                self.emit(f"muli r{idx}, {elem.size}")
            self.emit(f"add r{base}, r{idx}")
            self.free_reg(idx)
            return base, elem
        if isinstance(expr, A.Unary) and expr.op == "*":
            ptr, ptype = self._expr(expr.operand)
            if not ptype.is_pointer:
                raise self.err(expr, f"cannot dereference {ptype}")
            return ptr, ptype.elem()
        raise self.err(expr, "expression is not an lvalue")

    @staticmethod
    def _load_mnem(ctype: A.CType) -> str:
        if ctype.is_pointer or ctype.kind in ("int", "double"):
            return "ld"
        if ctype.kind == "char":
            return "ld1u"
        if ctype.kind == "float":
            return "ld4u"
        raise CompileError(f"cannot load {ctype}")

    @staticmethod
    def _store_mnem(ctype: A.CType) -> str:
        if ctype.is_pointer or ctype.kind in ("int", "double"):
            return "st"
        if ctype.kind == "char":
            return "st1"
        if ctype.kind == "float":
            return "st4"
        raise CompileError(f"cannot store {ctype}")

    def _load(self, dst: int, addr: int, ctype: A.CType) -> None:
        if ctype.array is not None:
            self.emit(f"mov r{dst}, r{addr}")  # arrays decay to their address
            return
        if ctype.is_pointer or ctype.kind == "int":
            self.emit(f"ld r{dst}, [r{addr}]")
        elif ctype.kind == "char":
            self.emit(f"ld1u r{dst}, [r{addr}]")
        elif ctype.kind == "float":
            self.emit(f"ld4u r{dst}, [r{addr}]")
        elif ctype.kind == "double":
            self.emit(f"ld r{dst}, [r{addr}]")
        else:
            raise CompileError(f"cannot load {ctype}")

    def _store(self, addr: int, val: int, ctype: A.CType) -> None:
        if ctype.is_pointer or ctype.kind in ("int", "double"):
            self.emit(f"st [r{addr}], r{val}")
        elif ctype.kind == "char":
            self.emit(f"st1 [r{addr}], r{val}")
        elif ctype.kind == "float":
            self.emit(f"st4 [r{addr}], r{val}")
        else:
            raise CompileError(f"cannot store {ctype}")

    def _store_local(self, off: int, val: int, ctype: A.CType) -> None:
        if ctype.is_pointer or ctype.kind in ("int", "double"):
            self.emit(f"st [fp-{off}], r{val}")
        elif ctype.kind == "char":
            self.emit(f"st1 [fp-{off}], r{val}")
        elif ctype.kind == "float":
            self.emit(f"st4 [fp-{off}], r{val}")

    # -- expressions ------------------------------------------------------------

    def _expr(self, expr: A.Expr, want_value: bool = True) -> tuple[int | None, A.CType]:
        if isinstance(expr, A.IntLit):
            reg = self.alloc_reg(expr)
            self.emit(f"movi r{reg}, {expr.value & ((1 << 64) - 1)}")
            return reg, A.INT
        if isinstance(expr, A.FloatLit):
            reg = self.alloc_reg(expr)
            self.emit(f"movi r{reg}, {f64_bits(expr.value)}")
            return reg, A.DOUBLE
        if isinstance(expr, A.StrLit):
            reg = self.alloc_reg(expr)
            self.emit(f"movi r{reg}, {self.string_label(expr.value)}")
            return reg, A.CType("char", 1)
        if isinstance(expr, A.Ident):
            if expr.name in self.locals:
                off, ctype = self.locals[expr.name]
                reg = self.alloc_reg(expr)
                if ctype.array is not None:
                    self.emit(f"lea r{reg}, [fp-{off}]")
                    return reg, ctype.decayed()
                self.emit(f"{self._load_mnem(ctype)} r{reg}, [fp-{off}]")
                if ctype.kind == "char" and not ctype.is_pointer:
                    return reg, A.INT  # chars promote to int once loaded
                return reg, ctype
            if expr.name in self.info.globals:
                ctype = self.info.globals[expr.name]
                reg = self.alloc_reg(expr)
                self.emit(f"movi r{reg}, {expr.name}")
                if ctype.array is not None:
                    return reg, ctype.decayed()
                self.emit(f"{self._load_mnem(ctype)} r{reg}, [r{reg}]")
                if ctype.kind == "char" and not ctype.is_pointer:
                    return reg, A.INT
                return reg, ctype
            if expr.name in self.info.functions:
                reg = self.alloc_reg(expr)
                self.emit(f"movi r{reg}, {expr.name}")
                return reg, A.INT
            raise self.err(expr, f"undefined identifier {expr.name!r}")
        if isinstance(expr, A.Unary):
            return self._unary(expr)
        if isinstance(expr, A.Binary):
            if expr.op in _CMP_OPS or expr.op in ("&&", "||"):
                return self._materialize_bool(expr)
            lhs, ltype = self._expr(expr.lhs)
            rhs, rtype = self._expr(expr.rhs)
            return self._binop_values(expr.op, lhs, ltype, rhs, rtype, expr)
        if isinstance(expr, A.Index):
            addr, elem = self._addr(expr)
            if elem.array is not None:
                return addr, elem.decayed()
            reg = self.alloc_reg(expr)
            self._load(reg, addr, elem)
            self.free_reg(addr)
            if elem.kind == "char" and not elem.is_pointer:
                return reg, A.INT
            return reg, elem
        if isinstance(expr, A.Call):
            return self._call(expr, want_value)
        if isinstance(expr, A.Cast):
            reg, rtype = self._expr(expr.operand)
            reg = self._convert(reg, rtype, expr.type, expr)
            return reg, expr.type
        raise self.err(expr, f"unhandled expression {type(expr).__name__}")

    def _unary(self, expr: A.Unary) -> tuple[int, A.CType]:
        op = expr.op
        if op == "&":
            reg, vtype = self._addr(expr.operand)
            return reg, vtype.decayed() if vtype.array is not None \
                else vtype.pointer_to()
        if op == "*":
            addr, elem = self._addr(expr)
            reg = self.alloc_reg(expr)
            self._load(reg, addr, elem)
            self.free_reg(addr)
            return reg, elem
        reg, rtype = self._expr(expr.operand)
        if op == "-":
            if rtype.is_float:
                sign = 0x80000000 if rtype.kind == "float" else 0x8000000000000000
                self.emit(f"xori r{reg}, {sign}")
            else:
                self.emit(f"neg r{reg}")
            return reg, rtype
        if op == "~":
            self.emit(f"not r{reg}")
            return reg, A.INT
        if op == "!":
            l_true, l_end = self.label(), self.label()
            if rtype.is_float:
                raise self.err(expr, "'!' on float unsupported; compare explicitly")
            self.emit(f"cmpi r{reg}, 0")
            self.emit(f"jz {l_true}")
            self.emit(f"movi r{reg}, 0")
            self.emit(f"jmp {l_end}")
            self.place(l_true)
            self.emit(f"movi r{reg}, 1")
            self.place(l_end)
            return reg, A.INT
        raise self.err(expr, f"unhandled unary {op!r}")

    def _unified(self, a: A.CType, b: A.CType) -> A.CType:
        if a.is_pointer:
            return a.decayed()
        if b.is_pointer:
            return b.decayed()
        if "double" in (a.kind, b.kind):
            return A.DOUBLE
        if "float" in (a.kind, b.kind):
            return A.FLOAT
        return A.INT

    def _binop_values(self, op, lhs, ltype, rhs, rtype, node) -> tuple[int, A.CType]:
        unified = self._unified(ltype, rtype)
        if unified.is_pointer:
            # pointer arithmetic: ptr +/- int (scaled).
            if op not in ("+", "-"):
                raise self.err(node, f"operator {op!r} invalid on pointers")
            if ltype.is_pointer and rtype.is_pointer:
                if op != "-":
                    raise self.err(node, "pointer + pointer")
                self.emit(f"sub r{lhs}, r{rhs}")
                size = ltype.decayed().elem().size
                if size != 1:
                    self.emit(f"movi r{rhs}, {size}")
                    self.emit(f"sdiv r{lhs}, r{rhs}")
                self.free_reg(rhs)
                return lhs, A.INT
            if rtype.is_pointer:  # int + ptr -> normalize
                lhs, rhs = rhs, lhs
                ltype, rtype = rtype, ltype
            size = ltype.decayed().elem().size
            if size != 1:
                self.emit(f"muli r{rhs}, {size}")
            self.emit(f"{'add' if op == '+' else 'sub'} r{lhs}, r{rhs}")
            self.free_reg(rhs)
            return lhs, ltype.decayed()
        if unified.is_float:
            if op not in _FLOAT_OPS:
                raise self.err(node, f"operator {op!r} invalid on floats")
            lhs = self._convert(lhs, ltype, unified, node)
            rhs = self._convert(rhs, rtype, unified, node)
            suffix = "s" if unified.kind == "float" else "d"
            self.emit(f"fmovr f0, r{lhs}")
            self.emit(f"fmovr f1, r{rhs}")
            self.emit(f"{_FLOAT_OPS[op]}{suffix} f0, f1")
            self.emit(f"rmovf r{lhs}, f0")
            self.free_reg(rhs)
            return lhs, unified
        if op not in _INT_OPS:
            raise self.err(node, f"operator {op!r} invalid on ints")
        self.emit(f"{_INT_OPS[op]} r{lhs}, r{rhs}")
        self.free_reg(rhs)
        return lhs, A.INT

    def _materialize_bool(self, expr: A.Expr) -> tuple[int, A.CType]:
        l_true, l_false, l_end = self.label(), self.label(), self.label()
        self._branch(expr, l_true, l_false)
        reg = self.alloc_reg(expr)
        self.place(l_true)
        self.emit(f"movi r{reg}, 1")
        self.emit(f"jmp {l_end}")
        self.place(l_false)
        self.emit(f"movi r{reg}, 0")
        self.place(l_end)
        return reg, A.INT

    # -- conversions ----------------------------------------------------------------

    def _convert(self, reg: int, src: A.CType, dst: A.CType, node) -> int:
        src = src.decayed()
        dst = dst.decayed()
        if src.is_pointer or dst.is_pointer:
            return reg  # pointers and ints interconvert freely
        s, d = src.kind, dst.kind
        if s == d or {s, d} <= {"int", "char"} or d == "void":
            return reg
        if s in ("int", "char"):
            if d == "float":
                self.emit(f"cvtifs f0, r{reg}")
                self.emit(f"rmovf r{reg}, f0")
            elif d == "double":
                self.emit(f"cvtifd f0, r{reg}")
                self.emit(f"rmovf r{reg}, f0")
            return reg
        if s == "float":
            self.emit(f"fmovr f0, r{reg}")
            if d in ("int", "char"):
                self.emit(f"cvtfis r{reg}, f0")
            elif d == "double":
                self.emit("cvtsd f0, f0")
                self.emit(f"rmovf r{reg}, f0")
            return reg
        if s == "double":
            self.emit(f"fmovr f0, r{reg}")
            if d in ("int", "char"):
                self.emit(f"cvtfid r{reg}, f0")
            elif d == "float":
                self.emit("cvtds f0, f0")
                self.emit(f"rmovf r{reg}, f0")
            return reg
        raise self.err(node, f"cannot convert {src} to {dst}")

    # -- branches ------------------------------------------------------------------

    def _branch(self, expr: A.Expr, l_true: str, l_false: str) -> None:
        if isinstance(expr, A.Binary) and expr.op == "&&":
            mid = self.label()
            self._branch(expr.lhs, mid, l_false)
            self.place(mid)
            self._branch(expr.rhs, l_true, l_false)
            return
        if isinstance(expr, A.Binary) and expr.op == "||":
            mid = self.label()
            self._branch(expr.lhs, l_true, mid)
            self.place(mid)
            self._branch(expr.rhs, l_true, l_false)
            return
        if isinstance(expr, A.Unary) and expr.op == "!":
            self._branch(expr.operand, l_false, l_true)
            return
        if isinstance(expr, A.Binary) and expr.op in _CMP_OPS:
            lhs, ltype = self._expr(expr.lhs)
            rhs, rtype = self._expr(expr.rhs)
            unified = self._unified(ltype, rtype)
            if unified.is_float:
                lhs = self._convert(lhs, ltype, unified, expr)
                rhs = self._convert(rhs, rtype, unified, expr)
                suffix = "s" if unified.kind == "float" else "d"
                self.emit(f"fmovr f0, r{lhs}")
                self.emit(f"fmovr f1, r{rhs}")
                self.emit(f"fcmp{suffix} f0, f1")
                cc = _FLOAT_CC[expr.op]
            else:
                self.emit(f"cmp r{lhs}, r{rhs}")
                cc = _INT_CC[expr.op]
            self.free_reg(lhs)
            self.free_reg(rhs)
            self.emit(f"{cc} {l_true}")
            self.emit(f"jmp {l_false}")
            return
        reg, rtype = self._expr(expr)
        if rtype.is_float:
            raise self.err(expr, "float used as condition; compare explicitly")
        self.emit(f"cmpi r{reg}, 0")
        self.free_reg(reg)
        self.emit(f"jnz {l_true}")
        self.emit(f"jmp {l_false}")

    # -- calls ---------------------------------------------------------------------

    def _call(self, expr: A.Call, want_value: bool) -> tuple[int | None, A.CType]:
        name = expr.name
        if name == "__syscall":
            return self._builtin_syscall(expr)
        if name == "__stackpush":
            if len(expr.args) != 1:
                raise self.err(expr, "__stackpush takes 1 argument")
            reg, _ = self._expr(expr.args[0])
            self.emit(f"push r{reg}")
            self.free_reg(reg)
            return (None, A.VOID) if not want_value else (self._zero(expr), A.INT)
        if name == "__stackpop":
            reg = self.alloc_reg(expr)
            self.emit(f"pop r{reg}")
            return reg, A.INT
        if name not in self.info.functions:
            raise self.err(expr, f"call to undefined function {name!r}")
        ret, param_types = self.info.functions[name]
        if name in self.info.asm_functions:
            param_types = [A.INT] * len(expr.args)
        elif len(expr.args) != len(param_types):
            raise self.err(
                expr, f"{name} expects {len(param_types)} args, got {len(expr.args)}"
            )
        # Evaluate arguments, park each in a frame slot.
        slots = []
        for arg, ptype in zip(expr.args, param_types):
            reg, rtype = self._expr(arg)
            reg = self._convert(reg, rtype, ptype, expr)
            off = self.alloc_slot(8)
            self.emit(f"st [fp-{off}], r{reg}")
            self.free_reg(reg)
            slots.append(off)
        # Spill any live temporaries.
        spilled = []
        for reg in sorted(self.in_use):
            off = self.alloc_slot(8)
            self.emit(f"st [fp-{off}], r{reg}")
            spilled.append((reg, off))
        for i, off in enumerate(slots):
            self.emit(f"ld r{i + 1}, [fp-{off}]")
        self.emit(f"call {name}")
        result = None
        if want_value:
            result = self.alloc_reg(expr)
            self.emit(f"mov r{result}, r0")
        for reg, off in spilled:
            self.emit(f"ld r{reg}, [fp-{off}]")
        if want_value:
            return result, (ret if ret.kind != "void" else A.INT)
        return None, ret

    def _zero(self, node) -> int:
        reg = self.alloc_reg(node)
        self.emit(f"movi r{reg}, 0")
        return reg

    def _builtin_syscall(self, expr: A.Call) -> tuple[int, A.CType]:
        if not 1 <= len(expr.args) <= 6:
            raise self.err(expr, "__syscall takes 1..6 arguments")
        slots = []
        for arg in expr.args:
            reg, _ = self._expr(arg)
            off = self.alloc_slot(8)
            self.emit(f"st [fp-{off}], r{reg}")
            self.free_reg(reg)
            slots.append(off)
        spilled = []
        for reg in sorted(self.in_use):
            off = self.alloc_slot(8)
            self.emit(f"st [fp-{off}], r{reg}")
            spilled.append((reg, off))
        self.emit(f"ld r0, [fp-{slots[0]}]")
        for i, off in enumerate(slots[1:]):
            self.emit(f"ld r{i + 1}, [fp-{off}]")
        self.emit("syscall")
        result = self.alloc_reg(expr)
        self.emit(f"mov r{result}, r0")
        for reg, off in spilled:
            self.emit(f"ld r{reg}, [fp-{off}]")
        return result, A.INT


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def generate_unit(unit: A.Unit, info: ProgramInfo, code_section: str = ".text") -> str:
    """Generate RX64 assembly for one parsed unit."""
    return UnitCodegen(unit, info, code_section).generate()

"""Bitvector/boolean expression AST with hash-consing and folding.

The single expression language shared by every symbolic engine in the
package.  Booleans are width-1 bitvectors, which keeps bit-blasting
uniform.  Floating-point operations are first-class AST nodes that the
concrete evaluator understands but the bit-blaster deliberately does
not: an engine whose solver lacks FP theory raises exactly the
``unsupported theory`` condition the paper reports (Es3), while the
local-search solver (:mod:`repro.smt.fpsearch`) can still attack them.

Construction goes through the ``mk_*`` smart constructors, which fold
constants and apply cheap local rewrites, so concrete execution inside
a symbolic engine collapses to constants instead of growing terms.
"""

from __future__ import annotations

import math
from typing import Iterable

from ..errors import SolverError
from ..vm.cpu import bits_to_f32, bits_to_f64, f32_round, f32_to_bits, f64_div, f64_to_bits, f64_to_i64

_INTERN: dict[tuple, "Expr"] = {}

#: Operations and their arities (None = variadic).
_BV_BINOPS = frozenset({
    "add", "sub", "mul", "udiv", "urem", "and", "or", "xor",
    "shl", "lshr", "ashr",
})
_CMP_OPS = frozenset({"eq", "ult", "ule", "slt", "sle"})
_FP_BIN = frozenset({
    "fadd32", "fsub32", "fmul32", "fdiv32",
    "fadd64", "fsub64", "fmul64", "fdiv64",
})
_FP_CMP = frozenset({"feq32", "flt32", "fle32", "feq64", "flt64", "fle64"})
_FP_CVT = frozenset({"i2f32", "i2f64", "f2i32", "f2i64", "f32to64", "f64to32"})
#: Transcendental ops: evaluable (for local search) but never blastable.
_FP_TRANS = frozenset({"fsin64", "fcos64", "fpow64"})

FP_OPS = _FP_BIN | _FP_CMP | _FP_CVT | _FP_TRANS


class Expr:
    """An interned expression node.  Compare with ``is`` / ``==`` freely."""

    __slots__ = ("op", "width", "args", "value", "name", "_hash", "_size")

    def __init__(self, op: str, width: int, args: tuple["Expr", ...] = (),
                 value: int | None = None, name: str | None = None):
        self.op = op
        self.width = width
        self.args = args
        self.value = value
        self.name = name
        self._hash = hash((op, width, tuple(id(a) for a in args), value, name))
        self._size: int | None = None

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_const(self) -> bool:
        return self.op == "const"

    @property
    def is_var(self) -> bool:
        return self.op == "var"

    def variables(self) -> set[str]:
        """Names of all variables occurring in this expression."""
        out: set[str] = set()
        stack = [self]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.is_var:
                out.add(node.name)
            stack.extend(node.args)
        return out

    def contains_fp(self) -> bool:
        """Does any node use floating-point theory?"""
        stack = [self]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.op in FP_OPS:
                return True
            stack.extend(node.args)
        return False

    def size(self) -> int:
        """Number of distinct nodes (the model-size metric for Figure 3).

        Memoized: sub-DAG sizes summed over children over-count shared
        nodes, so this computes the true distinct-node count once and
        caches it on the node (nodes are interned and immutable).
        """
        if self._size is not None:
            return self._size
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node.args)
        self._size = len(seen)
        return self._size

    def __repr__(self) -> str:
        if self.is_const:
            return f"0x{self.value:x}:{self.width}"
        if self.is_var:
            return f"{self.name}:{self.width}"
        inner = " ".join(repr(a) for a in self.args)
        return f"({self.op} {inner})"


def _intern(op: str, width: int, args: tuple[Expr, ...] = (),
            value: int | None = None, name: str | None = None) -> Expr:
    key = (op, width, tuple(id(a) for a in args), value, name)
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Expr(op, width, args, value, name)
    return node


def intern_node(op: str, width: int, args: tuple[Expr, ...] = (),
                value: int | None = None, name: str | None = None) -> Expr:
    """Codec hook: intern a node *exactly* as described, no rewrites.

    The ``mk_*`` smart constructors fold constants and normalize terms,
    so a decoder built on them could produce a different (if equivalent)
    DAG than the one encoded.  The query-log codec
    (:mod:`repro.smt.querylog`) rebuilds nodes through this hook
    instead, guaranteeing byte-exact round trips — decoded nodes still
    land in the intern table, so identity sharing with live terms is
    preserved.
    """
    return _intern(op, width, args, value, name)


def _mask(width: int) -> int:
    return (1 << width) - 1


def to_signed(value: int, width: int) -> int:
    value &= _mask(width)
    if value >= 1 << (width - 1):
        value -= 1 << width
    return value


# -- constructors ------------------------------------------------------------

def mk_const(value: int, width: int) -> Expr:
    return _intern("const", width, value=value & _mask(width))


TRUE = mk_const(1, 1)
FALSE = mk_const(0, 1)


def mk_bool(flag: bool) -> Expr:
    return TRUE if flag else FALSE


def mk_var(name: str, width: int) -> Expr:
    return _intern("var", width, name=name)


def mk_binop(op: str, a: Expr, b: Expr) -> Expr:
    if a.width != b.width:
        raise SolverError(f"{op}: width mismatch {a.width} vs {b.width}")
    width = a.width
    if a.is_const and b.is_const:
        return mk_const(_fold_binop(op, a.value, b.value, width), width)
    # Local rewrites that keep concolic terms small.
    if b.is_const:
        if b.value == 0:
            if op in ("add", "sub", "or", "xor", "shl", "lshr", "ashr"):
                return a
            if op in ("mul", "and"):
                return mk_const(0, width)
        if b.value == _mask(width) and op == "and":
            return a
        if b.value == 1 and op == "mul":
            return a
    if a.is_const:
        if a.value == 0:
            if op in ("add", "or", "xor"):
                return b
            if op in ("mul", "and", "shl", "lshr", "ashr", "udiv", "urem"):
                return mk_const(0, width)
        if a.value == _mask(width) and op == "and":
            return b
        if a.value == 1 and op == "mul":
            return b
    if op == "xor" and a is b:
        return mk_const(0, width)
    if op == "sub" and a is b:
        return mk_const(0, width)
    if op in ("and", "or") and a is b:
        return a
    if op in ("udiv", "urem") and not b.is_const:
        # The bit-blaster only supports constant divisors; building the
        # node is allowed (eval works), solving may raise later.
        pass
    return _intern(op, width, (a, b))


def _fold_binop(op: str, a: int, b: int, width: int) -> int:
    mask = _mask(width)
    if op == "add":
        return (a + b) & mask
    if op == "sub":
        return (a - b) & mask
    if op == "mul":
        return (a * b) & mask
    if op == "udiv":
        if b == 0:
            return mask  # SMT-LIB convention
        return (a // b) & mask
    if op == "urem":
        if b == 0:
            return a
        return (a % b) & mask
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op in ("shl", "lshr", "ashr"):
        # ISA semantics: the shift amount is taken modulo the width
        # (x86-style), keeping the SMT layer bit-identical to the VM.
        amount = b & (width - 1) if width & (width - 1) == 0 else b % width
        if op == "shl":
            return (a << amount) & mask
        if op == "lshr":
            return a >> amount
        return (to_signed(a, width) >> amount) & mask
    raise SolverError(f"unknown binop {op}")


def mk_not(a: Expr) -> Expr:
    if a.is_const:
        return mk_const(~a.value, a.width)
    if a.op == "bvnot":
        return a.args[0]
    return _intern("bvnot", a.width, (a,))


def mk_neg(a: Expr) -> Expr:
    return mk_binop("sub", mk_const(0, a.width), a)


def mk_cmp(op: str, a: Expr, b: Expr) -> Expr:
    if a.width != b.width:
        raise SolverError(f"{op}: width mismatch {a.width} vs {b.width}")
    if a.is_const and b.is_const:
        av, bv = a.value, b.value
        if op == "eq":
            return mk_bool(av == bv)
        if op == "ult":
            return mk_bool(av < bv)
        if op == "ule":
            return mk_bool(av <= bv)
        sa, sb = to_signed(av, a.width), to_signed(bv, b.width)
        if op == "slt":
            return mk_bool(sa < sb)
        if op == "sle":
            return mk_bool(sa <= sb)
    if op == "eq" and a is b:
        return TRUE
    if op in ("ule", "sle") and a is b:
        return TRUE
    if op in ("ult", "slt") and a is b:
        return FALSE
    return _intern(op, 1, (a, b))


def mk_eq(a: Expr, b: Expr) -> Expr:
    return mk_cmp("eq", a, b)


def mk_ite(cond: Expr, then: Expr, orelse: Expr) -> Expr:
    if cond.width != 1:
        raise SolverError("ite condition must be width 1")
    if then.width != orelse.width:
        raise SolverError("ite arm width mismatch")
    if cond.is_const:
        return then if cond.value else orelse
    if then is orelse:
        return then
    return _intern("ite", then.width, (cond, then, orelse))


def mk_bool_not(a: Expr) -> Expr:
    if a.width != 1:
        raise SolverError("bool not on non-boolean")
    if a.is_const:
        return mk_bool(not a.value)
    if a.op == "bvnot":
        return a.args[0]
    # width-1 bvnot == logical not
    return _intern("bvnot", 1, (a,))


def mk_bool_and(*terms: Expr) -> Expr:
    flat: list[Expr] = []
    for t in terms:
        if t.width != 1:
            raise SolverError("bool and on non-boolean")
        if t.is_const:
            if not t.value:
                return FALSE
            continue
        flat.append(t)
    if not flat:
        return TRUE
    node = flat[0]
    for t in flat[1:]:
        node = mk_binop("and", node, t)
    return node


def mk_bool_or(*terms: Expr) -> Expr:
    flat: list[Expr] = []
    for t in terms:
        if t.width != 1:
            raise SolverError("bool or on non-boolean")
        if t.is_const:
            if t.value:
                return TRUE
            continue
        flat.append(t)
    if not flat:
        return FALSE
    node = flat[0]
    for t in flat[1:]:
        node = mk_binop("or", node, t)
    return node


def mk_extract(a: Expr, hi: int, lo: int) -> Expr:
    if not 0 <= lo <= hi < a.width:
        raise SolverError(f"extract [{hi}:{lo}] out of range for width {a.width}")
    width = hi - lo + 1
    if width == a.width:
        return a
    if a.is_const:
        return mk_const(a.value >> lo, width)
    if a.op == "zext" and hi < a.args[0].width:
        return mk_extract(a.args[0], hi, lo)
    if a.op == "zext" and lo >= a.args[0].width:
        return mk_const(0, width)
    if a.op == "extract":
        base_lo = a.value & 0xFFFF
        return mk_extract(a.args[0], base_lo + hi, base_lo + lo)
    if a.op == "concat":
        lo_part = a.args[1]
        if hi < lo_part.width:
            return mk_extract(lo_part, hi, lo)
        if lo >= lo_part.width:
            return mk_extract(a.args[0], hi - lo_part.width, lo - lo_part.width)
    return _intern("extract", width, (a,), value=(hi << 16) | lo)


def _extract_span(node: Expr) -> tuple[Expr, int, int] | None:
    """View *node* as a contiguous bit span (base, hi, lo) if possible."""
    if node.op == "extract":
        return node.args[0], node.value >> 16, node.value & 0xFFFF
    return None


def mk_concat(hi: Expr, lo: Expr) -> Expr:
    """Concatenate: *hi* becomes the high bits."""
    if hi.is_const and lo.is_const:
        return mk_const((hi.value << lo.width) | lo.value, hi.width + lo.width)
    if hi.is_const and hi.value == 0:
        return mk_zext(lo, hi.width + lo.width)
    # Fuse adjacent extracts of the same base: collapses the
    # byte-granular store/load round trips symbolic memory produces
    # (concat of extracts of x re-assembles a slice of x).
    hi_span = _extract_span(hi)
    lo_span = _extract_span(lo)
    if hi_span and lo_span and hi_span[0] is lo_span[0] \
            and hi_span[2] == lo_span[1] + 1:
        return mk_extract(hi_span[0], hi_span[1], lo_span[2])
    return _intern("concat", hi.width + lo.width, (hi, lo))


def mk_concat_many(parts: Iterable[Expr]) -> Expr:
    """Concatenate parts listed most-significant first."""
    parts = list(parts)
    node = parts[0]
    for part in parts[1:]:
        node = mk_concat(node, part)
    return node


def mk_zext(a: Expr, width: int) -> Expr:
    if width == a.width:
        return a
    if width < a.width:
        raise SolverError("zext narrows")
    if a.is_const:
        return mk_const(a.value, width)
    if a.op == "zext":
        a = a.args[0]
    return _intern("zext", width, (a,))


def mk_sext(a: Expr, width: int) -> Expr:
    if width == a.width:
        return a
    if width < a.width:
        raise SolverError("sext narrows")
    if a.is_const:
        return mk_const(to_signed(a.value, a.width), width)
    return _intern("sext", width, (a,))


def mk_fp(op: str, *args: Expr) -> Expr:
    """Floating-point node (see module docstring for the op list)."""
    if op not in FP_OPS:
        raise SolverError(f"unknown fp op {op}")
    if all(a.is_const for a in args):
        return mk_const(eval_fp(op, [a.value for a in args]), _fp_width(op))
    return _intern(op, _fp_width(op), tuple(args))


def _fp_width(op: str) -> int:
    if op in _FP_CMP:
        return 1
    if op in _FP_TRANS:
        return 64
    if op.endswith("32") and op not in ("f32to64",):
        return 32 if op not in ("f2i32",) else 64
    if op == "f64to32":
        return 32
    return 64


# -- concrete evaluation ---------------------------------------------------------

def eval_fp(op: str, values: list[int]) -> int:
    """Evaluate one FP op on raw bit-pattern operands."""
    if op.endswith("32") and op not in ("f2i32", "i2f32", "f64to32"):
        a = bits_to_f32(values[0])
        b = bits_to_f32(values[1]) if len(values) > 1 else 0.0
    elif op.endswith("64") and op not in ("f2i64", "i2f64", "f32to64"):
        a = bits_to_f64(values[0])
        b = bits_to_f64(values[1]) if len(values) > 1 else 0.0
    if op == "fadd32":
        return f32_to_bits(f32_round(a + b))
    if op == "fsub32":
        return f32_to_bits(f32_round(a - b))
    if op == "fmul32":
        return f32_to_bits(f32_round(a * b))
    if op == "fdiv32":
        return f32_to_bits(f32_round(f64_div(a, b)))
    if op == "fadd64":
        return f64_to_bits(a + b)
    if op == "fsub64":
        return f64_to_bits(a - b)
    if op == "fmul64":
        return f64_to_bits(a * b)
    if op == "fdiv64":
        return f64_to_bits(f64_div(a, b))
    if op in ("feq32", "feq64"):
        return int(not (math.isnan(a) or math.isnan(b)) and a == b)
    if op in ("flt32", "flt64"):
        return int(not (math.isnan(a) or math.isnan(b)) and a < b)
    if op in ("fle32", "fle64"):
        return int(not (math.isnan(a) or math.isnan(b)) and a <= b)
    if op == "i2f32":
        return f32_to_bits(float(to_signed(values[0], 64)))
    if op == "i2f64":
        return f64_to_bits(float(to_signed(values[0], 64)))
    if op == "f2i32":
        return f64_to_i64(bits_to_f32(values[0]))
    if op == "f2i64":
        return f64_to_i64(bits_to_f64(values[0]))
    if op == "f32to64":
        return f64_to_bits(bits_to_f32(values[0]))
    if op == "f64to32":
        return f32_to_bits(f32_round(bits_to_f64(values[0])))
    if op == "fsin64":
        return f64_to_bits(math.sin(bits_to_f64(values[0])))
    if op == "fcos64":
        return f64_to_bits(math.cos(bits_to_f64(values[0])))
    if op == "fpow64":
        base = bits_to_f64(values[0])
        exp = bits_to_f64(values[1])
        try:
            return f64_to_bits(float(base ** exp))
        except (OverflowError, ZeroDivisionError, ValueError):
            return f64_to_bits(math.nan)
    raise SolverError(f"unknown fp op {op}")


def _eval_node(node: Expr, args: list[int], model: dict[str, int]) -> int:
    op = node.op
    if op == "const":
        return node.value
    if op == "var":
        return model.get(node.name, 0) & _mask(node.width)
    if op in _BV_BINOPS:
        return _fold_binop(op, args[0], args[1], node.width)
    if op == "bvnot":
        return ~args[0] & _mask(node.width)
    if op in _CMP_OPS:
        a, b = args
        w = node.args[0].width
        if op == "eq":
            return int(a == b)
        if op == "ult":
            return int(a < b)
        if op == "ule":
            return int(a <= b)
        if op == "slt":
            return int(to_signed(a, w) < to_signed(b, w))
        return int(to_signed(a, w) <= to_signed(b, w))
    if op == "ite":
        return args[1] if args[0] else args[2]
    if op == "extract":
        hi, lo = node.value >> 16, node.value & 0xFFFF
        return (args[0] >> lo) & _mask(hi - lo + 1)
    if op == "concat":
        return (args[0] << node.args[1].width) | args[1]
    if op == "zext":
        return args[0]
    if op == "sext":
        return to_signed(args[0], node.args[0].width) & _mask(node.width)
    if op in FP_OPS:
        return eval_fp(op, args)
    raise SolverError(f"eval: unknown op {op}")


def eval_expr(expr: Expr, model: dict[str, int]) -> int:
    """Concretely evaluate *expr* under *model* (var name -> unsigned int).

    Missing variables evaluate to 0 (the SMT 'don't care' completion).
    Iterative post-order walk: expression DAGs from long traces (SHA1,
    AES) are far deeper than Python's recursion limit.
    """
    cache: dict[int, int] = {}
    stack = [expr]
    while stack:
        node = stack[-1]
        nid = id(node)
        if nid in cache:
            stack.pop()
            continue
        pending = [a for a in node.args if id(a) not in cache]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        cache[nid] = _eval_node(node, [cache[id(a)] for a in node.args], model)
    return cache[id(expr)]

"""Scalar semantics shared by the concrete VM and the analysis engines.

Pure helper functions over Python ints implementing RX64's ALU, flag
and floating-point behaviour.  Keeping these in one module guarantees
the concrete machine and every symbolic engine's concrete-evaluation
path agree bit-for-bit (the engines' test oracles depend on this).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable

from ..errors import VMError
from ..isa import NUM_FPRS, NUM_GPRS

MASK64 = (1 << 64) - 1
SIGN64 = 1 << 63


def u64(value: int) -> int:
    return value & MASK64


def s64(value: int) -> int:
    value &= MASK64
    return value - (1 << 64) if value & SIGN64 else value


def sext(value: int, bits: int) -> int:
    """Sign-extend *bits*-wide *value* to 64 bits (unsigned repr)."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value |= MASK64 ^ ((1 << bits) - 1)
    return value


# -- IEEE-754 helpers ------------------------------------------------------

def bits_to_f64(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & MASK64))[0]


def f64_to_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_f32(bits: int) -> float:
    """Interpret the low 32 bits as IEEE single and widen to Python float."""
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0]


def f32_to_bits(value: float) -> int:
    """Round *value* to IEEE single precision and return its 32-bit pattern."""
    try:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    except OverflowError:
        return 0x7F800000 if value > 0 else 0xFF800000


def f32_round(value: float) -> float:
    """Round a Python float to the nearest representable IEEE single."""
    return bits_to_f32(f32_to_bits(value))


def f64_div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.inf if (a > 0) == (math.copysign(1.0, b) > 0) else -math.inf
    return a / b


def f64_to_i64(value: float) -> int:
    """Truncating float->int conversion with x86-style saturation."""
    if math.isnan(value):
        return SIGN64
    if value >= 2.0**63:
        return SIGN64  # x86 returns INT_MIN on overflow
    if value <= -(2.0**63) - 1:
        return SIGN64
    return u64(int(value))


# -- flags ------------------------------------------------------------------

@dataclass
class Flags:
    """ZF/SF/CF/OF condition codes."""

    zf: bool = False
    sf: bool = False
    cf: bool = False
    of: bool = False

    def set_logic(self, result: int) -> None:
        """Flag update for AND/OR/XOR/TEST/NOT/shifts (CF=OF=0)."""
        result &= MASK64
        self.zf = result == 0
        self.sf = bool(result & SIGN64)
        self.cf = False
        self.of = False

    def set_add(self, a: int, b: int, result: int) -> None:
        a, b = u64(a), u64(b)
        result_full = a + b
        result &= MASK64
        self.zf = result == 0
        self.sf = bool(result & SIGN64)
        self.cf = result_full > MASK64
        self.of = ((a ^ result) & (b ^ result) & SIGN64) != 0

    def set_sub(self, a: int, b: int, result: int) -> None:
        a, b = u64(a), u64(b)
        result &= MASK64
        self.zf = result == 0
        self.sf = bool(result & SIGN64)
        self.cf = a < b
        self.of = ((a ^ b) & (a ^ result) & SIGN64) != 0

    def set_fcmp(self, a: float, b: float) -> None:
        """ucomisd-style compare: ZF/CF encode the ordering."""
        if math.isnan(a) or math.isnan(b):
            self.zf = self.cf = True
        else:
            self.zf = a == b
            self.cf = a < b
        self.sf = False
        self.of = False

    def condition(self, name: str) -> bool:
        """Evaluate a branch condition (jz/jnz/jl/jle/jg/jge/jb/jbe/ja/jae)."""
        return CONDITIONS[name](self)

    def snapshot(self) -> tuple[bool, bool, bool, bool]:
        return (self.zf, self.sf, self.cf, self.of)

    def restore(self, snap: tuple[bool, bool, bool, bool]) -> None:
        self.zf, self.sf, self.cf, self.of = snap


#: Branch condition name -> predicate over :class:`Flags`.
CONDITIONS: dict[str, Callable[[Flags], bool]] = {
    "jz": lambda f: f.zf,
    "jnz": lambda f: not f.zf,
    "jl": lambda f: f.sf != f.of,
    "jle": lambda f: f.zf or f.sf != f.of,
    "jg": lambda f: not f.zf and f.sf == f.of,
    "jge": lambda f: f.sf == f.of,
    "jb": lambda f: f.cf,
    "jbe": lambda f: f.cf or f.zf,
    "ja": lambda f: not f.cf and not f.zf,
    "jae": lambda f: not f.cf,
}


# -- ALU --------------------------------------------------------------------
#
# One function per operation over 64-bit unsigned operands, updating
# *flags* when it is not None.  :func:`alu` masks its operands and indexes
# :data:`ALU`; the VM's compiled handlers bind the entries directly.

def _add(a: int, b: int, flags: Flags | None) -> int:
    result = (a + b) & MASK64
    if flags is not None:
        flags.set_add(a, b, result)
    return result


def _sub(a: int, b: int, flags: Flags | None) -> int:
    result = (a - b) & MASK64
    if flags is not None:
        flags.set_sub(a, b, result)
    return result


def _logic(fn: Callable[[int, int], int]) -> Callable[[int, int, Flags | None], int]:
    """An operation whose flags follow :meth:`Flags.set_logic`."""
    def op(a: int, b: int, flags: Flags | None) -> int:
        result = fn(a, b)
        if flags is not None:
            flags.set_logic(result)
        return result
    return op


def _nonzero(b: int) -> int:
    """*b* as a divisor: zero raises :class:`VMError` with ``signo=8``."""
    if b == 0:
        err = VMError("integer division by zero")
        err.signo = 8
        raise err
    return b


def _sdiv(a: int, b: int) -> int:
    """Signed quotient, truncated toward zero."""
    sa, sb = s64(a), s64(_nonzero(b))
    quotient = abs(sa) // abs(sb)
    return -quotient if (sa < 0) != (sb < 0) else quotient


#: Base mnemonic (lower case, no ``i`` suffix) -> operation.
ALU: dict[str, Callable[[int, int, Flags | None], int]] = {
    "add": _add,
    "sub": _sub,
    "mul": _logic(lambda a, b: (a * b) & MASK64),
    "udiv": _logic(lambda a, b: a // _nonzero(b)),
    "urem": _logic(lambda a, b: a % _nonzero(b)),
    "sdiv": _logic(lambda a, b: _sdiv(a, b) & MASK64),
    "srem": _logic(lambda a, b: (s64(a) - _sdiv(a, b) * s64(b)) & MASK64),
    "and": _logic(lambda a, b: a & b),
    "or": _logic(lambda a, b: a | b),
    "xor": _logic(lambda a, b: a ^ b),
    "shl": _logic(lambda a, b: (a << (b & 63)) & MASK64),
    "shr": _logic(lambda a, b: a >> (b & 63)),
    "sar": _logic(lambda a, b: (s64(a) >> (b & 63)) & MASK64),
}


def alu(op_name: str, a: int, b: int, flags: Flags | None = None) -> int:
    """Compute a 64-bit ALU result and optionally update *flags*.

    *op_name* is the lower-case base mnemonic without an ``i`` suffix
    (``add``, ``sub``, ``mul``, ``udiv``, ``sdiv``, ``urem``, ``srem``,
    ``and``, ``or``, ``xor``, ``shl``, ``shr``, ``sar``).

    Division by zero raises :class:`VMError` carrying ``signo=8`` —
    the machine converts it into a SIGFPE delivery.
    """
    op = ALU.get(op_name)
    if op is None:  # pragma: no cover
        raise VMError(f"unknown alu op {op_name}")
    return op(a & MASK64, b & MASK64, flags)


# -- thread context ----------------------------------------------------------

@dataclass
class Context:
    """Architectural state of one hardware thread."""

    pc: int = 0
    regs: list[int] = field(default_factory=lambda: [0] * NUM_GPRS)
    fregs: list[int] = field(default_factory=lambda: [0] * NUM_FPRS)
    flags: Flags = field(default_factory=Flags)

    def clone(self) -> "Context":
        other = Context(self.pc, list(self.regs), list(self.fregs), Flags())
        other.flags.restore(self.flags.snapshot())
        return other

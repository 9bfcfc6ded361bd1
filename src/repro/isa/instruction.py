"""Instruction and operand object model for RX64."""

from __future__ import annotations

from dataclasses import dataclass

from .opcodes import INSTRUCTION_SIZE, OPSPEC, Op
from .registers import gpr_name

MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Reg:
    """General-purpose register operand."""

    index: int

    def __str__(self) -> str:
        return gpr_name(self.index)


@dataclass(frozen=True)
class FReg:
    """Floating-point register operand."""

    index: int

    def __str__(self) -> str:
        return f"f{self.index}"


@dataclass(frozen=True)
class Imm:
    """64-bit immediate operand (stored as an unsigned value)."""

    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value & MASK64)

    @property
    def signed(self) -> int:
        v = self.value
        return v - (1 << 64) if v >= (1 << 63) else v

    def __str__(self) -> str:
        s = self.signed
        if -4096 < s < 4096:
            return str(s)
        return f"0x{self.value:x}"


@dataclass(frozen=True)
class Mem:
    """Memory operand ``[base + disp]``."""

    base: int
    disp: int

    def __str__(self) -> str:
        if self.disp == 0:
            return f"[{gpr_name(self.base)}]"
        sign = "+" if self.disp >= 0 else "-"
        return f"[{gpr_name(self.base)}{sign}{abs(self.disp)}]"


@dataclass(frozen=True)
class Target:
    """Branch target operand holding an absolute virtual address."""

    addr: int

    def __str__(self) -> str:
        return f"0x{self.addr:x}"


Operand = Reg | FReg | Imm | Mem | Target


@dataclass(frozen=True)
class Instruction:
    """One decoded RX64 instruction located at a virtual address."""

    op: Op
    operands: tuple[Operand, ...]
    addr: int = 0

    @property
    def size(self) -> int:
        return INSTRUCTION_SIZE[self.op]

    @property
    def next_addr(self) -> int:
        return self.addr + INSTRUCTION_SIZE[self.op]

    def __str__(self) -> str:
        mnem = self.op.name.lower()
        if not self.operands:
            return mnem
        return f"{mnem} {', '.join(str(o) for o in self.operands)}"

    def validate(self) -> None:
        """Check the operand tuple matches the opcode's signature."""
        spec = OPSPEC[self.op]
        if len(spec) != len(self.operands):
            raise ValueError(f"{self.op.name}: expected {len(spec)} operands")
        for kind, operand in zip(spec, self.operands):
            expected = {"R": Reg, "F": FReg, "I": Imm, "M": Mem, "J": Target}[kind]
            if not isinstance(operand, expected):
                raise ValueError(
                    f"{self.op.name}: operand {operand!r} is not {expected.__name__}"
                )

"""RX64 instruction set architecture.

Public surface: the :class:`~repro.isa.instruction.Instruction` object
model, the opcode table, the register conventions, and binary
encode/decode.
"""

from .encoding import decode, encode
from .instruction import FReg, Imm, Instruction, Mem, Operand, Reg, Target
from .opcodes import (
    BLOCK_ENDERS,
    COND_BRANCHES,
    FLOAT_OPS,
    LOAD_INFO,
    MAX_INSTRUCTION_SIZE,
    MNEMONICS,
    OPSPEC,
    STORE_INFO,
    Op,
    instruction_size,
)
from .registers import (
    ARG_REGS,
    FP,
    NUM_FPRS,
    NUM_GPRS,
    RET_REG,
    SP,
    gpr_name,
    parse_fpr,
    parse_gpr,
)

__all__ = [
    "ARG_REGS",
    "BLOCK_ENDERS",
    "COND_BRANCHES",
    "FLOAT_OPS",
    "FP",
    "FReg",
    "Imm",
    "Instruction",
    "LOAD_INFO",
    "MAX_INSTRUCTION_SIZE",
    "MNEMONICS",
    "Mem",
    "NUM_FPRS",
    "NUM_GPRS",
    "OPSPEC",
    "Op",
    "Operand",
    "RET_REG",
    "Reg",
    "SP",
    "STORE_INFO",
    "Target",
    "decode",
    "encode",
    "gpr_name",
    "instruction_size",
    "parse_fpr",
    "parse_gpr",
]

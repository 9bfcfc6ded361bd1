"""RX64 opcode table.

Each opcode has a one-byte code and a fixed operand signature.  Operand
kinds (used by the encoder, decoder, assembler and lifters):

====  =======================================  ========
kind  meaning                                  encoding
====  =======================================  ========
``R``  general-purpose register                1 byte
``F``  floating-point register                 1 byte
``I``  64-bit immediate (or absolute address)  8 bytes LE
``M``  memory operand ``[reg + disp]``         1 + 4 bytes (disp: signed LE)
``J``  branch target (encoded rel32)           4 bytes signed LE
====  =======================================  ========
"""

from __future__ import annotations

import enum


class Op(enum.IntEnum):
    """All RX64 opcodes."""

    NOP = 0x00
    MOV = 0x01      # mov rd, rs
    MOVI = 0x02     # movi rd, imm64
    LD = 0x03       # ld rd, [rb+disp]      (64-bit)
    LD1U = 0x04
    LD1S = 0x05
    LD2U = 0x06
    LD2S = 0x07
    LD4U = 0x08
    LD4S = 0x09
    ST = 0x0A       # st [rb+disp], rs      (64-bit)
    ST1 = 0x0B
    ST2 = 0x0C
    ST4 = 0x0D
    LEA = 0x0E      # lea rd, [rb+disp]

    ADD = 0x10
    ADDI = 0x11
    SUB = 0x12
    SUBI = 0x13
    MUL = 0x14
    MULI = 0x15
    UDIV = 0x16
    SDIV = 0x17
    UREM = 0x18
    SREM = 0x19
    AND = 0x1A
    ANDI = 0x1B
    OR = 0x1C
    ORI = 0x1D
    XOR = 0x1E
    XORI = 0x1F
    SHL = 0x20
    SHLI = 0x21
    SHR = 0x22
    SHRI = 0x23
    SAR = 0x24
    SARI = 0x25
    NOT = 0x26
    NEG = 0x27

    CMP = 0x28
    CMPI = 0x29
    TEST = 0x2A

    JMP = 0x30
    JZ = 0x31
    JNZ = 0x32
    JL = 0x33
    JLE = 0x34
    JG = 0x35
    JGE = 0x36
    JB = 0x37
    JBE = 0x38
    JA = 0x39
    JAE = 0x3A
    JMPR = 0x3B     # jmpr rs — indirect jump (the symbolic-jump vector)
    CALL = 0x3C
    CALLR = 0x3D
    RET = 0x3E

    PUSH = 0x40
    POP = 0x41
    SYSCALL = 0x42
    HLT = 0x43

    FLD = 0x50      # fld fd, [rb+disp]     (64-bit raw)
    FST = 0x51      # fst [rb+disp], fs
    FMOV = 0x52     # fmov fd, fs
    FMOVR = 0x53    # fmovr fd, rs  (raw bits gpr -> fpr)
    RMOVF = 0x54    # rmovf rd, fs  (raw bits fpr -> gpr)
    FADDS = 0x55
    FSUBS = 0x56
    FMULS = 0x57
    FDIVS = 0x58
    FCMPS = 0x59
    FADDD = 0x5A
    FSUBD = 0x5B
    FMULD = 0x5C
    FDIVD = 0x5D
    FCMPD = 0x5E
    CVTIFS = 0x5F   # cvtifs fd, rs  (signed int64 -> f32)
    CVTFIS = 0x60   # cvtfis rd, fs  (f32 -> signed int64, truncating)
    CVTIFD = 0x61   # cvtifd fd, rs  (signed int64 -> f64)
    CVTFID = 0x62   # cvtfid rd, fs  (f64 -> signed int64, truncating)
    CVTSD = 0x63    # cvtsd fd, fs   (f32 -> f64)
    CVTDS = 0x64    # cvtds fd, fs   (f64 -> f32)


#: Operand signature per opcode.
OPSPEC: dict[Op, str] = {
    Op.NOP: "",
    Op.MOV: "RR",
    Op.MOVI: "RI",
    Op.LD: "RM",
    Op.LD1U: "RM",
    Op.LD1S: "RM",
    Op.LD2U: "RM",
    Op.LD2S: "RM",
    Op.LD4U: "RM",
    Op.LD4S: "RM",
    Op.ST: "MR",
    Op.ST1: "MR",
    Op.ST2: "MR",
    Op.ST4: "MR",
    Op.LEA: "RM",
    Op.ADD: "RR",
    Op.ADDI: "RI",
    Op.SUB: "RR",
    Op.SUBI: "RI",
    Op.MUL: "RR",
    Op.MULI: "RI",
    Op.UDIV: "RR",
    Op.SDIV: "RR",
    Op.UREM: "RR",
    Op.SREM: "RR",
    Op.AND: "RR",
    Op.ANDI: "RI",
    Op.OR: "RR",
    Op.ORI: "RI",
    Op.XOR: "RR",
    Op.XORI: "RI",
    Op.SHL: "RR",
    Op.SHLI: "RI",
    Op.SHR: "RR",
    Op.SHRI: "RI",
    Op.SAR: "RR",
    Op.SARI: "RI",
    Op.NOT: "R",
    Op.NEG: "R",
    Op.CMP: "RR",
    Op.CMPI: "RI",
    Op.TEST: "RR",
    Op.JMP: "J",
    Op.JZ: "J",
    Op.JNZ: "J",
    Op.JL: "J",
    Op.JLE: "J",
    Op.JG: "J",
    Op.JGE: "J",
    Op.JB: "J",
    Op.JBE: "J",
    Op.JA: "J",
    Op.JAE: "J",
    Op.JMPR: "R",
    Op.CALL: "J",
    Op.CALLR: "R",
    Op.RET: "",
    Op.PUSH: "R",
    Op.POP: "R",
    Op.SYSCALL: "",
    Op.HLT: "",
    Op.FLD: "FM",
    Op.FST: "MF",
    Op.FMOV: "FF",
    Op.FMOVR: "FR",
    Op.RMOVF: "RF",
    Op.FADDS: "FF",
    Op.FSUBS: "FF",
    Op.FMULS: "FF",
    Op.FDIVS: "FF",
    Op.FCMPS: "FF",
    Op.FADDD: "FF",
    Op.FSUBD: "FF",
    Op.FMULD: "FF",
    Op.FDIVD: "FF",
    Op.FCMPD: "FF",
    Op.CVTIFS: "FR",
    Op.CVTFIS: "RF",
    Op.CVTIFD: "FR",
    Op.CVTFID: "RF",
    Op.CVTSD: "FF",
    Op.CVTDS: "FF",
}

#: Operand kind -> encoded byte size. ``M`` is base reg + signed disp32.
OPERAND_SIZE = {"R": 1, "F": 1, "I": 8, "M": 5, "J": 4}

#: Conditional branch opcodes (excluding unconditional JMP/JMPR).
COND_BRANCHES = frozenset({
    Op.JZ, Op.JNZ, Op.JL, Op.JLE, Op.JG, Op.JGE, Op.JB, Op.JBE, Op.JA, Op.JAE,
})

#: Opcodes that end a basic block.
BLOCK_ENDERS = COND_BRANCHES | {Op.JMP, Op.JMPR, Op.CALL, Op.CALLR, Op.RET, Op.HLT}

#: Floating-point opcodes — the set real-world lifters circa 2016/2017
#: commonly lacked (the paper reports Triton missing ``cvtsi2sd`` and
#: ``ucomisd``; tool profiles exclude the analogous RX64 ops).
FLOAT_OPS = frozenset({
    Op.FLD, Op.FST, Op.FMOV, Op.FMOVR, Op.RMOVF,
    Op.FADDS, Op.FSUBS, Op.FMULS, Op.FDIVS, Op.FCMPS,
    Op.FADDD, Op.FSUBD, Op.FMULD, Op.FDIVD, Op.FCMPD,
    Op.CVTIFS, Op.CVTFIS, Op.CVTIFD, Op.CVTFID, Op.CVTSD, Op.CVTDS,
})

#: Load opcodes -> (byte width, signed).
LOAD_INFO = {
    Op.LD: (8, False),
    Op.LD1U: (1, False),
    Op.LD1S: (1, True),
    Op.LD2U: (2, False),
    Op.LD2S: (2, True),
    Op.LD4U: (4, False),
    Op.LD4S: (4, True),
}

#: Store opcodes -> byte width.
STORE_INFO = {Op.ST: 8, Op.ST1: 1, Op.ST2: 2, Op.ST4: 4}


#: Opcode -> encoded instruction size in bytes (opcode byte + operands).
INSTRUCTION_SIZE: dict[Op, int] = {
    op: 1 + sum(OPERAND_SIZE[k] for k in spec) for op, spec in OPSPEC.items()
}

#: Longest encoding: a decode at pc reads no byte at or past
#: ``pc + MAX_INSTRUCTION_SIZE``.
MAX_INSTRUCTION_SIZE = max(INSTRUCTION_SIZE.values())


def instruction_size(op: Op) -> int:
    """Encoded size in bytes of an instruction with opcode *op*."""
    return INSTRUCTION_SIZE[op]


#: Assembler mnemonic -> opcode (lower-case mnemonics).
MNEMONICS: dict[str, Op] = {op.name.lower(): op for op in Op}
# Friendly aliases.
MNEMONICS["je"] = Op.JZ
MNEMONICS["jne"] = Op.JNZ

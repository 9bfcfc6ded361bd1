"""Two-phase assembler for RX64 assembly source.

The assembler turns one translation unit into a relocatable
:class:`Module`; the :mod:`repro.binfmt.linker` merges modules, lays out
sections and resolves relocations into a runnable REXF image.

Accepted syntax (one statement per line, ``;`` or ``#`` comments)::

    .text | .lib | .rodata | .data | .bss     ; section switch
    .global name                               ; export a symbol
    .align N | .space N
    .byte 1, 2, 'a'    .word ...   .long ...  .quad 1, label, ...
    .asciz "text\\n"
    label:                                     ; (labels starting with
    .Llocal:                                   ;  '.L' stay module-local)
        movi r1, 0x32
        movi r2, message                       ; absolute relocation
        ld   r3, [r2+8]
        jz   .Lout
        call strlen

The ``.lib`` section is executable code flagged as *library*: the
linker records its symbols with kind ``lib`` so analysis tools can
either analyze it ("with libraries") or hook it ("no-lib" mode),
mirroring the two Angr configurations evaluated in the paper.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import AsmError
from ..isa import MNEMONICS, OPSPEC, Imm, Instruction, Mem, Reg, FReg, Target, encode
from ..isa import instruction_size, parse_fpr, parse_gpr

SECTIONS = (".text", ".lib", ".rodata", ".data", ".bss")


@dataclass
class Reloc:
    """A relocation to be resolved at link time.

    ``kind`` is ``abs64`` (8-byte absolute address, used by ``movi`` and
    ``.quad label``) or ``rel32`` (4-byte offset relative to the end of
    the referencing instruction, used by branch/call targets).
    """

    section: str
    offset: int
    kind: str
    symbol: str
    addend: int = 0
    insn_end: int = 0  # section-relative end of instruction, for rel32


@dataclass
class Module:
    """One assembled translation unit (relocatable)."""

    sections: dict[str, bytearray] = field(default_factory=dict)
    relocs: list[Reloc] = field(default_factory=list)
    symbols: dict[str, tuple[str, int]] = field(default_factory=dict)
    globals: set[str] = field(default_factory=set)
    bss_size: int = 0
    name: str = "<module>"

    def section(self, name: str) -> bytearray:
        return self.sections.setdefault(name, bytearray())


_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"', "'": "'"}


def _unescape(body: str) -> bytes:
    out = bytearray()
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            if nxt == "x":
                out.append(int(body[i + 2 : i + 4], 16))
                i += 4
                continue
            out.append(ord(_ESCAPES.get(nxt, nxt)))
            i += 2
        else:
            out.append(ord(ch))
            i += 1
    return bytes(out)


def _strip_comment(line: str) -> str:
    """*line* without its ``;`` or ``#`` comment; string and char
    literals (``"a;b"``, ``'#'``) are not comments."""
    if ";" not in line and "#" not in line:
        return line.strip()
    quote = None
    i = 0
    while i < len(line):
        ch = line[i]
        if quote:
            if ch == "\\":
                i += 1
            elif ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch in ";#":
            return line[:i].strip()
        i += 1
    return line.strip()


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$")
_SYM_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*([+-]\s*\d+)?$")


class Assembler:
    """Assembles RX64 source text into a relocatable :class:`Module`."""

    def __init__(self, name: str = "<module>"):
        self.module = Module(name=name)
        self.current = ".text"
        self._lineno = 0
        self._local_counter = 0

    # -- public API ---------------------------------------------------

    def assemble(self, source: str) -> Module:
        """Assemble *source* and return the resulting module."""
        for lineno, raw in enumerate(source.splitlines(), start=1):
            self._lineno = lineno
            line = _strip_comment(raw)
            while line:
                match = _LABEL_RE.match(line)
                if match and match.group(1).lower() not in MNEMONICS:
                    self._define_label(match.group(1))
                    line = match.group(2).strip()
                    continue
                self._statement(line)
                break
        return self.module

    # -- internals ----------------------------------------------------

    def _err(self, msg: str) -> AsmError:
        return AsmError(f"{self.module.name}:{self._lineno}: {msg}")

    def _here(self) -> int:
        if self.current == ".bss":
            return self.module.bss_size
        return len(self.module.section(self.current))

    def _define_label(self, name: str) -> None:
        if name in self.module.symbols:
            raise self._err(f"duplicate label {name!r}")
        self.module.symbols[name] = (self.current, self._here())

    def _statement(self, line: str) -> None:
        if line.startswith("."):
            head, _, rest = line.partition(" ")
            self._directive(head.strip(), rest.strip())
        else:
            self._instruction(line)

    def _directive(self, head: str, rest: str) -> None:
        mod = self.module
        if head in SECTIONS:
            self.current = head
        elif head == ".global":
            for name in re.split(r"[,\s]+", rest):
                if name:
                    mod.globals.add(name)
        elif head == ".align":
            n = int(rest, 0)
            if self.current == ".bss":
                mod.bss_size = -(-mod.bss_size // n) * n
            else:
                sec = mod.section(self.current)
                while len(sec) % n:
                    sec.append(0)
        elif head == ".space":
            n = int(rest, 0)
            if self.current == ".bss":
                mod.bss_size += n
            else:
                mod.section(self.current).extend(b"\0" * n)
        elif head == ".asciz":
            match = _STRING_RE.match(rest)
            if not match:
                raise self._err(f"bad string {rest!r}")
            if self.current == ".bss":
                raise self._err(".asciz not allowed in .bss")
            mod.section(self.current).extend(_unescape(match.group(1)) + b"\0")
        elif head in (".byte", ".word", ".long", ".quad"):
            width = {".byte": 1, ".word": 2, ".long": 4, ".quad": 8}[head]
            if self.current == ".bss":
                raise self._err(f"{head} not allowed in .bss")
            sec = mod.section(self.current)
            for item in self._split_args(rest):
                value = self._parse_int_or_reloc(item, width, sec)
                sec.extend((value & ((1 << (8 * width)) - 1)).to_bytes(width, "little"))
        else:
            raise self._err(f"unknown directive {head}")

    def _parse_int_or_reloc(self, item: str, width: int, sec: bytearray) -> int:
        try:
            return self._parse_int(item)
        except ValueError:
            pass
        match = _SYM_RE.match(item)
        if not match or width != 8:
            raise self._err(f"bad data value {item!r}")
        addend = int(match.group(2).replace(" ", "")) if match.group(2) else 0
        self.module.relocs.append(
            Reloc(self.current, len(sec), "abs64", match.group(1), addend)
        )
        return 0

    @staticmethod
    def _split_args(text: str) -> list[str]:
        args, depth, cur, in_ch = [], 0, [], False
        for ch in text:
            if ch == "'" :
                in_ch = not in_ch
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            if ch == "," and depth == 0 and not in_ch:
                args.append("".join(cur).strip())
                cur = []
            else:
                cur.append(ch)
        tail = "".join(cur).strip()
        if tail:
            args.append(tail)
        return args

    @staticmethod
    def _parse_int(text: str) -> int:
        text = text.strip()
        if len(text) >= 3 and text[0] == "'" and text[-1] == "'":
            body = _unescape(text[1:-1])
            if len(body) != 1:
                raise ValueError(text)
            return body[0]
        return int(text, 0)

    _MEM_RE = re.compile(r"^\[\s*(\w+)\s*(?:([+-])\s*(\w+))?\s*\]$")

    def _instruction(self, line: str) -> None:
        if self.current not in (".text", ".lib"):
            raise self._err(f"instruction outside code section: {line!r}")
        head, _, rest = line.partition(" ")
        mnem = head.strip().lower()
        if mnem not in MNEMONICS:
            raise self._err(f"unknown mnemonic {mnem!r}")
        op = MNEMONICS[mnem]
        spec = OPSPEC[op]
        args = self._split_args(rest) if rest.strip() else []
        if len(args) != len(spec):
            raise self._err(f"{mnem}: expected {len(spec)} operands, got {len(args)}")

        sec = self.module.section(self.current)
        offset = len(sec)
        size = instruction_size(op)
        operands = []
        pending: list[Reloc] = []
        pos = offset + 1  # operand byte position within the section
        for kind, arg in zip(spec, args):
            if kind == "R":
                operands.append(Reg(parse_gpr(arg)))
                pos += 1
            elif kind == "F":
                operands.append(FReg(parse_fpr(arg)))
                pos += 1
            elif kind == "I":
                try:
                    operands.append(Imm(self._parse_int(arg)))
                except ValueError:
                    match = _SYM_RE.match(arg)
                    if not match:
                        raise self._err(f"bad immediate {arg!r}") from None
                    addend = int(match.group(2).replace(" ", "")) if match.group(2) else 0
                    pending.append(
                        Reloc(self.current, pos, "abs64", match.group(1), addend)
                    )
                    operands.append(Imm(0))
                pos += 8
            elif kind == "M":
                match = self._MEM_RE.match(arg.strip())
                if not match:
                    raise self._err(f"bad memory operand {arg!r}")
                base = parse_gpr(match.group(1))
                disp = 0
                if match.group(3):
                    disp = int(match.group(3), 0)
                    if match.group(2) == "-":
                        disp = -disp
                operands.append(Mem(base, disp))
                pos += 5
            elif kind == "J":
                match = _SYM_RE.match(arg.strip())
                if not match or match.group(2):
                    raise self._err(f"bad branch target {arg!r}")
                pending.append(
                    Reloc(self.current, pos, "rel32", match.group(1),
                          insn_end=offset + size)
                )
                operands.append(Target(0))
                pos += 4

        instr = Instruction(op, tuple(operands), addr=offset)
        sec.extend(encode(instr))
        self.module.relocs.extend(pending)


def assemble(source: str, name: str = "<module>") -> Module:
    """Assemble RX64 *source* into a relocatable :class:`Module`."""
    return Assembler(name).assemble(source)

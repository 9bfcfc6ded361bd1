"""REXF — the executable image format for RX64 binaries.

A REXF image is what the paper's dataset binaries are to the original
study: a self-contained executable with sections, a symbol table and an
entry point.  Images serialize to real bytes so the dataset-size
statistics of Section V.A (binaries of 10–25 KB, median 14 KB) are
measured on actual encoded files, not estimates.

Section flags:

* ``X`` — executable (``.text``, ``.lib``)
* ``W`` — writable (``.data``, ``.bss``)
* ``L`` — library code (``.lib``): analysis tools may either analyze it
  ("with libraries") or intercept calls into it ("no-lib" mode).

Symbol kinds: ``func`` (program code), ``object`` (data), ``lib``
(library function — the hookable surface for simprocedures).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Callable

from ..errors import LinkError
from ..isa import MAX_INSTRUCTION_SIZE, Instruction, decode

MAGIC = b"REXF"
VERSION = 1

FLAG_X = 0x1
FLAG_W = 0x2
FLAG_L = 0x4


@dataclass(frozen=True)
class Symbol:
    """One symbol-table entry."""

    name: str
    addr: int
    kind: str  # "func" | "object" | "lib"


@dataclass
class Section:
    """One loadable section."""

    name: str
    vaddr: int
    data: bytes
    flags: int
    mem_size: int = 0  # >= len(data); the excess is zero-filled (.bss)

    def __post_init__(self):
        if self.mem_size < len(self.data):
            self.mem_size = len(self.data)

    @property
    def executable(self) -> bool:
        return bool(self.flags & FLAG_X)

    @property
    def library(self) -> bool:
        return bool(self.flags & FLAG_L)

    @property
    def end(self) -> int:
        return self.vaddr + self.mem_size


@dataclass
class Image:
    """A linked, runnable REXF executable."""

    entry: int
    sections: list[Section] = field(default_factory=list)
    symbols: dict[str, Symbol] = field(default_factory=dict)
    #: The image's decoded-instruction table, pc -> :class:`Instruction`,
    #: filled by :meth:`decode_at` from the section bytes and shared by
    #: every machine process and symbolic explorer of this image object,
    #: so each pc is decoded once per interpreter process.  Only
    #: :meth:`decode_at` inserts, and only code pcs.
    decoded: dict[int, Instruction] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: The concrete VM's compiled handlers for :attr:`decoded` entries,
    #: pc -> handler (``handler.instr`` is the entry), shared by every
    #: machine process of this image object until the process writes
    #: into its code range and switches to a private copy.
    handlers: dict[int, Callable] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: The loaded sections as the VM's page template, page number ->
    #: immutable page bytes, built by the first machine and shared
    #: copy-on-write by every machine memory of this image object.
    pages: dict[int, bytes] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    # -- queries -------------------------------------------------------

    def section(self, name: str) -> Section | None:
        for sec in self.sections:
            if sec.name == name:
                return sec
        return None

    def symbol_addr(self, name: str) -> int:
        try:
            return self.symbols[name].addr
        except KeyError:
            raise LinkError(f"undefined symbol {name!r}") from None

    def symbols_by_addr(self) -> dict[int, str]:
        return {sym.addr: sym.name for sym in self.symbols.values()}

    def lib_symbols(self) -> dict[str, Symbol]:
        """Library function symbols — the no-lib hookable surface."""
        return {n: s for n, s in self.symbols.items() if s.kind == "lib"}

    def lib_object_ranges(self) -> list[tuple[int, int]]:
        """Address ranges of library-owned data objects.

        Each range runs from a ``lib_object`` symbol to the next data
        symbol (or its section's end) — the conservative span tools use
        to decide whether a store targets library-private state.
        """
        data_syms = sorted(
            (s.addr, s.kind) for s in self.symbols.values()
            if s.kind in ("object", "lib_object")
        )
        section_ends = sorted(sec.end for sec in self.sections)
        ranges = []
        for i, (addr, kind) in enumerate(data_syms):
            if kind != "lib_object":
                continue
            if i + 1 < len(data_syms):
                end = data_syms[i + 1][0]
            else:
                end = next((e for e in section_ends if e > addr), addr + 8)
            ranges.append((addr, end))
        return ranges

    def is_lib_addr(self, addr: int) -> bool:
        return any(sec.library and sec.vaddr <= addr < sec.end for sec in self.sections)

    def is_code_addr(self, addr: int) -> bool:
        return any(sec.executable and sec.vaddr <= addr < sec.end for sec in self.sections)

    def decode_at(self, pc: int) -> Instruction | None:
        """Decode the instruction at *pc* from the section bytes into
        :attr:`decoded` (the table's miss path).

        Returns ``None``, and caches nothing, when *pc* lies outside
        every executable section.  Raises :class:`~repro.errors.VMError`
        on an undecodable instruction.
        """
        if not self.is_code_addr(pc):
            return None
        instr = self.decoded[pc] = decode(self._read(pc, MAX_INSTRUCTION_SIZE), pc)
        return instr

    def _read(self, addr: int, size: int) -> bytes:
        """*size* bytes at *addr* as loaded: unmapped bytes read as zero."""
        out = bytearray(size)
        for sec in self.sections:
            lo = max(sec.vaddr, addr)
            hi = min(sec.vaddr + len(sec.data), addr + size)
            if lo < hi:
                out[lo - addr : hi - addr] = sec.data[lo - sec.vaddr : hi - sec.vaddr]
        return bytes(out)

    def code_ranges(self, include_lib: bool = True) -> list[tuple[int, int]]:
        return [
            (sec.vaddr, sec.end)
            for sec in self.sections
            if sec.executable and (include_lib or not sec.library)
        ]

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the on-disk REXF byte format."""
        out = bytearray()
        out += MAGIC
        out += struct.pack("<HQHI", VERSION, self.entry, len(self.sections),
                           len(self.symbols))
        for sec in self.sections:
            name = sec.name.encode()
            out += struct.pack("<B", len(name)) + name
            out += struct.pack("<QQQB", sec.vaddr, len(sec.data), sec.mem_size,
                               sec.flags)
            out += sec.data
        for sym in self.symbols.values():
            name = sym.name.encode()
            kind = {"func": 0, "object": 1, "lib": 2, "lib_object": 3}[sym.kind]
            out += struct.pack("<H", len(name)) + name
            out += struct.pack("<QB", sym.addr, kind)
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Image":
        """Deserialize an image previously produced by :meth:`to_bytes`."""
        if blob[:4] != MAGIC:
            raise LinkError("not a REXF image")
        version, entry, nsect, nsym = struct.unpack_from("<HQHI", blob, 4)
        if version != VERSION:
            raise LinkError(f"unsupported REXF version {version}")
        pos = 4 + struct.calcsize("<HQHI")
        sections = []
        for _ in range(nsect):
            (nlen,) = struct.unpack_from("<B", blob, pos)
            pos += 1
            name = blob[pos : pos + nlen].decode()
            pos += nlen
            vaddr, dsize, msize, flags = struct.unpack_from("<QQQB", blob, pos)
            pos += struct.calcsize("<QQQB")
            data = bytes(blob[pos : pos + dsize])
            pos += dsize
            sections.append(Section(name, vaddr, data, flags, msize))
        symbols = {}
        for _ in range(nsym):
            (nlen,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            name = blob[pos : pos + nlen].decode()
            pos += nlen
            addr, kind = struct.unpack_from("<QB", blob, pos)
            pos += struct.calcsize("<QB")
            symbols[name] = Symbol(name, addr, ("func", "object", "lib", "lib_object")[kind])
        return cls(entry, sections, symbols)

    @property
    def file_size(self) -> int:
        """Size in bytes of the serialized image (dataset statistic)."""
        return len(self.to_bytes())


def image_digest(image: Image) -> str:
    """SHA-256 of the serialized image: its content address, keying the
    result store, the lift cache and fuzz campaigns."""
    return hashlib.sha256(image.to_bytes()).hexdigest()

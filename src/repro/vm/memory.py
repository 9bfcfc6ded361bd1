"""Sparse flat memory for the concrete VM.

Memory is a zero-filled 64-bit address space backed by 4 KiB pages
allocated on first touch.  ``fork`` support relies on :meth:`Memory.clone`
performing a deep copy of all touched pages (copy-on-write is an
optimization the study does not need; bombs touch a few dozen pages).
"""

from __future__ import annotations

PAGE_SIZE = 0x1000
PAGE_MASK = PAGE_SIZE - 1
MASK64 = (1 << 64) - 1


class Memory:
    """Byte-addressable sparse memory."""

    __slots__ = ("_pages",)

    def __init__(self):
        self._pages: dict[int, bytearray] = {}

    # -- raw byte access ------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        addr &= MASK64
        out = bytearray(size)
        pos = 0
        while pos < size:
            page_no, off = divmod(addr + pos, PAGE_SIZE)
            chunk = min(size - pos, PAGE_SIZE - off)
            page = self._pages.get(page_no)
            if page is not None:
                out[pos : pos + chunk] = page[off : off + chunk]
            pos += chunk
        return bytes(out)

    def write(self, addr: int, data: bytes | bytearray) -> None:
        addr &= MASK64
        pos = 0
        size = len(data)
        while pos < size:
            page_no, off = divmod(addr + pos, PAGE_SIZE)
            chunk = min(size - pos, PAGE_SIZE - off)
            page = self._pages.get(page_no)
            if page is None:
                page = self._pages[page_no] = bytearray(PAGE_SIZE)
            page[off : off + chunk] = data[pos : pos + chunk]
            pos += chunk

    # -- integer helpers --------------------------------------------------

    def read_uint(self, addr: int, size: int) -> int:
        return int.from_bytes(self.read(addr, size), "little")

    def read_sint(self, addr: int, size: int) -> int:
        return int.from_bytes(self.read(addr, size), "little", signed=True)

    def write_uint(self, addr: int, value: int, size: int) -> None:
        self.write(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def read_u64(self, addr: int) -> int:
        return self.read_uint(addr, 8)

    def write_u64(self, addr: int, value: int) -> None:
        self.write_uint(addr, value, 8)

    # -- strings -----------------------------------------------------------

    def read_cstr(self, addr: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated string (without the terminator)."""
        out = bytearray()
        while len(out) < limit:
            byte = self.read(addr + len(out), 1)[0]
            if byte == 0:
                break
            out.append(byte)
        return bytes(out)

    def write_cstr(self, addr: int, text: bytes) -> None:
        self.write(addr, text + b"\0")

    # -- lifecycle ----------------------------------------------------------

    def clone(self) -> "Memory":
        """Deep copy (used by ``fork``)."""
        other = Memory()
        other._pages = {no: bytearray(page) for no, page in self._pages.items()}
        return other

"""Sparse flat memory for the concrete VM.

Memory is a zero-filled 64-bit address space of 4 KiB pages.  A page
is either a shared, immutable ``bytes`` page or a private ``bytearray``:
:meth:`Memory.loaded` starts a machine's memory from its image's page
template (every page shared), and the first write to a shared page — or
to an untouched one — gives the memory a private copy.  ``fork``'s
:meth:`Memory.clone` copies the private pages and shares the rest, so
no write ever reaches the image or another machine.
"""

from __future__ import annotations

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
MASK64 = (1 << 64) - 1


class Memory:
    """Byte-addressable sparse memory with copy-on-write pages."""

    __slots__ = ("_pages",)

    def __init__(self, pages: dict[int, bytes | bytearray] | None = None):
        #: Page number -> page; ``bytes`` pages are shared, read-only.
        self._pages: dict[int, bytes | bytearray] = {} if pages is None else pages

    @classmethod
    def loaded(cls, image) -> "Memory":
        """A memory holding *image*'s sections, sharing every page with
        the image's page template (built into ``image.pages`` once)."""
        template = image.pages
        if not template:
            staging = cls()
            for sec in image.sections:
                staging.write(sec.vaddr, sec.data)
            template.update((no, bytes(page)) for no, page in staging._pages.items())
        return cls(dict(template))

    def _private(self, page_no: int) -> bytearray:
        """The writable page *page_no*, copied or zero-filled on first write."""
        page = self._pages.get(page_no)
        if type(page) is not bytearray:
            page = self._pages[page_no] = \
                bytearray(PAGE_SIZE) if page is None else bytearray(page)
        return page

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
            self._private(page_no)[off : off + chunk] = data[pos : pos + chunk]
            pos += chunk

    # -- integer helpers --------------------------------------------------

    def read_uint(self, addr: int, size: int) -> int:
        addr &= MASK64
        off = addr & PAGE_MASK
        if off + size <= PAGE_SIZE:  # within one page: no staging buffer
            page = self._pages.get(addr >> PAGE_SHIFT)
            return 0 if page is None else int.from_bytes(page[off : off + size], "little")
        return int.from_bytes(self.read(addr, size), "little")

    def read_sint(self, addr: int, size: int) -> int:
        return int.from_bytes(self.read(addr, size), "little", signed=True)

    def write_uint(self, addr: int, value: int, size: int) -> None:
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        addr &= MASK64
        off = addr & PAGE_MASK
        if off + size <= PAGE_SIZE:
            self._private(addr >> PAGE_SHIFT)[off : off + size] = data
        else:
            self.write(addr, data)

    def read_u64(self, addr: int) -> int:
        return self.read_uint(addr, 8)

    def write_u64(self, addr: int, value: int) -> None:
        self.write_uint(addr, value, 8)

    # -- strings -----------------------------------------------------------

    def read_cstr(self, addr: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated string (without the terminator), at
        most *limit* bytes of it, scanning a page slice at a time."""
        out = bytearray()
        addr &= MASK64
        while len(out) < limit:
            off = addr & PAGE_MASK
            end = off + min(limit - len(out), PAGE_SIZE - off)
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is None:  # an untouched page reads as zeros
                break
            nul = page.find(b"\0", off, end)
            if nul >= 0:
                out += page[off:nul]
                break
            out += page[off:end]
            addr = (addr + end - off) & MASK64
        return bytes(out)

    def write_cstr(self, addr: int, text: bytes) -> None:
        self.write(addr, text + b"\0")

    # -- lifecycle ----------------------------------------------------------

    def clone(self) -> "Memory":
        """Independent copy (used by ``fork``): private pages are copied,
        shared pages stay shared."""
        return Memory({no: page if type(page) is bytes else bytearray(page)
                       for no, page in self._pages.items()})

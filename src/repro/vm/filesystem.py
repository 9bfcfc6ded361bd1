"""In-memory filesystem and file-descriptor objects for the VM kernel."""

from __future__ import annotations

from dataclasses import dataclass, field

from .syscalls import O_APPEND, O_CREAT, O_EXCL, O_RDWR, O_TRUNC, O_WRONLY


class FileSystem:
    """A flat, in-memory filesystem shared by all processes of a machine."""

    def __init__(self, initial: dict[str, bytes] | None = None):
        self.files: dict[str, bytearray] = {
            path: bytearray(data) for path, (data) in (initial or {}).items()
        }

    def exists(self, path: str) -> bool:
        return path in self.files

    def open(self, path: str, flags: int) -> "FileHandle | None":
        """Open *path*; returns None on failure (missing file, EXCL clash)."""
        exists = path in self.files
        if not exists:
            if not flags & O_CREAT:
                return None
            self.files[path] = bytearray()
        elif flags & O_CREAT and flags & O_EXCL:
            return None
        if flags & O_TRUNC:
            self.files[path] = bytearray()
        handle = FileHandle(fs=self, path=path, flags=flags)
        if flags & O_APPEND:
            handle.pos = len(self.files[path])
        return handle

    def unlink(self, path: str) -> int:
        if path in self.files:
            del self.files[path]
            return 0
        return -1


@dataclass
class FileHandle:
    """An open regular file (one seek position per open)."""

    fs: FileSystem
    path: str
    flags: int
    pos: int = 0

    @property
    def writable(self) -> bool:
        return bool(self.flags & (O_WRONLY | O_RDWR | O_APPEND))

    @property
    def readable(self) -> bool:
        return not self.flags & O_WRONLY

    def read(self, size: int) -> bytes:
        data = self.fs.files.get(self.path)
        if data is None or not self.readable:
            return b""
        chunk = bytes(data[self.pos : self.pos + size])
        self.pos += len(chunk)
        return chunk

    def write(self, data: bytes) -> int:
        if not self.writable:
            return -1
        buf = self.fs.files.setdefault(self.path, bytearray())
        end = self.pos + len(data)
        if end > len(buf):
            buf.extend(b"\0" * (end - len(buf)))
        buf[self.pos : end] = data
        self.pos = end
        return len(data)

    def seek(self, pos: int) -> int:
        self.pos = max(0, pos)
        return self.pos


@dataclass
class Pipe:
    """A unidirectional kernel pipe shared between processes."""

    buffer: bytearray = field(default_factory=bytearray)
    writers: int = 1
    readers: int = 1

    def read(self, size: int) -> bytes | None:
        """Return data, b"" on EOF, or None when the caller must block."""
        if self.buffer:
            chunk = bytes(self.buffer[:size])
            del self.buffer[:size]
            return chunk
        if self.writers == 0:
            return b""
        return None

    def write(self, data: bytes) -> int:
        if self.readers == 0:
            return -1
        self.buffer.extend(data)
        return len(data)


@dataclass
class PipeEnd:
    """One end of a pipe, stored in a process fd table."""

    pipe: Pipe
    write_end: bool

    def close(self) -> None:
        if self.write_end:
            self.pipe.writers -= 1
        else:
            self.pipe.readers -= 1


@dataclass
class StdStream:
    """A standard stream (stdin/stdout/stderr) backed by byte buffers."""

    name: str
    out_buffer: bytearray | None = None  # for stdout/stderr
    in_buffer: bytearray | None = None   # for stdin

    def write(self, data: bytes) -> int:
        if self.out_buffer is None:
            return -1
        self.out_buffer.extend(data)
        return len(data)

    def read(self, size: int) -> bytes:
        if self.in_buffer is None:
            return b""
        chunk = bytes(self.in_buffer[:size])
        del self.in_buffer[:size]
        return chunk

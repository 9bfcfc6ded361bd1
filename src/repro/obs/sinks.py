"""Event sinks: where the recorder's flat event stream goes.

A sink is anything with ``emit(event: dict)`` and ``close()``.  Two are
provided: :class:`MemorySink` (keep the events in a list — tests, the
benchmarks) and :class:`JsonlSink` (one JSON object per line — the
``--metrics-out`` stream ``repro stats`` consumes).
"""

from __future__ import annotations

import json
from pathlib import Path


class MemorySink:
    """Buffers every event in memory."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class JsonlSink:
    """Appends one compact JSON object per event to a file.

    Accepts a path (opened lazily, truncated) or any object with a
    ``write`` method (left open on close).

    Appends are line-atomic under concurrent forked writers: the file
    is opened line-buffered and each event is emitted as ONE ``write``
    of a complete ``...\\n`` line, so the buffer flushes exactly at line
    boundaries and each line reaches the kernel as a single ``os.write``
    on a descriptor whose offset the forked processes share.  Lines from
    different processes interleave but never tear mid-line (short of a
    crash mid-flush, whose torn last line ``read_events`` rejects).
    """

    def __init__(self, target):
        if hasattr(target, "write"):
            self._fp = target
            self._owns = False
        else:
            self._fp = Path(target).open("w", encoding="utf-8", buffering=1)
            self._owns = True

    def emit(self, event: dict) -> None:
        line = json.dumps(event, separators=(",", ":"), default=str)
        self._fp.write(line + "\n")

    def close(self) -> None:
        if self._owns:
            self._fp.close()
        else:
            self._fp.flush()

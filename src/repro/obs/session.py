"""What is on in this process: one immutable record, scoped by ``with``.

Five things can be switched on around a stretch of work: the obs
:class:`~repro.obs.core.Recorder`, the attribution
:class:`~repro.obs.profile.Profiler`, the forensics
:class:`~repro.obs.provenance.ProvenanceCollector`, the SMT flight
recorder (:class:`~repro.smt.querylog.QueryRecorder`) and the
:class:`~repro.service.store.ResultStore` that lift caches and fuzz
corpora persist into.  They live together in one :class:`Session`, held
in :data:`current`; no other module keeps process-wide instrumentation
or store state.

* :func:`overlay` changes the session for a ``with`` block.  It overlays
  only the fields it names (``None`` leaves a field as it is), runs the
  exit duty of each collector it named, and restores the previous
  session on exit, also when the block raises.
* :func:`reset` replaces the session outright: the one call a fleet
  slot process makes before each cell, to drop what it inherited or
  kept from its previous cell.
* :func:`cell` attributes what runs inside it to one (bomb, tool) cell
  on whichever of the profiler and the query recorder is on.

Every hook reads one field (``session.current.recorder is None`` is the
whole off path), so the engines stay fast with everything off.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from ..service.store import ResultStore
    from ..smt.querylog import QueryRecorder
    from .core import Recorder
    from .profile import Profiler
    from .provenance import ProvenanceCollector


class Session(NamedTuple):
    """What is on; a field left ``None`` is off."""

    recorder: Recorder | None = None
    profiler: Profiler | None = None
    provenance: ProvenanceCollector | None = None
    queries: QueryRecorder | None = None
    store: ResultStore | None = None

    @property
    def times_queries(self) -> bool:
        """Whether a solver query is timed: one of its three consumers
        (counters, per-guard attribution, the flight recorder) is on."""
        return (self.recorder is not None or self.profiler is not None
                or self.queries is not None)


#: The session in effect.  Read it as ``session.current`` (never bind
#: it by name: :func:`overlay` and :func:`reset` rebind it).
current = Session()


def reset(session: Session = Session()) -> None:
    """Replace the session outright, running no exit duty."""
    global current
    current = session


@contextlib.contextmanager
def overlay(*, close: bool = False, **fields):
    """``with overlay(profiler=prof) as s:`` — overlay the named fields
    for the block and yield the block's session.

    On exit, a named provenance collector and profiler flush into the
    block's recorder, a named recorder is closed when *close* is set,
    and the previous session comes back.
    """
    global current
    named = {name: value for name, value in fields.items()
             if value is not None}
    prev = current
    block = current = prev._replace(**named)
    try:
        yield block
    finally:
        try:
            for name in ("provenance", "profiler"):
                if name in named:
                    named[name].flush_to(block.recorder)
            if close and "recorder" in named:
                named["recorder"].close()
        finally:
            current = prev


@contextlib.contextmanager
def recording(recorder: Recorder, close: bool = True):
    """``with recording(rec):`` — :func:`overlay` of the recorder alone,
    yielding it and closing it on exit unless *close* is false."""
    with overlay(recorder=recorder, close=close):
        yield recorder


@contextlib.contextmanager
def cell(bomb: str | None, tool: str | None):
    """Attribute the block to the (*bomb*, *tool*) cell on whichever of
    the profiler and the query recorder is on; restore their previous
    cell on exit."""
    on = [c for c in (current.profiler, current.queries) if c is not None]
    saved = [c.set_cell(bomb, tool) for c in on]
    try:
        yield
    finally:
        for collector, prev in zip(on, saved):
            collector.set_cell(*prev)

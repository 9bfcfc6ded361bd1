"""Attribution profiler: wall time and step counts bucketed by
(bomb, tool, stage, PC) plus per-solver-query telemetry.

The Recorder answers *how long each stage took*; this module answers
*which program counters and guards inside a stage burn the time* — the
per-challenge cost attribution the paper uses to explain tool failures,
and the data the explore-stage and solver-portfolio work needs.

The same discipline as :mod:`repro.obs.core` applies:

* **Zero cost when off.**  Hot loops gate a local dict on the session's
  ``profiler`` once at construction/run start and never call module
  hooks per step.  With no profiler on, the per-step cost is exactly
  what it was before this module existed.
* **Flush once per run.**  The VM, explorer, and replayer tally PCs
  into plain local dicts and hand them over in one
  :func:`record_pcs`/:func:`record_vm` call at the end of the run.
* **Mergeable across processes.**  :meth:`Profiler.flush_to` emits
  ``{"t": "prof"}`` events into the recorder's stream; a parent
  recorder's ``absorb`` routes them into the parent's profiler (see
  :meth:`Profiler.absorb_event`), so a fanned-out table2 run ends with
  one merged profile.
"""

from __future__ import annotations

from . import session as _session

#: Span names that identify a pipeline stage; the innermost open span
#: with one of these names attributes flushed VM counts to a stage.
STAGE_NAMES = frozenset(
    {"trace", "lift", "extract", "solve", "replay", "explore"})

_PC_FIELDS = ("bomb", "tool", "stage", "pc")
_QUERY_FIELDS = ("bomb", "tool", "pc", "kind")
_QUERY_STATS = ("n", "wall_s", "max_s", "conflicts", "gates", "learnt",
                "sat", "unsat")


class Profiler:
    """In-memory attribution buckets for one process.

    ``pc_buckets`` maps (bomb, tool, stage, pc) → ``{"steps", "wall_s"}``:
    how many instructions executed at that PC in that stage, and any
    wall time directly attributable to it (solver queries issued there).

    ``query_buckets`` maps (bomb, tool, pc, kind) → latency and CDCL
    effort totals for every solver query whose negated guard originated
    at that PC (``kind`` is the constraint tag kind, e.g. ``negation``).
    """

    def __init__(self):
        self.pc_buckets: dict[tuple, dict] = {}
        self.query_buckets: dict[tuple, dict] = {}
        self._bomb: str | None = None
        self._tool: str | None = None

    # -- cell context ----------------------------------------------------

    def set_cell(self, bomb: str | None, tool: str | None) -> tuple:
        """Attribute what follows to (*bomb*, *tool*); returns the
        previous pair."""
        prev = (self._bomb, self._tool)
        self._bomb, self._tool = bomb, tool
        return prev

    # -- recording -------------------------------------------------------

    def record_pcs(self, stage: str, counts: dict[int, int],
                   walls: dict[int, float] | None = None) -> None:
        """Fold a run's local per-PC tally into the buckets (one call
        per run, not per step)."""
        buckets = self.pc_buckets
        bomb, tool = self._bomb, self._tool
        for pc, steps in counts.items():
            key = (bomb, tool, stage, pc)
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = {"steps": 0, "wall_s": 0.0}
            bucket["steps"] += steps
        if walls:
            for pc, wall in walls.items():
                key = (bomb, tool, stage, pc)
                bucket = buckets.get(key)
                if bucket is None:
                    bucket = buckets[key] = {"steps": 0, "wall_s": 0.0}
                bucket["wall_s"] += wall

    def record_query(self, tag, wall_s: float, status: str = "",
                     conflicts: int = 0, gates: int = 0,
                     learnt: int = 0) -> None:
        """One solver query: latency plus CDCL effort deltas, attributed
        to the (pc, kind) constraint tag of the negated guard."""
        pc, kind = tag if isinstance(tag, tuple) and len(tag) == 2 \
            else (None, str(tag))
        key = (self._bomb, self._tool, pc, kind)
        bucket = self.query_buckets.get(key)
        if bucket is None:
            bucket = self.query_buckets[key] = dict.fromkeys(_QUERY_STATS, 0)
            bucket["wall_s"] = 0.0
            bucket["max_s"] = 0.0
        bucket["n"] += 1
        bucket["wall_s"] += wall_s
        if wall_s > bucket["max_s"]:
            bucket["max_s"] = wall_s
        bucket["conflicts"] += conflicts
        bucket["gates"] += gates
        bucket["learnt"] += learnt
        if status in ("sat", "unsat"):
            bucket[status] += 1
        # The query wall is *measured* time spent on that PC's guard, so
        # it also feeds the (stage, pc) view under the "solve" stage.
        if pc is not None:
            self.record_pcs("solve", {}, {pc: wall_s})

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict view: rows sorted hottest-first."""
        pcs = [
            dict(zip(_PC_FIELDS, key), **bucket)
            for key, bucket in self.pc_buckets.items()
        ]
        pcs.sort(key=lambda r: (r["wall_s"], r["steps"]), reverse=True)
        queries = [
            dict(zip(_QUERY_FIELDS, key), **bucket)
            for key, bucket in self.query_buckets.items()
        ]
        queries.sort(key=lambda r: r["wall_s"], reverse=True)
        return {"pcs": pcs, "queries": queries}

    # -- merging ---------------------------------------------------------

    def flush_to(self, recorder) -> None:
        """Emit every bucket as a ``prof`` event into *recorder*'s
        stream (and bump the ``prof.*`` bookkeeping counters)."""
        if recorder is None:
            return
        recorder.count("prof.pc_buckets", len(self.pc_buckets))
        recorder.count("prof.query_buckets", len(self.query_buckets))
        if not recorder.sinks:
            return
        for key, bucket in self.pc_buckets.items():
            recorder.emit({"t": "prof", "k": "pc",
                           **dict(zip(_PC_FIELDS, key)), **bucket})
        for key, bucket in self.query_buckets.items():
            recorder.emit({"t": "prof", "k": "query",
                           **dict(zip(_QUERY_FIELDS, key)), **bucket})

    def absorb_event(self, event: dict) -> None:
        """Merge one ``prof`` event (from a worker stream) into the
        buckets.  Inverse of :meth:`flush_to`."""
        if event.get("k") == "pc":
            key = tuple(event.get(f) for f in _PC_FIELDS)
            bucket = self.pc_buckets.setdefault(
                key, {"steps": 0, "wall_s": 0.0})
            bucket["steps"] += event.get("steps", 0)
            bucket["wall_s"] += event.get("wall_s", 0.0)
        elif event.get("k") == "query":
            key = tuple(event.get(f) for f in _QUERY_FIELDS)
            bucket = self.query_buckets.get(key)
            if bucket is None:
                bucket = self.query_buckets[key] = \
                    dict.fromkeys(_QUERY_STATS, 0)
                bucket["wall_s"] = 0.0
                bucket["max_s"] = 0.0
            for stat in _QUERY_STATS:
                if stat == "max_s":
                    bucket["max_s"] = max(bucket["max_s"],
                                          event.get("max_s", 0.0))
                else:
                    bucket[stat] += event.get(stat, 0)


# -- module-level hooks (read the session's profiler; None when off) -------

def record_pcs(stage: str, counts, walls=None) -> None:
    prof = _session.current.profiler
    if prof is not None and (counts or walls):
        prof.record_pcs(stage, counts, walls)


def record_vm(counts) -> None:
    """VM step-loop flush: attribute to the innermost open stage span
    (``trace`` during tracing, ``replay`` during validation, ...)."""
    current = _session.current
    prof = current.profiler
    if prof is None or not counts:
        return
    stage = "vm"
    rec = current.recorder
    if rec is not None:
        for span in reversed(rec._stack):
            if span.name in STAGE_NAMES:
                stage = span.name
                break
    prof.record_pcs(stage, counts)


def record_query(tag, wall_s: float, status: str = "", *, conflicts: int = 0,
                 gates: int = 0, learnt: int = 0) -> None:
    prof = _session.current.profiler
    if prof is not None and tag is not None:
        prof.record_query(tag, wall_s, status, conflicts=conflicts,
                          gates=gates, learnt=learnt)

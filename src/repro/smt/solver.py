"""Solver facade: satisfiability checking over expression constraints.

:class:`Solver` is the Z3/STP stand-in the tool profiles call.  Each
:meth:`check` builds a fresh SAT instance from the asserted constraints
(plus optional extra assumptions), so the object behaves like an
incremental solver without the bookkeeping.

Budgets are first-class: ``max_conflicts`` and ``max_clauses`` bound
the work per query, and exhausting them raises :class:`SolverError`,
which the evaluation harness classifies as the paper's ``E`` outcome
(abnormal exit / no feedback within the time budget).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .. import obs
from ..obs import profile, session
from ..errors import SolverError
from . import intervals, querylog
from .bitblast import BitBlaster
from .expr import Expr
from .sat import SatSolver


@dataclass
class CheckResult:
    """Outcome of one satisfiability query."""

    status: str                      # "sat" | "unsat"
    model: dict[str, int] | None = None

    @property
    def sat(self) -> bool:
        return self.status == "sat"


class Solver:
    """Accumulates boolean (width-1) constraints and answers queries."""

    def __init__(self, max_conflicts: int = 100_000, max_clauses: int = 1_500_000,
                 max_nodes: int | None = None):
        self.constraints: list[Expr] = []
        #: Provenance tag per asserted constraint (``(pc, kind)`` from
        #: the concolic engine, or None) — consumed by :func:`unsat_core`.
        self.tags: list = []
        self.max_conflicts = max_conflicts
        self.max_clauses = max_clauses
        #: Optional cap on the constraint DAG size; queries over it fail
        #: immediately with a budget error (cheap detection of
        #: crypto-scale formulas before any encoding work).
        self.max_nodes = max_nodes
        self.queries = 0
        # CDCL effort of the most recent query (conflicts/gates/learnt),
        # consumed by the attribution profiler's query telemetry.
        self._last_query_stats: dict[str, int] = {}

    def add(self, expr: Expr, tag=None) -> None:
        if expr.width != 1:
            raise SolverError("constraints must be width 1")
        self.constraints.append(expr)
        self.tags.append(tag)

    def extend(self, exprs) -> None:
        for expr in exprs:
            self.add(expr)

    def tagged(self) -> list:
        """The asserted constraints as ``(tag, expr)`` pairs."""
        return list(zip(self.tags, self.constraints))

    # -- queries -------------------------------------------------------------

    def check(self, extra: list[Expr] | None = None,
              tag=None) -> CheckResult:
        """Check satisfiability of the asserted constraints (+ *extra*).

        *tag* is the ``(pc, kind)`` constraint tag of the guard this
        query decides; when an attribution profiler is on the
        query's latency and CDCL effort are bucketed under it.

        Raises :class:`SolverError` on budget exhaustion or when a
        constraint needs a theory the bit-blaster lacks (FP, symbolic
        divisors).
        """
        return _timed_check(self, list(extra or []), tag, "oneshot")

    def _check(self, extra: list[Expr]) -> CheckResult:
        self._last_query_stats = {}
        todo = self.constraints + extra
        # Fast constant paths.
        pending = []
        for expr in todo:
            if expr.is_const:
                if not expr.value:
                    return CheckResult("unsat")
                continue
            pending.append(expr)
        if not pending:
            return CheckResult("sat", {})
        # Looked up on the module per call, so a wrapper set on
        # intervals.presolve_unsat (matrix_ledger/spans.py) sees it.
        if intervals.presolve_unsat(pending):
            return CheckResult("unsat")
        if self.max_nodes is not None:
            total = sum(e.size() for e in pending)
            if total > self.max_nodes:
                raise SolverError(
                    f"constraint model too large ({total} nodes > {self.max_nodes})"
                )
        sat = SatSolver(self.max_conflicts, self.max_clauses)
        blaster = BitBlaster(sat)
        try:
            for expr in pending:
                blaster.assert_true(expr)
            model = sat.solve()
        finally:
            self._last_query_stats = report_sat_stats(sat, blaster, {})
        if model is None:
            return CheckResult("unsat")
        return CheckResult("sat", blaster.extract_model(model))


class IncrementalSolver:
    """Incremental satisfiability over a growing path prefix.

    Keeps one persistent :class:`SatSolver` + :class:`BitBlaster` pair
    alive across queries.  Prefix constraints added with
    :meth:`assert_expr` are Tseitin-encoded exactly once (the blaster's
    cache is keyed by interned-node ``id``, so shared subterms are also
    shared across queries) and asserted as permanent unit clauses.  Each
    :meth:`check` encodes only the *extra* constraints, guards them
    behind a fresh activation literal, and answers via
    ``SatSolver.solve(assumptions=[activation])`` — learnt clauses and
    VSIDS activity carry over from query to query.  After the query the
    activation literal is permanently negated, retiring the extra
    constraints while keeping every clause learnt under them sound.

    Budget/staging semantics deliberately mirror :class:`Solver.check`
    query for query (constant short-circuits, interval presolve, the
    ``max_nodes`` guard, sticky encode errors), so both solvers give the
    same verdict on the same query.
    """

    def __init__(self, max_conflicts: int = 100_000, max_clauses: int = 1_500_000,
                 max_nodes: int | None = None):
        self.max_conflicts = max_conflicts
        self.max_clauses = max_clauses
        self.max_nodes = max_nodes
        self.queries = 0
        self._sat: SatSolver | None = None
        self._blaster: BitBlaster | None = None
        #: Non-constant prefix constraints, in assertion order; the
        #: first ``_encoded`` of them are already in the SAT instance.
        self._prefix: list[Expr] = []
        self._prefix_tags: list = []
        #: Constant-false assertions, kept (with their tags) only so
        #: :meth:`tagged` can name them in an unsat core.
        self._const_false: list = []
        self._encoded = 0
        self._prefix_nodes = 0
        self._prefix_false = False
        #: First encode failure over the prefix (fp theory, symbolic
        #: divisor): re-raised verbatim on every later query,
        #: matching the one-shot solver re-hitting it per query.
        self._encode_error: str | None = None
        # The instance's SAT counters at the last flush, so each query
        # reports its own delta although the instance accumulates.
        self._sat_seen: dict[str, int] = {}
        self._last_query_stats: dict[str, int] = {}

    # -- prefix ------------------------------------------------------------

    def assert_expr(self, expr: Expr, tag=None) -> None:
        """Permanently assert a width-1 constraint (lazily encoded)."""
        if expr.width != 1:
            raise SolverError("constraints must be width 1")
        if expr.is_const:
            if not expr.value:
                self._prefix_false = True
                self._const_false.append((tag, expr))
            return
        self._prefix.append(expr)
        self._prefix_tags.append(tag)
        self._prefix_nodes += expr.size()

    def extend(self, exprs) -> None:
        for expr in exprs:
            self.assert_expr(expr)

    def tagged(self) -> list:
        """The asserted prefix as ``(tag, expr)`` pairs (incl. constants)."""
        return list(self._const_false) + list(zip(self._prefix_tags, self._prefix))

    # -- queries -----------------------------------------------------------

    def check(self, extra: list[Expr] | Expr | None = None,
              tag=None) -> CheckResult:
        """Check the asserted prefix plus *extra* (this query only).

        *tag* is the ``(pc, kind)`` tag of the negated guard, fed to
        the attribution profiler's per-query telemetry when it is on.

        Raises :class:`SolverError` exactly where :meth:`Solver.check`
        would: budget exhaustion or an unsupported theory anywhere in
        prefix + extra.
        """
        if isinstance(extra, Expr):
            extra = [extra]
        return _timed_check(self, list(extra or []), tag, "incremental")

    def _check(self, extra: list[Expr]) -> CheckResult:
        self._last_query_stats = {}
        if self._prefix_false:
            return CheckResult("unsat")
        pending: list[Expr] = []
        for expr in extra:
            if expr.width != 1:
                raise SolverError("constraints must be width 1")
            if expr.is_const:
                if not expr.value:
                    return CheckResult("unsat")
                continue
            pending.append(expr)
        if not self._prefix and not pending:
            return CheckResult("sat", {})
        if intervals.presolve_unsat(self._prefix + pending):
            return CheckResult("unsat")
        if self.max_nodes is not None:
            total = self._prefix_nodes + sum(e.size() for e in pending)
            if total > self.max_nodes:
                raise SolverError(
                    f"constraint model too large ({total} nodes > {self.max_nodes})"
                )
        obs.count("smt.assumption_queries")
        sat, blaster = self._materialize()
        try:
            bits = [blaster.blast(expr)[0] for expr in pending]
            assumptions: list[int] = []
            activation = None
            if bits:
                activation = sat.new_var() * 2
                for lit in bits:
                    sat.add_clause([activation ^ 1, lit])
                assumptions.append(activation)
            model = sat.solve(assumptions)
            if activation is not None:
                # Retire this query's constraints for good; clauses
                # learnt under the activation stay sound (they contain
                # its negation and are now satisfied).
                sat.add_clause([activation ^ 1])
        finally:
            self._last_query_stats = report_sat_stats(sat, blaster,
                                                      self._sat_seen)
        if model is None:
            return CheckResult("unsat")
        return CheckResult("sat", blaster.extract_model(model))

    # -- internals ---------------------------------------------------------

    def _materialize(self) -> tuple[SatSolver, BitBlaster]:
        """Encode any still-pending prefix constraints, exactly once."""
        if self._sat is None:
            self._sat = SatSolver(self.max_conflicts, self.max_clauses)
            self._blaster = BitBlaster(self._sat)
        if self._encode_error is not None:
            raise SolverError(self._encode_error)
        obs.count("smt.prefix_reuse", self._encoded)
        while self._encoded < len(self._prefix):
            expr = self._prefix[self._encoded]
            try:
                self._blaster.assert_true(expr)
            except SolverError as err:
                self._encode_error = str(err)
                raise
            self._encoded += 1
        return self._sat, self._blaster


def _timed_check(solver, extra: list[Expr], tag, kind: str) -> CheckResult:
    """``solver._check(extra)`` for :meth:`Solver.check` and
    :meth:`IncrementalSolver.check`.

    When the session times queries, the query's wall time and outcome
    go to the ``smt.*`` metrics, the attribution profiler (under *tag*)
    and the query log (as a *kind* solver under its budget).
    """
    solver.queries += 1
    if not session.current.times_queries:
        return solver._check(extra)
    t0 = time.perf_counter()
    status = "error"
    try:
        result = solver._check(extra)
        status = result.status
        return result
    finally:
        wall = time.perf_counter() - t0
        obs.count("smt.queries")
        obs.count(f"smt.{status}")
        obs.observe("smt.solve_s", wall)
        stats = solver._last_query_stats
        profile.record_query(tag, wall, status,
                             conflicts=stats.get("conflicts", 0),
                             gates=stats.get("gates", 0),
                             learnt=stats.get("learnt", 0))
        querylog.record_check(
            solver.tagged(), extra, tag, status, wall, stats, solver=kind,
            budget={"max_conflicts": solver.max_conflicts,
                    "max_clauses": solver.max_clauses,
                    "max_nodes": solver.max_nodes})


def report_sat_stats(sat: SatSolver, blaster: BitBlaster,
                     seen: dict[str, int]) -> dict[str, int]:
    """Flush one query's SAT search statistics to the recorder.

    *seen* holds the instance's lifetime counters as of its previous
    flush (empty for a fresh instance) and is advanced to the current
    ones, so an instance reused across queries reports only what each
    query added.  The recorder's counters accumulate, so
    ``smt.conflicts`` is the total CDCL conflict work of a whole run.
    Returns the per-query delta for the caller's query telemetry.
    """
    now = {"conflicts": sat.conflicts, "decisions": sat.decisions,
           "restarts": sat.restarts, "learnt": sat.learnt,
           "gates": blaster.gates}
    delta = {key: value - seen.get(key, 0) for key, value in now.items()}
    seen.update(now)
    rec = session.current.recorder
    if rec is not None:
        for key in ("conflicts", "decisions", "restarts", "learnt"):
            rec.count(f"smt.{key}", delta[key])
        rec.observe("smt.clauses", len(sat.clauses))
        rec.count("smt.gates", delta["gates"])
        rec.observe("smt.gates_per_query", delta["gates"])
    return delta


def solve(constraints: list[Expr], max_conflicts: int = 100_000,
          max_clauses: int = 1_500_000) -> CheckResult:
    """One-shot satisfiability check of *constraints*."""
    solver = Solver(max_conflicts, max_clauses)
    solver.extend(constraints)
    return solver.check()


def unsat_core(tagged, max_conflicts: int = 100_000,
               max_clauses: int = 1_500_000):
    """Minimized unsat core over *tagged* ``(tag, expr)`` constraints.

    Returns the tags of an unsatisfiable subset (deletion-minimized:
    dropping any single member makes it satisfiable), or ``None`` when
    the conjunction is satisfiable.  Assumption-based: each constraint
    is guarded behind its own activation literal and queried via
    ``SatSolver.solve(assumptions=)``, so the deletion loop reuses one
    SAT instance and every clause learnt along the way.

    Raises :class:`SolverError` on budget exhaustion or an
    unencodable theory, like any other query.
    """
    guarded: list = []  # (tag, activation literal)
    sat = SatSolver(max_conflicts, max_clauses)
    blaster = BitBlaster(sat)
    for tag, expr in tagged:
        if expr.width != 1:
            raise SolverError("constraints must be width 1")
        if expr.is_const:
            if not expr.value:
                return [tag]  # constant false is a core by itself
            continue
        activation = sat.new_var() * 2
        blaster.assert_true(expr, activation)
        guarded.append((tag, activation))
    obs.count("prov.core_queries")
    if sat.solve([act for _, act in guarded]) is not None:
        return None
    # Deletion minimization: try dropping each member; keep the drop
    # whenever the rest stays UNSAT.
    core = guarded
    i = 0
    while i < len(core):
        trial = core[:i] + core[i + 1:]
        obs.count("prov.core_queries")
        if sat.solve([act for _, act in trial]) is None:
            core = trial
        else:
            i += 1
    return [tag for tag, _ in core]

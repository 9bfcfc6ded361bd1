"""CDCL SAT solver.

A from-scratch conflict-driven clause-learning solver with two-watched
literals, VSIDS-style activities, first-UIP learning and Luby restarts.
It is the engine under the bit-blaster and stands in for MiniSat/STP/Z3
in the paper's tool stacks.

Literal encoding: variable ``v`` (0-based) has positive literal ``2v``
and negative literal ``2v+1``; ``lit ^ 1`` negates.
"""

from __future__ import annotations

import heapq

from ..errors import SolverError

UNASSIGNED = -1


def _luby(x: int) -> int:
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 0-indexed."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class SatSolver:
    """One-shot CDCL solver: add clauses, then :meth:`solve`."""

    def __init__(self, max_conflicts: int = 200_000, max_clauses: int = 2_000_000):
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        #: lit -> clause indices; built by :meth:`_attach` when
        #: :meth:`solve` starts, for the first ``_attached`` clauses.
        self.watches: list[list[int]] = []
        self._attached = 0
        self.values: list[int] = []         # var -> 0/1/UNASSIGNED
        self.levels: list[int] = []
        self.reasons: list[int] = []        # var -> clause idx or -1
        self.activity: list[float] = []
        self._seen: list[bool] = []         # _analyze's buffer, kept clear
        self.trail: list[int] = []          # assigned literals in order
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.max_conflicts = max_conflicts
        self.max_clauses = max_clauses
        self._var_inc = 1.0
        self._ok = True
        # Lifetime search statistics (across re-invocations of solve),
        # read by the observability layer after each query.
        self.decisions = 0
        self.conflicts = 0
        self.restarts = 0
        self.learnt = 0
        #: Lazy max-heap of (-activity, var); stale entries are skipped
        #: at pop time (standard VSIDS order-heap trick).
        self._order: list[tuple[float, int]] = []

    # -- construction -----------------------------------------------------

    def new_var(self) -> int:
        """Open a variable.  Its per-variable entries are added when
        first needed: value, level and reason by :meth:`_grow`, the
        rest by :meth:`_attach`."""
        var = self.num_vars
        self.num_vars = var + 1
        return var

    def _grow(self) -> None:
        """Size the assignment arrays to ``num_vars``, before a unit
        clause is enqueued and when :meth:`solve` starts."""
        new = self.num_vars - len(self.values)
        if new:
            self.values += [UNASSIGNED] * new
            self.levels += [0] * new
            self.reasons += [-1] * new

    def _attach(self) -> None:
        """Build what only the search reads, for every variable and
        clause added since the last call: activities, order-heap
        entries, watch lists, and the watches on literals 0 and 1 of
        each new clause, in index order.

        Nothing touches a watch list or the heap between two solves, so
        these are the lists that watching each clause as it arrives
        would build.  The new order-heap entries are appended in index
        order: every queued key is ``(-activity, var)`` with
        ``activity >= 0``, so none exceeds ``(0.0, v)`` for a new,
        larger ``v``, and ``heappush`` would leave each at the end of
        the list too.
        """
        self._grow()
        start = len(self.activity)
        new = self.num_vars - start
        if new:
            self.activity += [0.0] * new
            self._seen += [False] * new
            self._order += [(0.0, v) for v in range(start, self.num_vars)]
            self.watches += [[] for _ in range(2 * new)]
        clauses = self.clauses
        watches = self.watches
        for idx in range(self._attached, len(clauses)):
            clause = clauses[idx]
            watches[clause[0]].append(idx)
            watches[clause[1]].append(idx)
        self._attached = len(clauses)

    def add_clause(self, lits: list[int]) -> None:
        """Add a clause of literals (see module docstring for encoding)."""
        if not self._ok:
            return
        if len(self.clauses) >= self.max_clauses:
            raise SolverError("clause budget exceeded")
        # Deduplicate and detect tautologies.
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if lit in seen:
                continue
            if lit ^ 1 in seen:
                return  # tautology
            seen.add(lit)
            out.append(lit)
        if not out:
            self._ok = False
            return
        if len(out) == 1:
            self._grow()
            if not self._enqueue(out[0], -1):
                self._ok = False
            return
        self.clauses.append(out)

    def add_gate(self, clauses: tuple[list[int], ...]) -> None:
        """Add a Tseitin gate's clauses, in order, without
        :meth:`add_clause`'s dedup.

        The caller guarantees each clause has at least two literals,
        all distinct and none the negation of another: then
        :meth:`add_clause` would store exactly these lists.  The clause
        budget is checked per clause, as :meth:`add_clause` does.
        """
        if not self._ok:
            return
        store = self.clauses
        for clause in clauses:
            if len(store) >= self.max_clauses:
                raise SolverError("clause budget exceeded")
            store.append(clause)

    # -- assignment ---------------------------------------------------------

    def _lit_value(self, lit: int) -> int:
        value = self.values[lit >> 1]
        if value == UNASSIGNED:
            return UNASSIGNED
        return value ^ (lit & 1)

    def _enqueue(self, lit: int, reason: int) -> bool:
        var = lit >> 1
        desired = (lit & 1) ^ 1
        value = self.values[var]
        if value != UNASSIGNED:
            return value == desired
        self.values[var] = desired
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    # -- propagation ----------------------------------------------------------

    def _propagate(self) -> int:
        """Unit propagation; returns conflicting clause index or -1.

        Literal ``l`` is true when ``values[l >> 1] == (l & 1) ^ 1`` and
        false when ``values[l >> 1] == l & 1`` (UNASSIGNED matches
        neither).
        """
        trail = self.trail
        values = self.values
        levels = self.levels
        reasons = self.reasons
        clauses = self.clauses
        watches = self.watches
        level = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watch_list = watches[false_lit]
            i = 0
            n = len(watch_list)
            while i < n:
                ci = watch_list[i]
                clause = clauses[ci]
                # Ensure false_lit is at position 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                value = values[first >> 1]
                if value == (first & 1) ^ 1:
                    i += 1
                    continue
                # Find a new literal to watch.
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if values[lit >> 1] != lit & 1:
                        clause[1] = lit
                        clause[k] = false_lit
                        watches[lit].append(ci)
                        n -= 1
                        watch_list[i] = watch_list[n]
                        watch_list.pop()
                        break
                else:
                    # Clause is unit or conflicting.
                    if value == first & 1:
                        self.qhead = len(trail)
                        return ci
                    var = first >> 1
                    values[var] = (first & 1) ^ 1
                    levels[var] = level
                    reasons[var] = ci
                    trail.append(first)
                    i += 1
        self.qhead = qhead
        return -1

    # -- conflict analysis --------------------------------------------------------

    def _bump(self, var: int) -> None:
        self.activity[var] += self._var_inc
        if self.activity[var] > 1e100:
            for v in range(self.num_vars):
                self.activity[v] *= 1e-100
            self._var_inc *= 1e-100
        heapq.heappush(self._order, (-self.activity[var], var))

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP learning; returns (learnt clause, backtrack level)."""
        learnt = [0]  # placeholder for the asserting literal
        seen = self._seen
        counter = 0
        lit = -1
        index = len(self.trail) - 1
        clause_idx = conflict
        while True:
            clause = self.clauses[clause_idx]
            start = 1 if lit != -1 else 0
            for q in clause[start:]:
                var = q >> 1
                if not seen[var] and self.levels[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.levels[var] == self._decision_level():
                        counter += 1
                    else:
                        learnt.append(q)
            # Find the next literal to resolve on.
            while True:
                lit = self.trail[index]
                index -= 1
                if seen[lit >> 1]:
                    break
            counter -= 1
            seen[lit >> 1] = False
            if counter == 0:
                break
            clause_idx = self.reasons[lit >> 1]
        learnt[0] = lit ^ 1
        # Every current-level variable was cleared as it was resolved;
        # the lower-level ones are those of learnt[1:].
        for q in learnt[1:]:
            seen[q >> 1] = False
        if len(learnt) == 1:
            return learnt, 0
        # Backtrack to the second-highest level in the clause.
        max_i = 1
        for i in range(2, len(learnt)):
            if self.levels[learnt[i] >> 1] > self.levels[learnt[max_i] >> 1]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self.levels[learnt[1] >> 1]

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self.trail_lim[level]
        for lit in reversed(self.trail[limit:]):
            var = lit >> 1
            self.values[var] = UNASSIGNED
            self.reasons[var] = -1
            heapq.heappush(self._order, (-self.activity[var], var))
        del self.trail[limit:]
        del self.trail_lim[level:]
        self.qhead = len(self.trail)

    # -- decisions --------------------------------------------------------------

    def _decide(self) -> int:
        order = self._order
        while order:
            _, var = heapq.heappop(order)
            if self.values[var] == UNASSIGNED:
                return var * 2 + 1  # default polarity: false
        # Heap exhausted by staleness: fall back to a scan once.
        for var in range(self.num_vars):
            if self.values[var] == UNASSIGNED:
                heapq.heappush(order, (-self.activity[var], var))
                return var * 2 + 1
        return -1

    # -- main loop ------------------------------------------------------------------

    def solve(self, assumptions: list[int] | None = None) -> list[int] | None:
        """Solve; returns a model (var -> 0/1 list) or None if UNSAT.

        Raises :class:`SolverError` when the conflict budget is exhausted
        (counted per call, so a persistent solver gets a fresh budget
        each query).

        The solver may be re-invoked after :meth:`add_clause` calls (e.g.
        blocking clauses for model enumeration); it restarts from the
        root decision level with all learnt clauses retained.

        *assumptions* are literals enqueued as pseudo-decisions (MiniSat
        style: one decision level per assumption, installed before any
        real decision).  A conflict that depends on them yields ``None``
        without poisoning the instance — the next call, under different
        assumptions, sees all learnt clauses and VSIDS activity from
        this one.  On return the solver is backtracked to level 0, so
        clauses may be added and the solver re-queried freely.
        """
        assumptions = list(assumptions or [])
        self._attach()
        self._backtrack(0)
        self.qhead = 0  # re-propagate the root trail over any new clauses
        if not self._ok:
            return None
        conflicts = 0
        restart_i = 1
        restart_budget = 100 * _luby(restart_i)
        since_restart = 0
        if self._propagate() != -1:
            return None
        while True:
            conflict = self._propagate()
            if conflict != -1:
                conflicts += 1
                self.conflicts += 1
                since_restart += 1
                if conflicts > self.max_conflicts:
                    raise SolverError(
                        f"conflict budget exceeded ({self.max_conflicts})"
                    )
                if self._decision_level() == 0:
                    return None
                learnt, back_level = self._analyze(conflict)
                self.learnt += 1
                # Backtracking below the assumption prefix is fine: the
                # decision loop re-installs the missing assumptions.
                self._backtrack(back_level)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], -1):
                        return None
                else:
                    idx = len(self.clauses)
                    if idx >= self.max_clauses:
                        raise SolverError("clause budget exceeded")
                    self.clauses.append(learnt)
                    self.watches[learnt[0]].append(idx)
                    self.watches[learnt[1]].append(idx)
                    self._attached = idx + 1
                    self._enqueue(learnt[0], idx)
                self._var_inc *= 1.05
                continue
            if since_restart >= restart_budget:
                since_restart = 0
                restart_i += 1
                restart_budget = 100 * _luby(restart_i)
                self.restarts += 1
                self._backtrack(0)
                continue
            if self._decision_level() < len(assumptions):
                lit = assumptions[self._decision_level()]
                value = self._lit_value(lit)
                if value == 0:
                    # Assumption contradicts the current (learnt) state:
                    # UNSAT under these assumptions only.
                    self._backtrack(0)
                    return None
                self.trail_lim.append(len(self.trail))
                if value == UNASSIGNED:
                    self._enqueue(lit, -1)
                # Already-true assumptions still get a (dummy) level so
                # that level index == assumption index stays invariant.
                continue
            lit = self._decide()
            if lit == -1:
                model = [1 if v == 1 else 0 for v in self.values]
                self._backtrack(0)
                return model
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, -1)

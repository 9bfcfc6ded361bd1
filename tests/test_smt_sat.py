"""Tests for the CDCL SAT core."""

import itertools
import random

import pytest

from repro.errors import SolverError
from repro.smt import SatSolver


def _lit(var: int, positive: bool) -> int:
    return var * 2 + (0 if positive else 1)


class TestBasics:
    def test_trivial_sat(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([_lit(a, True)])
        model = solver.solve()
        assert model is not None and model[a] == 1

    def test_trivial_unsat(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([_lit(a, True)])
        solver.add_clause([_lit(a, False)])
        assert solver.solve() is None

    def test_implication_chain(self):
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(20)]
        solver.add_clause([_lit(variables[0], True)])
        for a, b in zip(variables, variables[1:]):
            solver.add_clause([_lit(a, False), _lit(b, True)])  # a -> b
        model = solver.solve()
        assert all(model[v] == 1 for v in variables)

    def test_tautology_ignored(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([_lit(a, True), _lit(a, False)])
        assert solver.solve() is not None

    def test_duplicate_literals_deduped(self):
        solver = SatSolver()
        a = solver.new_var()
        b = solver.new_var()
        solver.add_clause([_lit(a, True), _lit(a, True), _lit(b, False)])
        assert solver.solve() is not None

    def test_empty_clause_unsat(self):
        solver = SatSolver()
        solver.new_var()
        solver.add_clause([])
        assert solver.solve() is None


class TestPigeonhole:
    @pytest.mark.parametrize("holes", [2, 3])
    def test_php_unsat(self, holes):
        """n+1 pigeons in n holes: classically UNSAT."""
        pigeons = holes + 1
        solver = SatSolver()
        var = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for p in range(pigeons):
            solver.add_clause([_lit(var[p][h], True) for h in range(holes)])
        for h in range(holes):
            for p1, p2 in itertools.combinations(range(pigeons), 2):
                solver.add_clause([_lit(var[p1][h], False), _lit(var[p2][h], False)])
        assert solver.solve() is None


class TestRandom3Sat:
    def test_models_satisfy_formulas(self):
        rng = random.Random(42)
        for _ in range(30):
            n_vars, n_clauses = 12, 30
            solver = SatSolver()
            variables = [solver.new_var() for _ in range(n_vars)]
            clauses = []
            for _ in range(n_clauses):
                chosen = rng.sample(variables, 3)
                clause = [_lit(v, rng.random() < 0.5) for v in chosen]
                clauses.append(clause)
                solver.add_clause(list(clause))
            model = solver.solve()
            if model is None:
                # Verify UNSAT by brute force (12 vars is cheap).
                for bits in range(1 << n_vars):
                    assignment = [(bits >> i) & 1 for i in range(n_vars)]
                    if all(
                        any(assignment[l >> 1] == (1 - (l & 1)) for l in clause)
                        for clause in clauses
                    ):
                        pytest.fail("solver said UNSAT but a model exists")
            else:
                for clause in clauses:
                    assert any(model[l >> 1] == 1 - (l & 1) for l in clause)


class TestIncremental:
    def test_blocking_clause_enumeration(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([_lit(a, True), _lit(b, True)])
        seen = set()
        while True:
            model = solver.solve()
            if model is None:
                break
            seen.add((model[a], model[b]))
            solver.add_clause([
                _lit(a, model[a] == 0), _lit(b, model[b] == 0)
            ])
        assert seen == {(0, 1), (1, 0), (1, 1)}

    def test_conflict_budget(self):
        rng = random.Random(3)
        solver = SatSolver(max_conflicts=1)
        variables = [solver.new_var() for _ in range(40)]
        for _ in range(180):
            chosen = rng.sample(variables, 3)
            solver.add_clause([_lit(v, rng.random() < 0.5) for v in chosen])
        with pytest.raises(SolverError):
            for _ in range(200):
                if solver.solve() is None:
                    break
                # keep blocking models until the budget trips or UNSAT
                model = solver.solve()
                solver.add_clause([
                    _lit(v, model[v] == 0) for v in variables[:20]
                ])

    def test_clause_budget(self):
        solver = SatSolver(max_clauses=3)
        a = solver.new_var()
        b = solver.new_var()
        solver.add_clause([_lit(a, True), _lit(b, True)])
        solver.add_clause([_lit(a, False), _lit(b, True)])
        solver.add_clause([_lit(a, True), _lit(b, False)])
        with pytest.raises(SolverError):
            solver.add_clause([_lit(a, False), _lit(b, False)])


class TestSearchIsPinned:
    """The CDCL search step for step, recorded before the ingest and
    propagation paths were rewritten for speed: any change to clause
    order, watch order, variable numbering or the decision heap moves
    some solve's counts or model here.

    ``_var_inc`` starts at 1e99, so activities pass 1e100 and rescale
    within the first conflicts: a heap discipline that is only right
    until the first rescale fails too.
    """

    #: seed -> per solve: (verdict, conflicts, decisions, restarts,
    #: learnt, model as hex with variable 0 the lowest bit).
    PINNED = {
        0: [
            ("sat", 29, 41, 0, 29, "4ada0bfdf2eadec"),
            ("unsat", 44, 52, 0, 44, None),
            ("sat", 21, 32, 0, 21, "58e7dbfb05a81e2"),
            ("unsat", 35, 35, 0, 35, None),
            ("sat", 14, 21, 0, 14, "c4a4d5fc8999e5b"),
            ("sat", 4, 8, 0, 4, "4ada0bfdf2eadec"),
        ],
        1: [
            ("sat", 51, 69, 0, 51, "51b52efdafc2042"),
            ("unsat", 2, 1, 0, 2, None),
            ("sat", 14, 29, 0, 14, "40b2cf3fea0ae00"),
            ("sat", 12, 24, 0, 12, "4032cf6fe20ae00"),
            ("unsat", 52, 57, 0, 52, None),
            ("unsat", 25, 28, 0, 25, None),
        ],
        2: [
            ("sat", 145, 182, 1, 145, "61f02b9031b5adb"),
            ("sat", 32, 48, 0, 32, "61f02b9031b5adb"),
            ("unsat", 34, 40, 0, 34, None),
            ("sat", 24, 31, 0, 24, "61f02b9031b5adb"),
            ("unsat", 15, 14, 0, 15, None),
            ("sat", 10, 16, 0, 10, "61f02b9031b5adb"),
        ],
        3: [
            ("unsat", 3, 5, 0, 3, None),
            ("unsat", 6, 5, 0, 6, None),
            ("sat", 29, 43, 0, 29, "a6f1f7c6d057a88"),
            ("sat", 23, 34, 0, 23, "a6f1f7c6d057a88"),
            ("sat", 63, 87, 0, 63, "b671fdc7f055bd8"),
            ("unsat", 12, 11, 0, 12, None),
        ],
    }

    @staticmethod
    def _solves(seed: int):
        """60 variables, 240 random 3-clauses, then six queries of two
        random assumption literals each on the one instance."""
        rng = random.Random(seed)
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(60)]
        for _ in range(240):
            chosen = rng.sample(variables, 3)
            solver.add_clause([_lit(v, rng.random() < 0.5) for v in chosen])
        solver._var_inc = 1e99
        rows = []
        for _ in range(6):
            assumptions = [_lit(v, rng.random() < 0.5)
                           for v in rng.sample(variables, 2)]
            before = (solver.conflicts, solver.decisions, solver.restarts,
                      solver.learnt)
            model = solver.solve(assumptions)
            after = (solver.conflicts, solver.decisions, solver.restarts,
                     solver.learnt)
            bits = (None if model is None else
                    f"{int(''.join(map(str, reversed(model))), 2):x}")
            rows.append(("unsat" if model is None else "sat",
                         *(b - a for a, b in zip(before, after)), bits))
        return rows, solver

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_solves_match_the_recorded_search(self, seed):
        rows, solver = self._solves(seed)
        assert rows == self.PINNED[seed]
        # The preset increment did trigger a rescale.
        assert solver._var_inc < 1e99


class TestSearchAcrossAddedClauses:
    """The search of one instance that gains variables and clauses
    between solves, recorded while every clause was still watched as it
    arrived: clauses added after a solve must join the watch lists in
    the order, and behind the entries, that eager watching gave them.

    Each round is an assumption solve, a blocking clause over a model,
    and a new variable tied in by a binary clause.  ``_var_inc`` starts
    at 1e99, as in :class:`TestSearchIsPinned`.
    """

    #: seed -> per solve: (verdict, conflicts, decisions, restarts,
    #: learnt, model as hex with variable 0 the lowest bit).
    PINNED = {
        0: [
            ("sat", 3, 21, 0, 3, "2a3f70e720222"),
            ("sat", 4, 16, 0, 4, "1c3b6e6020a70"),
            ("sat", 18, 32, 0, 18, "a3c70e770062"),
            ("unsat", 17, 16, 0, 17, None),
            ("unsat", 26, 25, 0, 26, None),
            ("sat", 3, 14, 0, 3, "45c3b6e6020a70"),
            ("sat", 8, 17, 0, 8, "6383b6e6124af2"),
            ("unsat", 19, 21, 0, 19, None),
        ],
        1: [
            ("sat", 14, 22, 0, 14, "26edb86403c88"),
            ("sat", 12, 26, 0, 12, "5ba1e4247600a"),
            ("unsat", 21, 26, 0, 21, None),
            ("sat", 19, 30, 0, 19, "16ba0e42a4600a"),
            ("sat", 3, 8, 0, 3, "f6edb86403c88"),
            ("sat", 8, 18, 0, 8, "16aa54c8484022"),
            ("unsat", 4, 3, 0, 4, None),
            ("sat", 2, 7, 0, 2, "af6edb86403c88"),
        ],
        3: [
            ("unsat", 28, 27, 0, 28, None),
            ("sat", 25, 43, 0, 25, "14eec4d965e08"),
            ("sat", 4, 14, 0, 4, "34eb84e14db68"),
            ("sat", 6, 14, 0, 6, "35ef84c44db68"),
            ("sat", 2, 15, 0, 2, "54eec4d965e08"),
            ("sat", 14, 25, 0, 14, "434ebc4e145f68"),
            ("sat", 6, 14, 0, 6, "b0e4c5f4c570a"),
            ("sat", 1, 16, 0, 1, "654eec4d965e08"),
        ],
        7: [
            ("sat", 4, 15, 0, 4, "22820ef499788"),
            ("sat", 9, 20, 0, 9, "22810e7499798"),
            ("unsat", 30, 32, 0, 30, None),
            ("unsat", 15, 14, 0, 15, None),
            ("sat", 5, 19, 0, 5, "2a24b1e099d3de"),
            ("sat", 4, 16, 0, 4, "3a24b1e099d3de"),
            ("sat", 3, 16, 0, 3, "7a24b1e099d3de"),
            ("sat", 1, 12, 0, 1, "fa24b1e099d3de"),
        ],
    }

    @staticmethod
    def _rounds(seed: int):
        """50 variables and 200 random 3-clauses, then eight rounds."""
        rng = random.Random(seed)
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(50)]
        for _ in range(200):
            chosen = rng.sample(variables, 3)
            solver.add_clause([_lit(v, rng.random() < 0.5) for v in chosen])
        solver._var_inc = 1e99
        rows = []
        for _ in range(8):
            assumptions = [_lit(v, rng.random() < 0.5)
                           for v in rng.sample(variables, 2)]
            before = (solver.conflicts, solver.decisions, solver.restarts,
                      solver.learnt)
            model = solver.solve(assumptions)
            after = (solver.conflicts, solver.decisions, solver.restarts,
                     solver.learnt)
            bits = (None if model is None else
                    f"{int(''.join(map(str, reversed(model))), 2):x}")
            rows.append(("unsat" if model is None else "sat",
                         *(b - a for a, b in zip(before, after)), bits))
            if model is not None:
                solver.add_clause([_lit(v, model[v] == 0) for v in variables])
            new = solver.new_var()
            solver.add_clause([_lit(new, rng.random() < 0.5),
                               _lit(rng.choice(variables), rng.random() < 0.5)])
            variables.append(new)
        return rows, solver

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_solves_match_the_recorded_search(self, seed):
        rows, solver = self._rounds(seed)
        assert rows == self.PINNED[seed]
        assert solver._var_inc < 1e99


class TestLazyArrays:
    def test_unit_clause_right_after_new_var(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([_lit(a, False)])
        b = solver.new_var()
        solver.add_clause([_lit(a, True), _lit(b, True)])
        model = solver.solve()
        assert model == [0, 1]

    def test_model_covers_variables_opened_between_solves(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([_lit(a, True)])
        assert solver.solve() == [1]
        b, c = solver.new_var(), solver.new_var()
        solver.add_clause([_lit(b, False), _lit(c, False)])
        solver.add_clause([_lit(b, True)])
        model = solver.solve()
        assert len(model) == solver.num_vars == 3
        assert model == [1, 1, 0]

"""Tests for the solver facade, interval presolve and FP search."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.smt import (
    IncrementalSolver,
    Solver,
    eval_expr,
    mk_binop,
    mk_bool_not,
    mk_bool_or,
    mk_cmp,
    mk_const,
    mk_eq,
    mk_fp,
    mk_var,
    mk_zext,
    search_fp_model,
    solve,
    unsat_core,
)
from repro.smt.intervals import presolve_unsat
from repro.symex.cache import PathSolver
from repro.symex.policy import SymexPolicy


class TestSolverFacade:
    def test_empty_is_sat(self):
        assert Solver().check().sat

    def test_const_false_short_circuit(self):
        solver = Solver()
        solver.add(mk_const(0, 1))
        result = solver.check()
        assert not result.sat
        # No SAT machinery should have been needed for this.

    def test_node_budget(self):
        x = mk_var("sf_n", 64)
        node = x
        for i in range(200):
            node = mk_binop("mul", node, mk_var(f"sf_n{i}", 64))
        solver = Solver(max_nodes=50)
        solver.add(mk_eq(node, mk_const(1, 64)))
        with pytest.raises(SolverError, match="too large"):
            solver.check()


@pytest.fixture
def low_recursion_limit():
    """The recursion limit lowered to 100 frames above the caller's."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    yield
    sys.setrecursionlimit(old)


class TestDeepFormulas:
    """Encoding is iterative: a formula several times deeper than the
    recursion limit reaches the SAT core through every entry point, so
    a recursive encoder fails here instead of in a cell."""

    def test_every_entry_point_encodes_a_deep_chain(self, low_recursion_limit):
        chain = mk_var("dc0", 8)
        for i in range(1, 400):
            chain = mk_binop("xor", chain, mk_var(f"dc{i}", 8))
        goal = mk_eq(chain, mk_const(5, 8))
        clash = mk_eq(chain, mk_const(6, 8))

        solver = Solver()
        solver.add(goal)
        result = solver.check()
        assert result.sat and eval_expr(chain, result.model) == 5
        prefix = IncrementalSolver()
        prefix.assert_expr(goal)
        assert prefix.check().sat
        assert not prefix.check(clash).sat
        assert IncrementalSolver().check(goal).sat
        assert sorted(unsat_core([("goal", goal), ("clash", clash)])) == \
            ["clash", "goal"]
        paths = PathSolver(SymexPolicy(name="deep", with_libs=True))
        assert paths.enumerate_values([goal], chain, limit=4) == [5]


class TestIntervalPresolve:
    def test_digit_bounds_unsat(self):
        b = mk_var("ip_b", 8)
        constraints = [
            mk_cmp("ule", mk_const(48, 8), b),
            mk_cmp("ule", b, mk_const(57, 8)),
            mk_cmp("ult", b, mk_const(40, 8)),
        ]
        assert presolve_unsat(constraints)
        assert not solve(constraints).sat

    def test_negated_range_unsat(self):
        v = mk_var("ip_v", 8)
        x = mk_binop("sub", mk_const(0, 64),
                     mk_binop("mul", mk_zext(v, 64), mk_const(3, 64)))
        constraints = [
            mk_cmp("slt", mk_const(9, 64), x),  # 9 < -(3v): needs v "negative"
            mk_cmp("ule", mk_const(1, 8), v),
        ]
        assert presolve_unsat(constraints)

    def test_sat_sets_never_reported_unsat(self):
        v = mk_var("ip_s", 8)
        constraints = [
            mk_cmp("ule", mk_const(48, 8), v),
            mk_cmp("ule", v, mk_const(57, 8)),
            mk_eq(mk_zext(v, 64), mk_const(50, 64)),
        ]
        assert not presolve_unsat(constraints)
        assert solve(constraints).sat

    @given(c1=st.integers(0, 255), c2=st.integers(0, 255),
           pick=st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_soundness_vs_sat(self, c1, c2, pick):
        v = mk_var("ip_f", 8)
        constraints = [
            mk_cmp("ule", mk_const(min(c1, c2), 8), v),
            mk_cmp("ule", v, mk_const(max(c1, c2), 8)),
            mk_eq(v, mk_const(pick, 8)),
        ]
        if presolve_unsat(constraints):
            assert not solve(constraints).sat

    def test_wrapping_interval_widens_to_top(self):
        # v * big could wrap; the analysis must not conclude anything.
        v = mk_var("ip_w", 64)
        node = mk_binop("mul", v, mk_const(2**60, 64))
        constraints = [mk_cmp("slt", mk_const(0, 64), node)]
        assert not presolve_unsat(constraints)

    def test_or_tri_state(self):
        v = mk_var("ip_o", 8)
        lhs = mk_cmp("ult", v, mk_const(0, 8))       # definitely false
        rhs = mk_cmp("ule", mk_const(0, 8), v)       # definitely true
        assert not presolve_unsat([mk_bool_or(lhs, rhs)])
        assert presolve_unsat([lhs])


class TestFpSearch:
    def test_finds_the_papers_float_edge(self):
        x = mk_var("fs_x", 32)
        base = mk_const(0x44800000, 32)  # 1024.0f
        constraints = [
            mk_fp("feq32", mk_fp("fadd32", base, x), base),
            mk_fp("flt32", mk_const(0, 32), x),
        ]
        model = search_fp_model(constraints, {"fs_x": 32})
        assert model is not None
        assert all(eval_expr(c, model) for c in constraints)

    def test_unsat_returns_none_within_budget(self):
        x = mk_var("fs_u", 32)
        constraints = [
            mk_fp("flt32", x, mk_const(0, 32)),              # x < 0
            mk_fp("flt32", mk_const(0, 32), x),              # x > 0
        ]
        assert search_fp_model(constraints, {"fs_u": 32}, budget=300) is None

    def test_candidates_tried_first(self):
        x = mk_var("fs_c", 64)
        constraints = [mk_eq(x, mk_const(123456789, 64))]
        model = search_fp_model(constraints, {"fs_c": 64},
                                candidates=[{"fs_c": 123456789}], budget=10)
        assert model == {"fs_c": 123456789}

    def test_deterministic(self):
        x = mk_var("fs_d", 32)
        constraints = [mk_fp("flt32", mk_const(0, 32), x)]
        a = search_fp_model(constraints, {"fs_d": 32})
        b = search_fp_model(constraints, {"fs_d": 32})
        assert a == b

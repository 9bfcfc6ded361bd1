"""Differential tests: bit-blasted solving vs concrete evaluation."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.smt import (
    BitBlaster,
    SatSolver,
    Solver,
    eval_expr,
    mk_binop,
    mk_bool_not,
    mk_cmp,
    mk_concat,
    mk_const,
    mk_eq,
    mk_extract,
    mk_fp,
    mk_ite,
    mk_sext,
    mk_var,
    mk_zext,
    solve,
)

_OPS = ["add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr"]


def _fresh(prefix):
    _fresh.n += 1
    return f"{prefix}{_fresh.n}"


_fresh.n = 0


class TestDifferential:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_trees_solve_to_consistent_models(self, data):
        width = data.draw(st.sampled_from([4, 8, 16, 32]))
        names = [_fresh("dv") for _ in range(2)]
        variables = {n: mk_var(n, width) for n in names}

        def tree(depth):
            if depth == 0 or data.draw(st.booleans()):
                if data.draw(st.booleans()):
                    return variables[data.draw(st.sampled_from(names))]
                return mk_const(data.draw(st.integers(0, 2**width - 1)), width)
            op = data.draw(st.sampled_from(_OPS))
            return mk_binop(op, tree(depth - 1), tree(depth - 1))

        expr = tree(3)
        target_model = {
            n: data.draw(st.integers(0, 2**width - 1)) for n in names
        }
        target = eval_expr(expr, target_model)
        result = solve([mk_eq(expr, mk_const(target, width))])
        assert result.sat
        assert eval_expr(expr, result.model) == target

    @given(a=st.integers(0, 2**16 - 1), b=st.integers(0, 2**16 - 1),
           cc=st.sampled_from(["eq", "ult", "ule", "slt", "sle"]))
    @settings(max_examples=40, deadline=None)
    def test_comparison_circuits(self, a, b, cc):
        x, y = mk_var(_fresh("ca"), 16), mk_var(_fresh("cb"), 16)
        node = mk_cmp(cc, x, y)
        expected = eval_expr(node, {x.name: a, y.name: b})
        constraints = [mk_eq(x, mk_const(a, 16)), mk_eq(y, mk_const(b, 16)),
                       node if expected else mk_bool_not(node)]
        assert solve(constraints).sat
        constraints[-1] = mk_bool_not(node) if expected else node
        assert not solve(constraints).sat


class TestDivMod:
    @pytest.mark.parametrize("divisor", [1, 2, 3, 7, 10, 100, 255])
    def test_udiv_urem_by_const(self, divisor):
        x = mk_var(_fresh("dm"), 16)
        for target_x in (0, 5, 999, 65535):
            constraints = [
                mk_eq(x, mk_const(target_x, 16)),
                mk_eq(mk_binop("udiv", x, mk_const(divisor, 16)),
                      mk_const(target_x // divisor, 16)),
                mk_eq(mk_binop("urem", x, mk_const(divisor, 16)),
                      mk_const(target_x % divisor, 16)),
            ]
            assert solve(constraints).sat

    def test_symbolic_divisor_rejected(self):
        x, y = mk_var(_fresh("sd"), 8), mk_var(_fresh("sd"), 8)
        with pytest.raises(SolverError, match="divisor"):
            solve([mk_eq(mk_binop("udiv", x, y), mk_const(1, 8))])

    def test_fp_rejected_by_blaster(self):
        x = mk_var(_fresh("fpr"), 32)
        with pytest.raises(SolverError, match="fp theory"):
            solve([mk_fp("flt32", x, mk_const(0, 32))])


class TestPlumbing:
    def test_extract_concat_solving(self):
        x = mk_var(_fresh("pc"), 16)
        high = mk_extract(x, 15, 8)
        low = mk_extract(x, 7, 0)
        swapped = mk_concat(low, high)
        result = solve([mk_eq(swapped, mk_const(0xABCD, 16))])
        assert result.sat
        assert result.model[x.name] == 0xCDAB

    def test_sext_solving(self):
        x = mk_var(_fresh("sx"), 8)
        wide = mk_sext(x, 16)
        result = solve([mk_eq(wide, mk_const(0xFF80, 16))])
        assert result.sat and result.model[x.name] == 0x80

    def test_ite_solving(self):
        x = mk_var(_fresh("it"), 8)
        node = mk_ite(mk_cmp("ult", x, mk_const(10, 8)),
                      mk_const(1, 8), mk_const(2, 8))
        result = solve([mk_eq(node, mk_const(2, 8))])
        assert result.sat and result.model[x.name] >= 10

    def test_symbolic_shift_amount(self):
        x = mk_var(_fresh("sh"), 16)
        node = mk_binop("shl", mk_const(1, 16), x)
        result = solve([mk_eq(node, mk_const(256, 16))])
        assert result.sat
        assert result.model[x.name] & 15 == 8

    @given(a=st.integers(0, 2**16 - 1), s=st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_shift_semantics_match_eval(self, a, s):
        """ISA mod-width semantics hold through the solver too."""
        x = mk_var(_fresh("sm"), 16)
        amt = mk_var(_fresh("sm"), 16)
        for op in ("shl", "lshr", "ashr"):
            node = mk_binop(op, x, amt)
            expected = eval_expr(node, {x.name: a, amt.name: s})
            constraints = [
                mk_eq(x, mk_const(a, 16)),
                mk_eq(amt, mk_const(s, 16)),
                mk_eq(node, mk_const(expected, 16)),
            ]
            assert solve(constraints).sat, (op, a, s)


class TestModelExtraction:
    def test_unconstrained_vars_default(self):
        x = mk_var(_fresh("uv"), 8)
        y = mk_var(_fresh("uv"), 8)
        result = solve([mk_eq(x, mk_const(3, 8)), mk_eq(mk_binop("add", y, mk_const(0, 8)), y)])
        assert result.model[x.name] == 3

    def test_incremental_enumeration_via_blocking(self):
        solver = SatSolver()
        blaster = BitBlaster(solver)
        x = mk_var(_fresh("en"), 4)
        blaster.assert_true(mk_cmp("ult", x, mk_const(3, 4)))
        bits = blaster.blast(x)
        seen = set()
        while True:
            model = solver.solve()
            if model is None:
                break
            value = sum(((model[l >> 1] ^ (l & 1)) & 1) << i
                        for i, l in enumerate(bits))
            seen.add(value)
            solver.add_clause([l ^ ((value >> i) & 1)
                               for i, l in enumerate(bits)])
        assert seen == {0, 1, 2}


def _cnf_digest(sat: SatSolver) -> str:
    """Digest of a SAT instance's clause list, in order, and the watch
    lists :meth:`SatSolver.solve` starts from."""
    sat._attach()
    doc = json.dumps([sat.num_vars, sat.clauses, sat.watches],
                     separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _pinned_cases():
    x, y = mk_var("pin_x", 8), mk_var("pin_y", 8)
    c = mk_var("pin_c", 1)

    def k(value):
        return mk_const(value, 8)

    return {
        "add": mk_binop("add", x, y),
        "sub": mk_binop("sub", x, y),
        "mul": mk_binop("mul", x, y),
        "mul_const": mk_binop("mul", x, k(10)),
        # 0xFE has seven set bits, its complement 2 has one: the
        # blaster multiplies by 2 and negates.
        "mul_const_complement": mk_binop("mul", x, k(0xFE)),
        "udiv_const": mk_binop("udiv", x, k(7)),
        "urem_const": mk_binop("urem", x, k(10)),
        "ult": mk_cmp("ult", x, y),
        "slt": mk_cmp("slt", x, y),
        "ule": mk_cmp("ule", x, y),
        "eq": mk_eq(x, y),
        "shl": mk_binop("shl", x, y),
        "ashr": mk_binop("ashr", x, y),
        "ite": mk_ite(c, x, y),
    }


class TestEncodingIsPinned:
    """The exact CNF each circuit produces, recorded before gate clauses
    bypassed ``add_clause``'s dedup: the same clauses in the same order
    over the same variables, so the search over them is the same too.
    """

    #: case -> (gates, digest of clauses + watch lists).
    PINNED = {
        "add": (61, "927e57f661cd5264"),
        "ashr": (37, "753685a3a70f0ece"),
        "eq": (31, "ba733bd5b0eeee62"),
        "ite": (25, "c566d4a43b7012a1"),
        "mul": (199, "aaeb7bb47d1343f8"),
        "mul_const": (35, "636bec3ad737f5ec"),
        "mul_const_complement": (20, "8cf53901442362d2"),
        "shl": (40, "7893d087de2e1509"),
        "slt": (46, "7e0ff130599e09b4"),
        "sub": (62, "941136a0836ebfc9"),
        "udiv_const": (189, "fe9a982a626fcc1b"),
        "ule": (46, "ebb3bdfb2d145fdf"),
        "ult": (46, "bca6450b37da4377"),
        "urem_const": (135, "0c9048ef0dbc6a37"),
    }

    @pytest.mark.parametrize("case", sorted(_pinned_cases()))
    def test_circuit_cnf_is_unchanged(self, case):
        sat = SatSolver()
        blaster = BitBlaster(sat)
        blaster.blast(_pinned_cases()[case])
        assert (blaster.gates, _cnf_digest(sat)) == self.PINNED[case]

    # Variables: 0 is the constant, then sel, other, out.
    SEL, OTHER, OUT = 2, 4, 6

    @pytest.mark.parametrize("args, clauses", [
        # then == sel: a duplicate literal goes, a tautology is dropped.
        ((SEL, SEL, OTHER), [[3, 6], [2, 5, 6], [2, 4, 7]]),
        ((SEL, SEL ^ 1, OTHER), [[3, 7], [2, 5, 6], [2, 4, 7]]),
        ((SEL, OTHER, SEL), [[3, 5, 6], [3, 4, 7], [2, 7]]),
        ((SEL, OTHER, SEL ^ 1), [[3, 5, 6], [3, 4, 7], [2, 6]]),
    ])
    def test_mux_over_its_own_selector(self, args, clauses):
        sat = SatSolver()
        blaster = BitBlaster(sat)
        blaster._fresh(), blaster._fresh()
        out = blaster._gate_mux(*args)
        assert out == self.OUT
        assert sat.clauses == clauses


class TestBudgetAndState:
    def test_gate_crossing_the_clause_budget_raises_at_its_limit(self):
        sat = SatSolver(max_clauses=5)
        blaster = BitBlaster(sat)
        a, b, c = (blaster._fresh() for _ in range(3))
        blaster._gate_and(a, b)
        with pytest.raises(SolverError, match="clause budget exceeded"):
            blaster._gate_xor(b, c)
        # The and gate's three clauses and the xor's first two.
        assert sat.clauses == [[2, 9], [4, 9], [3, 5, 8],
                               [5, 7, 11], [4, 6, 11]]

    def test_budget_failure_builds_no_search_structures(self):
        sat = SatSolver(max_clauses=3000)
        blaster = BitBlaster(sat)
        x, y = mk_var("budget_x", 64), mk_var("budget_y", 64)
        with pytest.raises(SolverError, match="clause budget exceeded"):
            blaster.blast(mk_binop("mul", x, y))
        assert (blaster.gates, len(sat.clauses)) == (1012, 3000)
        # Watch lists and the decision heap are built by solve() only.
        assert sat.watches == [] and sat._order == []

    def test_gates_add_nothing_after_an_empty_clause(self):
        sat = SatSolver()
        blaster = BitBlaster(sat)
        a, b = blaster._fresh(), blaster._fresh()
        sat.add_clause([])
        blaster._gate_and(a, b)
        blaster._gate_xor(a, b)
        blaster._gate_mux(a, b, a ^ 1)
        assert sat.clauses == []
        assert sat.solve() is None

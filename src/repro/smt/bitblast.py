"""Bit-blasting: bitvector expressions -> CNF over a :class:`SatSolver`.

Every expression node maps to a little-endian list of SAT literals.
Constants map to the two reserved constant literals, so no clauses are
spent on them.  Floating-point nodes are *not* blastable: encountering
one raises :class:`SolverError` ("fp theory not supported"), which the
tool profiles surface as the paper's Es3 constraint-modeling error.

Division and remainder are supported for constant divisors via the
defining identity ``a == q*c + r  &&  r < c`` computed in extended
width (no wraparound), matching how the bombs use them (``v / 100``,
``v % 10``).
"""

from __future__ import annotations

from ..errors import SolverError
from .expr import Expr, FP_OPS
from .sat import SatSolver


class BitBlaster:
    """Tseitin-encodes expressions into a :class:`SatSolver` instance."""

    def __init__(self, solver: SatSolver):
        self.solver = solver
        self._cache: dict[int, list[int]] = {}
        self.var_bits: dict[str, list[int]] = {}
        #: Tseitin gates introduced (fresh SAT variables) — the
        #: bit-blast size metric the observability layer reports.
        self.gates = 0
        # Reserved constant: variable 0 is forced true.
        const_var = solver.new_var()
        self.TRUE_LIT = const_var * 2
        self.FALSE_LIT = const_var * 2 + 1
        solver.add_clause([self.TRUE_LIT])

    # -- gate helpers -----------------------------------------------------

    def _fresh(self) -> int:
        self.gates += 1
        return self.solver.new_var() * 2

    def _gate_and(self, a: int, b: int) -> int:
        if a == self.FALSE_LIT or b == self.FALSE_LIT:
            return self.FALSE_LIT
        if a == self.TRUE_LIT:
            return b
        if b == self.TRUE_LIT:
            return a
        if a == b:
            return a
        nb = b ^ 1
        if a == nb:
            return self.FALSE_LIT
        out = self._fresh()
        nout = out ^ 1
        self.solver.add_gate(([a, nout], [b, nout], [a ^ 1, nb, out]))
        return out

    def _gate_or(self, a: int, b: int) -> int:
        return self._gate_and(a ^ 1, b ^ 1) ^ 1

    def _gate_xor(self, a: int, b: int) -> int:
        if a == self.FALSE_LIT:
            return b
        if b == self.FALSE_LIT:
            return a
        if a == self.TRUE_LIT:
            return b ^ 1
        if b == self.TRUE_LIT:
            return a ^ 1
        if a == b:
            return self.FALSE_LIT
        nb = b ^ 1
        if a == nb:
            return self.TRUE_LIT
        out = self._fresh()
        na, nout = a ^ 1, out ^ 1
        self.solver.add_gate(([na, nb, nout], [a, b, nout],
                              [na, b, out], [a, nb, out]))
        return out

    def _gate_mux(self, sel: int, then: int, orelse: int) -> int:
        """out = sel ? then : orelse."""
        if sel == self.TRUE_LIT:
            return then
        if sel == self.FALSE_LIT:
            return orelse
        if then == orelse:
            return then
        out = self._fresh()
        nsel, nout = sel ^ 1, out ^ 1
        clauses = ([nsel, then ^ 1, out], [nsel, then, nout],
                   [sel, orelse ^ 1, out], [sel, orelse, nout])
        if then >> 1 != sel >> 1 and orelse >> 1 != sel >> 1:
            self.solver.add_gate(clauses)
        else:
            # then or orelse is sel or its negation: add_clause's dedup
            # and tautology drop change these clauses.
            for clause in clauses:
                self.solver.add_clause(clause)
        return out

    def _full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        s = self._gate_xor(self._gate_xor(a, b), cin)
        cout = self._gate_or(self._gate_and(a, b),
                             self._gate_and(cin, self._gate_xor(a, b)))
        return s, cout

    # -- word-level circuits ---------------------------------------------------

    def _add_bits(self, a: list[int], b: list[int], cin: int | None = None) -> list[int]:
        carry = cin if cin is not None else self.FALSE_LIT
        out = []
        for ai, bi in zip(a, b):
            s, carry = self._full_adder(ai, bi, carry)
            out.append(s)
        return out

    def _neg_bits(self, a: list[int]) -> list[int]:
        inv = [bit ^ 1 for bit in a]
        one = [self.TRUE_LIT] + [self.FALSE_LIT] * (len(a) - 1)
        return self._add_bits(inv, one)

    def _const_bits_value(self, bits: list[int]) -> int | None:
        """Recover the constant a literal vector denotes, or None."""
        value = 0
        for i, bit in enumerate(bits):
            if bit == self.TRUE_LIT:
                value |= 1 << i
            elif bit != self.FALSE_LIT:
                return None
        return value

    def _mul_bits(self, a: list[int], b: list[int]) -> list[int]:
        width = len(a)
        const_a = self._const_bits_value(a)
        if const_a is not None and self._const_bits_value(b) is None:
            a, b = b, a  # iterate over the constant's bits below
        const_b = self._const_bits_value(b)
        if const_b is not None:
            # x * c == -(x * (2^w - c)) mod 2^w: multiplying by the
            # two's complement and negating wins when it has fewer set
            # bits (e.g. c == -1 becomes a single negation instead of
            # width partial-product adder rows).
            comp = ((1 << width) - const_b) & ((1 << width) - 1)
            if const_b and comp.bit_count() + 1 < const_b.bit_count():
                comp_bits = [self.TRUE_LIT if (comp >> i) & 1 else self.FALSE_LIT
                             for i in range(width)]
                return self._neg_bits(self._mul_bits(a, comp_bits))
            b = [self.TRUE_LIT if (const_b >> i) & 1 else self.FALSE_LIT
                 for i in range(width)]
        acc = [self.FALSE_LIT] * width
        for i, bi in enumerate(b):
            if bi == self.FALSE_LIT:
                continue
            partial = [self.FALSE_LIT] * i + [
                self._gate_and(bi, a[j]) for j in range(width - i)
            ]
            acc = self._add_bits(acc, partial)
        return acc

    def _ult_bits(self, a: list[int], b: list[int]) -> int:
        """a < b unsigned: MSB-down comparator."""
        less = self.FALSE_LIT
        for ai, bi in zip(a, b):  # LSB to MSB, rebuild each step
            bit_lt = self._gate_and(ai ^ 1, bi)
            bit_eq = self._gate_xor(ai, bi) ^ 1
            less = self._gate_or(bit_lt, self._gate_and(bit_eq, less))
        return less

    def _eq_bits(self, a: list[int], b: list[int]) -> int:
        acc = self.TRUE_LIT
        for ai, bi in zip(a, b):
            acc = self._gate_and(acc, self._gate_xor(ai, bi) ^ 1)
        return acc

    def _shift_bits(self, a: list[int], amount: list[int], kind: str) -> list[int]:
        """Barrel shifter: kind in {shl, lshr, ashr}.

        The amount is taken modulo the width (ISA semantics): only the
        low log2(width) amount bits select shift stages.
        """
        width = len(a)
        fill = a[-1] if kind == "ashr" else self.FALSE_LIT
        bits = list(a)
        max_stages = max(1, (width - 1).bit_length())
        for stage in range(max_stages):
            sel = amount[stage] if stage < len(amount) else self.FALSE_LIT
            shift = 1 << stage
            new_bits = []
            for i in range(width):
                if kind == "shl":
                    src = bits[i - shift] if i >= shift else self.FALSE_LIT
                else:
                    src = bits[i + shift] if i + shift < width else fill
                new_bits.append(self._gate_mux(sel, src, bits[i]))
            bits = new_bits
        return bits

    def _divmod_const(self, a: list[int], c: int, width: int) -> tuple[list[int], list[int]]:
        """Return (quotient, remainder) bits for a / constant c (c > 0)."""
        ext = width + c.bit_length() + 1
        q = [self._fresh() for _ in range(width)]
        r = [self._fresh() for _ in range(width)]
        zeros = [self.FALSE_LIT] * (ext - width)
        a_ext = a + zeros
        q_ext = q + zeros
        r_ext = r + zeros
        # q*c via shift-add over the set bits of c.
        acc = [self.FALSE_LIT] * ext
        bit = 0
        cc = c
        while cc:
            if cc & 1:
                shifted = [self.FALSE_LIT] * bit + q_ext[: ext - bit]
                acc = self._add_bits(acc, shifted)
            cc >>= 1
            bit += 1
        total = self._add_bits(acc, r_ext)
        self.solver.add_clause([self._eq_bits(total, a_ext)])
        c_bits = [
            self.TRUE_LIT if (c >> i) & 1 else self.FALSE_LIT for i in range(ext)
        ]
        self.solver.add_clause([self._ult_bits(r_ext, c_bits)])
        return q, r

    # -- main dispatch -------------------------------------------------------------

    def blast(self, expr: Expr) -> list[int]:
        """Return the literal vector (LSB first) for *expr*.

        Iterative post-order: trace-length expression DAGs exceed the
        recursion limit.
        """
        cache = self._cache
        stack = [expr]
        while stack:
            node = stack[-1]
            if id(node) in cache:
                stack.pop()
                continue
            pending = [a for a in node.args if id(a) not in cache]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            bits = self._blast(node)
            assert len(bits) == node.width, (node.op, node.width, len(bits))
            cache[id(node)] = bits
        return cache[id(expr)]

    def _const_bits(self, value: int, width: int) -> list[int]:
        return [
            self.TRUE_LIT if (value >> i) & 1 else self.FALSE_LIT
            for i in range(width)
        ]

    def _blast(self, expr: Expr) -> list[int]:
        op = expr.op
        if op == "const":
            return self._const_bits(expr.value, expr.width)
        if op == "var":
            bits = self.var_bits.get(expr.name)
            if bits is None:
                bits = [self._fresh() for _ in range(expr.width)]
                self.var_bits[expr.name] = bits
            return bits
        if op in FP_OPS:
            raise SolverError(f"fp theory not supported by bit-blasting ({op})")
        # All children are already in the cache (post-order walk).
        args = [self._cache[id(a)] for a in expr.args]
        if op == "add":
            return self._add_bits(args[0], args[1])
        if op == "sub":
            return self._add_bits(args[0], [b ^ 1 for b in args[1]], self.TRUE_LIT)
        if op == "mul":
            return self._mul_bits(args[0], args[1])
        if op in ("udiv", "urem"):
            divisor = expr.args[1]
            if not divisor.is_const or divisor.value == 0:
                raise SolverError(f"{op}: non-constant or zero divisor unsupported")
            q, r = self._divmod_const(args[0], divisor.value, expr.width)
            return q if op == "udiv" else r
        if op == "and":
            return [self._gate_and(a, b) for a, b in zip(*args)]
        if op == "or":
            return [self._gate_or(a, b) for a, b in zip(*args)]
        if op == "xor":
            return [self._gate_xor(a, b) for a, b in zip(*args)]
        if op == "bvnot":
            return [a ^ 1 for a in args[0]]
        if op in ("shl", "lshr", "ashr"):
            amount = expr.args[1]
            if amount.is_const:
                return self._const_shift(args[0], amount.value, op)
            return self._shift_bits(args[0], args[1], op)
        if op == "eq":
            return [self._eq_bits(args[0], args[1])]
        if op == "ult":
            return [self._ult_bits(args[0], args[1])]
        if op == "ule":
            return [self._ult_bits(args[1], args[0]) ^ 1]
        if op in ("slt", "sle"):
            a = list(args[0])
            b = list(args[1])
            a[-1] ^= 1  # flip sign bits: signed compare == unsigned compare
            b[-1] ^= 1
            if op == "slt":
                return [self._ult_bits(a, b)]
            return [self._ult_bits(b, a) ^ 1]
        if op == "ite":
            sel = args[0][0]
            return [
                self._gate_mux(sel, t, e) for t, e in zip(args[1], args[2])
            ]
        if op == "extract":
            hi, lo = expr.value >> 16, expr.value & 0xFFFF
            return args[0][lo : hi + 1]
        if op == "concat":
            return args[1] + args[0]
        if op == "zext":
            return args[0] + [self.FALSE_LIT] * (expr.width - expr.args[0].width)
        if op == "sext":
            return args[0] + [args[0][-1]] * (expr.width - expr.args[0].width)
        raise SolverError(f"bitblast: unknown op {op}")

    def _const_shift(self, a: list[int], amount: int, kind: str) -> list[int]:
        width = len(a)
        amount = amount & (width - 1) if width & (width - 1) == 0 else amount % width
        if kind == "shl":
            return [self.FALSE_LIT] * amount + a[: width - amount]
        fill = a[-1] if kind == "ashr" else self.FALSE_LIT
        return a[amount:] + [fill] * amount

    # -- top level ------------------------------------------------------------------

    def assert_true(self, expr: Expr, activation: int | None = None) -> None:
        """Assert a width-1 expression.

        With *activation* (a SAT literal), the assertion is guarded:
        it only holds while the literal is assumed, the MiniSat idiom
        behind both incremental queries and unsat-core extraction.
        """
        if expr.width != 1:
            raise SolverError("assertions must be width 1")
        lit = self.blast(expr)[0]
        if activation is None:
            self.solver.add_clause([lit])
        else:
            self.solver.add_clause([activation ^ 1, lit])

    def extract_model(self, sat_model: list[int]) -> dict[str, int]:
        """Read back variable values from a SAT model."""
        out: dict[str, int] = {}
        for name, bits in self.var_bits.items():
            value = 0
            for i, lit in enumerate(bits):
                var = lit >> 1
                bit = sat_model[var] ^ (lit & 1)
                value |= (bit & 1) << i
            out[name] = value
        return out

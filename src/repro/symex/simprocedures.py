"""Simprocedures: Python summaries of library functions (no-lib mode).

Mirrors angr's SimProcedure catalogue circa 2016:

* faithful *symbolic* summaries for input parsing (``atoi``, ``strlen``)
  — these are why angr solves the argv-length bomb;
* allocation and thread/process stubs;
* unconstrained-return summaries for computational externals (``sin``,
  ``pow``, ``rand``, crypto) — the source of the paper's wrong-value
  failures (Es2) and of the ``neg_square`` false positive.

Each simprocedure receives ``(engine, state, args)`` where *args* are
the argument-register expressions, and returns the result expression
(or None for void).
"""

from __future__ import annotations

from ..errors import DiagnosticKind
from ..smt import Expr, mk_binop, mk_bool_and, mk_cmp, mk_const, mk_eq, mk_ite, mk_neg, mk_var, mk_zext


def _is_digit(byte: Expr) -> Expr:
    return mk_bool_and(
        mk_cmp("ule", mk_const(ord("0"), 8), byte),
        mk_cmp("ule", byte, mk_const(ord("9"), 8)),
    )


def sym_atoi(bytes_exprs: list[Expr]) -> Expr:
    """Fully symbolic atoi over a byte vector (maximal digit prefix)."""
    n = len(bytes_exprs)

    def parse_from(i: int, acc: Expr) -> Expr:
        if i >= n:
            return acc
        byte = bytes_exprs[i]
        digit = mk_binop("sub", mk_zext(byte, 64), mk_const(ord("0"), 64))
        new_acc = mk_binop("add", mk_binop("mul", acc, mk_const(10, 64)), digit)
        return mk_ite(_is_digit(byte), parse_from(i + 1, new_acc), acc)

    zero = mk_const(0, 64)
    positive = parse_from(0, zero)
    negative_body = parse_from(1, zero)
    is_neg = mk_eq(bytes_exprs[0], mk_const(ord("-"), 8)) if bytes_exprs else None
    if is_neg is None:
        return zero
    return mk_ite(is_neg, mk_neg(negative_body), positive)


def sym_strlen(bytes_exprs: list[Expr]) -> Expr:
    """Fully symbolic strlen over a byte vector (NUL-terminated)."""
    n = len(bytes_exprs)
    result = mk_const(n, 64)
    for i in range(n - 1, -1, -1):
        result = mk_ite(
            mk_eq(bytes_exprs[i], mk_const(0, 8)), mk_const(i, 64), result
        )
    return result


def _read_bytes(state, addr_expr: Expr, count: int) -> list[Expr]:
    addr = addr_expr.value if addr_expr.is_const else None
    if addr is None:
        return [mk_const(0, 8)] * count
    return [state.read_byte(addr + i) for i in range(count)]


# -- the catalogue -------------------------------------------------------------

def sp_atoi(engine, state, args):
    return sym_atoi(_read_bytes(state, args[0], engine.policy.argv_bytes + 1))


def sp_strlen(engine, state, args):
    return sym_strlen(_read_bytes(state, args[0], engine.policy.argv_bytes + 1))


def sp_atof(engine, state, args):
    # Input-conversion summary: an unconstrained double *representing
    # the input*; FP reasoning downstream is the solver's problem (Es3),
    # not a propagation break.
    name = engine.fresh_name("atof")
    engine.input_vars.add(name)
    return mk_var(name, 64)


def sp_malloc(engine, state, args):
    size = args[0].value if args[0].is_const else 64
    addr = state.heap_next
    state.heap_next += (size + 31) & ~15
    return mk_const(addr, 64)


def sp_free(engine, state, args):
    return mk_const(0, 64)


def _unconstrained(engine, state, what: str):
    name = engine.fresh_name(what)
    engine.computation_vars.add(name)
    engine.diags.emit(
        DiagnosticKind.CONCRETIZED_ENV,
        f"{what} summarized with an unconstrained return value",
    )
    return mk_var(name, 64)


def sp_sin(engine, state, args):
    return _unconstrained(engine, state, "sin")


def sp_cos(engine, state, args):
    return _unconstrained(engine, state, "cos")


def sp_pow(engine, state, args):
    return _unconstrained(engine, state, "pow")


def sp_fabs(engine, state, args):
    return _unconstrained(engine, state, "fabs")


def sp_rand(engine, state, args):
    return _unconstrained(engine, state, "rand")


def sp_srand(engine, state, args):
    return mk_const(0, 64)


def sp_sha1(engine, state, args):
    out = args[2]
    engine.diags.emit(
        DiagnosticKind.CONCRETIZED_ENV,
        "sha1 summarized with an unconstrained digest",
    )
    if out.is_const:
        for i in range(20):
            name = engine.fresh_name("sha1_out")
            engine.computation_vars.add(name)
            state.write_byte(out.value + i, mk_var(name, 8))
    return mk_const(0, 64)


def sp_aes(engine, state, args):
    out = args[2]
    engine.diags.emit(
        DiagnosticKind.CONCRETIZED_ENV,
        "aes128_encrypt summarized with an unconstrained ciphertext",
    )
    if out.is_const:
        for i in range(16):
            name = engine.fresh_name("aes_out")
            engine.computation_vars.add(name)
            state.write_byte(out.value + i, mk_var(name, 8))
    return mk_const(0, 64)


def sp_fork(engine, state, args):
    # Follow the child: the canonical simprocedure behaviour that lets
    # the no-lib configuration crack the fork/pipe bomb.
    return mk_const(0, 64)


def sp_pthread_create(engine, state, args):
    engine.diags.emit(
        DiagnosticKind.CROSS_THREAD_LOST,
        "pthread_create summarized; thread body never executed",
    )
    return mk_const(2, 64)


def sp_pthread_join(engine, state, args):
    return mk_const(0, 64)


def sp_signal(engine, state, args):
    return mk_const(0, 64)


def sp_noop(engine, state, args):
    return mk_const(0, 64)


#: Known library functions -> simprocedure (the no-lib hook table).
SIMPROCEDURES = {
    "atoi": sp_atoi,
    "atof": sp_atof,
    "strlen": sp_strlen,
    "malloc": sp_malloc,
    "free": sp_free,
    "sin": sp_sin,
    "cos": sp_cos,
    "pow": sp_pow,
    "fabs": sp_fabs,
    "rand": sp_rand,
    "srand": sp_srand,
    "sha1": sp_sha1,
    "aes128_encrypt": sp_aes,
    "fork": sp_fork,
    "pthread_create": sp_pthread_create,
    "pthread_join": sp_pthread_join,
    "signal": sp_signal,
    "putchar": sp_noop,
    "print_str": sp_noop,
    "print_int": sp_noop,
    "print_hex": sp_noop,
    "printf1": sp_noop,
    "sched_yield": sp_noop,
}

"""The evaluated tool configurations (the paper's Table II columns).

Each profile encodes the 2016/2017-era capability matrix of the real
tool it models.  Sources for the switches: the paper's Section V.C
analysis (Triton's missing FP lifting, BAP's primitive support, Angr's
symbolic memory map and system-call simulation) and the tools' public
documentation of that era.  ``SYMEX_PROFILES`` also holds the REXX
extension tool (:mod:`.rexx`), which is not a Table II column.
"""

from __future__ import annotations

from ..concolic.policy import ToolPolicy
from ..fuzz.hybrid import HybridPolicy
from ..symex.policy import SymexPolicy
from .rexx import REXX

#: BAP 0.9-era: Pin tracer (follows threads + signals), OCaml lifter
#: without FP coverage, push/pop modeled as pure SP arithmetic, explicit
#: division guards in the IL, taint not instrumented through library
#: data, argv declared as a fixed 8-byte word.
BAPX = ToolPolicy(
    name="bapx",
    supports_fp=False,
    lifts_stack_memory=False,
    signal_trace=True,
    cross_thread_taint=True,
    div_guard=True,
    lib_data_taint=False,
    env_arg_diag="es2",
    argv_model="word8",
)

#: Triton ~2016: Pin tracer with per-thread SSA state, no FP instruction
#: semantics, no signal stitching, models syscall arguments as SMT but
#: lacks the theories (Es3 on contextual values), per-byte argv frozen
#: at the seed's length.
TRITONX = ToolPolicy(
    name="tritonx",
    supports_fp=False,
    lifts_stack_memory=True,
    signal_trace=False,
    cross_thread_taint=False,
    div_guard=False,
    lib_data_taint=True,
    env_arg_diag="es3",
    argv_model="per-byte",
)

#: angr ~2016 with libraries loaded: static whole-program lift, symbolic
#: execution of .lib code, partial syscall model, single-level symbolic
#: memory.
ANGRX = SymexPolicy(name="angrx", with_libs=True)

#: angr without libraries: library calls intercepted by simprocedures.
ANGRX_NOLIB = SymexPolicy(name="angrx_nolib", with_libs=False)

#: Sandshrew-style concretizing concolic (Trail of Bits' sandshrew on
#: unicorn, here on the no-lib symbolic engine): opaque ``.lib``/crypto
#: externals run concretely in the VM on the current model with the
#: result re-injected; when that concretization happened and no claim
#: validated, a bounded concrete search checks cracking candidates.
SANDSHREWX = SymexPolicy(
    name="sandshrewx",
    with_libs=False,
    simproc_table="sandshrew",
    concrete_fallback_budget=700,
)

#: Legion-style hybrid fuzzing: a deterministic coverage-guided fuzzer
#: alternating with short trace-based concolic phases; solver-derived
#: branch-flip inputs seed the fuzzer, highest-coverage corpus entries
#: seed the concolic replays.
HYBRIDX = HybridPolicy(name="hybridx")


TRACE_PROFILES = {p.name: p for p in (BAPX, TRITONX)}
SYMEX_PROFILES = {p.name: p for p in (ANGRX, ANGRX_NOLIB, SANDSHREWX, REXX)}
HYBRID_PROFILES = {p.name: p for p in (HYBRIDX,)}

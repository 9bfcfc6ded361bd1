"""Tool capability policies for trace-based concolic execution.

A :class:`ToolPolicy` is the mechanical encoding of what a 2017-era
tool stack could and could not do.  The replay engine consults it at
each pipeline stage; failures in Table II *emerge* from these switches
rather than being scripted per bomb.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass


@dataclass
class ToolPolicy:
    """Capability switches for a trace-based concolic tool."""

    name: str

    #: Lifter covers floating-point instructions.  Triton lacked
    #: cvtsi2sd/ucomisd (paper §V.C); neither BAP nor Triton handle the
    #: analogous RX64 ops here.
    supports_fp: bool = False

    #: Push/pop lifted with their memory effect.  BAP models them as
    #: pure stack-pointer arithmetic, losing the pushed value (Es1 on
    #: the cp_stack bomb).
    lifts_stack_memory: bool = True

    #: Tracer records and the engine models signal deliveries (Pin
    #: follows signal handlers; Triton's SSA pass cannot stitch the
    #: trace discontinuity back together).
    signal_trace: bool = True

    #: Taint/symbolic state is shared across threads of the traced
    #: process (BAP's Pin tool sees one linear trace; Triton keeps
    #: per-thread state).
    cross_thread_taint: bool = True

    #: Lifter emits explicit division-by-zero guards whose negation is a
    #: schedulable test case (BAP IL models the fault edge).
    div_guard: bool = False

    #: Taint tracked through stores into library-private data objects
    #: (BAP's taint tool does not instrument library state; Triton's
    #: does).
    lib_data_taint: bool = True

    #: Diagnostic flavor when tainted data flows into a syscall
    #: argument: "es2" = silently concretized (BAP), "es3" = modeling
    #: attempted but no theory covers it (Triton).
    env_arg_diag: str = "es2"

    #: argv declaration model: "per-byte" = one symbolic byte per seed
    #: byte (length frozen at the seed's — Triton), "word8" = one fixed
    #: 8-byte word per argument (BAP; reads past the seed's terminator
    #: break propagation).
    argv_model: str = "per-byte"

    # -- budgets (the paper's 10-minute timeout analogue) ---------------
    rounds: int = 16
    max_trace_steps: int = 400_000
    max_trace_events: int = 600_000
    solver_conflicts: int = 12_000
    solver_clauses: int = 120_000
    solver_nodes: int = 60_000
    max_queries: int = 48
    #: Wall-clock cap per analysis (the paper's 10-minute timeout analog).
    time_limit: float = 120.0

    def fingerprint(self) -> str:
        """Stable digest of every capability switch and budget.

        Any change to the policy (a flipped capability, a raised budget)
        changes the digest, which invalidates the campaign service's
        cached cell results for this tool.
        """
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

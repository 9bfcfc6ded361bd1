"""Capability policy for the static (Angr-style) symbolic executor."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass


@dataclass
class SymexPolicy:
    """Switches and budgets for one AngrX configuration.

    ``with_libs`` selects between the two modes the paper evaluates:

    * *with libraries* — the engine symbolically executes ``.lib`` code
      and models raw system calls.  Richer, but unsupported syscalls
      (brk, signal, the simulated network) and FP-heavy library code
      abort the analysis — the paper's E cells.
    * *no-lib* — calls into known library functions are intercepted by
      simprocedures.  More paths become explorable (the fork bomb falls)
      at the price of invented values — the paper's P cells and the
      ``neg_square`` false positive.
    """

    name: str
    with_libs: bool = True

    #: Symbolic argv width in bytes (angr's fixed-bit-length trick: the
    #: solver zero-fills the tail, so variable lengths come for free).
    argv_bytes: int = 10

    #: Max enumerated cells for a symbolic-address read (single level).
    mem_resolve_limit: int = 24

    #: Total symbolic-read resolutions before the engine stops
    #: enumerating and concretizes everything (the AES S-box cliff).
    max_resolutions: int = 8

    # -- extension capabilities (all off for the paper's tools; the
    # -- REXX extension tool turns them on to show the challenges are
    # -- addressable — the repo's "lessons learnt" chapter) ---------------

    #: Symbolic dereference depth (2 cracks the two-level array bomb).
    sym_mem_levels: int = 1
    #: Enumerate feasible targets of symbolic jumps and fork per target.
    enumerate_jumps: bool = False
    #: Declare the environment (time, pid, kernel magic, web content,
    #: file contents) symbolic and report environment requirements.
    env_symbolic: bool = False
    #: Solve floating-point path constraints by input-space local search.
    fp_search: bool = False
    #: Model files with symbolic contents (taint survives the kernel).
    faithful_fs: bool = False
    #: Model the kernel mailbox with expressions.
    model_mailbox: bool = False
    #: Model signal handlers for division faults.
    model_signals: bool = False
    #: Never claim a solution whose constraints contain invented values.
    honest_claims: bool = False
    #: Which simprocedure catalogue to hook with ("default" | "rexx" |
    #: "sandshrew" — the latter runs opaque ``.lib`` externals concretely
    #: in the VM on the current model and re-injects the result).
    simproc_table: str = "default"

    #: When > 0 and the exploration concretized at least one opaque
    #: library call without solving, spend up to this many concrete
    #: executions on the deterministic cracking-candidate stream
    #: (sandshrew's endgame: the engine cannot invert the crypto, but it
    #: can *check* dictionary candidates at native VM speed).
    concrete_fallback_budget: int = 0

    # -- budgets ----------------------------------------------------------
    max_states: int = 512
    max_total_steps: int = 150_000
    max_queries: int = 900
    solver_conflicts: int = 10_000
    solver_clauses: int = 150_000
    solver_nodes: int = 60_000
    step_quantum: int = 400
    #: Wall-clock cap per analysis (the paper's 10-minute timeout analog).
    time_limit: float = 90.0

    def fingerprint(self) -> str:
        """Stable digest of every capability switch and budget.

        Any change to the policy (a flipped capability, a raised budget)
        changes the digest, which invalidates the campaign service's
        cached cell results for this tool.
        """
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

"""REXX — the extension tool (the repo's "lessons learnt" chapter).

REXX is this package's own concolic/symbolic tool, built on the same
static engine as AngrX but with every extension capability enabled.
It exists to demonstrate that the paper's challenges are *engineering*
gaps, not fundamental limits:

==========================  ========================================
challenge                   REXX answer
==========================  ========================================
symbolic variable decl.     environment declared symbolic; claims
                            carry an *environment requirement*
covert propagation          faithful file/mailbox models (expressions
                            survive the kernel round trip)
parallel programs           fork follows the child; threads inlined
                            run-to-completion
symbolic arrays             two-level symbolic memory
contextual symbolic values  filesystem namespace modeled (a claimed
                            file requirement)
symbolic jumps              feasible-target enumeration with forking
floating point              transcendental expression nodes + local
                            search over the full path condition
scalability (crypto/PRNG)   *honest failure*: claims depending on
                            invented values are rejected, so the
                            negative bomb yields no false positive
==========================  ========================================

Every claim is still validated by concrete replay (with the claimed
environment overlaid) before REXX reports success.
"""

from __future__ import annotations

from ..symex.policy import SymexPolicy

#: The REXX configuration: no-lib hooking with the faithful catalogue
#: and every extension capability on, plus roomier budgets.
REXX = SymexPolicy(
    name="rexx",
    with_libs=False,
    simproc_table="rexx",
    sym_mem_levels=2,
    enumerate_jumps=True,
    env_symbolic=True,
    fp_search=True,
    faithful_fs=True,
    model_mailbox=True,
    model_signals=True,
    honest_claims=True,
    argv_bytes=10,
    max_states=768,
    max_total_steps=250_000,
    max_queries=1400,
    solver_conflicts=20_000,
    time_limit=150.0,
)

"""Hybrid fuzzing: alternate coverage-guided fuzzing with concolic runs.

The ``hybridx`` tool column drives a Legion-style loop: a deterministic
coverage-guided campaign first (cheap concrete executions, dictionary +
havoc), then the trace-based concolic engine replayed from the
campaign's highest-coverage corpus entries.  Inputs the solver derives
by branch negation (``claimed_inputs``) seed the next fuzzing round;
corpus entries with the widest coverage seed the next concolic round.
The loop ends at the first validated trigger, after ``rounds``
alternations, or as soon as a round goes *dry* — no trigger, no new
coverage and no fresh solver inputs.

Determinism: the fuzzer is seeded, the concolic engine is deterministic
up to its wall-clock budget, and corpus digests are order-sensitive —
the hybridx determinism tests assert identical digests across repeated
runs and across ``--jobs 2``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .. import obs
from ..binfmt import Image
from ..concolic.engine import ConcolicEngine
from ..concolic.policy import ToolPolicy
from ..errors import DiagnosticLog
from ..vm import Environment
from .engine import CoverageFuzzer, FuzzConfig


def _default_concolic() -> ToolPolicy:
    """The concolic half: Triton-era capabilities, tightened budgets.

    The fuzzer carries the brute-force load, so each concolic phase gets
    a short leash; what matters is branch negation from good seeds, not
    exhaustive generational search.
    """
    return ToolPolicy(
        name="hybridx-concolic",
        supports_fp=False,
        lifts_stack_memory=True,
        signal_trace=False,
        cross_thread_taint=False,
        div_guard=False,
        lib_data_taint=True,
        env_arg_diag="es3",
        argv_model="per-byte",
        rounds=8,
        max_queries=24,
        time_limit=45.0,
    )


@dataclass
class HybridPolicy:
    """Capability/budget profile for the hybrid fuzzing driver."""

    name: str = "hybridx"
    seed: int = 0x5EED
    #: fuzz -> concolic alternations
    rounds: int = 2
    #: executions per fuzzing campaign
    fuzz_budget: int = 900
    fuzz_max_steps: int = 120_000
    fuzz_total_steps: int = 8_000_000
    dry_limit: int = 100
    #: highest-coverage corpus entries replayed concolically per round
    concolic_seeds: int = 2
    concolic: ToolPolicy = field(default_factory=_default_concolic)

    def fuzz_config(self) -> FuzzConfig:
        return FuzzConfig(
            seed=self.seed,
            budget=self.fuzz_budget,
            max_steps=self.fuzz_max_steps,
            total_steps=self.fuzz_total_steps,
            dry_limit=self.dry_limit,
        )

    def fingerprint(self) -> str:
        """Stable digest of the whole driver configuration."""
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class HybridReport:
    """Outcome of one hybrid analysis: both halves, normalized."""

    tool: str
    solved: bool = False
    solution: list[bytes] | None = None
    solved_by: str | None = None  # "fuzz" | "concolic"
    claimed_inputs: list[list[bytes]] = field(default_factory=list)
    diagnostics: DiagnosticLog = field(default_factory=DiagnosticLog)
    aborted: str | None = None
    rounds: int = 0
    fuzz_executions: int = 0
    corpus_digests: list[str] = field(default_factory=list)


def run_hybrid(
    image: Image,
    policy: HybridPolicy,
    seed_argv: list[bytes],
    env: Environment | None = None,
    argv0: bytes = b"prog",
) -> HybridReport:
    """Run the alternating fuzz/concolic loop on *image*."""
    report = HybridReport(tool=policy.name)
    first_arg = seed_argv[0] if seed_argv else b"0"
    fixed_tail = tuple(seed_argv[1:])
    fuzz_seeds: list[bytes] = [first_arg]
    engine = ConcolicEngine(policy.concolic)

    with obs.span("hybrid", tool=policy.name):
        for _ in range(policy.rounds):
            report.rounds += 1
            obs.count("fuzz.hybrid_rounds")

            fuzzer = CoverageFuzzer(image, policy.fuzz_config(), env,
                                    argv0=argv0, fixed_tail=fixed_tail)
            campaign = fuzzer.campaign(tuple(fuzz_seeds))
            report.fuzz_executions += campaign.executions
            report.corpus_digests.append(campaign.corpus.digest())
            if campaign.triggered:
                report.solved = True
                report.solved_by = "fuzz"
                report.solution = [campaign.trigger_input, *fixed_tail]
                report.claimed_inputs.append(report.solution)
                return report

            fresh: list[bytes] = []
            for entry in campaign.corpus.best(policy.concolic_seeds):
                raw = engine.run(image, [entry.data, *fixed_tail], env,
                                 argv0=argv0)
                report.diagnostics.events.extend(raw.diagnostics.events)
                report.claimed_inputs.extend(raw.claimed_inputs)
                if raw.solved:
                    report.solved = True
                    report.solved_by = "concolic"
                    report.solution = raw.solution
                    return report
                if raw.aborted and report.aborted is None:
                    report.aborted = raw.aborted
                for claim in raw.claimed_inputs:
                    if claim and claim[0] not in fuzz_seeds \
                            and claim[0] not in fresh:
                        fresh.append(claim[0])

            if not fresh:
                break  # dry: nothing new for the fuzzer to chew on
            fuzz_seeds.extend(fresh)
    return report

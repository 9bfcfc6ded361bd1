"""Unified tool interface over the two engine families.

``get_tool(name)`` returns a :class:`Tool` for any Table II column
(``bapx``, ``tritonx``, ``angrx``, ``angrx_nolib``, ``sandshrewx``,
``hybridx``) or the extension tool ``rexx``.  ``Tool.analyze_bomb``
runs the engine and **validates every claimed input by concrete
replay** before granting success — the paper's acceptance criterion.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from .. import obs
from ..bombs.suite import Bomb
from ..concolic import ConcolicEngine
from ..errors import DiagnosticLog
from ..fuzz.hybrid import run_hybrid
from ..fuzz.mutator import cracking_candidates
from ..symex import AngrEngine
from ..vm import Environment
from .profiles import HYBRID_PROFILES, SYMEX_PROFILES, TRACE_PROFILES


@dataclass
class ToolReport:
    """Normalized result of one tool run on one bomb."""

    tool: str
    bomb_id: str
    solved: bool = False
    solution: list[bytes] | None = None
    solution_env: Environment | None = None
    goal_claimed: bool = False
    claimed_inputs: list[list[bytes]] = field(default_factory=list)
    diagnostics: DiagnosticLog = field(default_factory=DiagnosticLog)
    aborted: str | None = None
    elapsed: float = 0.0
    false_positive: bool = False

    def diag_kinds(self) -> set:
        return {d.kind for d in self.diagnostics}


class Tool:
    """One concolic/symbolic execution tool configuration."""

    def __init__(self, name: str):
        self.name = name
        if name in TRACE_PROFILES:
            self.family = "trace"
            self.policy = TRACE_PROFILES[name]
        elif name in SYMEX_PROFILES:
            self.family = "symex"
            self.policy = SYMEX_PROFILES[name]
        elif name in HYBRID_PROFILES:
            self.family = "hybrid"
            self.policy = HYBRID_PROFILES[name]
        else:
            raise KeyError(
                f"unknown tool {name!r}; known: {all_tool_names()}"
            )

    def analyze_bomb(self, bomb: Bomb) -> ToolReport:
        """Run this tool on *bomb* and validate any claimed solutions."""
        start = time.monotonic()
        if self.family == "trace":
            report = self._run_trace(bomb)
        elif self.family == "hybrid":
            report = self._run_hybrid(bomb)
        else:
            report = self._run_symex(bomb)
        report.elapsed = time.monotonic() - start
        if bomb.expected_unreachable and report.goal_claimed and not report.solved:
            report.false_positive = True
        return report

    # -- engines ------------------------------------------------------------

    def _run_trace(self, bomb: Bomb) -> ToolReport:
        engine = ConcolicEngine(self.policy)
        raw = engine.run(
            bomb.image, bomb.seed_argv, bomb.base_env(),
            argv0=bomb.bomb_id.encode(),
        )
        return ToolReport(
            tool=self.name,
            bomb_id=bomb.bomb_id,
            solved=raw.solved,
            solution=raw.solution,
            goal_claimed=raw.solved,
            claimed_inputs=raw.claimed_inputs,
            diagnostics=raw.diagnostics,
            aborted=raw.aborted,
        )

    def _run_symex(self, bomb: Bomb) -> ToolReport:
        engine = AngrEngine(bomb.image, self.policy)
        raw = engine.explore(bomb.seed_argv, argv0=bomb.bomb_id.encode())
        report = ToolReport(
            tool=self.name,
            bomb_id=bomb.bomb_id,
            goal_claimed=raw.goal_claimed,
            claimed_inputs=raw.claimed_inputs,
            diagnostics=raw.diagnostics,
            aborted=raw.aborted,
        )
        if raw.claimed_inputs:
            # Non-None only under ``env_symbolic``: the environment the
            # claim requires, overlaid on the concrete replay.
            claim_env = engine.claim_env
            with obs.span("replay", bomb=bomb.bomb_id, tool=self.name) as sp:
                for claim in raw.claimed_inputs:
                    obs.count("replay.claims_checked")
                    if bomb.triggers(claim, env=claim_env):
                        report.solved = True
                        report.solution = claim
                        report.solution_env = claim_env
                        break
                sp.set("validated", report.solved)
        budget = self.policy.concrete_fallback_budget
        if (budget > 0 and not report.solved and not bomb.expected_unreachable
                and engine.opaque_concretized):
            self._concrete_fallback(bomb, report, budget)
        return report

    def _concrete_fallback(self, bomb: Bomb, report: ToolReport,
                           budget: int) -> None:
        """Sandshrew's endgame: the engine concretized through an opaque
        library call it cannot invert, so spend the remaining budget
        *checking* deterministic cracking candidates at VM speed."""
        with obs.span("concrete_fallback", bomb=bomb.bomb_id,
                      tool=self.name) as sp:
            tail = list(bomb.seed_argv[1:])
            for i, candidate in enumerate(cracking_candidates()):
                if i >= budget:
                    break
                obs.count("symex.fallback_execs")
                claim = [candidate, *tail]
                if bomb.triggers(claim):
                    report.solved = True
                    report.solution = claim
                    report.goal_claimed = True
                    report.claimed_inputs.append(claim)
                    break
            sp.set("cracked", report.solved)

    def _run_hybrid(self, bomb: Bomb) -> ToolReport:
        raw = run_hybrid(
            bomb.image, self.policy, bomb.seed_argv, bomb.base_env(),
            argv0=bomb.bomb_id.encode(),
        )
        report = ToolReport(
            tool=self.name,
            bomb_id=bomb.bomb_id,
            goal_claimed=raw.solved,
            claimed_inputs=raw.claimed_inputs,
            diagnostics=raw.diagnostics,
            aborted=raw.aborted,
        )
        if raw.solved and raw.solution is not None:
            with obs.span("replay", bomb=bomb.bomb_id, tool=self.name) as sp:
                obs.count("replay.claims_checked")
                if bomb.triggers(raw.solution):
                    report.solved = True
                    report.solution = raw.solution
                sp.set("validated", report.solved)
        return report


def get_tool(name: str) -> Tool:
    """Look up a tool by Table II column name (or ``rexx``)."""
    return Tool(name)


def all_tool_names() -> list[str]:
    return (sorted(TRACE_PROFILES) + sorted(SYMEX_PROFILES)
            + sorted(HYBRID_PROFILES))


def capability_fingerprint(name: str) -> str:
    """Stable digest of one tool's full capability matrix.

    Combines the engine family with the policy's own fingerprint, so a
    profile rename, a family switch, or any capability/budget edit
    yields a different digest.  The campaign service uses this as the
    tool component of its content-addressed cache keys: results computed
    under an older capability matrix are never served for a newer one.
    """
    tool = get_tool(name)
    payload = f"{name}\x00{tool.family}\x00{tool.policy.fingerprint()}"
    return hashlib.sha256(payload.encode()).hexdigest()

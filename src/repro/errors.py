"""Error taxonomy for symbolic reasoning, following the paper's Section IV.A.

The paper defines four stages at which symbolic reasoning can go wrong
(Es0..Es3), plus two outcome labels used in its Table II: ``E`` for an
abnormal exit (crash, memory-out, or no feedback within the time budget)
and ``P`` for a partial success (the tool believes the bomb is reachable
but, because of system-call simulation, the generated values do not
actually trigger it).

Engines in this repository never *assign* these labels directly.  They
emit structured :class:`Diagnostic` events while running; the evaluation
harness classifies the run outcome from the diagnostics and from a
concrete replay of any claimed solution (see :mod:`repro.eval.classify`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .obs import session as _session


class ErrorStage(enum.Enum):
    """Outcome labels used in the paper's Table II."""

    OK = "ok"
    ES0 = "Es0"  # symbolic variable declaration errors
    ES1 = "Es1"  # instruction tracing / lifting errors
    ES2 = "Es2"  # data propagation errors
    ES3 = "Es3"  # constraint modeling errors
    E = "E"      # abnormal exit / resource exhaustion / no feedback
    P = "P"      # partial success under system-call simulation

    @property
    def solved(self) -> bool:
        return self is ErrorStage.OK

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "ok" if self is ErrorStage.OK else self.value


class DiagnosticKind(enum.Enum):
    """Structured events emitted by the engines while analyzing a bomb.

    Each kind maps to the error stage it evidences; the mapping encodes
    the causal chains described in Section IV of the paper.
    """

    # -- Es0: a branch depends on data that was never declared symbolic.
    NO_SYMBOLIC_SOURCE = "no-symbolic-source"
    CONCRETE_LENGTH = "concrete-length"

    # -- Es2 flavor specific to argv declaration: the input is modeled
    #    as a fixed-size word, so length-dependent dataflow breaks.
    FIXED_WORD_ARGV = "fixed-word-argv"

    # -- Es1: the lifter cannot (fully) interpret an instruction.
    LIFT_UNSUPPORTED = "lift-unsupported"
    LIFT_INCOMPLETE = "lift-incomplete"

    # -- Es2: symbolic data propagation was cut or mismodeled.
    TAINT_LOST = "taint-lost"
    CONCRETIZED_ENV = "concretized-env"
    CROSS_THREAD_LOST = "cross-thread-lost"
    CROSS_PROCESS_LOST = "cross-process-lost"
    CONCRETIZED_JUMP = "concretized-jump"
    CONCRETIZED_READ = "concretized-read"

    # -- Es3: the constraint model omits required theory or memory data.
    MEM_ADDR_CONCRETIZED = "mem-addr-concretized"
    SYMBOLIC_JUMP_UNMODELED = "symbolic-jump-unmodeled"
    UNMODELED_MEMORY_REF = "unmodeled-memory-ref"
    UNSUPPORTED_THEORY = "unsupported-theory"

    # -- E: abnormal termination.
    RESOURCE_EXHAUSTED = "resource-exhausted"
    ENGINE_CRASH = "engine-crash"
    UNSUPPORTED_SYSCALL = "unsupported-syscall"

    # -- P: system-call simulation invented a value.
    SIMULATED_SYSCALL_VALUE = "simulated-syscall-value"


#: Which error stage each diagnostic kind evidences.
DIAGNOSTIC_STAGE: dict[DiagnosticKind, ErrorStage] = {
    DiagnosticKind.NO_SYMBOLIC_SOURCE: ErrorStage.ES0,
    DiagnosticKind.CONCRETE_LENGTH: ErrorStage.ES0,
    DiagnosticKind.FIXED_WORD_ARGV: ErrorStage.ES2,
    DiagnosticKind.LIFT_UNSUPPORTED: ErrorStage.ES1,
    DiagnosticKind.LIFT_INCOMPLETE: ErrorStage.ES1,
    DiagnosticKind.TAINT_LOST: ErrorStage.ES2,
    DiagnosticKind.CONCRETIZED_ENV: ErrorStage.ES2,
    DiagnosticKind.CROSS_THREAD_LOST: ErrorStage.ES2,
    DiagnosticKind.CROSS_PROCESS_LOST: ErrorStage.ES2,
    DiagnosticKind.CONCRETIZED_JUMP: ErrorStage.ES2,
    DiagnosticKind.CONCRETIZED_READ: ErrorStage.ES2,
    DiagnosticKind.MEM_ADDR_CONCRETIZED: ErrorStage.ES3,
    DiagnosticKind.SYMBOLIC_JUMP_UNMODELED: ErrorStage.ES3,
    DiagnosticKind.UNMODELED_MEMORY_REF: ErrorStage.ES3,
    DiagnosticKind.UNSUPPORTED_THEORY: ErrorStage.ES3,
    DiagnosticKind.RESOURCE_EXHAUSTED: ErrorStage.E,
    DiagnosticKind.ENGINE_CRASH: ErrorStage.E,
    DiagnosticKind.UNSUPPORTED_SYSCALL: ErrorStage.E,
    DiagnosticKind.SIMULATED_SYSCALL_VALUE: ErrorStage.P,
}


@dataclass(frozen=True)
class Diagnostic:
    """One structured event recorded by an engine during analysis."""

    kind: DiagnosticKind
    detail: str = ""
    pc: int | None = None

    @property
    def stage(self) -> ErrorStage:
        return DIAGNOSTIC_STAGE[self.kind]

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        loc = f" @0x{self.pc:x}" if self.pc is not None else ""
        return f"[{self.kind.value}]{loc} {self.detail}".rstrip()


@dataclass
class DiagnosticLog:
    """Accumulates diagnostics during an analysis run.

    Engines share one log per run; the classifier inspects it afterwards.
    """

    events: list[Diagnostic] = field(default_factory=list)

    def emit(self, kind: DiagnosticKind, detail: str = "", pc: int | None = None) -> None:
        self.events.append(Diagnostic(kind, detail, pc))
        # Mirror every diagnostic into the forensics collector as a
        # "drop" event: diagnostics are exactly the points where the
        # pipeline abandoned symbolic data or a solver obligation, so
        # this single funnel guarantees evidence for every non-OK cell.
        prov = _session.current.provenance
        if prov is not None:
            prov.drop(kind.value, detail, pc, DIAGNOSTIC_STAGE[kind].value)

    def stages(self) -> set[ErrorStage]:
        return {d.stage for d in self.events}

    def has(self, kind: DiagnosticKind) -> bool:
        return any(d.kind is kind for d in self.events)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class AsmError(ReproError):
    """Raised by the assembler on malformed source."""


class LinkError(ReproError):
    """Raised by the linker on unresolved symbols or layout conflicts."""


class VMError(ReproError):
    """Raised by the concrete VM on a fatal machine fault."""


class CompileError(ReproError):
    """Raised by the BombC compiler on invalid source."""


class EngineError(ReproError):
    """Raised by an analysis engine; carries a diagnostic kind."""

    def __init__(self, kind: DiagnosticKind, detail: str = "", pc: int | None = None):
        super().__init__(f"{kind.value}: {detail}")
        self.diagnostic = Diagnostic(kind, detail, pc)


class SolverError(ReproError):
    """Raised by the SMT stack (budget exceeded, unsupported sort, ...)."""

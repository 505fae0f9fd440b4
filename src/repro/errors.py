"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch pipeline failures uniformly while still being able to
distinguish, e.g., a simulated-application deadlock from a DSL syntax error.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event simulator."""


class SimDeadlockError(SimulationError):
    """All live ranks are blocked and no operation can ever complete.

    Carries ``blocked``: a mapping of rank -> human-readable description of
    the operation the rank is blocked on, and (when the engine built one)
    ``diagnostic``: a structured
    :class:`~repro.sim.diagnostics.DeadlockDiagnostic` with per-rank
    blocked ops, waits-on edges, and the extracted wait-for cycle.
    """

    def __init__(self, blocked, diagnostic=None):
        self.blocked = dict(blocked)
        self.diagnostic = diagnostic
        detail = "; ".join(f"rank {r}: {d}" for r, d in sorted(self.blocked.items()))
        message = f"simulated deadlock, all ranks blocked ({detail})"
        if diagnostic is not None and diagnostic.cycle:
            cycle = diagnostic.cycle + diagnostic.cycle[:1]
            message += ("; wait-for cycle: "
                        + " -> ".join(str(r) for r in cycle))
        super().__init__(message)


class MPIUsageError(SimulationError):
    """An application used the MPI layer incorrectly (bad peer, bad comm...)."""


class BadOperationError(MPIUsageError, ValueError):
    """A simulator operation got an argument out of its range: a negative
    size or duration, a negative peer, an empty group."""


class FaultPlanError(ReproError):
    """A fault plan is malformed: bad field, bad rate, unparsable file."""


class TraceError(ReproError):
    """Malformed trace data or an operation unsupported by the trace model."""


class ConceptualError(ReproError):
    """Base class for coNCePTuaL toolchain errors."""


class ConceptualSyntaxError(ConceptualError):
    """Lexing or parsing failure; carries line/column info in the message."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ConceptualSemanticError(ConceptualError):
    """The program parsed but violates static semantic rules."""


class GenerationError(ReproError):
    """The benchmark generator could not convert a trace."""


class PipelineError(ReproError):
    """A pipeline was composed or driven incorrectly."""


class PipelineConfigError(PipelineError):
    """A :class:`~repro.pipeline.PipelineConfig` field is invalid."""


class SweepError(ReproError):
    """A sweep could not be driven (bad worker setup, empty plan...)."""


class SweepPlanError(SweepError):
    """A sweep plan is malformed: bad axis, bad field, unparsable file."""


class FuzzError(ReproError):
    """A schedule-space fuzz campaign could not be driven."""


class FuzzCampaignError(FuzzError):
    """A fuzz campaign spec is malformed: bad policy, bad app cell,
    unparsable file."""


class ScenarioError(ReproError):
    """A scenario spec is malformed, names an unknown adversary or
    dimension value, or could not be expanded for a concrete run."""


class ServiceError(ReproError):
    """The sweep service could not satisfy a request: unknown job,
    malformed submission, missing result payload, bad server reply."""


class TraceDeadlockError(GenerationError):
    """Algorithm 2's deadlock detector found a potential deadlock in the
    traced application (paper, Fig. 5): the trace admits an execution in
    which some rank blocks forever.
    """

    def __init__(self, message, cycle=None):
        self.cycle = list(cycle or [])
        super().__init__(message)

"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the finer-grained categories below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SpecificationError(ReproError):
    """An invalid sparsity specification (bad rank order, bad rule, ...)."""


class PatternError(SpecificationError):
    """An invalid G:H pattern (e.g. G > H, non-positive values)."""


class SparsificationError(ReproError):
    """A tensor could not be sparsified to the requested pattern."""


class ConformanceError(ReproError):
    """A tensor does not conform to the sparsity pattern it claims."""


class CompressionError(ReproError):
    """A tensor could not be compressed or decompressed."""


class ArchitectureError(ReproError):
    """An invalid architecture description or resource allocation."""


class ModelError(ReproError):
    """The analytical performance model was given inconsistent inputs."""


class UnsupportedWorkloadError(ModelError):
    """A design cannot process the given workload (e.g. S2TA on dense)."""


class SimulationError(ReproError):
    """The functional micro-architecture simulator hit an invalid state."""


class WorkloadError(ReproError):
    """An invalid workload description (bad shapes, bad density)."""


class PruningError(ReproError):
    """The pruning/fine-tuning pipeline was misconfigured."""


class EvaluationError(ReproError):
    """An experiment harness failure (unknown experiment, bad sweep)."""


class SweepSpecError(ReproError):
    """An invalid sweep spec (``repro sweep``'s flags or a
    ``POST /v1/sweep`` body). ``key`` names the spec key whose value
    is at fault, so a front end can say where that value came from
    (the CLI names the file behind ``--model-file`` or
    ``--profile``)."""

    def __init__(self, message: str, key: "str | None" = None) -> None:
        super().__init__(message)
        self.key = key


class CacheError(ReproError):
    """A persistent-cache operation failed (e.g. merging cache
    directories whose estimator fingerprints disagree)."""


class LintError(ReproError):
    """A lint rule could not be registered (duplicate or malformed
    rule id)."""


class LintUsageError(LintError):
    """An invalid ``repro lint`` invocation (unknown rule id, a
    selection that excludes every rule, a missing path, or paths that
    hold no Python file) — the CLI maps this to exit code 2, like any
    other argparse usage error."""


class ServeError(ReproError):
    """An invalid ``repro serve`` request or a server-side protocol
    failure. Carries the HTTP status code the service should answer
    with — client mistakes (bad JSON, unknown artifact, malformed
    sweep spec) default to 400 so the spec validators stay loud
    instead of silently coercing."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status

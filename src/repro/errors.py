"""The named error taxonomy shared across :mod:`repro`.

The repo's contract (enforced statically by the ``error-taxonomy`` rule
in :mod:`repro.lint`) is that no module under ``src/repro`` raises a bare
``ValueError``/``RuntimeError``/``KeyError``: every failure gets a named
class a caller can catch precisely, with a message naming the offending
value.  Each class here subclasses the builtin it refines, so callers
(and tests) written against the builtin keep working — the taxonomy only
*adds* precision.

Placement: errors whose home package predates this module stay where
they were defined (``InvalidSystemSpecError`` in :mod:`repro.api.specs`,
``InvalidZipfExponentError`` in :mod:`repro.data.distributions`, the
``SweepError`` family in :mod:`repro.analysis.sweep`, …) because they are
public API surface.  Everything introduced by the taxonomy burn-down
lives here: this module imports nothing from :mod:`repro`, so any module
— including :mod:`repro.model` and :mod:`repro.core` at the bottom of
the import graph — can depend on it without cycles.
"""

from __future__ import annotations

__all__ = [
    # model
    "ModelConfigError",
    "ModelShapeError",
    "ModelStateError",
    "OptimizerConfigError",
    "CheckpointFormatError",
    # core
    "HitMapConfigError",
    "UncachedKeyError",
    "HoldMaskConfigError",
    "PipelineConfigError",
    "ExecutorConfigError",
    "ExecutorUnavailableError",
    "ExecutorWorkerError",
    "ScratchpadConfigError",
    "ScratchpadStateError",
    "PlanCoverageError",
    "PlanMismatchError",
    "ReplacementConfigError",
    "ReplacementStateError",
    "TimelineConfigError",
    # data
    "DistributionConfigError",
    "ConformanceInputError",
    "DatasetSpecError",
    "TraceSourceError",
    "LoaderConfigError",
    "TraceFormatError",
    "TsvFormatError",
    "TraceStatsError",
    # hardware
    "HardwareSpecError",
    # serve
    "ServeConfigError",
    "ServeReportError",
    # systems
    "SystemConfigError",
    "SystemInputError",
    # analysis
    "ExperimentConfigError",
    "SweepConfigError",
    # testing
    "FaultSpecError",
    # lint
    "LintUsageError",
    "LintBaselineError",
    "LintRuleError",
]


# ----------------------------------------------------------------------
# repro.model
# ----------------------------------------------------------------------
class ModelConfigError(ValueError):
    """A :class:`~repro.model.config.ModelConfig` field is out of range."""


class ModelShapeError(ValueError):
    """Model inputs/parameters disagree on shape or required features."""


class ModelStateError(RuntimeError):
    """A model method was called out of order (e.g. step before backward)."""


class OptimizerConfigError(ValueError):
    """An optimizer hyper-parameter (lr, num_rows, …) is invalid."""


class CheckpointFormatError(ValueError):
    """A checkpoint payload is malformed or inconsistent with the model."""


# ----------------------------------------------------------------------
# repro.core
# ----------------------------------------------------------------------
class HitMapConfigError(ValueError):
    """Hit-Map geometry or query arguments are invalid."""


class UncachedKeyError(KeyError):
    """A Hit-Map translate was asked for keys that are not cached."""


class HoldMaskConfigError(ValueError):
    """Hold-mask geometry or slot arguments are invalid."""


class PipelineConfigError(ValueError):
    """Pipeline construction arguments are invalid."""


class ExecutorConfigError(ValueError):
    """A stage executor was requested by an unknown name, registered
    twice, or configured with invalid arguments."""


class ExecutorUnavailableError(RuntimeError):
    """The requested stage executor cannot run on this platform (the
    overlapped backend needs the ``fork`` start method)."""


class ExecutorWorkerError(RuntimeError):
    """A Plan-ahead worker process died or broke the message protocol."""


class ScratchpadConfigError(ValueError):
    """Scratchpad geometry/storage arguments are invalid."""


class ScratchpadStateError(RuntimeError):
    """A scratchpad operation was invoked in an unusable state."""


class PlanCoverageError(KeyError):
    """A batch requested IDs the corresponding plan does not cover."""


class PlanMismatchError(AssertionError, RuntimeError):
    """[Train] got a plan that covers IDs its batch never looks up.

    The plan belongs to another batch: scattering the coalesced gradients
    through its slots would update the wrong Storage rows.  An
    ``AssertionError`` like ``HazardError``, since it reports a broken
    pipeline invariant rather than bad input, and a ``RuntimeError`` like
    the other state errors here.
    """


class ReplacementConfigError(ValueError):
    """Replacement-policy construction arguments are invalid."""


class ReplacementStateError(RuntimeError):
    """A replacement policy was driven outside its operating contract."""


class TimelineConfigError(ValueError):
    """Timeline rendering arguments are invalid."""


# ----------------------------------------------------------------------
# repro.data
# ----------------------------------------------------------------------
class DistributionConfigError(ValueError):
    """Distribution parameters (num_rows, fractions, …) are invalid."""


class ConformanceInputError(ValueError):
    """A statistical-conformance helper received unusable inputs."""


class DatasetSpecError(ValueError):
    """A dataset/locality request names unknown or inconsistent values."""


class TraceSourceError(ValueError):
    """A trace source was constructed or driven with invalid arguments."""


class LoaderConfigError(ValueError):
    """Loader lookahead/offset arguments are invalid."""


class TraceFormatError(ValueError):
    """A compiled/archived trace file violates the on-disk format."""


class TsvFormatError(ValueError):
    """A TSV trace violates the expected Criteo-style layout."""


class TraceStatsError(ValueError):
    """A trace-statistics helper received unusable inputs."""


# ----------------------------------------------------------------------
# repro.hardware
# ----------------------------------------------------------------------
class HardwareSpecError(ValueError):
    """A hardware model (memory, interconnect, energy, timing) argument
    is invalid."""


# ----------------------------------------------------------------------
# repro.serve
# ----------------------------------------------------------------------
class ServeConfigError(ValueError):
    """Live-replay arguments (num_batches, warmup, …) are invalid."""


class ServeReportError(ValueError):
    """A serve-report reduction (percentiles, …) received unusable data."""


# ----------------------------------------------------------------------
# repro.systems
# ----------------------------------------------------------------------
class SystemConfigError(ValueError):
    """System construction arguments are invalid."""


class SystemInputError(ValueError):
    """A system run was handed a trace/batch missing required content."""


# ----------------------------------------------------------------------
# repro.analysis
# ----------------------------------------------------------------------
class ExperimentConfigError(ValueError):
    """Experiment/figure arguments are invalid."""


class SweepConfigError(ValueError):
    """Sweep grid/point construction arguments are invalid."""


# ----------------------------------------------------------------------
# repro.testing
# ----------------------------------------------------------------------
class FaultSpecError(ValueError):
    """A fault-injection plan/spec field is invalid."""


# ----------------------------------------------------------------------
# repro.lint
# ----------------------------------------------------------------------
class LintUsageError(ValueError):
    """The linter was invoked with invalid paths, rules, or options."""


class LintBaselineError(ValueError):
    """A lint baseline file is malformed."""


class LintRuleError(ValueError):
    """Lint-rule registration conflict or lookup of an unknown rule."""

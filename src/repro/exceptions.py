"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish model violations (e.g. two sends from the same processor
in one network round) from plain usage errors (e.g. a processor grid that does
not divide the matrix dimensions).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelViolationError",
    "NetworkContentionError",
    "InvalidMessageError",
    "MemoryLimitExceededError",
    "GridError",
    "DistributionError",
    "CommunicatorError",
    "ReduceOpError",
    "SemiringError",
    "ShapeError",
    "InvalidProblemError",
    "VerificationError",
    "NumericalMismatchError",
    "BoundViolationError",
    "BackendMismatchError",
    "OracleUnsupportedError",
    "OracleMismatchError",
    "FaultError",
    "InvalidFaultConfigError",
    "FaultDetectedError",
    "RankFailedError",
    "LedgerError",
    "BaselineError",
    "TaskError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ModelViolationError(ReproError):
    """The alpha-beta-gamma machine model's rules were violated.

    The model (paper, Section 3.1) states that each processor can send at
    most one message and receive at most one message per communication round.
    Violations of these rules — or sends from a processor to itself — raise
    this error (or the more specific :class:`NetworkContentionError`).
    """


class NetworkContentionError(ModelViolationError):
    """Two messages in a single round contend for the same send or receive port."""


class InvalidMessageError(ModelViolationError, ValueError):
    """A message that could never be transmitted on the modelled network.

    Raised at :class:`~repro.machine.message.Message` construction for
    self-sends, negative ranks, and empty payloads (which would silently
    count zero words — schedules that legitimately send pure latency
    signals, like the dissemination barrier, must say so explicitly with
    ``empty_ok=True``).  Subclasses :class:`ValueError` for backward
    compatibility with callers that caught the previous untyped error.
    """


class MemoryLimitExceededError(ReproError):
    """A processor's local store exceeded the configured memory limit ``M``.

    Raised only when the :class:`repro.machine.Machine` is constructed with a
    finite ``memory_limit``; the paper's memory-independent analysis assumes
    ``M`` is infinite, which is the default.
    """


class GridError(ReproError):
    """An invalid processor grid, e.g. dimensions whose product is not ``P``."""


class DistributionError(ReproError):
    """A matrix cannot be distributed as requested (e.g. indivisible blocks)."""


class CommunicatorError(ReproError):
    """Invalid communicator usage, e.g. overlapping groups run in parallel."""


class ReduceOpError(CommunicatorError, ValueError):
    """A reduction operator that the collectives refuse to run.

    Every reduction schedule (tree, ring, halving) combines partial values
    in a schedule-dependent order, so the operator must be associative and
    commutative for all schedules to agree.  :func:`repro.collectives.ops.resolve_op`
    therefore accepts only *registered* operators — the built-in names in
    :data:`~repro.collectives.ops.REDUCE_OPS` or callables registered via
    :func:`~repro.collectives.ops.register_reduce_op` — and raises this
    error for anonymous callables, whose algebraic properties it cannot
    vouch for (and whose ``repr`` would pollute traces and ledger records).
    Subclasses :class:`ValueError` for callers that caught the previous
    untyped error on unknown names.
    """


class SemiringError(ReproError):
    """An unknown or invalid semiring was requested.

    Raised by :func:`repro.machine.semiring.resolve_semiring` for names
    outside :data:`~repro.machine.semiring.SEMIRINGS` and by workloads that
    require a specific semiring (e.g. APSP requires ``min_plus``).
    """


class ShapeError(ReproError):
    """Invalid problem shape (non-positive dimensions, mismatched operands)."""


class InvalidProblemError(ShapeError):
    """An algorithm was asked to run a problem it cannot run.

    Raised by :func:`repro.algorithms.registry.run_algorithm` before any
    machine is built: non-positive or mismatched dimensions, a processor
    count the algorithm cannot factor into its grid, or a grid that does
    not divide the matrix dimensions.  The message always says *why* the
    combination is infeasible and which registered algorithms could run
    it instead — sweeps filter with
    :func:`~repro.algorithms.registry.applicable_algorithms` and never see
    this error.
    """


class VerificationError(ReproError):
    """An executed algorithm violated one of the paper's verifiable claims.

    Unlike a plain ``assert``, these survive ``python -O``: the sweep and
    large-P drivers *must not* silently record a numerically wrong product
    or a bound-beating cost, because every downstream comparison (ledger
    records, golden fixtures, EXPERIMENTS.md tables) would inherit the
    poisoned measurement.
    """


class NumericalMismatchError(VerificationError):
    """A simulated algorithm produced a product that differs from ``A @ B``."""


class BoundViolationError(VerificationError):
    """A measured communication cost fell below the Theorem 3 lower bound.

    No correct execution can beat the bound, so this always indicates a
    cost-accounting bug in the simulator or an algorithm implementation.
    """


class BackendMismatchError(VerificationError):
    """Symbolic- and data-backend runs of the same algorithm disagreed.

    The symbolic backend must charge exactly the counters the data backend
    does — the schedules are shared and every cost is derived from shapes.
    Any divergence means a backend leaked element-dependent accounting.
    """


class OracleUnsupportedError(ReproError):
    """The analytic cost oracle cannot predict this configuration exactly.

    The oracle (:mod:`repro.analysis.oracle`) promises *bit-exact*
    agreement with the simulator or nothing: configurations with ragged
    blocks or uneven shards (where the simulated critical path charges the
    largest piece per round) are refused rather than approximated.  Callers
    that want a fast path should catch this and fall back to simulation.
    """


class OracleMismatchError(VerificationError):
    """The analytic oracle and the simulator disagreed on a counter.

    The oracle's contract is exact equality on words, rounds (messages),
    flops and bound attainment wherever :func:`repro.analysis.oracle.predict_cost`
    accepts the configuration.  Any divergence means either a formula bug in
    the oracle or a cost-accounting bug in the simulator — both are
    reportable defects, which is what makes the oracle an independent
    correctness witness.
    """


class FaultError(ReproError):
    """Base class for injected-fault outcomes the run could not absorb.

    The fault-injection layer (:mod:`repro.machine.faults`) guarantees a
    quadchotomy: a faulted run either recovers with the extra communication
    charged to the cost model, reconstructs lost state after a rank failure
    (ABFT checksums or checkpoint/restart, every recovery word charged),
    raises a :class:`FaultError` subclass, or — never — corrupts results
    silently.  Catching this class covers the loud legs.
    """


class InvalidFaultConfigError(FaultError, ValueError):
    """A fault-injection configuration that can never be valid.

    Raised at :class:`~repro.machine.faults.FaultModel` /
    :class:`~repro.machine.faults.RetryPolicy` /
    :class:`~repro.machine.faults.RecoveryConfig` construction for
    out-of-range probabilities, negative backoffs or attempt counts,
    negative failure ranks/rounds, and unknown strategy names.
    Subclasses :class:`ValueError` for backward compatibility with callers
    that caught the previous untyped rejections.
    """


class FaultDetectedError(FaultError):
    """The detection layer caught an unrecoverable message fault.

    Raised when a dropped or checksum-mismatched message has no retry
    policy to fall back on, when the configured retries are exhausted, or
    when the machine-level conservation invariant
    ``sum(sent_words) == sum(recv_words)`` fails at span close.
    """


class RankFailedError(FaultError):
    """A processor failed permanently; messages involving it cannot complete.

    Rank failures are fail-stop for the *transport*: no retry policy can
    resurrect the dead rank, so without a recovery protocol this is the
    fail-stop leg of the quadchotomy.  A survivability layer (ABFT checksum
    algorithms or the checkpoint/restart wrapper) may catch this error,
    reconstruct the lost state from survivors with every word charged, and
    continue — that is the reconstructed leg.

    Attributes
    ----------
    rank, round:
        The failed rank and the network round index at which the failure
        surfaced (``None`` when raised without structured context).
    waste_words, waste_rounds, waste_resent:
        Machine counters at the moment of failure — total critical-path
        words, rounds, and injector ``words_resent`` — so a recovery layer
        can attribute the wasted work exactly.
    """

    def __init__(
        self,
        message: str,
        *,
        rank=None,
        round=None,
        waste_words=0.0,
        waste_rounds=0,
        waste_resent=0.0,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.round = round
        self.waste_words = waste_words
        self.waste_rounds = waste_rounds
        self.waste_resent = waste_resent


class LedgerError(ReproError):
    """An experiment-ledger file is missing, corrupt, or schema-incompatible."""


class BaselineError(ReproError):
    """A ``BENCH_*.json`` file is missing, corrupt, or schema-incompatible."""


class TaskError(ReproError):
    """Context for a :func:`repro.parallel.parallel_map` task failure.

    When a pooled task raises, the original exception is re-raised in the
    parent **from** a ``TaskError`` naming the failing task's index, its
    item ``repr`` and the worker-side traceback — so a failure deep in a
    500-shape sweep points at the shape that broke instead of a bare
    pickled traceback.  Callers that catch the original exception type
    are unaffected; the context rides along on ``__cause__``.
    """

"""Analytic cost oracle: one configuration's closed-form cost prediction.

Every registered algorithm's simulated cost is a deterministic function of
``(shape, P)`` alone — the simulator counts words and rounds, it never
times elements — so each has a closed form.  Those forms are written once,
as the array kernels of :mod:`repro.analysis.oracle_vec`; this module is
the one-configuration view over them:

* :func:`predict_cost` returns ``predict_batch(name, [shape.dims], [P],
  ...).prediction(0)`` — the same :class:`~repro.machine.cost.Cost`
  structure the simulator produces, plus the config string and the
  Theorem 3 bound attainment — or raises a typed refusal;
* :func:`oracle_supported` is the boolean form of that refusal;
* :func:`collective_rounds` is the scalar round count of one collective,
  which the kernels vectorize;
* :func:`_carma_replay` is CARMA's per-configuration entry, which the
  ``carma`` kernel calls once per unique row.

The oracle is

* a **fast path**: ``sweep(engine="oracle")``, the planner and ``repro run
  --oracle`` evaluate points without simulating data movement, and
* an **independent correctness witness**: the formulas are derived from
  the paper (expression (3), Section 5.1) and the classic literature
  (Cannon 1969, Fox & Otto 1987, van de Geijn & Watts 1997, Solomonik &
  Demmel 2011, Demmel et al. 2013), *not* from the simulator's code, so
  :func:`repro.analysis.verification.cross_check_oracle` asserting exact
  equality checks both sides at once.

The contract is **bit-exact equality or refusal**: configurations whose
simulated critical path charges ragged pieces (uneven blocks or shards)
are rejected with :class:`~repro.exceptions.OracleUnsupportedError`
instead of approximated.  In the supported domain every counter is an
integer computed with integer arithmetic, so float representation cannot
introduce drift.  The ABFT forms are *fault-free* costs: recovery traffic
is charged to the run's injector (``words_recovered``), never predicted
here.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from ..algorithms.carma_counts import carma_counts
from ..algorithms.registry import REGISTRY
from ..collectives.schedules import ceil_log2, is_power_of_two
from ..core.shapes import ProblemShape
from ..exceptions import OracleUnsupportedError
from ..machine.cost import Cost

__all__ = [
    "ORACLE_ALGORITHMS",
    "OraclePrediction",
    "collective_rounds",
    "oracle_supported",
    "predict_cost",
]


@dataclasses.dataclass(frozen=True)
class OraclePrediction:
    """A closed-form prediction mirroring a registry run's observables.

    ``cost`` matches ``run_algorithm(...).cost`` exactly (rounds, words,
    flops); ``config`` matches the registry's config string; ``bound`` and
    ``attainment`` mirror the run's bound-attainment gauge.
    """

    algorithm: str
    shape: ProblemShape
    P: int
    cost: Cost
    config: str
    bound: float
    attainment: float


def collective_rounds(p: int, algorithm: str = "auto") -> int:
    """Communication rounds of one bandwidth-optimal collective over ``p`` ranks.

    Matches the executable schedules: ``ring`` takes ``p - 1`` rounds,
    ``recursive_doubling``/``recursive_halving`` take ``log2 p`` (powers of
    two only), ``bruck`` takes ``ceil(log2 p)``, and ``auto`` dispatches to
    doubling/halving when ``p`` is a power of two, else ring.
    """
    if p <= 1:
        return 0
    if algorithm == "auto":
        return p.bit_length() - 1 if is_power_of_two(p) else p - 1
    if algorithm == "ring":
        return p - 1
    if algorithm in ("recursive_doubling", "recursive_halving"):
        if not is_power_of_two(p):
            raise OracleUnsupportedError(
                f"{algorithm} requires a power-of-two group, got p={p}"
            )
        return p.bit_length() - 1
    if algorithm == "bruck":
        return ceil_log2(p)
    raise OracleUnsupportedError(f"unknown collective algorithm {algorithm!r}")


def _carma_replay(shape: ProblemShape, P: int) -> Tuple[int, int, int, int]:
    """CARMA's exact ``(rounds, words, flops, splits)``, or a typed refusal.

    The counts come from :func:`repro.algorithms.carma_counts.carma_counts`,
    the same predicate the registry's ``carma`` applicability reads.
    """
    counts = carma_counts(shape.dims, P)
    if isinstance(counts, str):
        raise OracleUnsupportedError(counts)
    return counts


#: Algorithms the oracle predicts (all registry entries).
ORACLE_ALGORITHMS: Tuple[str, ...] = tuple(REGISTRY)


def predict_cost(
    name: str,
    shape: ProblemShape,
    P: int,
    collective_algorithm: Optional[str] = None,
) -> OraclePrediction:
    """Closed-form prediction of ``run_algorithm(name, A, B, P)``'s cost.

    Exact by contract: wherever this returns, the prediction equals the
    simulated :class:`~repro.machine.cost.Cost` bit for bit on both
    backends (:func:`repro.analysis.verification.cross_check_oracle`
    enforces it).  ``collective_algorithm`` is honoured for ``alg1`` only,
    mirroring :func:`repro.algorithms.registry.run_algorithm`.  This is
    the one-row view of :func:`repro.analysis.oracle_vec.predict_batch`.

    Raises
    ------
    OracleUnsupportedError
        ``P < 1``, unknown algorithm, infeasible ``(shape, P)``, or a
        configuration whose simulated cost depends on ragged pieces.
    """
    if P < 1:
        raise OracleUnsupportedError(f"P must be positive, got {P}")
    from .oracle_vec import predict_batch  # oracle_vec imports this module

    return predict_batch(
        name, [shape.dims], [P], collective_algorithm=collective_algorithm
    ).prediction(0)


def oracle_supported(
    name: str,
    shape: ProblemShape,
    P: int,
    collective_algorithm: Optional[str] = None,
) -> bool:
    """True when :func:`predict_cost` accepts this configuration."""
    try:
        predict_cost(name, shape, P, collective_algorithm=collective_algorithm)
    except OracleUnsupportedError:
        return False
    return True

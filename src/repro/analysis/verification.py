"""Verification: executed algorithms versus the paper's inequalities.

The functions here turn Theorem 3 into executable assertions about *actual
runs* of the simulated algorithms:

* every algorithm's measured critical-path words must be at least the
  memory-independent lower bound (no algorithm may beat Theorem 3);
* Algorithm 1 with the Section 5.2 grid must *equal* the bound (tightness);
* every processor's gathered data must satisfy Lemma 1's per-array access
  bounds and the Loomis-Whitney inequality.

A successful test suite therefore certifies both directions of the paper's
main result on the simulated machine.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from ..algorithms.grid import ProcessorGrid
from ..core.array_access import access_lower_bounds
from ..core.lower_bounds import LowerBound, memory_independent_bound
from ..core.shapes import ProblemShape
from ..exceptions import BackendMismatchError, OracleMismatchError
from ..machine.cost import Cost
from .projections import grid_projection_sizes, total_projection_words

__all__ = [
    "BackendCrossCheck",
    "BoundCheck",
    "OracleCrossCheck",
    "check_cost_against_bound",
    "check_grid_projections",
    "cross_check_backends",
    "cross_check_oracle",
    "machine_accounting",
    "relative_gap",
]


@dataclasses.dataclass(frozen=True)
class BoundCheck:
    """Outcome of comparing a measured cost against Theorem 3."""

    shape: ProblemShape
    P: int
    measured_words: float
    bound: LowerBound
    satisfied: bool
    tight: bool
    gap_ratio: float


def relative_gap(measured: float, bound: float) -> float:
    """``measured / bound`` with care for the tiny-bound corner cases."""
    if bound <= 0:
        return float("inf") if measured > 0 else 1.0
    return measured / bound


def check_cost_against_bound(
    shape: ProblemShape,
    P: int,
    cost: Cost,
    tight_tol: float = 1e-9,
) -> BoundCheck:
    """Compare a run's measured words with the Theorem 3 bound.

    ``satisfied`` — the run respected the bound (must always hold);
    ``tight`` — the run attained it to relative tolerance ``tight_tol``
    (holds for Algorithm 1 on a Section 5.2-optimal grid).
    """
    bound = memory_independent_bound(shape, P)
    measured = cost.words
    target = bound.communicated
    satisfied = measured >= target - tight_tol * max(1.0, abs(target))
    tight = abs(measured - target) <= tight_tol * max(1.0, abs(target))
    return BoundCheck(
        shape=shape,
        P=P,
        measured_words=measured,
        bound=bound,
        satisfied=satisfied,
        tight=tight,
        gap_ratio=relative_gap(measured, target) if target > 0 else float("nan"),
    )


@dataclasses.dataclass(frozen=True)
class BackendCrossCheck:
    """Exact agreement report between a data run and a symbolic run.

    Every field was compared for *exact* equality — not approximate — by
    :func:`cross_check_backends` before this record was constructed, so
    holding one of these is proof the symbolic backend accounted the run
    identically to the data backend.
    """

    algorithm: str
    shape: ProblemShape
    P: int
    cost: Cost
    sent_words: Tuple[float, ...]
    recv_words: Tuple[float, ...]
    flops: Tuple[float, ...]
    attainment_ratio: float
    peak_memory: int
    verified_numerics: bool


#: The per-rank vectors every event span carries.
_RANK_VECTORS = ("sent_words", "recv_words", "sent_messages", "recv_messages", "flops")


def machine_accounting(machine) -> Dict[str, object]:
    """Everything a run charged to ``machine``, as plain comparable values.

    The machine's cost, its per-rank counter vectors, the number of
    logged rounds, the per-link ``edge_words``, one tuple per event span
    (name, kind, groups, cost, then the per-rank vectors) and the peak
    memory.  Two runs accounted identically give equal dicts.
    """
    net = machine.network
    return {
        "cost": machine.cost,
        "sent_words": tuple(net.sent_words.tolist()),
        "recv_words": tuple(net.recv_words.tolist()),
        "sent_messages": tuple(net.sent_messages.tolist()),
        "recv_messages": tuple(net.recv_messages.tolist()),
        "flops": tuple(machine.flops.tolist()),
        "logged_rounds": len(net.round_log),
        "edge_words": net.edge_words,
        "events": [
            (e.name, e.kind, e.groups, e.cost)
            + tuple(tuple(np.asarray(getattr(e, f)).tolist()) for f in _RANK_VECTORS)
            for e in machine.spans.events()
        ],
        "peak_memory": machine.peak_memory_words(),
    }


def cross_check_backends(
    algorithm: str,
    shape: ProblemShape,
    P: int,
    seed: int = 0,
    collective_algorithm: Optional[str] = None,
    semiring=None,
) -> BackendCrossCheck:
    """Run ``algorithm`` under both backends and assert exact agreement.

    The data run uses real seeded operands (and its product is verified
    against the requested semiring's dense reference — ``numpy`` matmul
    for ``plus_times``, the broadcast distance product for ``min_plus``);
    the symbolic run uses shape descriptors only (and may take an array
    replay instead of the Message schedules).  The whole accounting must
    be *exactly* equal — word-for-word, not approximately: the Cost, the
    per-rank ``sent_words`` / ``recv_words`` / ``sent_messages`` /
    ``recv_messages`` / ``flops`` vectors, the number of logged rounds,
    the per-link ``edge_words``, every event span's name, kind, groups,
    cost and per-rank vectors, the bound-attainment ratio and the peak
    memory.

    Raises
    ------
    BackendMismatchError
        On any divergence; the message names the first differing counter.
    """
    from ..algorithms.registry import run_algorithm
    from ..machine.semiring import resolve_semiring

    rng = np.random.default_rng(seed)
    A = rng.random((shape.n1, shape.n2))
    B = rng.random((shape.n2, shape.n3))

    data = run_algorithm(
        algorithm, A, B, P, collective_algorithm=collective_algorithm,
        semiring=semiring,
    )
    # Resolve the semiring the run actually used (entries may default to a
    # non-plus_times semiring, e.g. fox_otto) and verify against its dense
    # single-node reference product.
    sr = resolve_semiring(data.semiring)
    if not sr.allclose(data.C, sr.matmul_data(A, B)):
        raise BackendMismatchError(
            f"{algorithm} data-backend product is numerically wrong on "
            f"{shape}, P={P} ({sr.name}); cannot anchor a cross-check to it"
        )
    symbolic = run_algorithm(
        algorithm, A, B, P, backend="symbolic",
        collective_algorithm=collective_algorithm, semiring=semiring,
    )

    def counters(run):
        return dict(
            machine_accounting(run.machine),
            cost=run.cost,
            attainment_ratio=run.attainment.ratio,
            semiring=run.semiring,
        )

    d, s = counters(data), counters(symbolic)
    for key in d:
        if d[key] != s[key]:
            raise BackendMismatchError(
                f"{algorithm} on {shape}, P={P}: {key} diverged between "
                f"backends — data={d[key]!r}, symbolic={s[key]!r}"
            )
    if symbolic.C.shape != data.C.shape:
        raise BackendMismatchError(
            f"{algorithm} on {shape}, P={P}: output shape diverged — "
            f"data={data.C.shape}, symbolic={symbolic.C.shape}"
        )

    return BackendCrossCheck(
        algorithm=algorithm,
        shape=shape,
        P=P,
        cost=d["cost"],
        sent_words=d["sent_words"],
        recv_words=d["recv_words"],
        flops=d["flops"],
        attainment_ratio=d["attainment_ratio"],
        peak_memory=d["peak_memory"],
        verified_numerics=True,
    )


@dataclasses.dataclass(frozen=True)
class OracleCrossCheck:
    """Exact agreement report between the analytic oracle and a simulation.

    Constructed only after :func:`cross_check_oracle` compared every field
    for *exact* equality — words, rounds (messages), flops, config string
    and bound attainment — so holding one of these is proof the closed-form
    prediction reproduces the simulated run bit for bit.
    """

    algorithm: str
    shape: ProblemShape
    P: int
    backend: str
    cost: Cost
    config: str
    attainment_ratio: float


def cross_check_oracle(
    algorithm: str,
    shape: ProblemShape,
    P: int,
    seed: int = 0,
    backend: str = "data",
    collective_algorithm: Optional[str] = None,
    semiring=None,
) -> OracleCrossCheck:
    """Simulate ``algorithm`` and assert the oracle predicted it exactly.

    The oracle (:mod:`repro.analysis.oracle`) derives its formulas from
    the paper and the classic algorithm literature, the simulator counts
    what its schedules actually move — so exact agreement checks both
    sides at once.  The tolerance is zero: words, rounds, flops, the
    config string and the bound-attainment ratio must all match bit for
    bit, on either backend.  The closed forms never mention the semiring —
    all counters are shape-derived — so the same prediction must hold for
    any ``semiring`` the simulation runs under; passing one here asserts
    that stronger statement.

    Raises
    ------
    OracleUnsupportedError
        When the oracle refuses the configuration (ragged blocks or
        shards).  Callers that only want coverage should pre-filter with
        :func:`repro.analysis.oracle.oracle_supported`.
    OracleMismatchError
        On any divergence; the message names the first differing counter.
    """
    from ..algorithms.registry import run_algorithm
    from .oracle import predict_cost

    prediction = predict_cost(
        algorithm, shape, P, collective_algorithm=collective_algorithm
    )

    rng = np.random.default_rng(seed)
    A = rng.random((shape.n1, shape.n2))
    B = rng.random((shape.n2, shape.n3))
    run = run_algorithm(
        algorithm, A, B, P, backend=backend,
        collective_algorithm=collective_algorithm, semiring=semiring,
    )

    observed = {
        "words": run.cost.words,
        "rounds": run.cost.rounds,
        "flops": run.cost.flops,
        "config": run.config,
        "attainment": run.attainment.ratio,
        "bound": run.attainment.bound,
    }
    predicted = {
        "words": prediction.cost.words,
        "rounds": prediction.cost.rounds,
        "flops": prediction.cost.flops,
        "config": prediction.config,
        "attainment": prediction.attainment,
        "bound": prediction.bound,
    }
    for key in observed:
        if observed[key] != predicted[key]:
            raise OracleMismatchError(
                f"{algorithm} on {shape}, P={P} ({backend} backend): {key} "
                f"diverged — simulated={observed[key]!r}, "
                f"oracle={predicted[key]!r}"
            )

    return OracleCrossCheck(
        algorithm=algorithm,
        shape=shape,
        P=P,
        backend=backend,
        cost=run.cost,
        config=run.config,
        attainment_ratio=run.attainment.ratio,
    )


def check_grid_projections(
    shape: ProblemShape,
    grid: ProcessorGrid,
    coord: Optional[tuple] = None,
) -> Dict[str, object]:
    """Verify Lemma 1 and Lemma 2 on a grid processor's assigned brick.

    Checks for the processor at ``coord`` (default: the one owning the
    largest brick, i.e. coordinate (0, 0, 0)):

    * each projection is at least the Lemma 1 per-array bound (scaled by
      the brick's actual share of the computation — exact for divisible
      dimensions);
    * the summed projections are at least the Lemma 2 optimum ``D``.

    Returns a report dict with the computed values.
    """
    if coord is None:
        coord = (0, 0, 0)
    proj = grid_projection_sizes(shape, grid, coord)
    per_array = access_lower_bounds(shape, grid.size)
    total = total_projection_words(proj)
    optimum = memory_independent_bound(shape, grid.size).accessed

    divisible = grid.divides(shape.n1, shape.n2, shape.n3)
    per_array_ok = True
    if divisible:
        per_array_ok = all(proj[a] >= per_array[a] - 1e-9 for a in ("A", "B", "C"))
    sum_ok = (not divisible) or total >= optimum - 1e-9 * max(1.0, optimum)

    return {
        "coord": coord,
        "projections": proj,
        "per_array_bounds": per_array,
        "per_array_ok": per_array_ok,
        "sum": total,
        "lemma2_optimum": optimum,
        "sum_ok": sum_ok,
        "divisible": divisible,
    }

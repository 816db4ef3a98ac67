"""Golden byte-identity regression: oracle sweep, large-P table, model gate.

The vectorized oracle kernels (:mod:`repro.analysis.oracle_vec`) and the
divisor-enumeration grid pickers promise *byte-identical* outputs to the
pre-refactor scalar code paths.  These tests pin that promise against
fixtures captured from the scalar implementation before the refactor
landed (commit 47cd3d3), so any drift — a float computed in a different
order, a grid picker changing its tie-break, a config string reworded —
fails loudly instead of silently shifting every downstream artifact.

Floats are stored in ``float.hex()`` form: the comparison is on exact
bit patterns, not a tolerance.  ``wall_clock`` is the only field
excluded (it is measured driver time, nondeterministic by definition).

Regenerating the fixtures (only legitimate when a pinned count changes
on purpose)::

    PYTHONPATH=src python tests/analysis/test_golden_oracle.py --regen

The large-P fixture replays the symbolic-backend attainment sweep (well
under a second since Algorithm 1 runs as one rank-array replay).

The model-gate fixture pins the exact model counts of the paper
reproduction's probe points: the Algorithm 1 probe of each paper
benchmark script, every applicable algorithm on the standard sweep grid
(data backend, verified products), one symbolic-backend point per
Theorem 3 case, every record of the oracle throughput grid and of the
three planner atlases (each record, not a sum, so compensating drift
cannot hide), and the planner's answer to its acceptance query.  All of
it runs with no fault injector, so it also pins the fault layer's
invisibility when off.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.analysis.large_p import run_large_p_sweep
from repro.analysis.plan import (
    ATLAS_SHAPES,
    PlanCache,
    atlas_processor_counts,
    plan,
)
from repro.analysis.sweep import SweepRecord, sweep
from repro.core.shapes import ProblemShape

FIXTURES = Path(__file__).parent / "fixtures"
ORACLE_FIXTURE = FIXTURES / "oracle_sweep_golden.json"
LARGE_P_FIXTURE = FIXTURES / "large_p_golden.json"
MODEL_GATE_FIXTURE = FIXTURES / "model_gate_golden.json"

#: The pinned sweep grid: the default CLI shapes over processor counts
#: that exercise every registry algorithm (squares for cannon/fox,
#: powers of two for carma, composite counts for summa/c25d/ABFT grids),
#: plus the three production-scale large-P shapes and two non-default
#: collective overrides threaded through alg1.
SHAPES = tuple(
    ProblemShape(*dims)
    for dims in (
        (16, 16, 16), (32, 8, 4), (64, 16, 4),
        (32, 32, 32), (96, 24, 6), (48, 24, 12),
    )
)
PROCS = (1, 2, 3, 4, 8, 12, 16, 36, 64)
COLLECTIVE_PROCS = (4, 16)
LARGE_POINTS = (
    (ProblemShape(65536, 32, 32), (256, 1024)),
    (ProblemShape(8192, 8192, 2), (4096, 16384)),
    (ProblemShape(25000, 6400, 5000), (1000, 100000)),
)

#: Algorithm 1 probe points of the paper benchmark scripts: the 3D
#: measure point on a perfect 4x4x4 grid (Table 1, memory crossover),
#: Figure 1's 1D point, Figure 2's and the grid ablation's 2D point, the
#: baselines' 2D point and the 2.5D trade-off's point.
ALG1_PROBES = (
    (ProblemShape(48, 48, 48), 64),
    (ProblemShape(96, 24, 6), 2),
    (ProblemShape(96, 24, 6), 16),
    (ProblemShape(64, 16, 4), 16),
    (ProblemShape(32, 32, 32), 16),
)

#: The standard sweep grid: one point per Theorem 3 case plus a deeper
#: 3D point with a perfect cubic grid; every applicable algorithm runs.
SWEEP_GRID = (
    (ProblemShape(64, 16, 4), 2),
    (ProblemShape(64, 16, 4), 16),
    (ProblemShape(32, 32, 32), 16),
    (ProblemShape(32, 32, 32), 64),
)

#: One symbolic-backend point per Theorem 3 case, each on a grid that
#: divides the dimensions so Algorithm 1 attains the case constant.
SYMBOLIC_PROBES = (
    (ProblemShape(16384, 32, 32), 512),
    (ProblemShape(1024, 1024, 2), 1024),
    (ProblemShape(2000, 800, 500), 800),
)

#: Oracle throughput grid: divisor-rich shapes crossed with powers of
#: two, so most registry algorithms admit most points (308 records).
THROUGHPUT_SHAPES = (
    ProblemShape(64, 16, 4),
    ProblemShape(32, 32, 32),
    ProblemShape(256, 64, 16),
    ProblemShape(128, 128, 128),
)
THROUGHPUT_COUNTS = tuple(2**k for k in range(13))

#: Largest processor count of the planner atlases.
ATLAS_LIMIT = 10**7

#: The planner acceptance query: the case-2 atlas shape at P = 10^5.
PLAN_PROBE = (ProblemShape(10**6, 10**4, 10), 10**5)


def oracle_records():
    """The exact record stream the fixture pins, in deterministic order."""
    records = list(sweep(SHAPES, PROCS, engine="oracle"))
    for collectives in ("bruck", "ring"):
        records.extend(sweep(
            SHAPES, COLLECTIVE_PROCS, engine="oracle",
            collective_algorithm=collectives,
        ))
    for shape, counts in LARGE_POINTS:
        records.extend(sweep([shape], counts, engine="oracle"))
    return records


def _hex(value: float) -> str:
    return float(value).hex() if not math.isnan(value) else "nan"


def record_fingerprint(record: SweepRecord) -> dict:
    """Every SweepRecord field except the nondeterministic wall clock."""
    return {
        "algorithm": record.algorithm,
        "config": record.config,
        "shape": list(record.shape.dims),
        "P": record.P,
        "words": _hex(record.words),
        "rounds": record.rounds,
        "bound": _hex(record.bound),
        "gap_ratio": _hex(record.gap_ratio),
        "correct": record.correct,
        "flops": _hex(record.flops),
        "skew": None if record.skew is None else dataclasses_asdict(record.skew),
        "backend": record.backend,
        "task_index": record.task_index,
        "semiring": record.semiring,
    }


def dataclasses_asdict(value):
    import dataclasses

    return dataclasses.asdict(value)


def large_p_fingerprints() -> list:
    """The large-P attainment results, wall columns excluded."""
    rows = []
    for result in run_large_p_sweep():
        record = record_fingerprint(result.record)
        shape = "x".join(str(d) for d in result.point.shape.dims)
        rows.append({
            "case": result.point.case,
            "shape": shape,
            "P": result.point.P,
            "record": record,
            "constant": _hex(result.constant),
            "ratio": _hex(result.ratio),
            "tight": result.tight,
            # The `repro large-p` table row with the wall column stripped.
            "table_row": (
                f"{result.point.case:<5} {shape:<21} {result.point.P:<7} "
                f"{result.record.config:<17} {result.constant:<9g} "
                f"{result.ratio:<13.9f}"
            ),
        })
    return rows


def model_gate_fingerprints() -> dict:
    """Section name -> pinned rows of the model-gate fixture."""
    sections = {
        "alg1_probes": [
            record_fingerprint(record)
            for shape, P in ALG1_PROBES
            for record in sweep([shape], [P], algorithms=["alg1"], seed=0)
        ],
        "sweep": [
            record_fingerprint(record)
            for shape, P in SWEEP_GRID
            for record in sweep([shape], [P], seed=0)
        ],
        "symbolic": [
            record_fingerprint(record)
            for shape, P in SYMBOLIC_PROBES
            for record in sweep(
                [shape], [P], algorithms=["alg1"], backend="symbolic",
                collective_algorithm="bruck",
            )
        ],
        "throughput": [
            record_fingerprint(record)
            for record in sweep(
                THROUGHPUT_SHAPES, THROUGHPUT_COUNTS, engine="oracle"
            )
        ],
    }
    counts = atlas_processor_counts(ATLAS_LIMIT)
    for case, shape in ATLAS_SHAPES.items():
        sections[f"atlas_case{case}"] = [
            record_fingerprint(record)
            for record in sweep([shape], counts, engine="oracle")
        ]
    shape, P = PLAN_PROBE
    best = plan(shape, P, cache=PlanCache()).best
    sections["plan"] = [{
        field: _hex(value) if isinstance(value, float) else value
        for field, value in best.to_dict().items()
    }]
    return sections


def test_oracle_sweep_matches_golden_fixture():
    expected = json.loads(ORACLE_FIXTURE.read_text())
    actual = [record_fingerprint(r) for r in oracle_records()]
    assert len(actual) == len(expected), (
        f"oracle sweep produced {len(actual)} records, fixture has "
        f"{len(expected)} — the record stream itself changed"
    )
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, (
            f"oracle sweep record {index} drifted from the pre-refactor "
            f"fixture:\n  got  {got}\n  want {want}"
        )


def test_large_p_matches_golden_fixture():
    expected = json.loads(LARGE_P_FIXTURE.read_text())
    actual = large_p_fingerprints()
    assert actual == expected


def test_model_gate_matches_golden_fixture():
    expected = json.loads(MODEL_GATE_FIXTURE.read_text())
    actual = model_gate_fingerprints()
    assert list(actual) == list(expected), "the fixture's sections changed"
    for section, want_rows in expected.items():
        got_rows = actual[section]
        assert len(got_rows) == len(want_rows), (
            f"model gate section {section!r} produced {len(got_rows)} rows, "
            f"fixture has {len(want_rows)}"
        )
        for index, (got, want) in enumerate(zip(got_rows, want_rows)):
            assert got == want, (
                f"model gate row {section}[{index}] drifted:\n"
                f"  got  {got}\n  want {want}"
            )


def _regen() -> None:  # pragma: no cover - fixture maintenance entry point
    FIXTURES.mkdir(parents=True, exist_ok=True)
    oracle = [record_fingerprint(r) for r in oracle_records()]
    ORACLE_FIXTURE.write_text(json.dumps(oracle, indent=1) + "\n")
    print(f"wrote {ORACLE_FIXTURE} ({len(oracle)} records)")
    large = large_p_fingerprints()
    LARGE_P_FIXTURE.write_text(json.dumps(large, indent=1) + "\n")
    print(f"wrote {LARGE_P_FIXTURE} ({len(large)} points)")
    gate = model_gate_fingerprints()
    MODEL_GATE_FIXTURE.write_text(json.dumps(gate, indent=1) + "\n")
    print(f"wrote {MODEL_GATE_FIXTURE} "
          f"({sum(len(rows) for rows in gate.values())} rows)")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        sys.exit("usage: test_golden_oracle.py --regen")

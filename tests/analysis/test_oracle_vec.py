"""The oracle's batch kernels: pinned outputs, the simulator, edge rows.

:func:`repro.analysis.oracle_vec.predict_batch` holds every closed form
once, and :func:`repro.analysis.oracle.predict_cost` is its one-row view.
This module checks them from sides that share no code with the kernels:

* **Pinned digests.**  Per algorithm, and per ``alg1`` collective
  variant, a SHA-256 over a seeded grid of 530 configurations: the
  refusal mask and every prediction field, floats as ``float.hex``.  The
  digests were taken from the earlier per-row scalar implementation of
  the closed forms.  Both views must reproduce them and agree row by row,
  including the sweep's gap ratio against
  :func:`~repro.analysis.verification.check_cost_against_bound`.
* **The simulator.**  :func:`~repro.analysis.verification.cross_check_oracle`
  on the symbolic backend for every grid row with ``P <= 64`` that the
  registry lists and the oracle accepts: 974 checks.  The 15 known
  ``alg1_abft`` mismatches are strict xfails (ROADMAP.md, first open
  item, part (a)), so fixing them or adding one more both fail here.
* **Pinned out-of-range rows.**  Magnitudes past int64/float64 exactness
  run through the same kernels on Python ints; their values are pinned.

The scatter-allgather broadcast kernels get an exhaustive test against a
direct replay of the schedule's rounds, written in this module.
"""

import hashlib
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.algorithms.registry import applicable_algorithms
from repro.analysis.oracle import ORACLE_ALGORITHMS, predict_cost
from repro.analysis.oracle_vec import (
    _sab_all_roots,
    _sab_merged_roots,
    _shape_in_safe_range,
    predict_batch,
)
from repro.analysis.verification import (
    check_cost_against_bound,
    cross_check_oracle,
)
from repro.collectives.schedules import ceil_log2
from repro.core.cases import Regime, classify
from repro.core.shapes import ProblemShape
from repro.exceptions import (
    OracleMismatchError,
    OracleUnsupportedError,
    ShapeError,
)

SEED = 20260808
N_CONFIGS = 520

#: Dimension pool mixing highly divisible values (so square/3D grids are
#: admissible) with primes and odd values (so refusals are exercised).
_DIM_POOL = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 24, 32, 36, 48, 60, 64, 72,
    96, 100, 128, 144, 192, 240, 256, 360, 512, 720, 1024, 1296, 2048,
]
#: Processor pool: small, square, power-of-two, prime and composite P.
_PROC_POOL = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24, 25, 27, 32, 36, 48, 64, 81,
    100, 128, 144, 216, 256, 441, 512, 576, 1024, 2025, 4096, 10000,
]


def _random_grid():
    """The seeded (shape, P) grid every pinned test sweeps."""
    rng = np.random.default_rng(SEED)
    rows = []
    for _ in range(N_CONFIGS):
        dims = tuple(int(d) for d in rng.choice(_DIM_POOL, size=3))
        P = int(rng.choice(_PROC_POOL))
        rows.append((dims, P))
    # Pin a few corners the random draw may miss: P exceeding dims,
    # singleton grids, and the case-1/2 boundaries.
    rows += [
        ((64, 4, 4), 4), ((32, 32, 4), 16), ((16, 16, 16), 4),
        ((16, 16, 16), 8), ((36, 36, 36), 9), ((64, 64, 8), 64),
        ((7, 5, 3), 4), ((9, 9, 9), 4), ((1, 1, 1), 1), ((2, 2, 2), 4096),
    ]
    return rows


GRID = _random_grid()

#: SHA-256 of :func:`_row_line` over ``GRID``, per algorithm (``alg1/<c>``
#: for ``collective_algorithm=c``), with the number of accepted rows.
PINNED_DIGESTS: Dict[str, Tuple[str, int]] = {
    "alg1": ("3af19dc2a698296d8e4effe8347cd4f6dad32738c04d7c9698f4fb85c26ab27e", 118),
    "row_1d": ("36556d92ea1489ac60475b52f34cd5d6a163b113d2df3c57538032726d31915d", 144),
    "outer_1d": ("0c3816df4a3a84ffd593ee0f37f7019f361996228683c4ab3e501f32b782e1a2", 159),
    "cannon": ("561d9b02f3d21a602b85c2570d3fa073cc37a9e62a370d98f5d91419e69dce70", 52),
    "fox": ("eb74c98ca250668afc8d1462e725fae5e4e401cd9be54c580934a369f364aa2a", 52),
    "fox_otto": ("eb74c98ca250668afc8d1462e725fae5e4e401cd9be54c580934a369f364aa2a", 52),
    "summa": ("064d6d8b5a002a0fd3dd3124a0feadca1e2e392073b0f142de6ccb00ed21a094", 108),
    "c25d": ("cbd3e3813b9c0e600ecb8f899dab32dd8b8d8329a337528013628a2253791318", 92),
    "carma": ("7f1f9b71a166953fe695ecce76e042e34ef382c90963090379d6ce1c0153b051", 79),
    "alg1_abft": ("4c5146f6452857e9bcc8f7a35d32405a8cd1dbb9bede9eb6b87a7cd7d34cc653", 110),
    "summa_abft": ("e17de0d0d458ec61d9a62cc38063b02b346d09c8126a27e037111336535abb9d", 88),
    "alg1/ring": ("078615a9966b2a4ca78b08b5e35dcf682e5373157aa356452ac1aba5ca5eac94", 118),
    "alg1/bruck": ("ebff2ee10d5f647c3222ed2bc5096719a5d227f5d5962833ac878e4f824fa30a", 118),
    "alg1/recursive_doubling": ("3f5abe072f3ccb04fc548821dc88aa314616f1ffdbad530a9eb8ee8d5c7ca583", 91),
    "alg1/mystery": ("efec696cef90ec36c1c68d0a1ec332c1dc5173e2195d05a240c47806e1149f12", 15),
}


def _row_line(pred) -> str:
    """One digest line: ``refused`` or every field, floats as hex."""
    if pred is None:
        return "refused"
    return " ".join((
        str(pred.cost.rounds), pred.cost.words.hex(), pred.cost.flops.hex(),
        pred.config, pred.bound.hex(), pred.attainment.hex(),
    ))


def _assert_pinned(name, collective=None):
    """Both views reproduce the pinned digest and agree row by row."""
    batch = predict_batch(
        name, [dims for dims, _ in GRID], [P for _, P in GRID],
        collective_algorithm=collective,
    )
    assert len(batch) == len(GRID)
    batch_lines: List[str] = []
    row_lines: List[str] = []
    for i, (dims, P) in enumerate(GRID):
        shape = ProblemShape(*dims)
        try:
            pred = predict_cost(name, shape, P, collective_algorithm=collective)
        except OracleUnsupportedError:
            pred = None
        row_lines.append(_row_line(pred))
        if not batch.valid[i]:
            assert batch.configs[i] is None
            with pytest.raises(OracleUnsupportedError):
                batch.prediction(i)
            batch_lines.append("refused")
            continue
        got = batch.prediction(i)
        batch_lines.append(_row_line(got))
        check = check_cost_against_bound(shape, P, got.cost)
        gap = float(batch.gap_ratio[i])
        assert check.gap_ratio == gap or (
            math.isnan(check.gap_ratio) and math.isnan(gap)
        ), (name, dims, P)
        assert check.satisfied == bool(batch.satisfied[i]), (name, dims, P)
    assert batch_lines == row_lines
    key = name if collective is None else f"alg1/{collective}"
    digest = hashlib.sha256("\n".join(row_lines).encode()).hexdigest()
    accepted = sum(line != "refused" for line in row_lines)
    assert (digest, accepted) == PINNED_DIGESTS[key]
    return batch


def test_grid_covers_all_three_cases():
    regimes = {classify(ProblemShape(*dims), P) for dims, P in GRID}
    assert regimes == {Regime.ONE_D, Regime.TWO_D, Regime.THREE_D}


def test_grid_is_large_enough():
    assert len(GRID) >= 500


@pytest.mark.parametrize("name", ORACLE_ALGORITHMS)
def test_differential_against_scalar(name):
    """``predict_batch`` == its one-row view ``predict_cost`` == the pins."""
    batch = _assert_pinned(name)
    # The grid must exercise both sides of the mask for every algorithm —
    # a vacuous all-valid or all-refused run proves nothing.
    assert batch.valid.any(), f"{name}: no valid configuration in the grid"
    assert not batch.valid.all(), f"{name}: no refusal in the grid"


@pytest.mark.parametrize(
    "collective", ["ring", "bruck", "recursive_doubling", "mystery"]
)
def test_differential_alg1_collectives(collective):
    _assert_pinned("alg1", collective)


#: One point per Theorem 3 case where every backend comparison is cheap.
_BACKEND_POINTS = [
    ("alg1", (64, 4, 4), 4),
    ("summa", (32, 32, 4), 16),
    ("cannon", (16, 16, 16), 4),
]


@pytest.mark.parametrize("backend", ["data", "symbolic"])
@pytest.mark.parametrize("name,dims,P", _BACKEND_POINTS)
def test_matches_both_backends(name, dims, P, backend):
    """batch row == one-row view == simulated cost on each backend."""
    shape = ProblemShape(*dims)
    check = cross_check_oracle(name, shape, P, backend=backend)
    row = predict_batch(name, shape, P).prediction(0)
    assert row == predict_cost(name, shape, P)
    assert row.cost == check.cost


# --------------------------------------------------------------------- #
# the simulator on every accepted grid row                              #
# --------------------------------------------------------------------- #

#: ``alg1_abft`` rows where the simulator charges more words than the
#: oracle: the ragged C reduce-scatter (ROADMAP.md, first open item,
#: part (a)).  Strict, so a fix has to remove them from this list.
_ALG1_ABFT_MISMATCH = {
    ((3, 128, 5), 8), ((3, 2048, 240), 32), ((128, 360, 7), 6),
    ((3, 1296, 4), 27), ((9, 1024, 1), 4), ((5, 144, 7), 9),
    ((128, 96, 1), 12), ((7, 192, 9), 4), ((17, 60, 17), 3),
    ((8, 192, 5), 24), ((17, 72, 100), 12), ((16, 24, 7), 6),
    ((1, 144, 128), 3), ((12, 512, 36), 32), ((6, 2048, 1296), 64),
}


def _simulator_checks():
    """``(name, dims, P)`` for every registry-applicable, oracle-accepted
    ``GRID`` row with ``P <= 64``."""
    rows = [(dims, P) for dims, P in GRID if P <= 64]
    accepted = {
        name: predict_batch(name, [d for d, _ in rows], [P for _, P in rows]).valid
        for name in ORACLE_ALGORITHMS
    }
    cases = []
    for i, (dims, P) in enumerate(rows):
        for name in applicable_algorithms(ProblemShape(*dims), P):
            if not accepted[name][i]:
                continue
            marks = ()
            if name == "alg1_abft" and (dims, P) in _ALG1_ABFT_MISMATCH:
                marks = pytest.mark.xfail(
                    strict=True, raises=OracleMismatchError,
                    reason="alg1_abft ragged C reduce-scatter (ROADMAP.md)",
                )
            cases.append(pytest.param(
                name, dims, P, marks=marks,
                id=f"{name}-{'x'.join(map(str, dims))}-P{P}",
            ))
    return cases


_SIMULATOR_CHECKS = _simulator_checks()


def test_simulator_checks_cover_the_grid():
    assert len(_SIMULATOR_CHECKS) == 974
    assert len({p.values[1:] for p in _SIMULATOR_CHECKS}) == 191
    assert sum(bool(p.marks) for p in _SIMULATOR_CHECKS) == 15


@pytest.mark.parametrize("name,dims,P", _SIMULATOR_CHECKS)
def test_oracle_equals_simulator(name, dims, P):
    cross_check_oracle(name, ProblemShape(*dims), P, backend="symbolic")


# --------------------------------------------------------------------- #
# scatter-allgather broadcast kernels                                   #
# --------------------------------------------------------------------- #


def _replay_broadcast(p: int, w: int, roots: Sequence[int]) -> Tuple[int, int]:
    """Exact (rounds, critical words) of the van de Geijn broadcast.

    Replays the binomial scatter of ``p`` pieces of ``numpy.array_split``
    sizes round by round, taking the per-round maximum message across the
    merged root rotations ``roots``, then adds the ring All-Gather
    (``p - 1`` rounds charging the largest piece).
    """
    base, extra = divmod(w, p)
    psize = [base + (1 if j < extra else 0) for j in range(p)]
    if psize[-1] == 0:
        raise OracleUnsupportedError(f"{w} words over {p} ranks: empty pieces")
    rounds = 0
    words = 0
    # Binomial scatter: holders forward the upper half of their index range.
    holding: Dict[int, List[int]] = {0: list(range(p))}
    dist = 1 << max(ceil_log2(p) - 1, 0) if p > 1 else 0
    while dist >= 1:
        moves = []
        for i in sorted(holding):
            upper = [j for j in holding[i] if j >= i + dist]
            if upper:
                moves.append((i, upper))
        if moves:
            rounds += 1
            words += max(
                sum(psize[(j + rho) % p] for j in upper)
                for rho in roots
                for _, upper in moves
            )
            for i, upper in moves:
                holding[i] = [j for j in holding[i] if j < i + dist]
                holding[i + dist] = upper
        dist //= 2
    # Ring All-Gather: every piece is in flight each round.
    rounds += p - 1
    words += (p - 1) * max(psize)
    return rounds, words


class TestScatterAllgatherKernels:
    """Closed-form broadcast words vs the direct replay, exhaustively."""

    def test_single_root_totals(self):
        for p in range(2, 18):
            for w in range(p, 4 * p + 4):
                rounds, total = _sab_all_roots(p, w)
                expected_total = 0
                for rho in range(p):
                    r, words = _replay_broadcast(p, w, (rho,))
                    assert r == rounds, (p, w, rho)
                    expected_total += words
                assert total == expected_total, (p, w)

    def test_merged_roots(self):
        for p in range(2, 18):
            for w in range(p, 4 * p + 4):
                assert _sab_merged_roots(p, w) == _replay_broadcast(
                    p, w, range(p)
                ), (p, w)

    def test_empty_pieces_refused(self):
        with pytest.raises(OracleUnsupportedError):
            _sab_all_roots(8, 7)
        with pytest.raises(OracleUnsupportedError):
            _sab_merged_roots(8, 7)

    def test_python_int_sums_past_int64(self):
        """Past int64 headroom the all-roots sum switches to Python ints."""
        w = 2 ** 61 + 5
        rounds, total = _sab_all_roots(5, w)
        assert rounds == _replay_broadcast(5, w, (0,))[0]
        assert total == sum(_replay_broadcast(5, w, (rho,))[1] for rho in range(5))


# --------------------------------------------------------------------- #
# the batch interface and its edge rows                                 #
# --------------------------------------------------------------------- #

#: Rows outside the int64/float64-exact range:
#: ``(name, dims, P, rounds, words, flops, config, bound, attainment)``.
_OUT_OF_RANGE = [
    ("summa", (2**20, 2**20, 2**14), 2**16, 134656, 8690073600.0,
     274877906944.0, "grid 256x256", 109526301.58219826, 79.34234493874695),
    ("alg1", (2**40,) * 3, 4096, 12, 1.3281655733070877e+22,
     3.2451855366285395e+32, "grid 16x16x16", 1.3281655733070837e+22,
     1.000000000000003),
    ("carma", (2**40, 2**40, 2**20), 1024, 15, 5.312767001919687e+21,
     1.2379400393202832e+27, "1023 splits", 6.980579422424269e+16,
     76107.82258064517),
    ("cannon", (3 * 2**30, 2**30, 2**30), 1024, 64, 1.4411518807585587e+17,
     3.6267774588438875e+24, "grid 32x32", 6.293532045046321e+16,
     2.2898936089360165),
    ("fox", (2**28,) * 3, 64, 87, 2.3643898043695104e+16,
     3.022314549036573e+23, "grid 8x8", 1.0133099161583588e+16,
     2.3333333333333397),
    ("c25d", (2**30,) * 3, 2048, 13, 5.854679515581645e+16,
     6.044629233181135e+23, "grid 16x16x8", 1.975820649813057e+16,
     2.963163441041872),
    ("alg1_abft", (2**30,) * 3, 512, 15, 6.07985949695017e+16,
     2.417851668502656e+24, "grid 8x8x8", 4.72877960873901e+16,
     1.2857142857142887),
    ("outer_1d", (2**21, 2**40, 2**21), 8, 3, 3848290697216.0,
     6.044629098111629e+23, "P=8", 3848290697216.0, 1.0),
    ("row_1d", (2**63, 4, 4), 4, 2, 12.0, 3.6893488147419103e+19, "P=4",
     0.0, math.inf),
]


class TestBatchInterface:
    def test_unknown_algorithm_raises(self):
        with pytest.raises(OracleUnsupportedError, match="unknown algorithm"):
            predict_batch("strassen", (8, 8, 8), 4)

    def test_nonpositive_dims_raise(self):
        with pytest.raises(ShapeError):
            predict_batch("alg1", (0, 8, 8), 4)

    def test_nonpositive_P_is_masked(self):
        batch = predict_batch("alg1", [(8, 8, 8), (8, 8, 8)], [0, 4])
        assert not batch.valid[0] and batch.valid[1]
        with pytest.raises(OracleUnsupportedError):
            batch.prediction(0)
        with pytest.raises(OracleUnsupportedError, match="positive"):
            predict_cost("alg1", ProblemShape(8, 8, 8), 0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError, match="mismatch"):
            predict_batch("alg1", [(8, 8, 8), (4, 4, 4)], [1, 2, 3])

    def test_broadcasting_one_shape_many_P(self):
        batch = predict_batch("cannon", (16, 16, 16), [1, 4, 5, 16])
        assert list(batch.valid) == [True, True, False, True]
        assert batch.configs[3] == "grid 4x4"

    def test_empty_batch(self):
        batch = predict_batch("alg1", [], [])
        assert len(batch) == 0
        assert batch.dims.shape == (0, 3)
        assert batch.configs == []

    def test_dims_past_int64(self):
        """A dimension of 2**63 makes the whole batch object dtype; the
        in-range row beside it still matches its own int64 batch."""
        batch = predict_batch("row_1d", [(2**63, 4, 4), (64, 4, 4)], 4)
        assert batch.dims.dtype == object
        assert batch.prediction(0).cost.words == 12.0
        alone = predict_batch("row_1d", (64, 4, 4), 4)
        assert batch.prediction(1) == alone.prediction(0)
        assert batch.gap_ratio[1] == alone.gap_ratio[0]

    @pytest.mark.parametrize(
        "name,dims,P,rounds,words,flops,config,bound,attainment",
        _OUT_OF_RANGE, ids=[row[0] for row in _OUT_OF_RANGE],
    )
    def test_out_of_range_rows_pinned(
        self, name, dims, P, rounds, words, flops, config, bound, attainment
    ):
        assert not _shape_in_safe_range(*dims, P)
        shape = ProblemShape(*dims)
        batch = predict_batch(name, dims, P)
        pred = batch.prediction(0)
        assert pred == predict_cost(name, shape, P)
        got = (pred.cost.rounds, pred.cost.words, pred.cost.flops,
               pred.config, pred.bound, pred.attainment)
        assert got == (rounds, words, flops, config, bound, attainment)
        check = check_cost_against_bound(shape, P, pred.cost)
        assert bool(batch.satisfied[0]) == check.satisfied
        gap = float(batch.gap_ratio[0])
        assert gap == check.gap_ratio or (
            math.isnan(gap) and math.isnan(check.gap_ratio)
        )

"""CARMA's exact model counts by per-level slab arithmetic.

:func:`repro.algorithms.carma.run_carma` halves the largest dimension at
every level and exchanges rectangle pieces between partner ranks.  Every
split it can execute halves an *even* dimension, so all subproblems at one
level have the same shape, and the only irregularity is the initial
``divmod`` row slabs of ``A`` (over ``n1``) and ``B`` (over ``n2``).  Each
rank unions its own pieces with its partner's and then clips them, so
after ``l`` levels rank ``r`` holds one piece of every slab ``s`` with
``s = r (mod P >> l)`` that meets its current region, and that piece is the
slab clipped to the region.  A message's words (4 metadata words plus the
area per piece) are then counts and overlap sums over an arithmetic
progression of slab indices: O(1) integer arithmetic per rank per level,
vectorized over the ranks.

The ``C`` combine after an ``n2`` split moves one half of the single ``C``
piece every rank holds (rows first, then columns, as ``run_carma`` splits
it); a ``1x1`` piece has no second half, so its lower rank would send an
empty message.

:func:`carma_counts` is the one predicate for "CARMA runs here": the
registry's applicability and the oracle's refusal both read it.  It
shares no code with ``run_carma``, which stays the independent witness.
"""

from __future__ import annotations

import functools
from typing import Tuple, Union

import numpy as np

from ..collectives.schedules import is_power_of_two

__all__ = ["carma_counts"]

#: ``(rounds, words, flops, splits)`` of a run CARMA can execute.
CarmaCounts = Tuple[int, int, int, int]

_EMPTY = ("carma replay produced an empty message; the executable run "
          "would reject this configuration")


def _slab(t, n: int, P: int):
    """Index of the ``divmod(n, P)`` slab holding row ``t`` (``P`` at ``t == n``)."""
    base, extra = divmod(n, P)
    edge = extra * (base + 1)
    return np.where(t < edge, t // (base + 1), extra + (t - edge) // base)


def _members(N, c, g: int):
    """How many ``s < N`` have ``s = c (mod g)``."""
    return (N - c + g - 1) // g


def _rows_below(t, n: int, P: int, c, g: int):
    """Rows of ``[0, t)`` that lie in slabs ``s = c (mod g)``."""
    base, extra = divmod(n, P)
    s = _slab(t, n, P)
    whole = base * _members(s, c, g) + _members(np.minimum(s, extra), c, g)
    start = s * base + np.minimum(s, extra)
    return whole + np.where((s - c) % g == 0, t - start, 0)


def _pieces(lo, hi, n: int, P: int, c, g: int):
    """Pieces and rows of slabs ``s = c (mod g)`` inside rows ``[lo, hi)``."""
    count = _members(_slab(hi - 1, n, P) + 1, c, g) - _members(_slab(lo, n, P), c, g)
    rows = _rows_below(hi, n, P, c, g) - _rows_below(lo, n, P, c, g)
    return count, rows


@functools.lru_cache(maxsize=65536)
def carma_counts(dims: Tuple[int, int, int], P: int) -> Union[CarmaCounts, str]:
    """``run_carma``'s ``(rounds, words, flops, splits)`` on ``dims`` over ``P`` ranks.

    Returns the reason as a string where the schedule cannot run: ``P``
    not a power of two, slabs thinner than one row, a split that would
    halve an odd dimension, or a round with an empty message.  Memoized,
    because sweeps ask the registry's applicability for every point.
    """
    n1, n2, n3 = dims
    if not is_power_of_two(P):
        return f"carma requires a power-of-two P, got {P}"
    if n1 < P or n2 < P:
        return (f"carma needs n1 >= P and n2 >= P for the slab distribution, "
                f"got {n1}x{n2}x{n3}, P={P}")
    # int64 holds every per-rank quantity below this; beyond it numpy
    # keeps Python integers in object arrays.
    exact = (n1 + n3) * n2 + 8 * P < 2**62
    zero = np.zeros(P, dtype=np.int64 if exact else object)
    ranks = np.arange(P)
    d = [n1, n2, n3]
    origin = [zero, zero, zero]  # each rank's region corner
    rounds = words = 0
    combines = []  # partner distance of every n2 split, top-down
    g = P  # group size: rank r holds the slabs s = r (mod g)
    while g > 1:
        largest = max(d)
        if largest % 2:
            return (f"carma would halve an odd dimension of size {largest} "
                    f"at subproblem {d[0]}x{d[1]}x{d[2]}")
        axis = 0 if d[0] == largest else 2 if d[2] == largest else 1
        half = g // 2
        upper = (ranks & half) != 0
        c = ranks % g
        # Rows of A (over n1) and of B (over n2) the partner needs, and the
        # width of every piece: the partner's half on the split axis.
        a_lo, a_len, a_width = origin[0], d[0], d[1]
        b_lo, b_len, b_width = origin[1], d[1], d[2]
        if axis == 0:
            a_len //= 2
            a_lo = a_lo + np.where(upper, 0, a_len)
        elif axis == 2:
            b_width //= 2
        else:
            a_width //= 2
            b_len //= 2
            b_lo = b_lo + np.where(upper, 0, b_len)
        a_count, a_rows = _pieces(a_lo, a_lo + a_len, n1, P, c, g)
        b_count, b_rows = _pieces(b_lo, b_lo + b_len, n2, P, c, g)
        sent = 4 * (a_count + b_count) + a_rows * a_width + b_rows * b_width
        if (sent == 0).any():
            return _EMPTY
        rounds += 1
        words += int(sent.max())
        d[axis] //= 2
        origin[axis] = origin[axis] + np.where(upper, d[axis], 0)
        if axis == 1:
            combines.append(half)
        g = half

    # Leaf products, then the combines bottom-up: each rank halves its one
    # C piece along its rows (columns once a single row is left), keeps
    # its own half and adds the partner's copy of it.
    flops = zero
    h = zero + d[0]
    w = zero + d[2]
    for half in reversed(combines):
        if ((h == 1) & (w == 1)).any():
            return _EMPTY
        rows = h > 1
        along = np.where(rows, h, w)
        keep = np.where((ranks & half) != 0, along - along // 2, along // 2)
        sent = (along - keep) * np.where(rows, w, h)
        rounds += 1
        words += 4 + int(sent.max())
        flops = flops + sent[ranks ^ half]
        h = np.where(rows, keep, h)
        w = np.where(rows, w, keep)
    return rounds, words, d[0] * d[1] * d[2] + int(flops.max()), P - 1

"""A single simulated processor: local store plus a view of its flop counter."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .store import LocalStore

__all__ = ["Processor"]


class Processor:
    """One of the ``P`` processors of the alpha-beta-gamma machine.

    :class:`~repro.machine.machine.Machine` creates a processor on the
    first :meth:`~repro.machine.machine.Machine.proc` call for its rank.

    Attributes
    ----------
    rank:
        Global rank in ``0 .. P-1``.
    store:
        The processor's private :class:`~repro.machine.store.LocalStore`.
    flops:
        Arithmetic operations performed so far, read from entry ``rank``
        of the per-rank counter array it was created with (the machine's
        :attr:`~repro.machine.machine.Machine.flops`, the store of record).
        For matrix multiplication we follow the paper and count *semiring
        multiply-add pairs* (one scalar multiply fused with its
        accumulation), so a local ``a x b x c`` block product adds
        ``a*b*c`` regardless of the semiring — ``x, +`` under
        ``plus_times``, ``+, min`` under ``min_plus`` (see
        :mod:`repro.machine.semiring`).  Charges are always derived from
        block *shapes*, never from elements, which is what makes every
        counter semiring-independent by construction.
    """

    def __init__(
        self, rank: int, flops: np.ndarray, memory_limit: Optional[float] = None
    ) -> None:
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        self.rank = rank
        self.store = LocalStore(rank, limit=memory_limit)
        self._flops = flops

    @property
    def flops(self) -> float:
        return float(self._flops[self.rank])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Processor(rank={self.rank}, flops={self.flops}, {len(self.store)} arrays)"

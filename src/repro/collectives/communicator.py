"""Communicators: MPI-style groups bound to a simulated machine.

A :class:`Communicator` owns an ordered tuple of global ranks and exposes
the collective operations as methods.  Because the simulator is written in
conductor style, collective inputs are mappings ``global rank -> local
data`` and outputs are mappings ``global rank -> local result`` — the same
information an SPMD program would hold, just gathered in one place.

For algorithms that run the *same* collective across many disjoint groups
simultaneously (e.g. Algorithm 1's All-Gathers along every grid fiber), use
the ``parallel_*`` module functions, which merge the per-group schedules
into shared network rounds so the measured critical path is correct.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..exceptions import CommunicatorError
from ..machine.machine import Machine
from .allgather import allgather_schedule
from .allreduce import allreduce_schedule
from .alltoall import alltoall_schedule
from .array_rounds import (
    ArrayReplay,
    allgather_replay,
    reduce_scatter_replay,
    replay_allgather,
    replay_broadcast,
    replay_reduce_scatter,
)
from .barrier import barrier_dissemination
from .broadcast import broadcast_schedule
from .gather import gather_schedule
from .ops import op_name
from .reduce import reduce_schedule
from .reduce_scatter import reduce_scatter_schedule
from .scatter import scatter_schedule
from .schedules import Schedule, run_schedule, run_schedules


def _reduce_label(label: str, op) -> str:
    """Tag a reducing collective's trace label with its *registered* op name.

    Spans and ledger-bound traces then show ``[op=min]`` instead of a raw
    ``<ufunc 'minimum'>`` repr.  The default ``sum`` stays untagged so
    existing traces are byte-identical.
    """
    name = op_name(op)
    if name == "sum":
        return label
    return f"{label} [op={name}]" if label else f"[op={name}]"

__all__ = [
    "Communicator",
    "parallel_allgather",
    "parallel_reduce_scatter",
    "parallel_broadcast",
    "parallel_allreduce",
    "parallel_alltoall",
    "array_allgather",
    "array_reduce_scatter",
]

#: The fewest messages per call from which a broadcast is replayed as array
#: rounds: below them the Message schedules cost less host time than the
#: replay's fixed cost, plan building included (measured on a 2-vCPU
#: x86_64 host; DESIGN.md, section 3a).
ARRAY_BROADCAST_MIN_MESSAGES = 16


class Communicator:
    """A group of processors on a :class:`~repro.machine.machine.Machine`.

    Parameters
    ----------
    machine:
        The machine the group lives on.
    ranks:
        Ordered global ranks forming the group.  Order defines each
        member's *group index* (used by block-addressed collectives).
    """

    def __init__(self, machine: Machine, ranks: Sequence[int]) -> None:
        ranks = tuple(ranks)
        if len(ranks) == 0:
            raise CommunicatorError("a communicator needs at least one rank")
        if len(set(ranks)) != len(ranks):
            raise CommunicatorError(f"duplicate ranks in group {ranks}")
        for r in ranks:
            if not 0 <= r < machine.n_procs:
                raise CommunicatorError(
                    f"rank {r} outside the machine's 0..{machine.n_procs - 1}"
                )
        self.machine = machine
        self.ranks = ranks

    # ------------------------------------------------------------------ #
    # group structure                                                    #
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        return len(self.ranks)

    def index(self, rank: int) -> int:
        """Group index of a global rank."""
        try:
            return self.ranks.index(rank)
        except ValueError:
            raise CommunicatorError(f"rank {rank} is not in group {self.ranks}") from None

    def sub(self, ranks: Sequence[int]) -> "Communicator":
        """A sub-communicator over a subset of this group's ranks."""
        for r in ranks:
            if r not in self.ranks:
                raise CommunicatorError(f"rank {r} is not in group {self.ranks}")
        return Communicator(self.machine, ranks)

    def split(self, key: Callable[[int], Any]) -> List["Communicator"]:
        """Partition the group by ``key(rank)``; one communicator per key.

        Communicators are returned sorted by key, ranks in original order.
        """
        buckets: Dict[Any, List[int]] = {}
        for r in self.ranks:
            buckets.setdefault(key(r), []).append(r)
        return [Communicator(self.machine, buckets[k]) for k in sorted(buckets)]

    # ------------------------------------------------------------------ #
    # collectives                                                        #
    # ------------------------------------------------------------------ #

    def _run(self, schedule: Schedule, kind: str, label: str) -> Any:
        # A measured event span: cost and exact per-rank word/message deltas
        # are captured from machine counter snapshots on entry/exit.
        with self.machine.spans.measure(label, kind, groups=(self.ranks,)):
            result = run_schedule(self.machine, schedule)
        return result

    def allgather(
        self,
        chunks: Mapping[int, np.ndarray],
        algorithm: str = "auto",
        label: str = "",
    ) -> Dict[int, List[np.ndarray]]:
        """All-Gather: every member ends with all members' chunks (group order)."""
        return self._run(
            allgather_schedule(self.ranks, chunks, algorithm=algorithm),
            "allgather",
            label,
        )

    def reduce_scatter(
        self,
        blocks: Mapping[int, Sequence[np.ndarray]],
        algorithm: str = "auto",
        label: str = "",
        op="sum",
    ) -> Dict[int, np.ndarray]:
        """Reduce-Scatter: member ``j`` ends with the reduction of block ``j``."""
        return self._run(
            reduce_scatter_schedule(
                self.ranks, blocks, machine=self.machine, algorithm=algorithm, op=op
            ),
            "reduce-scatter",
            _reduce_label(label, op),
        )

    def broadcast(
        self,
        root: int,
        value: np.ndarray,
        algorithm: str = "binomial",
        label: str = "",
    ) -> Dict[int, np.ndarray]:
        """Broadcast ``value`` from global rank ``root`` to the group."""
        return self._run(
            broadcast_schedule(self.ranks, root, value, algorithm=algorithm),
            "broadcast",
            label,
        )

    def reduce(
        self,
        root: int,
        values: Mapping[int, np.ndarray],
        label: str = "",
        op="sum",
    ) -> Dict[int, Optional[np.ndarray]]:
        """Reduce ``values`` across the group; result lands at ``root``."""
        return self._run(
            reduce_schedule(self.ranks, root, values, machine=self.machine, op=op),
            "reduce",
            _reduce_label(label, op),
        )

    def allreduce(
        self,
        values: Mapping[int, np.ndarray],
        algorithm: str = "auto",
        label: str = "",
        op="sum",
    ) -> Dict[int, np.ndarray]:
        """Reduce ``values`` across the group; everyone gets the result."""
        return self._run(
            allreduce_schedule(self.ranks, values, machine=self.machine,
                               algorithm=algorithm, op=op),
            "allreduce",
            _reduce_label(label, op),
        )

    def scatter(
        self,
        root: int,
        blocks: Mapping[int, np.ndarray],
        label: str = "",
    ) -> Dict[int, np.ndarray]:
        """Scatter per-member blocks from ``root``."""
        return self._run(scatter_schedule(self.ranks, root, blocks), "scatter", label)

    def gather(
        self,
        root: int,
        chunks: Mapping[int, np.ndarray],
        label: str = "",
    ) -> Dict[int, Optional[List[np.ndarray]]]:
        """Gather every member's chunk to ``root`` (group order)."""
        return self._run(gather_schedule(self.ranks, root, chunks), "gather", label)

    def alltoall(
        self,
        blocks: Mapping[int, Sequence[np.ndarray]],
        label: str = "",
    ) -> Dict[int, List[np.ndarray]]:
        """Personalized all-to-all exchange."""
        return self._run(alltoall_schedule(self.ranks, blocks), "alltoall", label)

    def barrier(self, label: str = "") -> Dict[int, bool]:
        """Dissemination barrier (latency only)."""
        return self._run(barrier_dissemination(self.ranks), "barrier", label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator(size={self.size}, ranks={self.ranks})"


# ---------------------------------------------------------------------- #
# parallel (multi-group) collectives                                     #
# ---------------------------------------------------------------------- #


def _measure(machine: Machine, groups: Sequence[Sequence[int]], kind: str, label: str):
    """The event span attributing one parallel collective's exact cost."""
    return machine.spans.measure(label, kind, groups=tuple(tuple(g) for g in groups))


def _run_replay(
    machine: Machine, groups, kind: str, label: str, replay: ArrayReplay
) -> Dict[int, Any]:
    with _measure(machine, groups, kind, label):
        return replay.run(machine)


def _run_parallel(
    machine: Machine,
    schedules: List[Schedule],
    groups: Sequence[Sequence[int]],
    kind: str,
    label: str,
) -> List[Any]:
    with _measure(machine, groups, kind, label):
        return run_schedules(machine, schedules)


def parallel_allgather(
    machine: Machine,
    groups: Sequence[Sequence[int]],
    chunks: Mapping[int, np.ndarray],
    algorithm: str = "auto",
    label: str = "",
) -> Dict[int, List[np.ndarray]]:
    """All-Gather over several disjoint groups in merged rounds.

    ``chunks`` maps every participating global rank to its chunk; the
    result maps every rank to the list of its group's chunks.  This is how
    Algorithm 1 runs the All-Gather of, say, ``A`` across all ``p1*p2``
    fibers ``(p1', p2', :)`` *simultaneously*, as a real SPMD program would.

    With symbolic chunks on a fault-free machine the schedules are
    replayed as array rounds (:mod:`repro.collectives.array_rounds`), with
    identical counts; the members of a group then share one result list.
    """
    replay = replay_allgather(machine, groups, chunks, algorithm)
    if replay is not None:
        return _run_replay(machine, groups, "allgather", label, replay)
    schedules = [
        allgather_schedule(g, {r: chunks[r] for r in g}, algorithm=algorithm) for g in groups
    ]
    results = _run_parallel(machine, schedules, groups, "allgather", label)
    merged: Dict[int, List[np.ndarray]] = {}
    for res in results:
        merged.update(res)
    return merged


def parallel_reduce_scatter(
    machine: Machine,
    groups: Sequence[Sequence[int]],
    blocks: Mapping[int, Sequence[np.ndarray]],
    algorithm: str = "auto",
    label: str = "",
    op="sum",
) -> Dict[int, np.ndarray]:
    """Reduce-Scatter over several disjoint groups in merged rounds.

    With symbolic blocks on a fault-free machine the schedules are
    replayed as array rounds (:mod:`repro.collectives.array_rounds`), with
    identical counts.
    """
    replay = replay_reduce_scatter(machine, groups, blocks, algorithm, op)
    if replay is not None:
        return _run_replay(
            machine, groups, "reduce-scatter", _reduce_label(label, op), replay
        )
    schedules = [
        reduce_scatter_schedule(
            g, {r: blocks[r] for r in g}, machine=machine, algorithm=algorithm, op=op
        )
        for g in groups
    ]
    results = _run_parallel(
        machine, schedules, groups, "reduce-scatter", _reduce_label(label, op)
    )
    merged: Dict[int, np.ndarray] = {}
    for res in results:
        merged.update(res)
    return merged


def array_allgather(
    machine: Machine,
    G: np.ndarray,
    sizes: np.ndarray,
    algorithm: str = "auto",
    label: str = "",
) -> None:
    """:func:`parallel_allgather` given as arrays, with no blocks at all.

    Group ``f`` is row ``f`` of the ``F x p`` rank array ``G`` and its
    members' chunks hold ``sizes[f]`` words.  Runs the array replay on a
    fault-free machine and records the same event span; nothing is
    returned, since symbolic results are shapes the caller already knows.
    """
    replay = allgather_replay(G, sizes, algorithm)
    _run_replay(machine, G.tolist(), "allgather", label, replay)


def array_reduce_scatter(
    machine: Machine,
    G: np.ndarray,
    sizes: np.ndarray,
    algorithm: str = "auto",
    label: str = "",
    op="sum",
) -> None:
    """:func:`parallel_reduce_scatter` given as arrays, with no blocks at all.

    Every member of group ``f`` (row ``f`` of ``G``) holds ``p`` blocks of
    ``sizes[f]`` words; member ``j`` ends with block ``j`` reduced.  Runs
    the array replay on a fault-free machine, charges the reduction flops
    and records the same event span as the block path.
    """
    replay = reduce_scatter_replay(G, sizes, algorithm, op)
    _run_replay(machine, G.tolist(), "reduce-scatter", _reduce_label(label, op), replay)


def parallel_broadcast(
    machine: Machine,
    groups: Sequence[Sequence[int]],
    roots: Sequence[int],
    values: Mapping[int, np.ndarray],
    algorithm: str = "binomial",
    label: str = "",
) -> Dict[int, np.ndarray]:
    """Broadcast over several disjoint groups (``roots[i]`` for ``groups[i]``).

    On a fault-free machine, with equal-sized groups and values that are
    all symbolic or all float arrays of one dtype, a call whose Message
    schedules would send at least :data:`ARRAY_BROADCAST_MIN_MESSAGES`
    messages is replayed as array rounds with the same counts
    (:func:`repro.collectives.array_rounds.replay_broadcast`); data values
    still travel, through one buffer.  Smaller calls cost less as Messages.
    """
    p = len(groups[0]) if groups else 0
    messages = len(groups) * (p - 1) * (p + 1 if algorithm == "scatter_allgather" else 1)
    replay = None
    if messages >= ARRAY_BROADCAST_MIN_MESSAGES:
        replay = replay_broadcast(machine, groups, roots, values, algorithm)
    if replay is not None:
        return _run_replay(machine, groups, "broadcast", label, replay)
    schedules = [
        broadcast_schedule(g, root, values[root], algorithm=algorithm)
        for g, root in zip(groups, roots)
    ]
    results = _run_parallel(machine, schedules, groups, "broadcast", label)
    merged: Dict[int, np.ndarray] = {}
    for res in results:
        merged.update(res)
    return merged


def parallel_allreduce(
    machine: Machine,
    groups: Sequence[Sequence[int]],
    values: Mapping[int, np.ndarray],
    algorithm: str = "auto",
    label: str = "",
    op="sum",
) -> Dict[int, np.ndarray]:
    """All-Reduce over several disjoint groups in merged rounds."""
    schedules = [
        allreduce_schedule(g, {r: values[r] for r in g}, machine=machine,
                           algorithm=algorithm, op=op)
        for g in groups
    ]
    results = _run_parallel(
        machine, schedules, groups, "allreduce", _reduce_label(label, op)
    )
    merged: Dict[int, np.ndarray] = {}
    for res in results:
        merged.update(res)
    return merged


def parallel_alltoall(
    machine: Machine,
    groups: Sequence[Sequence[int]],
    blocks: Mapping[int, Sequence[np.ndarray]],
    label: str = "",
) -> Dict[int, List[np.ndarray]]:
    """All-to-All over several disjoint groups in merged rounds."""
    schedules = [alltoall_schedule(g, {r: blocks[r] for r in g}) for g in groups]
    results = _run_parallel(machine, schedules, groups, "alltoall", label)
    merged: Dict[int, List[np.ndarray]] = {}
    for res in results:
        merged.update(res)
    return merged

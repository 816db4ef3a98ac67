"""The simulated distributed-memory machine.

:class:`Machine` bundles a :class:`~repro.machine.network.FullyConnectedNetwork`,
the per-rank flop counters, a :class:`~repro.machine.cost.CostModel`, a
:class:`~repro.obs.span.SpanRecorder` and up to ``P``
:class:`~repro.machine.processor.Processor` objects, each created with its
store on the first :meth:`Machine.proc` call for its rank.  Algorithms
obtain communicators from it (see :mod:`repro.collectives.communicator`)
and all data movement flows through :meth:`Machine.exchange` or the
network's array rounds, so cost accounting is complete by construction.

Per-rank counters are arrays: the network's ``sent_words`` /
``recv_words`` (float64) and ``sent_messages`` / ``recv_messages``
(int64), and :attr:`Machine.flops` (float64).  Snapshots copy them, deltas
subtract them, and the cost, conservation and skew queries reduce them.
Every entry is a whole number below ``2**53``, so array sums are exact in
any order.

Design notes
------------
The simulator is written in the "conductor" (god-view SPMD) style: one Python
thread orchestrates all ranks, but data locality is enforced — each rank's
arrays live in its own :class:`~repro.machine.store.LocalStore`, messages are
deep-copied in transit, and any access pattern that would be impossible on a
real distributed machine (reading another rank's store without a message)
simply is not offered by the API used by the algorithms.  This is the
standard approach for counting *model* quantities exactly: a real MPI run
(the paper is analysis-only) could confirm trends but its measured bytes
would include protocol overheads that obscure the constants the paper is
about.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from ..exceptions import FaultDetectedError
from ..obs.metrics import MetricsRegistry
from ..obs.span import SpanRecorder
from .backend import Backend, resolve_backend
from .cost import Cost, CostModel
from .faults import active_injector, coerce_injector
from .message import Message
from .network import FullyConnectedNetwork
from .processor import Processor

__all__ = ["Machine", "CounterSnapshot"]


def _pairwise_delta(name: str, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """``after - before``; both sides must cover the same ranks."""
    if len(before) != len(after):
        raise ValueError(
            f"cannot diff {name}: snapshots cover {len(before)} vs "
            f"{len(after)} ranks (snapshots from different machines?)"
        )
    return after - before


@dataclasses.dataclass(frozen=True)
class CounterSnapshot:
    """Immutable snapshot of a machine's cumulative counters.

    The per-rank fields are array copies (float64 words and flops, int64
    message counts).  The fault counters (``faults_injected``, ``retries``,
    ``words_resent``) come from the attached fault injector and stay zero
    on fault-free machines, so snapshots and their deltas are unchanged by
    the fault layer unless faults actually happen.
    """

    cost: Cost
    total_words: float
    sent_words: np.ndarray
    recv_words: np.ndarray
    flops: np.ndarray
    sent_messages: np.ndarray
    recv_messages: np.ndarray
    faults_injected: int = 0
    retries: int = 0
    words_resent: float = 0.0
    recoveries: int = 0
    words_recovered: float = 0.0

    def delta(self, later: "CounterSnapshot") -> "CounterSnapshot":
        """Per-counter difference ``later - self``.

        Raises
        ------
        ValueError
            If the two snapshots cover different processor counts.
        """
        return CounterSnapshot(
            cost=later.cost - self.cost,
            total_words=later.total_words - self.total_words,
            sent_words=_pairwise_delta("sent_words", self.sent_words, later.sent_words),
            recv_words=_pairwise_delta("recv_words", self.recv_words, later.recv_words),
            flops=_pairwise_delta("flops", self.flops, later.flops),
            sent_messages=_pairwise_delta(
                "sent_messages", self.sent_messages, later.sent_messages
            ),
            recv_messages=_pairwise_delta(
                "recv_messages", self.recv_messages, later.recv_messages
            ),
            faults_injected=later.faults_injected - self.faults_injected,
            retries=later.retries - self.retries,
            words_resent=later.words_resent - self.words_resent,
            recoveries=later.recoveries - self.recoveries,
            words_recovered=later.words_recovered - self.words_recovered,
        )


class Machine:
    """A ``P``-processor distributed-memory machine in the alpha-beta-gamma model.

    Parameters
    ----------
    n_procs:
        Number of processors ``P >= 1``.
    cost_model:
        Machine parameters; defaults to ``alpha=1, beta=1, gamma=0``.
    memory_limit:
        Per-processor local memory ``M`` in words, or ``None`` (default)
        for the paper's memory-independent setting.
    backend:
        Execution backend (name or :class:`~repro.machine.backend.Backend`);
        ``None`` (default) selects the data backend.  The machine itself is
        backend-agnostic — blocks of either kind flow through the same
        stores, messages and counters — so this attribute is provenance:
        it records which mode the run was built for, and is surfaced in
        exporters and ledger records.
    faults:
        A :class:`~repro.machine.faults.FaultModel` or
        :class:`~repro.machine.faults.FaultInjector` attached to the
        network, or ``None`` (default) — in which case an ambient injector
        opened with :func:`repro.machine.faults.inject` is picked up, if
        one is active.  With no injector the network takes its unmodified
        fast path and costs are bit-identical to a fault-layer-free build.

    Examples
    --------
    >>> from repro.machine import Machine
    >>> m = Machine(4)
    >>> m.n_procs
    4
    >>> m.comm_world().size
    4
    """

    def __init__(
        self,
        n_procs: int,
        cost_model: Optional[CostModel] = None,
        memory_limit: Optional[float] = None,
        backend: Optional[Backend] = None,
        faults=None,
    ) -> None:
        if n_procs < 1:
            raise ValueError(f"need at least one processor, got {n_procs}")
        self.n_procs = n_procs
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.memory_limit = memory_limit
        self.backend = resolve_backend(backend)
        #: Arithmetic operations performed so far, per rank (see
        #: :class:`~repro.machine.processor.Processor` for what counts).
        self.flops = np.zeros(n_procs)
        self._processors: Dict[int, Processor] = {}
        # Largest footprint of an array replay that kept no stores.
        self._replay_peak_words = 0
        self.network = FullyConnectedNetwork(n_procs)
        if faults is not None:
            self.network.fault_injector = coerce_injector(faults)
        else:
            self.network.fault_injector = active_injector()
        self.metrics = MetricsRegistry()
        #: The run's span tree; collectives and compute phases record
        #: their event spans here.
        self.spans = SpanRecorder(self)

    # ------------------------------------------------------------------ #
    # access                                                             #
    # ------------------------------------------------------------------ #

    def proc(self, rank: int) -> Processor:
        """The processor with the given global rank (created on first use)."""
        processor = self._processors.get(rank)
        if processor is None:
            if not 0 <= rank < self.n_procs:
                raise IndexError(f"rank {rank} outside 0..{self.n_procs - 1}")
            processor = self._processors[rank] = Processor(
                rank, self.flops, memory_limit=self.memory_limit
            )
        return processor

    @property
    def processors(self) -> List[Processor]:
        """All ``P`` processors in rank order (creates the missing ones)."""
        return [self.proc(rank) for rank in range(self.n_procs)]

    def comm_world(self):
        """A communicator over all ``P`` processors.

        Imported lazily to avoid a circular import between the machine and
        collectives layers.
        """
        from ..collectives.communicator import Communicator

        return Communicator(self, tuple(range(self.n_procs)))

    # ------------------------------------------------------------------ #
    # execution primitives                                               #
    # ------------------------------------------------------------------ #

    def exchange(self, messages: Iterable[Message]) -> Dict[int, Any]:
        """Execute one network round; see
        :meth:`repro.machine.network.FullyConnectedNetwork.execute_round`."""
        return self.network.execute_round(messages)

    def compute(self, rank: int, flops: float) -> None:
        """Charge ``flops`` arithmetic operations to processor ``rank``."""
        if not 0 <= rank < self.n_procs:
            raise IndexError(f"rank {rank} outside 0..{self.n_procs - 1}")
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        self.flops[rank] += flops

    def compute_ranks(self, flops: np.ndarray, ranks: Optional[np.ndarray] = None) -> None:
        """Charge ``flops[k]`` operations to rank ``ranks[k]`` in one array add.

        ``ranks`` must not repeat a rank; ``None`` means every rank in
        order, with ``flops`` of length ``P``.
        """
        flops = np.asarray(flops, dtype=np.float64)
        if flops.size and flops.min() < 0:
            raise ValueError(f"flops must be non-negative, got {flops.min()}")
        if ranks is None:
            self.flops += flops
        else:
            self.flops[ranks] += flops

    def span(self, name: str, kind: str = "phase", groups=()):
        """Open a nested, auto-measured span (context manager).

        Example
        -------
        >>> m = Machine(2)
        >>> with m.span("allgather-A", kind="collective"):
        ...     pass  # collectives run here attribute to this span
        >>> m.spans.roots[0].name
        'allgather-A'
        """
        return self.spans.span(name, kind=kind, groups=groups)

    # ------------------------------------------------------------------ #
    # counters                                                           #
    # ------------------------------------------------------------------ #

    @property
    def cost(self) -> Cost:
        """Cumulative critical-path cost: network rounds/words plus the
        *maximum* per-processor flop count (compute proceeds in parallel)."""
        comm = self.network.cost
        return Cost(rounds=comm.rounds, words=comm.words, flops=float(self.flops.max()))

    @property
    def time(self) -> float:
        """Modelled execution time of everything run so far."""
        return self.cost_model.time(self.cost)

    @property
    def fault_injector(self):
        """The attached fault injector, or ``None`` on a clean machine."""
        return self.network.fault_injector

    def check_conservation(self) -> None:
        """Enforce the conservation invariant ``sum(sent) == sum(recv)``.

        Every transmission the network charges is symmetric — the words a
        sender pays are the words some receiver pays, faulted or not — so
        any imbalance means words leaked out of (or appeared in) the
        accounting: a fault-layer bug that would poison every measured
        cost downstream.  Checked automatically at span close whenever a
        fault injector is attached (zero overhead on clean machines).

        Raises
        ------
        FaultDetectedError
            On imbalance, reporting both sums and the drift.
        """
        sent = float(self.network.sent_words.sum())
        recv = float(self.network.recv_words.sum())
        if abs(sent - recv) > 1e-9 * max(1.0, abs(sent)):
            raise FaultDetectedError(
                f"conservation violated: sum(sent_words)={sent:g} but "
                f"sum(recv_words)={recv:g} (drift {sent - recv:+g}); some "
                f"transmission was charged asymmetrically"
            )

    def snapshot(self) -> CounterSnapshot:
        """Snapshot all cumulative counters (for delta measurements)."""
        injector = self.network.fault_injector
        return CounterSnapshot(
            cost=self.cost,
            total_words=self.network.total_words,
            sent_words=self.network.sent_words.copy(),
            recv_words=self.network.recv_words.copy(),
            flops=self.flops.copy(),
            sent_messages=self.network.sent_messages.copy(),
            recv_messages=self.network.recv_messages.copy(),
            faults_injected=0 if injector is None else injector.faults_injected,
            retries=0 if injector is None else injector.retries,
            words_resent=0.0 if injector is None else injector.words_resent,
            recoveries=0 if injector is None else getattr(injector, "recoveries", 0),
            words_recovered=(
                0.0 if injector is None else getattr(injector, "words_recovered", 0.0)
            ),
        )

    def reset_counters(self) -> None:
        """Zero all cost counters, the spans and metrics; stores keep data."""
        self.network.reset()
        self.flops.fill(0.0)
        self.spans.clear()
        self.metrics.reset()

    def reset(self) -> None:
        """Full reset: counters, spans, and every processor's store."""
        self.reset_counters()
        for p in self._processors.values():
            p.store.clear()
            p.store.reset_peak()
        self._replay_peak_words = 0

    def peak_memory_words(self) -> int:
        """Largest peak footprint over all processors.

        Covers the stores of the processors created so far and the peaks
        noted by array replays (:meth:`note_peak_words`); a processor never
        created never held a word.
        """
        stores = (p.store.peak_words for p in self._processors.values())
        return max(self._replay_peak_words, max(stores, default=0))

    def note_peak_words(self, peak: int) -> None:
        """Record the largest per-rank footprint of a run that kept no stores.

        Array replays compute every rank's footprint from the put/free
        sequence the store path would perform and report its maximum here,
        so :meth:`peak_memory_words` answers as if the stores had been
        used.  Cleared by :meth:`reset`.
        """
        self._replay_peak_words = max(self._replay_peak_words, int(peak))

    def rank_skew(self, counter: str = "sent_words"):
        """Load-imbalance summary of a per-rank counter vector.

        ``counter`` is one of ``"sent_words"``, ``"recv_words"`` or
        ``"flops"``.  The vector is derived from the recorded event spans'
        per-rank attribution when it reconciles exactly with the network
        counters (the zero-drift invariant), and falls back to the raw
        cumulative counters when some events were recorded with explicit
        costs only (:meth:`~repro.obs.span.SpanRecorder.record_event`
        carries no per-rank attribution).  Either way the statistics
        describe exactly the words the machine moved.
        """
        from ..obs.metrics import rank_skew

        if counter == "flops":
            totals = self.flops
        elif counter in ("sent_words", "recv_words"):
            totals = getattr(self.network, counter)
        else:
            raise ValueError(
                f"unknown counter {counter!r}; expected 'sent_words', "
                f"'recv_words' or 'flops'"
            )
        span_sums = np.zeros(self.n_procs)
        for event in self.spans.events():
            per_rank = getattr(event, counter)
            if len(per_rank) == self.n_procs:
                span_sums += per_rank
        drift = np.abs(span_sums - totals) > 1e-9 * np.maximum(1.0, np.abs(totals))
        return rank_skew(totals if drift.any() else span_sums)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(P={self.n_procs}, rounds={self.network.rounds}, "
            f"critical_words={self.network.critical_words})"
        )

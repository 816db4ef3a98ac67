"""The fully connected network of the alpha-beta-gamma machine model.

The paper's machine model (Section 3.1):

* every pair of processors has a dedicated bidirectional link (no
  contention between different pairs);
* each processor can send at most one message **and** receive at most one
  message at the same time;
* the communication cost of simultaneously transmitted messages is that of
  the largest one, and the algorithm's communication cost is accumulated
  along the critical path.

:class:`FullyConnectedNetwork` executes *rounds*: a round is a set of
messages obeying the one-send/one-receive rule.  Executing a round

1. validates the rule (raising :class:`~repro.exceptions.NetworkContentionError`
   on violation),
2. charges ``1`` round and ``max(message words)`` critical-path words,
3. accumulates per-processor sent/received word counters, and
4. delivers the (copied) payloads to their destinations.

Collectives (see :mod:`repro.collectives`) are built purely out of rounds,
so their measured cost is exactly what the paper's analysis predicts.

:meth:`FullyConnectedNetwork.execute_array_rounds` is the same round
semantics for array replays on a fault-free machine: a round is three int
arrays ``(src, dest, words)``, and an item may hold several consecutive
rounds as flat arrays plus round bounds; each item is validated with
``np.bincount`` and charged to the same counters.  Payloads, if any, are
moved by the caller (:mod:`repro.collectives.array_rounds`).

The per-rank counters are numpy arrays (float64 words, int64 message
counts).  Every value is a whole number below ``2**53``, so sums are exact
in any order and an array fold equals the per-message additions.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..exceptions import (
    FaultDetectedError,
    InvalidMessageError,
    NetworkContentionError,
    RankFailedError,
    ReproError,
)
from .cost import Cost
from .message import Message

__all__ = ["FullyConnectedNetwork", "RoundSummary"]


class RoundSummary:
    """Summary statistics of one executed network round."""

    __slots__ = ("index", "n_messages", "max_words", "total_words", "tags")

    def __init__(self, index: int, messages: Sequence[Message]) -> None:
        words = [m.words for m in messages]
        self.index = index
        self.n_messages = len(messages)
        self.max_words = max(words, default=0)
        self.total_words = sum(words)
        self.tags = tuple(sorted({m.tag for m in messages if m.tag}))

    @classmethod
    def of_counts(
        cls, index: int, n_messages: int, max_words: int, total_words: int, tag: str
    ) -> "RoundSummary":
        """A summary of a round known only by its counts (array rounds)."""
        summary = cls(index, ())
        summary.n_messages = n_messages
        summary.max_words = max_words
        summary.total_words = total_words
        summary.tags = (tag,) if tag else ()
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoundSummary(#{self.index}: {self.n_messages} msgs, "
            f"max={self.max_words}w, total={self.total_words}w)"
        )


class FullyConnectedNetwork:
    """Executes communication rounds and accounts their cost.

    Parameters
    ----------
    n_procs:
        Number of processors ``P`` attached to the network.  Ranks are
        ``0 .. P-1``.
    """

    def __init__(self, n_procs: int) -> None:
        if n_procs < 1:
            raise ValueError(f"need at least one processor, got {n_procs}")
        self.n_procs = n_procs
        #: Attached :class:`~repro.machine.faults.FaultInjector`, or ``None``
        #: (the default — the clean fast path is then byte-identical to a
        #: build without the fault layer).  Survives :meth:`reset` so a
        #: machine reused across runs keeps its fault regime.
        self.fault_injector = None
        self.reset()

    # ------------------------------------------------------------------ #
    # counters                                                           #
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Zero every counter (rounds, critical words, per-processor volumes)."""
        self.rounds: int = 0
        self.critical_words: float = 0.0
        self.total_words: float = 0.0
        self.sent_words = np.zeros(self.n_procs)
        self.recv_words = np.zeros(self.n_procs)
        self.sent_messages = np.zeros(self.n_procs, dtype=np.int64)
        self.recv_messages = np.zeros(self.n_procs, dtype=np.int64)
        # Memoryviews of the four arrays: a per-message ``view[rank] += w``
        # costs about half of a numpy scalar update.
        self._views = tuple(memoryview(a) for a in (
            self.sent_words, self.recv_words, self.sent_messages, self.recv_messages))
        self.round_log: List[RoundSummary] = []
        self._edge_words: Dict[tuple, float] = {}
        # Array rounds' traffic, as (first-seen-ordered link keys
        # src * P + dest, words) array pairs folded into the dict on read.
        self._pending_edges: List[Tuple[np.ndarray, np.ndarray]] = []

    @property
    def edge_words(self) -> Dict[tuple, float]:
        """Cumulative words per directed ``(src, dest)`` link — the traffic
        matrix, compared across backends by
        :func:`~repro.analysis.verification.cross_check_backends`."""
        if self._pending_edges:
            edges = self._edge_words
            n = self.n_procs
            for keys, words in self._pending_edges:
                for key, w in zip(keys.tolist(), words.tolist()):
                    link = divmod(key, n)
                    edges[link] = edges.get(link, 0.0) + w
            self._pending_edges = []
        return self._edge_words

    @property
    def cost(self) -> Cost:
        """Communication cost accumulated so far (no flops — see Machine)."""
        return Cost(rounds=self.rounds, words=self.critical_words, flops=0.0)

    def per_processor_words(self, rank: int) -> float:
        """Words sent plus received by ``rank`` so far.

        For the symmetric collectives used by Algorithm 1 this equals twice
        the send volume; the lower bound of Theorem 3 counts the data a
        processor must *access*, which our verification layer compares with
        ``recv_words`` + initially owned data.
        """
        return float(self.sent_words[rank] + self.recv_words[rank])

    # ------------------------------------------------------------------ #
    # round execution                                                    #
    # ------------------------------------------------------------------ #

    def _validate_round(self, messages: Sequence[Message]) -> None:
        n = self.n_procs
        senders: Dict[int, Message] = {}
        receivers: Dict[int, Message] = {}
        for msg in messages:
            src, dest = msg.src, msg.dest
            if not (0 <= src < n and 0 <= dest < n):
                raise NetworkContentionError(
                    f"message {msg!r} references a rank outside 0..{n - 1}"
                )
            if src in senders:
                raise NetworkContentionError(
                    f"processor {src} attempts two sends in one round: "
                    f"{senders[src]!r} and {msg!r}"
                )
            if dest in receivers:
                raise NetworkContentionError(
                    f"processor {dest} attempts two receives in one round: "
                    f"{receivers[dest]!r} and {msg!r}"
                )
            senders[src] = msg
            receivers[dest] = msg

    def execute_round(self, messages: Iterable[Message]) -> Dict[int, Any]:
        """Execute one communication round.

        Parameters
        ----------
        messages:
            Messages to transmit concurrently.  Must obey the
            one-send/one-receive-per-processor rule.  An empty round is a
            no-op costing nothing (it is *not* counted as a round).

        Returns
        -------
        dict
            Mapping ``dest rank -> delivered payload``.  Payloads were
            already copied at :class:`~repro.machine.message.Message`
            construction, so receivers own their data.
        """
        msgs = list(messages)
        if not msgs:
            return {}
        self._validate_round(msgs)
        if self.fault_injector is not None:
            return self._execute_round_faulty(msgs, self.fault_injector)

        self._charge_round(msgs)
        deliveries: Dict[int, Any] = {}
        edges = self.edge_words
        sent, recv, sent_msgs, recv_msgs = self._views
        for msg in msgs:
            src, dest, words = msg.src, msg.dest, msg.words
            sent[src] += words
            recv[dest] += words
            sent_msgs[src] += 1
            recv_msgs[dest] += 1
            key = (src, dest)
            edges[key] = edges.get(key, 0.0) + words
            deliveries[dest] = msg.payload
        return deliveries

    def execute_array_rounds(
        self,
        rounds: Iterable[Tuple[np.ndarray, ...]],
        tag: str = "",
    ) -> None:
        """Execute consecutive payload-free rounds given as int arrays.

        Each item is one round ``(src, dest, words)`` tagged ``tag`` —
        message ``k`` moves ``words[k]`` words from rank ``src[k]`` to rank
        ``dest[k]`` — or several consecutive rounds ``(src, dest, words,
        bounds, item_tag)`` whose round ``j`` is messages
        ``bounds[j]:bounds[j + 1]``, all tagged ``item_tag``.  The rules
        and charges are those of :meth:`execute_round` on the equivalent
        :class:`~repro.machine.message.Message` lists (zero-word messages
        allowed, as with ``empty_ok=True``): an empty round is free, and
        each other round costs one round and its largest message on the
        critical path, and appends one :class:`RoundSummary`.  All the
        rounds of an item are validated with one ``np.bincount`` over
        ``(round, rank)`` keys and charged with one ``np.bincount`` per
        counter.  An item with an invalid round is instead executed one
        round at a time, so the rounds before the invalid one stay charged
        and its own error is raised, exactly as for one-round items.
        Nothing is delivered.

        Raises
        ------
        InvalidMessageError
            On a self-send, a negative rank or a negative word count, as
            :class:`~repro.machine.message.Message` construction would.
        NetworkContentionError
            On a rank outside ``0..P-1`` or two sends or two receives at
            one rank within a round, as :meth:`execute_round` would.
        ReproError
            When a fault injector is attached: faulted rounds need real
            messages and take :meth:`execute_round`.
        """
        if self.fault_injector is not None:
            raise ReproError(
                "array rounds cannot run with a fault injector attached; "
                "faulted rounds must be executed message by message"
            )
        n = self.n_procs
        edge_keys: List[np.ndarray] = []
        edge_vals: List[np.ndarray] = []
        links = None  # the (src, dest) arrays of the last one-round item
        try:
            for item in rounds:
                src, dest, words = item[:3]
                if len(src) == 0:
                    continue
                one_round = len(item) == 3
                same_links = (
                    one_round and links is not None
                    and src is links[0] and dest is links[1]
                )
                links = (src, dest) if one_round else None
                src, dest, words = (
                    np.asarray(a, dtype=np.int64) for a in (src, dest, words)
                )
                if one_round:
                    self._execute_one_round(src, dest, words, tag)
                else:
                    bounds = np.asarray(item[3], dtype=np.int64)
                    if not self._execute_rounds(src, dest, words, bounds, item[4]):
                        # Some round is invalid: charge round by round up
                        # to it, which raises its own error.
                        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                            if lo < hi:
                                part = src[lo:hi], dest[lo:hi], words[lo:hi]
                                self._execute_one_round(*part, item[4])
                                edge_keys.append(part[0] * n + part[1])
                                edge_vals.append(part[2])
                        continue
                if same_links:
                    # Ring schedules reuse one (src, dest) pair every round:
                    # add to its traffic instead of keeping P keys per round.
                    edge_vals[-1] = edge_vals[-1] + words
                else:
                    edge_keys.append(src * n + dest)
                    edge_vals.append(words)
        finally:
            self._fold_edges(edge_keys, edge_vals)

    def _execute_one_round(self, src, dest, words, tag: str) -> None:
        """Validate and charge one non-empty array round."""
        n = self.n_procs
        self._validate_array_round(src, dest, words)
        src_counts = np.bincount(src, minlength=n)
        dest_counts = np.bincount(dest, minlength=n)
        if src_counts.max() > 1 or dest_counts.max() > 1:
            self._raise_contention(src, dest, src_counts, dest_counts)
        self._charge_array_rounds(
            src, dest, words, src_counts, dest_counts,
            [len(src)], [int(words.max())], [int(words.sum())], tag,
        )

    def _execute_rounds(self, src, dest, words, bounds, tag: str) -> bool:
        """Validate and charge the rounds of one item, or charge nothing.

        Returns ``False``, with no counter touched, when any round breaks
        a rule; the caller then replays the item round by round.
        """
        n = self.n_procs
        if not (len(src) == len(dest) == len(words) == bounds[-1] and bounds[0] == 0):
            raise ValueError(
                f"array rounds need equal-length src/dest/words spanned by "
                f"bounds, got {len(src)}/{len(dest)}/{len(words)} and "
                f"bounds {int(bounds[0])}..{int(bounds[-1])}"
            )
        sizes = bounds[1:] - bounds[:-1]
        smallest = sizes.min()
        if smallest < 0:
            raise ValueError("array round bounds must not decrease")
        ranks = np.concatenate((src, dest))
        if ranks.min() < 0 or ranks.max() >= n or words.min() < 0 or (src == dest).any():
            return False
        # One key per (round, sender) and, in a second block, per (round,
        # receiver): a rule is broken iff some key repeats.
        n_rounds = len(sizes)
        base = np.repeat(np.arange(0, n_rounds * n, n), sizes)
        if np.bincount(ranks + np.concatenate((base, base + n_rounds * n))).max() > 1:
            return False
        if smallest == 0:
            sizes, bounds = sizes[sizes > 0], bounds[np.flatnonzero(sizes)]
        starts = bounds[:len(sizes)]
        self._charge_array_rounds(
            src, dest, words, np.bincount(src, minlength=n), np.bincount(dest, minlength=n),
            sizes.tolist(), np.maximum.reduceat(words, starts).tolist(),
            np.add.reduceat(words, starts).tolist(), tag,
        )
        return True

    def _charge_array_rounds(
        self, src, dest, words, src_counts, dest_counts, sizes, max_words, totals, tag
    ) -> None:
        """Charge validated rounds, given each round's message count, largest
        message and total words."""
        n = self.n_procs
        log = self.round_log
        for count, top, total in zip(sizes, max_words, totals):
            self.rounds += 1
            log.append(RoundSummary.of_counts(self.rounds, count, top, total, tag))
        # Words are whole numbers far below 2**53, so every sum here is exact
        # in any order and equals the per-message additions.
        self.critical_words += sum(max_words)
        self.total_words += sum(totals)
        self.sent_words += np.bincount(src, weights=words, minlength=n)
        self.recv_words += np.bincount(dest, weights=words, minlength=n)
        self.sent_messages += src_counts
        self.recv_messages += dest_counts

    def _validate_array_round(self, src, dest, words) -> None:
        if not len(src) == len(dest) == len(words):
            raise ValueError(
                f"array round needs equal-length src/dest/words, got "
                f"{len(src)}/{len(dest)}/{len(words)}"
            )
        same = src == dest
        if same.any():
            raise InvalidMessageError(
                f"processor {int(src[same.argmax()])} cannot send a message to itself"
            )
        if min(int(src.min()), int(dest.min())) < 0:
            raise InvalidMessageError(
                f"ranks must be non-negative, got a round with ranks down to "
                f"{min(int(src.min()), int(dest.min()))}"
            )
        if int(words.min()) < 0:
            raise InvalidMessageError(
                f"word counts must be non-negative, got {int(words.min())}"
            )
        top = max(int(src.max()), int(dest.max()))
        if top >= self.n_procs:
            raise NetworkContentionError(
                f"array round references rank {top}, outside 0..{self.n_procs - 1}"
            )

    @staticmethod
    def _raise_contention(src, dest, src_counts, dest_counts) -> None:
        if src_counts.max() > 1:
            rank = int(src_counts.argmax())
            raise NetworkContentionError(
                f"processor {rank} attempts two sends in one round "
                f"(to {dest[src == rank].tolist()})"
            )
        rank = int(dest_counts.argmax())
        raise NetworkContentionError(
            f"processor {rank} attempts two receives in one round "
            f"(from {src[dest == rank].tolist()})"
        )

    def _fold_edges(self, edge_keys, edge_vals) -> None:
        if not edge_keys:
            return
        keys = np.concatenate(edge_keys)
        links, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        totals = np.bincount(inverse, weights=np.concatenate(edge_vals))
        order = np.argsort(first, kind="stable")
        self._pending_edges.append((links[order], totals[order]))

    # ------------------------------------------------------------------ #
    # fault injection (see repro.machine.faults)                         #
    # ------------------------------------------------------------------ #
    #
    # Cost-charging contract: every transmission attempt — faulted or not
    # — charges exactly what a clean transmission would (round, critical
    # words, symmetric per-rank sent/recv).  Extra transmissions (retry
    # resends, spurious duplicates) additionally accrue ``words_resent``;
    # backoff and stalls add latency-only rounds.  Hence, exactly:
    #
    #   recovered_critical_words == clean_critical_words + words_resent
    #   sum(sent_words) == sum(recv_words)            (conservation)

    def _charge_round(self, msgs: Sequence[Message]) -> None:
        """Charge one round and its largest message to the critical path."""
        self.rounds += 1
        summary = RoundSummary(self.rounds, msgs)
        self.critical_words += summary.max_words
        self.total_words += summary.total_words
        self.round_log.append(summary)

    def _charge_message(self, msg: Message) -> None:
        """Per-rank accounting of one transmission (clean or faulted)."""
        sent, recv, sent_msgs, recv_msgs = self._views
        src, dest, words = msg.src, msg.dest, msg.words
        sent[src] += words
        recv[dest] += words
        sent_msgs[src] += 1
        recv_msgs[dest] += 1
        edges = self.edge_words
        key = (src, dest)
        edges[key] = edges.get(key, 0.0) + words

    def _latency_rounds(self, count: int) -> None:
        """Charge ``count`` rounds of pure latency (backoff / stall)."""
        for _ in range(count):
            self.rounds += 1
            self.round_log.append(RoundSummary(self.rounds, ()))

    def _transmit_extra(self, msg: Message, injector) -> None:
        """One extra transmission of ``msg`` in a round of its own.

        Used for retry resends and spurious duplicates; fully charged and
        accrued in ``words_resent``.
        """
        self.rounds += 1
        self.critical_words += msg.words
        self.total_words += msg.words
        self.round_log.append(RoundSummary(self.rounds, (msg,)))
        self._charge_message(msg)
        injector.words_resent += msg.words

    def _check_rank_failures(self, msgs: Sequence[Message], injector) -> None:
        # Runs BEFORE the round is charged: a round that never happened
        # (the failure surfaced first) costs nothing.  The raised error
        # carries the counters at the moment of failure so a recovery
        # layer can attribute the wasted work exactly.
        for msg in msgs:
            rank = injector.failed_rank(msg, self.rounds)
            if rank is not None:
                verb = "send" if rank == msg.src else "receive"
                raise RankFailedError(
                    f"processor {rank} has failed (fail-stop) and cannot "
                    f"{verb} {msg!r} at round {self.rounds}; recovery "
                    f"requires a survivability layer "
                    f"(FaultModel(recovery=RecoveryConfig(...)))",
                    rank=rank,
                    round=self.rounds,
                    waste_words=self.critical_words,
                    waste_rounds=self.rounds,
                    waste_resent=injector.words_resent,
                )

    def _verify_delivery(self, msg: Message, delivered, injector) -> None:
        """Checksum the delivered payload against the sent one."""
        from .faults import payload_fingerprint

        if payload_fingerprint(delivered) == payload_fingerprint(msg.payload):
            raise FaultDetectedError(
                f"injected corruption of {msg!r} did not change its "
                f"fingerprint — the detection layer would have been blind "
                f"to it (corruption model bug)"
            )

    def _recover(self, msg: Message, reason: str, injector) -> Any:
        """Resend ``msg`` under the retry policy; return the delivered payload.

        Raises
        ------
        FaultDetectedError
            When no retry policy is configured or all attempts fault too.
        """
        policy = injector.model.retry
        if policy is None:
            raise FaultDetectedError(
                f"{msg!r} {reason} and no retry policy is configured; "
                f"pass FaultModel(retry=RetryPolicy(...)) to recover instead"
            )
        for attempt in range(1, policy.max_attempts + 1):
            self._latency_rounds(policy.backoff_rounds(attempt))
            injector.retries += 1
            self._transmit_extra(msg, injector)
            outcome = injector.decide()
            if outcome == "drop":
                injector.record("drop", msg, self.rounds, resend=True)
                continue
            if outcome == "corrupt":
                injector.record("corrupt", msg, self.rounds, resend=True)
                self._verify_delivery(msg, injector.corrupt_payload(msg.payload), injector)
                continue
            if outcome == "stall":
                injector.record("stall", msg, self.rounds, resend=True)
                self._latency_rounds(injector.model.stall_rounds)
            elif outcome == "duplicate":
                injector.record("duplicate", msg, self.rounds, resend=True)
                self._transmit_extra(msg, injector)
            return msg.payload
        raise FaultDetectedError(
            f"{msg!r} {reason}; recovery exhausted {policy.max_attempts} "
            f"resend attempts (every resend faulted too)"
        )

    def _execute_round_faulty(self, msgs: List[Message], injector) -> Dict[int, Any]:
        """The fault-injected variant of :meth:`execute_round`.

        The original round is charged exactly like the clean path (a lost
        transmission still occupied the channel), so fault-free draws stay
        bit-identical to an injector-less run.
        """
        self._check_rank_failures(msgs, injector)
        # Zero-word messages (barrier signals) carry nothing to lose,
        # damage or duplicate: they are exempt and draw no decision, so
        # decision streams align across payload-bearing schedules only.
        plan = [
            (msg, injector.decide() if msg.words else "none") for msg in msgs
        ]

        self._charge_round(msgs)
        for msg in msgs:
            self._charge_message(msg)

        deliveries: Dict[int, Any] = {}
        failed: List[tuple] = []
        for msg, outcome in plan:
            if outcome == "none":
                deliveries[msg.dest] = msg.payload
            elif outcome == "stall":
                injector.record("stall", msg, self.rounds)
                self._latency_rounds(injector.model.stall_rounds)
                deliveries[msg.dest] = msg.payload
            elif outcome == "duplicate":
                # Delivered fine, then spuriously retransmitted; the
                # receiver recognizes and discards the second copy (in god
                # view the network simply does not deliver it twice), but
                # the wasted transmission is charged.
                injector.record("duplicate", msg, self.rounds)
                deliveries[msg.dest] = msg.payload
                self._transmit_extra(msg, injector)
            elif outcome == "drop":
                injector.record("drop", msg, self.rounds)
                failed.append((msg, "was dropped in transit (receive timed out)"))
            else:  # corrupt
                injector.record("corrupt", msg, self.rounds)
                self._verify_delivery(msg, injector.corrupt_payload(msg.payload), injector)
                failed.append((msg, "arrived with a checksum mismatch"))
        # Recoveries run after the round completes, one resend round each:
        # sequential, so each resend's words land on the critical path.
        for msg, reason in failed:
            deliveries[msg.dest] = self._recover(msg, reason, injector)
        return deliveries

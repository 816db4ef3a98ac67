"""Simulated distributed-memory machine in the alpha-beta-gamma model.

This subpackage is the substrate everything else runs on: ``P`` processors
with private numpy stores, a fully connected bidirectional network executing
validated communication rounds, and exact critical-path cost accounting
(latency rounds, bandwidth words, flops).

See the paper's Section 3.1 for the model being simulated.
"""

from .backend import (
    BACKENDS,
    Backend,
    DATA_BACKEND,
    DataBackend,
    SYMBOLIC_BACKEND,
    SymbolicBackend,
    SymbolicBlock,
    as_block,
    backend_for,
    empty_block,
    is_symbolic,
    resolve_backend,
    symbolic_operands,
    zeros_block,
)
from .cost import BANDWIDTH_ONLY, Cost, CostModel, ZERO_COST
from .checkpoint import CheckpointManager
from .faults import (
    FaultEvent,
    FaultInjector,
    FaultModel,
    RecoveryConfig,
    RetryPolicy,
    active_injector,
    inject,
    payload_fingerprint,
)
from .machine import CounterSnapshot, Machine
from .recovery import RecoveryManager, RecoveryPlan
from .message import Message, payload_words
from .network import FullyConnectedNetwork, RoundSummary
from .processor import Processor
from .semiring import (
    MIN_PLUS,
    PLUS_TIMES,
    SEMIRINGS,
    Semiring,
    resolve_semiring,
)
from .sequential import FastMemory, IOStats
from .store import LocalStore

__all__ = [
    "BACKENDS",
    "BANDWIDTH_ONLY",
    "Backend",
    "CheckpointManager",
    "Cost",
    "CostModel",
    "CounterSnapshot",
    "DATA_BACKEND",
    "DataBackend",
    "FaultEvent",
    "FaultInjector",
    "FaultModel",
    "FullyConnectedNetwork",
    "LocalStore",
    "Machine",
    "Message",
    "FastMemory",
    "IOStats",
    "Processor",
    "RecoveryConfig",
    "RecoveryManager",
    "RecoveryPlan",
    "RetryPolicy",
    "RoundSummary",
    "MIN_PLUS",
    "PLUS_TIMES",
    "SEMIRINGS",
    "Semiring",
    "SYMBOLIC_BACKEND",
    "SymbolicBackend",
    "SymbolicBlock",
    "ZERO_COST",
    "active_injector",
    "as_block",
    "backend_for",
    "empty_block",
    "inject",
    "is_symbolic",
    "payload_fingerprint",
    "payload_words",
    "resolve_backend",
    "resolve_semiring",
    "symbolic_operands",
    "zeros_block",
]

"""Shared helpers for the benchmark harnesses.

Every benchmark module regenerates one of the paper's tables/figures,
asserts the reproduction claims, and times its core computation with
pytest-benchmark.  Each module is also runnable standalone
(``python benchmarks/bench_table1.py``) to print the artifact.

Setting ``REPRO_LEDGER=/path/to/ledger.jsonl`` in the environment makes
every benchmark test append a wall-clock timing record (``kind="pytest"``,
the test's node id as the config) to the persistent experiment ledger, so
``pytest benchmarks/`` invocations join the ledger's trajectory that
``repro trend`` reads.  ``REPRO_LEDGER_LABEL`` tags the records.
"""

import os
import time

import pytest


@pytest.fixture
def show(capsys):
    """Print through pytest's capture so ``-s`` displays the artifact."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _show


@pytest.fixture(autouse=True)
def _ledger_timing(request):
    """Append a timing record per benchmark test when REPRO_LEDGER is set.

    Harness timing records carry no model costs (the harness asserts them
    itself); they are zero-filled and tagged ``kind="pytest"`` so ledger
    queries can include or exclude them explicitly.
    """
    path = os.environ.get("REPRO_LEDGER")
    if not path:
        yield
        return
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    from repro.obs.ledger import (
        Ledger,
        RunRecord,
        environment_fingerprint,
        git_revision,
    )

    Ledger(path).append(
        RunRecord(
            algorithm="pytest-harness",
            config=request.node.nodeid,
            shape=(0, 0, 0),
            P=0,
            words=0.0,
            rounds=0,
            flops=0.0,
            bound=0.0,
            attainment=0.0,
            wall_clock=elapsed,
            label=os.environ.get("REPRO_LEDGER_LABEL", ""),
            kind="pytest",
            timestamp=time.time(),
            git_sha=git_revision(),
            env=environment_fingerprint(),
        )
    )

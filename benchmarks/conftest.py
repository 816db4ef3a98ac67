"""Shared helpers for the benchmark harnesses.

Every benchmark module regenerates one of the paper's tables/figures,
asserts the reproduction claims, and times its core computation with
pytest-benchmark.  Each module is also runnable standalone
(``python benchmarks/bench_table1.py``) to print the artifact.

Performance history is not recorded from here: a performance PR commits
the end-to-end harness's own output as ``BENCH_pr<N>.jsonl`` (see
docs/OBSERVABILITY.md), and ``repro trend`` reads it.
"""

import pytest


@pytest.fixture
def show(capsys):
    """Print through pytest's capture so ``-s`` displays the artifact."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _show

"""Smoke-run every example script as a subprocess.

Examples are documentation that executes; these tests keep them working.
Each must exit 0 and print something sensible.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

EXPECTED_SNIPPETS = {
    "quickstart.py": "tight: True",
    "figure2_study.py": "32x8x2",
    "strong_scaling_study.py": "strong-scaling limit",
    "algorithm_comparison.py": "alg1",
    "collectives_demo.py": "merged",
    "sequential_io_study.py": "resident-C optimal",
    "extensions_study.py": "Theorem 3",
}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    snippet = EXPECTED_SNIPPETS.get(script.name)
    if snippet is not None:
        assert snippet in result.stdout, (
            f"{script.name} output missing {snippet!r}:\n{result.stdout[-1000:]}"
        )


def test_every_example_has_an_expectation():
    names = {p.name for p in EXAMPLES}
    assert names == set(EXPECTED_SNIPPETS), (
        "update EXPECTED_SNIPPETS when adding/removing examples"
    )

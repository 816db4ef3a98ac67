"""The committed API index must match a fresh regeneration."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", REPO / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_api_index_is_current():
    generator = load_generator()
    committed = (REPO / "docs" / "API.md").read_text()
    assert committed == generator.render(), (
        "docs/API.md is stale; run: python tools/gen_api_docs.py"
    )


def test_api_index_covers_all_subpackages():
    committed = (REPO / "docs" / "API.md").read_text()
    for package in ("repro.machine", "repro.collectives", "repro.core",
                    "repro.algorithms", "repro.analysis", "repro.workloads"):
        assert f"## `{package}`" in committed

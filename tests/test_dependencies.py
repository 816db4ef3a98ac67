"""Every third-party module the package imports is a declared dependency.

A module imported at package import time but missing from
``pyproject.toml`` makes ``import repro`` fail on a clean install.  The
check imports the package's entry points in a fresh interpreter and
compares the third-party top-level modules that appeared against
``[project] dependencies``.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.analysis, repro.cli, repro.obs
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def declared_dependencies():
    """Distribution names in ``[project] dependencies``, as import names."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.S | re.M)
    assert block, "pyproject.toml declares no [project] dependencies"
    names = re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1))
    return {name.lower().replace("-", "_") for name in names}


def test_imported_third_party_modules_are_declared():
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    imported = set(json.loads(result.stdout))
    third_party = {
        name for name in imported
        if name not in sys.stdlib_module_names
        and name != "repro"
        and not name.startswith("__")  # aliases such as __mp_main__
    }
    assert third_party, "the probe saw no third-party import (numpy at least)"
    assert third_party <= declared_dependencies(), (
        f"imported but not declared in pyproject.toml: "
        f"{sorted(third_party - declared_dependencies())}"
    )

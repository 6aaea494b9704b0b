"""Every example script must stay runnable — they are the documentation."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{script.name} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script.name} printed nothing"


def test_all_examples_present():
    assert {p.name for p in EXAMPLES} == {
        "kv_store_cluster.py", "log_compaction.py",
        "partial_connectivity_demo.py", "quickstart.py",
        "reconfiguration_demo.py",
    }

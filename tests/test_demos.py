"""The scripts in demos/ run to the end, their own asserts included.

Each runs in-process with runpy, as `python3 demos/<name>.py` would run it.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_three_demos_are_found():
    assert [p.name for p in DEMOS] == ["constants_walkthrough.py",
                                       "expansion_bounds.py",
                                       "finite_size_distributions.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()

"""Every script under `demos/` runs to the end in process and prints its table."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    # an empty glob would parametrize no test and pass silently
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out, err = capsys.readouterr()
    assert out.strip()
    assert err == ""

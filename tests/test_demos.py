"""Smoke tests: every demo script runs to the end and reports success."""

import contextlib
import io
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return out.getvalue()


def test_counting_tour_runs():
    assert run_demo("counting_tour.py")


def test_oracle_crosscheck_confirms_every_ambient():
    out = run_demo("oracle_crosscheck.py")
    assert out.count("formula confirmed") == 5
    assert "MISMATCH" not in out and "DISAGREEMENT" not in out


def test_duality_demo_parity_rows_generate_the_dual():
    assert "parity rows generate exactly C_perp: True" in run_demo("duality_demo.py")

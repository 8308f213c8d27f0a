"""Shared test set-up.

pytest puts src/ on sys.path (`pythonpath` in pyproject.toml); tests that
start `python -m z2z8` in a child process need it on PYTHONPATH as well.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def src_on_child_pythonpath():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield

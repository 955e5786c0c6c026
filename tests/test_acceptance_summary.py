"""The acceptance summary that tests/conftest.py prints: one line per criterion, whatever phase
decided its outcome."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

CRITERIA = '''
import pytest


@pytest.fixture
def broken_setup():
    raise RuntimeError("setup fails")


@pytest.fixture
def broken_teardown():
    yield
    raise RuntimeError("teardown fails")


def test_c01_ok():
    pass


def test_c02_setup_error(broken_setup):
    pass


@pytest.mark.skip(reason="not measured here")
def test_c03_skipped():
    pass


def test_c04_teardown_error(broken_teardown):
    pass


def test_c05_fails():
    assert False
'''


def test_every_criterion_gets_one_line(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_acceptance.py").write_text(CRITERIA)
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
                         cwd=tmp_path, env=env, capture_output=True, text=True).stdout
    summary = out.split("acceptance criteria")[1].splitlines()[1:6]
    assert summary == ["PASS  test_c01_ok", "FAIL  test_c02_setup_error", "SKIP  test_c03_skipped",
                       "FAIL  test_c04_teardown_error", "FAIL  test_c05_fails"], out

"""The suite's own set-up: a failing property test is reported as one
failure under filterwarnings = error, and the session goes on."""

import os
import subprocess
import sys
from pathlib import Path

import disene

PROPERTY_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "conftest.py").write_text(
        Path(__file__).with_name("conftest.py").read_text())
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    src = str(Path(disene.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_property.py"], cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout

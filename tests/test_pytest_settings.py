"""The repository's pytest settings, checked by a pytest run of their own."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROBE = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None, max_examples=10)
@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_a_failing_given_test_is_reported_as_a_failure(tmp_path):
    # on failure hypothesis imports libcst to write its patch, and that import
    # raises a DeprecationWarning from mypy_extensions; filterwarnings =
    # ["error"] must not turn it into an INTERNALERROR (exit code 3), which
    # would abort the rest of the run.  The probe runs in tmp_path, so its
    # files, pytest's and hypothesis's land there.
    (tmp_path / "test_probe.py").write_text(FAILING_PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed" in run.stdout

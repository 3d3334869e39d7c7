"""The suite's own settings report a failing property test in full.

``pyproject.toml`` turns every warning into an error.  A failing
hypothesis test writes a patch with its falsifying example, and that
imports libcst, whose ``mypy_extensions`` import warns; as an error the
warning ended the run in ``INTERNALERROR`` before the example was
printed.  The one ``ignore`` entry there keeps the example visible.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_never_negative_is_false(x):
    assert x < 0
'''


def test_failing_property_prints_its_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output

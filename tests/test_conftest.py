import subprocess
import sys
from pathlib import Path

import pytest

_FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


@pytest.mark.parametrize("flags", [[], ["-W", "error"]], ids=["config", "W-error"])
def test_failing_property_test_fails_alone(tmp_path, flags):
    # a failing property test makes hypothesis import its patching module;
    # under warnings as errors, from the config or from -W error, it is
    # reported as failed and the tests after it still run
    (tmp_path / "pyproject.toml").write_text(
        '[tool.pytest.ini_options]\nfilterwarnings = ["error"]\n')
    (tmp_path / "conftest.py").write_text((Path(__file__).parent / "conftest.py").read_text())
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          *flags, str(tmp_path)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout

"""Shared pytest hooks.

BLAS is pinned to one thread before numpy loads: a threaded gemv splits its
work by column count, so with more threads a windowed scan could differ
from a full-grid scan in the last bits. An explicit setting in the
environment still wins.

The header names the stack a run used: numpy, its BLAS, the SIMD targets
numpy dispatches to on this CPU, and the thread settings. The stream pin
tests, the bit-identity tests and the pinned outputs depend on all four:
numpy's SIMD loops round some functions differently on different targets
(AVX-512 among them), so versions alone do not identify a stack.

The acceptance tests record one checklist line each; re-emit them in the
terminal summary so they are visible without -s.

When a property test fails, hypothesis imports hypothesis.extra._patching
to suggest an @example, and with it libcst, whose import warns through
mypy_extensions. With warnings as errors (pyproject.toml, or -W error,
which overrides a filter there) that warning aborts the whole run, so the
module is imported here first with that one warning ignored.
"""
import os
import warnings

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_THREADS:
    os.environ.setdefault(_var, "1")

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis without its patching extra
        pass

acceptance_lines: list = []


def stack() -> str:
    """The Tier-1 header's line: numpy, BLAS, SIMD targets and threads."""
    import numpy as np
    try:
        build = np.show_config(mode="dicts")
        blas = build["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
        # numpy omits "found" when it dispatches to no target past its baseline
        simd = " ".join(build["SIMD Extensions"].get("found", ())) or "none"
    except (ImportError, TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = simd = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in _BLAS_THREADS)
    return f"numpy {np.__version__}, BLAS {blas}, SIMD {simd}, {threads}"


def pytest_report_header(config):
    return stack()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance checklist")
        for line in acceptance_lines:
            terminalreporter.write_line(line)

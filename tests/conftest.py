"""Shared pytest hooks.

BLAS is pinned to one thread before numpy loads: a threaded gemv splits its
work by column count, so with more threads a windowed scan could differ
from a full-grid scan in the last bits. An explicit setting in the
environment still wins.

The header names the numpy and BLAS a run used, with the thread settings:
the stream pin tests and the bit-identity tests depend on both.

The acceptance tests record one checklist line each; re-emit them in the
terminal summary so they are visible without -s.
"""
import os

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_THREADS:
    os.environ.setdefault(_var, "1")

acceptance_lines: list = []


def pytest_report_header(config):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in _BLAS_THREADS)
    return f"numpy {np.__version__}, BLAS {blas}, {threads}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance checklist")
        for line in acceptance_lines:
            terminalreporter.write_line(line)

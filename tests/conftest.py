"""Shared pytest hooks.

BLAS is pinned to one thread before numpy loads: a threaded gemv splits its
work by column count, so with more threads a windowed scan could differ
from a full-grid scan in the last bits. An explicit setting in the
environment still wins.

The acceptance tests record one checklist line each; re-emit them in the
terminal summary so they are visible without -s.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

acceptance_lines: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance checklist")
        for line in acceptance_lines:
            terminalreporter.write_line(line)

"""Experiment config files: flat `key = value` text with dotted sections.

Values use JSON literals where it matters (numbers, lists); bare words
are taken as strings so `geometry = mra8` works without quotes. A line
whose first non-blank character is '#' is a comment; a '#' anywhere else
is part of the value, so `snr_db = -5  # dB` is not a number. Parsing is
strict: unknown keys, duplicate keys, and type mismatches are reported with
the offending line.
"""
from __future__ import annotations

import json
import re

from ._files import csv_text, read_text, write_text
from .experiments import ConfigError, ExperimentConfig, SweepResult


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except ValueError:  # not JSON, or an integer past Python's digit limit
        return raw


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse config text into a validated ExperimentConfig."""
    mapping: dict = {}
    lineno_of: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {lineno_of[key]})")
        mapping[key] = _parse_value(raw)
        lineno_of[key] = lineno
        # a config file has no null: ExperimentConfig would read angles = null
        # as not set and use the family's default
        if mapping[key] is None:
            raise ConfigError(f"line {lineno}: key {key!r}: null is not a value", key)
    try:
        return ExperimentConfig.from_mapping(mapping)
    except ConfigError as exc:
        if exc.key is not None and exc.key in lineno_of:
            raise ConfigError(f"line {lineno_of[exc.key]}: {exc}", exc.key) from None
        raise


def parse_config(source) -> ExperimentConfig:
    """Parse a config from a path or a file-like object."""
    try:
        text = read_text(source, "config")
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    return parse_config_text(text)


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config as parseable text; parse/serialize round-trips. Every
    value is written as JSON, so a string keeps its quotes: `"123"` stays a
    string and `" a.csv"` keeps its leading space."""
    lines = [f"{k} = {json.dumps(v)}" for k, v in config.to_mapping().items()]
    return "\n".join(lines) + "\n"


RESULTS_HEADER = "param,rmse_deg,trials,fill_count"


def write_results(result: SweepResult, destination) -> None:
    """Write a sweep result CSV, to a path or a file-like object: the header,
    a `# fingerprint=... seed=...` line and one row per point, its floats
    repr'd so that read_results reads them back bit for bit."""
    rows = zip(result.params, result.rmse_deg, map(int, result.trials),
               map(int, result.fill_counts))
    text = csv_text(RESULTS_HEADER,
                    f"fingerprint={result.fingerprint} seed={result.seed}", rows)
    write_text(destination, text, "results")


def read_results(source) -> SweepResult:
    """Read a sweep result CSV written by write_results, from a path or a
    file-like object; a wrong header or a row without 4 fields is a
    ValueError."""
    lines = [ln for ln in read_text(source, "results").splitlines() if ln.strip()]
    if not lines or lines[0] != RESULTS_HEADER:
        raise ValueError(f"first line must be {RESULTS_HEADER!r}")
    fingerprint, seed = "", 0
    rows = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            m = re.search(r"fingerprint=(\S+)\s+seed=(\d+)", ln)
            if m:
                fingerprint, seed = m.group(1), int(m.group(2))
            continue
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"bad result row: {ln!r}")
        rows.append((float(parts[0]), float(parts[1]), int(parts[2]), int(parts[3])))
    # the columns of the rows; four empty columns when there are none
    params, rmse_deg, trials, fill_counts = tuple(zip(*rows)) or ((),) * 4
    return SweepResult(params=params, rmse_deg=rmse_deg, trials=trials,
                       fill_counts=fill_counts, fingerprint=fingerprint, seed=seed)

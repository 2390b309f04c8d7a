"""Experiment config files: flat `key = value` text with dotted sections.

Values use JSON literals where it matters (numbers, lists); bare words
are taken as strings so `geometry = mra8` works without quotes. Comments
start with '#'. Parsing is strict: unknown keys, duplicate keys, and type
mismatches are reported with the offending line.
"""
from __future__ import annotations

import json
from pathlib import Path

from .experiments import ConfigError, ExperimentConfig, SweepResult


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except ValueError:  # not JSON, or an integer past Python's digit limit
        return raw


def _render_value(v) -> str:
    if isinstance(v, str):
        return v
    return json.dumps(v)


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
    if hasattr(source, "read"):
        return parse_config_text(source.read())
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config as parseable text; parse/serialize round-trips."""
    lines = [f"{k} = {_render_value(v)}" for k, v in config.to_mapping().items()]
    return "\n".join(lines) + "\n"


def write_results(result: SweepResult, destination) -> None:
    """Write a sweep result CSV; I/O failures name the path."""
    text = result.to_csv_text()
    if hasattr(destination, "write"):
        destination.write(text)
        return
    path = Path(destination)
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from None


def read_results(source) -> SweepResult:
    """Read a sweep result CSV written by write_results."""
    if hasattr(source, "read"):
        return SweepResult.from_csv_text(source.read())
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read results from {path}: {exc}") from None
    return SweepResult.from_csv_text(text)

"""Experiment configs: the schema (ExperimentConfig) and its checks, the
fingerprint, the config text and the results CSV.

Config files are flat `key = value` text with dotted sections. Values use
JSON literals where it matters (numbers, lists); bare words are taken as
strings so `geometry = mra8` works without quotes. A line whose first
non-blank character is '#' is a comment; a '#' anywhere else is part of
the value, so `snr_db = -5  # dB` is not a number. Parsing is strict:
unknown keys, duplicate keys, and type mismatches are reported with the
offending line.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from ._files import csv_text, read_text, write_text
from .estimators import _DENOM_FLOOR, azimuth_grid, fov_window
from .geometry import GeometryError, is_perfect, named_geometry
from .manifold import CouplingError, SourceScenario, apply_coupling_model, make_manifold
from .patterns import PatternError, PatternPerturbation, TableError, evaluate, make_pattern

FAMILIES = ("symmetric-pair-angle-sweep", "snr-sweep", "fixed-scenario",
            "overloaded-demo")
ESTIMATORS = ("element-music", "coarray-music")

# highest and lowest SNR or element gain a config may set, dB
MAX_LEVEL_DB = 300.0
MIN_LEVEL_DB = -300.0

# most bytes one trial's draws (_trial_bytes) may take, 2**21 snapshots on 8
# elements, and most one point's results may take, 2**23 trials of two
# sources; checked at parse time, since a chunk holds at least one trial and
# run_point holds a whole point's results
MAX_TRIAL_BYTES = 2**28

_OVERLOADED_ANGLES = (-54.0, -42.0, -30.0, -18.0, -6.0, 6.0, 18.0, 30.0, 42.0, 54.0)


class ConfigError(ValueError):
    """Invalid experiment configuration."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def _shown(v) -> str:
    """repr(v) for an error message, cut to a short prefix when long. An int
    past Python's digit limit for repr is shown by its bit length."""
    try:
        text = repr(v)
    except ValueError:
        if isinstance(v, (list, tuple)):
            return f"a {type(v).__name__} holding an integer past the digit limit"
        if not isinstance(v, int):
            raise
        return f"a {'negative ' if v < 0 else ''}{v.bit_length()}-bit integer"
    return text if len(text) <= 80 else f"{text[:60]}... ({len(text)} characters)"


def _trial_bytes(sources: int, elements: int, snapshots: int) -> int:
    """Bytes of one trial's draws, and of its snapshots: max(L, N) * K
    entries of 16 bytes, a complex number or a real and an imaginary draw."""
    return 16 * max(sources, elements) * snapshots


def _as_int(key, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"key {key!r}: expected integer, got {_shown(v)}", key)
    return v


def _as_float(key, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"key {key!r}: expected number, got {_shown(v)}", key)
    if not abs(v) <= sys.float_info.max:  # NaN, infinities and ints too large for a float
        raise ConfigError(f"key {key!r}: must be finite, got {_shown(v)}", key)
    return float(v)


def _as_float_tuple(key, v) -> tuple[float, ...]:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"key {key!r}: expected a list of numbers, got {_shown(v)}", key)
    return tuple(_as_float(key, x) for x in v)


def _as_str(key, v) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"key {key!r}: expected string, got {_shown(v)}", key)
    return v


@contextlib.contextmanager
def _keyed(key: str, *errors):
    """Re-raise one of `errors` from the owner of a rule as a ConfigError
    naming `key`, or `key.<param>` when the error names its parameter; a
    ConfigError passes through unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except errors as exc:
        param = getattr(exc, "param", None)
        name = f"{key}.{param}" if param else key
        raise ConfigError(f"key {name!r}: {exc}", name) from None


# config key -> (ExperimentConfig field, parser, valid range or None, range
# text) for every scalar key, in the order the config file format lists
# them. A key without a range here is checked by its owner (azimuth_grid,
# PatternPerturbation, apply_coupling_model) or with the other dB levels
# (snr_db); a trial's bytes bound the snapshots from above.
_SCALARS = {
    "manifold.coupling.c1": ("coupling_c1", _as_float, None, ""),
    "manifold.coupling.decay": ("coupling_decay", _as_float, None, ""),
    "manifold.perturbation.phase_noise_std_deg": ("phase_noise_std_deg", _as_float, None, ""),
    "manifold.perturbation.param_tolerance": ("param_tolerance", _as_float, None, ""),
    "snr_db": ("snr_db", _as_float, None, ""),
    "snapshots": ("snapshots", _as_int, lambda v: v >= 1, "must be >= 1"),
    # trial indices seed the streams as 32-bit words
    "trials": ("trials", _as_int, lambda v: 1 <= v <= 2**32, "must be in [1, 2**32]"),
    "estimator": ("estimator", _as_str, lambda v: v in ESTIMATORS,
                  f"must be one of {', '.join(ESTIMATORS)}"),
    "fov_deg": ("fov_deg", _as_float, lambda v: 0.0 < v <= 90.0, "must be in (0, 90]"),
    "grid_step_deg": ("grid_step_deg", _as_float, None, ""),
    "seed": ("seed", _as_int, lambda v: v >= 0, "must be >= 0"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    `sweep` holds the swept parameter grid: half-angles (degrees) for the
    symmetric-pair family, SNR (dB) for snr-sweep; empty for single-point
    families, which report their one point as parameter 0.0. `angles` is
    the fixed scenario for the non-swept families.

    Every value is parsed, checked finite and range-checked here, whether
    the config comes from a file (`from_mapping`) or is built directly; a
    ConfigError names the offending key. The read-only attributes
    `array_geometry`, `nominal_pattern`, `perturbation`, `coupling` (the
    coupling matrix, or None) and `scenarios`, one SourceScenario per point,
    are built here once, through the constructors that own their ranges,
    and every engine reads them.
    """

    family: str
    geometry: str | tuple[int, ...]
    pattern: str
    pattern_params: dict = field(default_factory=dict)
    coupling_c1: float = 0.0
    coupling_decay: float = 0.5
    phase_noise_std_deg: float = 0.0
    param_tolerance: float = 0.0
    sweep: tuple[float, ...] = ()
    angles: tuple[float, ...] | None = None
    snr_db: float = -5.0
    snapshots: int = 50
    trials: int = 1000
    estimator: str = "element-music"
    fov_deg: float = 90.0
    grid_step_deg: float = 0.01
    seed: int = 0

    def __post_init__(self):
        # the one check of the geometry's type, before anything reads it
        geometry = tuple(self.geometry) if isinstance(self.geometry, list) else self.geometry
        if not (isinstance(geometry, str) or isinstance(geometry, tuple) and all(
                isinstance(p, int) and not isinstance(p, bool) for p in geometry)):
            raise ConfigError(f"key 'geometry': expected a name or a list of finite "
                              f"integers, got {_shown(self.geometry)}", "geometry")
        object.__setattr__(self, "geometry", geometry)
        # every number a float key holds is stored as a float: 5 and 5.0
        # compare equal but serialize, and so hash, differently
        for key, (attr, parse, valid, text) in _SCALARS.items():
            value = parse(key, getattr(self, attr))
            if valid is not None and not valid(value):
                raise ConfigError(f"key {key!r}: {text}, got {_shown(value)}", key)
            object.__setattr__(self, attr, value)
        with _keyed("manifold.perturbation", PatternError):
            perturbation = PatternPerturbation(self.phase_noise_std_deg, self.param_tolerance)
        object.__setattr__(self, "pattern", _as_str("manifold.pattern", self.pattern))
        object.__setattr__(self, "pattern_params", {
            k: (_as_str if k == "file" else _as_float)(f"manifold.pattern.{k}", v)
            for k, v in self.pattern_params.items()})
        object.__setattr__(self, "sweep", _as_float_tuple("sweep", self.sweep))
        if self.angles is not None:
            object.__setattr__(self, "angles", _as_float_tuple("angles", self.angles))
        if self.family not in FAMILIES:
            raise ConfigError(f"key 'family': unknown family {self.family!r}, "
                              f"expected one of {', '.join(FAMILIES)}", "family")

        swept = self.family in ("symmetric-pair-angle-sweep", "snr-sweep")
        if swept and not self.sweep:
            raise ConfigError(f"key 'sweep': required for family {self.family!r}",
                              "sweep")
        if not swept and self.sweep:
            raise ConfigError(f"key 'sweep': not allowed for family {self.family!r}",
                              "sweep")
        if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
            raise ConfigError("key 'sweep': grid must be strictly increasing", "sweep")

        if self.family == "symmetric-pair-angle-sweep":
            if self.angles:
                raise ConfigError("key 'angles': symmetric-pair sweep derives angles "
                                  "from the swept half-angle", "angles")
            object.__setattr__(self, "angles", ())
            if any(not 0 < h <= self.fov_deg for h in self.sweep):
                raise ConfigError("key 'sweep': half-angles must be in (0, fov]",
                                  "sweep")
            if self.grid_step_deg > self.sweep[0]:
                raise ConfigError(f"key 'grid_step_deg': step {self.grid_step_deg:g} deg "
                                  f"exceeds the smallest swept half-angle "
                                  f"{self.sweep[0]:g} deg", "grid_step_deg")
        elif self.angles is None:
            default = _OVERLOADED_ANGLES if self.family == "overloaded-demo" \
                else (-10.0, 10.0)
            object.__setattr__(self, "angles", default)
        if any(abs(a) > self.fov_deg for a in self.angles):
            raise ConfigError("key 'angles': must lie within the field of view", "angles")
        if self.family == "symmetric-pair-angle-sweep":
            scenes = [((-h, h), self.snr_db) for h in self.sweep]
        elif self.family == "snr-sweep":
            scenes = [(self.angles, snr) for snr in self.sweep]
        else:
            scenes = [(self.angles, self.snr_db)]
        with _keyed("angles", ValueError):
            object.__setattr__(self, "scenarios",
                               tuple(SourceScenario(a, snr) for a, snr in scenes))

        need = max(3, self.source_count)
        with _keyed("grid_step_deg", ValueError):
            grid = azimuth_grid(self.grid_step_deg)
        window = grid[fov_window(grid, self.fov_deg)]
        if window.size < need:
            raise ConfigError(f"key 'grid_step_deg': the +-{self.fov_deg:g} deg pick "
                              f"window of a {self.grid_step_deg:g} deg grid holds "
                              f"{window.size} points, need at least {need}", "grid_step_deg")

        with _keyed("geometry", GeometryError):
            geom = named_geometry(self.geometry)
        l = self.source_count
        if _trial_bytes(l, geom.element_count, self.snapshots) > MAX_TRIAL_BYTES:
            raise ConfigError(f"key 'snapshots': {_shown(self.snapshots)} snapshots of "
                              f"max(sources, elements) = {max(l, geom.element_count)} "
                              f"rows take more than the {MAX_TRIAL_BYTES} bytes one "
                              f"trial may use", "snapshots")
        # run_point holds trials x L estimates, trials errors and trials fill
        # counts, 8 bytes each
        if 8 * (l + 2) * self.trials > MAX_TRIAL_BYTES:
            raise ConfigError(f"key 'trials': the results of {self.trials} trials of {l} "
                              f"sources take more than the {MAX_TRIAL_BYTES} bytes one "
                              f"point may use", "trials")
        # estimator/geometry compatibility, checked before any trial runs
        if self.estimator == "element-music" and l >= geom.element_count:
            raise ConfigError(f"element-music handles at most "
                              f"{geom.element_count - 1} sources on "
                              f"{geom.name!r}, scenario has {l}", "estimator")
        if self.estimator == "coarray-music":
            if not is_perfect(geom):
                raise ConfigError(f"coarray-music requires a hole-free coarray; "
                                  f"{geom.name!r} has holes", "estimator")
            if l > geom.aperture:
                raise ConfigError(f"coarray-music on {geom.name!r} handles at most "
                                  f"{geom.aperture} sources, scenario has {l}",
                                  "estimator")
        with _keyed("manifold.pattern", PatternError), \
                _keyed("manifold.pattern.file", TableError, OSError):
            pattern = make_pattern(self.pattern, **self.pattern_params)
        # 10**(dB/10) of a larger level overflows the sample covariance; a
        # gain of a smaller level underflows the steering to zero, and a
        # smaller SNR leaves no signal in the data
        levels = {"snr_db": [self.snr_db],
                  "sweep": self.sweep if self.family == "snr-sweep" else [],
                  "manifold.pattern.peak_gain_dbi": [pattern.params.get("peak_gain_dbi", 0)],
                  "manifold.pattern.file": [row[1] for row in pattern.samples or ()]}
        for key, values in levels.items():
            if max(values, default=0) > MAX_LEVEL_DB:
                raise ConfigError(f"key {key!r}: {max(values):g} dB exceeds the "
                                  f"{MAX_LEVEL_DB:g} dB limit", key)
            if min(values, default=0) < MIN_LEVEL_DB:
                raise ConfigError(f"key {key!r}: {min(values):g} dB is below the "
                                  f"{MIN_LEVEL_DB:g} dB limit", key)
        # a squared gain below the spectrum floor zeroes the scan steering; with
        # the levels bounded, only a cosine-power exponent can take it there
        exponent = {"patch": "exponent", "vivaldi": "main_exponent"}.get(self.pattern)
        if exponent is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                gain = np.abs(evaluate(pattern, window))
            if not (gain * gain >= _DENOM_FLOOR).all():  # NaN fails it too
                key = f"manifold.pattern.{exponent}"
                raise ConfigError(f"key {key!r}: the gain falls below -3000 dBi "
                                  f"inside +-{self.fov_deg:g} deg", key)
        with _keyed("manifold.coupling", CouplingError):
            coupling = apply_coupling_model(make_manifold(geom, pattern), self.coupling_c1,
                                            self.coupling_decay).coupling
        # built once here and read by every engine of this config; a tabulated
        # pattern keeps the rows read here, which the fingerprint hashes
        object.__setattr__(self, "array_geometry", geom)
        object.__setattr__(self, "nominal_pattern", pattern)
        object.__setattr__(self, "perturbation", perturbation)
        object.__setattr__(self, "coupling", coupling)

    @property
    def source_count(self) -> int:
        return self.scenarios[0].source_count

    @property
    def points(self) -> tuple[float, ...]:
        """Swept parameter values; single-point families report 0.0."""
        return self.sweep if self.sweep else (0.0,)

    def to_mapping(self) -> dict:
        """Flat dotted-key mapping mirroring the config file format."""
        m: dict = {
            "family": self.family,
            "geometry": self.geometry if isinstance(self.geometry, str)
                        else list(self.geometry),
            "manifold.pattern": self.pattern,
        }
        for k in sorted(self.pattern_params):
            m[f"manifold.pattern.{k}"] = self.pattern_params[k]
        m.update({key: getattr(self, attr) for key, (attr, *_) in _SCALARS.items()})
        if self.sweep:
            m["sweep"] = list(self.sweep)
        if self.angles and self.family != "symmetric-pair-angle-sweep":
            m["angles"] = list(self.angles)
        return m

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """Build a config from a flat dotted-key mapping. Only the keys are
        checked here; the constructor validates every value."""
        m = dict(mapping)
        for req in ("family", "geometry", "manifold.pattern"):
            if req not in m:
                raise ConfigError(f"missing required key {req!r}", req)
        kwargs: dict = {"family": m.pop("family"), "geometry": m.pop("geometry"),
                        "pattern": m.pop("manifold.pattern"), "pattern_params": {}}
        fields = {key: attr for key, (attr, *_) in _SCALARS.items()}
        fields.update(sweep="sweep", angles="angles")
        for key, value in m.items():
            if key.startswith("manifold.pattern."):
                kwargs["pattern_params"][key[len("manifold.pattern."):]] = value
            elif key in fields:
                kwargs[fields[key]] = value
            else:
                raise ConfigError(f"unknown key {key!r}", key)
        return cls(**kwargs)

    def fingerprint(self) -> str:
        """Stable short hash of the fully resolved configuration, including
        the rows of a tabulated pattern, not only its path."""
        mapping = self.to_mapping()
        if self.pattern == "tabulated":
            mapping["manifold.pattern.samples"] = self.nominal_pattern.samples
        text = json.dumps(mapping, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepResult:
    """Per-point RMSE curve with trial counts and fill-in diagnostics."""

    params: tuple[float, ...]
    rmse_deg: tuple[float, ...]
    trials: tuple[int, ...]
    fill_counts: tuple[int, ...]
    fingerprint: str = ""
    seed: int = 0


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except ValueError:  # not JSON, or an integer past Python's digit limit
        return raw


def parse_config_text(text: str, *, seed: int | None = None) -> ExperimentConfig:
    """Parse config text into a validated ExperimentConfig. A `seed` other
    than None replaces the text's master seed before the config is built."""
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
    if seed is not None:
        # an error in the override names no line of the text
        mapping["seed"] = seed
        lineno_of.pop("seed", None)
    try:
        return ExperimentConfig.from_mapping(mapping)
    except ConfigError as exc:
        if exc.key is not None and exc.key in lineno_of:
            raise ConfigError(f"line {lineno_of[exc.key]}: {exc}", exc.key) from None
        raise


def parse_config(source, *, seed: int | None = None) -> ExperimentConfig:
    """Parse a config from a path or a file-like object, read once; `seed`
    as for parse_config_text."""
    try:
        text = read_text(source, "config")
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    return parse_config_text(text, seed=seed)


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

"""Monte Carlo accuracy experiments and the free-space link budget.

An experiment is a sweep over one parameter (source separation or SNR),
running many independent trials per point and reducing them to an RMSE.
Randomness is fully determined by one master seed: trial t of point p
draws from a stream keyed by (seed, p, t), so results are bit-reproducible
and any trial can be replayed on its own.

Manifold perturbations (element pattern deviations, mutual coupling) are
applied only on the data-generating side; the estimator always scans with
the nominal manifold. That asymmetry is the calibration-mismatch model.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

# music_pseudospectrum, coarray_music, generate_snapshots and perturb are not
# called here; they stay in this namespace for callers that look them up
# through experiments, such as perfbench/tracing.py
from .estimators import (_CHUNK_BYTES, _DENOM_FLOOR, DoaEstimateSet, Pseudospectrum,
                         _coarray_noise, _lag_smoothing, _PeakSearch, _scan_slice,
                         _spectrum, azimuth_grid, coarray_music, fov_window,
                         music_pseudospectrum, pick_peaks, virtual_steering)
from .geometry import ArrayGeometry, GeometryError, is_perfect, named_geometry
from .manifold import (CouplingError, SourceScenario, _synthesize, apply_coupling_model,
                       generate_snapshots, make_manifold, phase_ramp, sample_covariance,
                       steering_matrix)
from .patterns import (ElementPattern, PatternError, PatternPerturbation, TableError,
                       evaluate, make_pattern, perturb, perturbed_gains)

FAMILIES = ("symmetric-pair-angle-sweep", "snr-sweep", "fixed-scenario",
            "overloaded-demo")
ESTIMATORS = ("element-music", "coarray-music")

# free-space wave impedance, ohms
ETA_0 = 376.730

# highest and lowest SNR or element gain a config may set, dB
MAX_LEVEL_DB = 300.0
MIN_LEVEL_DB = -300.0

# most bytes one trial's draws (_trial_bytes) may take, 2**21 snapshots on 8
# elements; checked at parse time, since a chunk holds at least one trial
MAX_TRIAL_BYTES = 2**28

_OVERLOADED_ANGLES = (-54.0, -42.0, -30.0, -18.0, -6.0, 6.0, 18.0, 30.0, 42.0, 54.0)


class ConfigError(ValueError):
    """Invalid experiment configuration."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def rmse(estimates, truth) -> float:
    """Root mean square angular error under sorted (order-optimal) pairing.

    For scalars on a line, pairing i-th smallest estimate with i-th
    smallest truth minimizes the sum of squared differences over all
    assignments, so no explicit matching search is needed.
    """
    e = np.sort(np.asarray(estimates, dtype=float))
    t = np.sort(np.asarray(truth, dtype=float))
    if e.shape != t.shape or e.size == 0:
        raise ValueError(f"estimate/truth lists must match and be non-empty, "
                         f"got {e.size} vs {t.size}")
    return float(_sorted_rmse(e, t))


def _sorted_rmse(e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """rmse of sorted estimates e against sorted truth t, without checks; a
    stack of estimate rows gives one RMSE per row, each bit for bit that
    row's alone."""
    return np.sqrt(np.mean((e - t) ** 2, axis=-1))


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
    ConfigError names the offending key. The geometry, the pattern, the
    perturbation, the coupling matrix and `scenarios`, one SourceScenario
    per point, are built here once, through the constructors that own their
    ranges, and every engine reads them.
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
        object.__setattr__(self, "_geometry", geom)
        object.__setattr__(self, "_pattern", pattern)
        object.__setattr__(self, "_perturbation", perturbation)
        object.__setattr__(self, "_coupling", coupling)

    @property
    def source_count(self) -> int:
        return self.scenarios[0].source_count

    @property
    def points(self) -> tuple[float, ...]:
        """Swept parameter values; single-point families report 0.0."""
        return self.sweep if self.sweep else (0.0,)

    def resolve_geometry(self) -> ArrayGeometry:
        return self._geometry

    def nominal_pattern(self) -> ElementPattern:
        return self._pattern

    def perturbation(self) -> PatternPerturbation:
        return self._perturbation

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
            mapping["manifold.pattern.samples"] = self._pattern.samples
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


# numpy's SeedSequence (NEP 19) hashes 32-bit entropy words into a pool of 4
# words and hashes the pool out again for generate_state; PCG64 seeds its
# 128-bit LCG from generate_state(4, uint64). These are their constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
# trials per _stream_states call, so that seeding memory does not grow with
# the trial count
_SEED_CHUNK = 256


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..n: the successive hash constants."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(words: np.ndarray, k: int, n: int) -> np.ndarray:
    """SeedSequence's hashmix of the n words on the last axis, as its hash
    calls k..k+n-1."""
    h = _hash_consts(_INIT_A, _MULT_A, k + n)
    v = (words ^ h[k:k + n]) * h[k + 1:]
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_L - y * _MIX_R
    return v ^ v >> 16


def _absorb(pool: np.ndarray, word: np.ndarray, k: int) -> np.ndarray:
    """Mix one entropy word beyond the pool size into every pool word, as
    hash calls k..k+3."""
    return _mix(pool, _hashmix(word[..., None], k, _POOL))


def _pcg64_states(pool: np.ndarray) -> list[tuple[int, int]]:
    """PCG64's (state, inc) when seeded from each pool row: generate_state(4,
    uint64) gives initstate and initseq, then inc = 2 initseq + 1 and
    state = (inc + initstate) M + inc, mod 2**128."""
    h = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    v = (np.tile(pool, 2) ^ h[:-1]) * h[1:]
    words = np.ascontiguousarray(v ^ v >> 16, dtype="<u4").view("<u8").reshape(-1, 4)
    states = []
    for a, b, c, d in words.tolist():
        inc = (c << 65 | d << 1 | 1) & _MASK128
        states.append((((a << 64 | b) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


def _stream_states(seed: int, point_index: int, trials,
                   elements: int) -> tuple[list, list | None]:
    """PCG64 (state, inc) pairs of every trial t in `trials` at once, bit for
    bit those of default_rng on the children of
    SeedSequence([seed, point_index, t]).spawn(2).

    Returns the snapshot stream's pair per trial (spawn key (1,)) and, if
    `elements` > 0, the pairs of the perturbation stream's first `elements`
    children (spawn key (0, j)), trial-major; else None. Indices must be
    below 2**32, one entropy word each.
    """
    t = np.asarray(trials)
    if t.size and not (t.min() >= 0 and t.max() <= _MASK32):
        raise ValueError(f"trial indices must be in [0, 2**32), got {trials!r}")
    # SeedSequence reads an integer as little-endian 32-bit words, 0 as one
    # word, and pads run entropy shorter than the pool with zeros when it has
    # a spawn key
    head = [seed & _MASK32]
    while seed := seed >> 32:
        head.append(seed & _MASK32)
    head.append(point_index)
    run = np.zeros((t.size, max(_POOL, len(head) + 1)), dtype=np.uint32)
    run[:, :len(head)] = head
    run[:, len(head)] = t
    pool = _hashmix(run[:, :_POOL], 0, _POOL)
    k = _POOL
    for src in range(_POOL):
        # the updates from one source word read no other destination word
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src:src + 1], k, _POOL - 1))
        k += _POOL - 1
    for word in run.T[_POOL:]:
        pool = _absorb(pool, word, k)
        k += _POOL
    # the spawn key's words come last: (1,) for snapshots, (0, j) for element j
    snap = _pcg64_states(_absorb(pool, np.ones(1, dtype=np.uint32), k))
    if not elements:
        return snap, None
    pert = _absorb(pool, np.zeros(1, dtype=np.uint32), k)
    j = np.arange(elements, dtype=np.uint32)
    return snap, _pcg64_states(_absorb(pert[:, None], j, k + _POOL))


class _TrialEngine:
    """Shared trial machinery with precomputed steering tables.

    The scan covers only the +-fov pick window plus one guard point per side,
    widened to whole blocks and sliced out of azimuth_grid(step) by
    _scan_slice, so that every spectrum value in it, and with it every
    estimate, is bit-identical to a scan of the whole grid. noise(index,
    trials) yields the noise subspaces of the trials of sweep point `index`,
    one stack per chunk of trials; a sweep picks from the spectrum of only
    the blocks _PeakSearch certifies, the demo from the whole scan, with the
    same estimates.

    The data side of a trial, perturbed patterns times the phase ramp, then
    the coupling matrix, is built in one pass from the validated config; it
    equals steering_matrix of the manifold that perturb, make_manifold and
    apply_coupling_model give for the same streams, bit for bit.
    """

    def __init__(self, config: ExperimentConfig):
        self.cfg = config
        self.geometry = config.resolve_geometry()
        self.pattern = config.nominal_pattern()
        self.nominal = make_manifold(self.geometry, self.pattern)
        self.perturbation = config.perturbation()
        grid = azimuth_grid(config.grid_step_deg)
        self.grid = grid[_scan_slice(grid, config.fov_deg)]
        if config.estimator == "coarray-music":
            self.steering = virtual_steering(self.geometry.aperture, self.grid)
        else:
            self.steering = steering_matrix(self.nominal, self.grid)
        self.coupling = config._coupling

    @functools.cached_property
    def search(self) -> _PeakSearch:
        """The pruned search over the scan, built on first use: the demo
        never needs it."""
        return _PeakSearch(self.grid, self.steering, self.cfg.fov_deg)

    def _coupled(self, a: np.ndarray) -> np.ndarray:
        return a if self.coupling is None else self.coupling @ a

    @functools.cached_property
    def _rng(self) -> np.random.Generator:
        """The one generator every stream is loaded into, built on first use
        by a trial rather than with the engine."""
        return np.random.Generator(np.random.PCG64(0))

    def _load(self, pair: tuple[int, int]) -> np.random.Generator:
        """The shared generator in the stream whose PCG64 (state, inc) is
        `pair`, as default_rng of that stream's SeedSequence starts."""
        state, inc = pair
        self._rng.bit_generator.state = {"bit_generator": "PCG64",
                                         "state": {"state": state, "inc": inc},
                                         "has_uint32": 0, "uinteger": 0}
        return self._rng

    def _chunk(self, sources: int) -> int:
        """Trials per chunk: at most _SEED_CHUNK, and few enough that no
        stacked array of the chunk passes _CHUNK_BYTES. Per trial, the draws
        and snapshots take _trial_bytes, and the search's float rows
        _PeakSearch.row_bytes of the table. Not counted: the search's bound
        and union products, run in groups of rows of at most half of
        _CHUNK_BYTES whatever their width (_grouped_denominators), and one
        trial's full scan, (rows - L) * columns * itemsize bytes: 2,016,112
        for ten sources on mra8's coarray at 0.01 degree steps."""
        per_trial = max(_trial_bytes(sources, self.geometry.element_count, self.cfg.snapshots),
                        _PeakSearch.row_bytes(self.steering))
        return max(1, min(_SEED_CHUNK, _CHUNK_BYTES // per_trial))

    def noise(self, index: int, trials) -> Iterator[np.ndarray]:
        """The noise subspaces of the trials in the sequence `trials` of sweep
        point `index`, in order, as one stack (B, rows, rows - L) per chunk
        of B trials; a single trial is a chunk of one.

        The point's phase ramp and, when nothing is perturbed, data steering
        are computed once per call, from cfg.scenarios. Per chunk, one
        _stream_states call seeds the streams, one perturbed_gains call
        draws every element deviation of a perturbed config, and each
        trial's snapshot stream fills its slices of the source and noise
        draws; every stream loads the one shared generator. Mixing,
        covariance and the eigen-kernel (element-music's eigh, or
        coarray-music's _lag_smoothing and _coarray_noise) then run once on
        the stack, each trial bit for bit as alone. The kernels skip the public
        functions' checks: the config validated the source count, geometry
        and estimator, and sample_covariance is exactly Hermitian, so
        element-music runs a bare eigh.
        """
        cfg = self.cfg
        scenario = cfg.scenarios[index]
        l, k = scenario.source_count, cfg.snapshots
        n = self.geometry.element_count
        ramp = phase_ramp(self.geometry, scenario.angles)
        perturbed = not self.perturbation.is_zero
        if not perturbed:
            steering = self._coupled(evaluate(self.pattern, scenario.angles) * ramp)
        size = self._chunk(l)
        for start in range(0, len(trials), size):
            snaps, elements = _stream_states(cfg.seed, index, trials[start:start + size],
                                             n if perturbed else 0)
            b = len(snaps)
            if perturbed:
                gains = perturbed_gains(self.pattern, self.perturbation,
                                        map(self._load, elements), scenario.angles)
                steering = self._coupled(gains.reshape(b, n, l) * ramp)
            sr, nr = np.empty((b, 2, l, k)), np.empty((b, 2, n, k))
            for i, snap in enumerate(snaps):
                rng = self._load(snap)
                rng.standard_normal(out=sr[i])
                rng.standard_normal(out=nr[i])
            r = sample_covariance(_synthesize(steering, scenario.per_source_snr_db, sr, nr))
            # the draws are not kept while the chunk's search runs
            del sr, nr
            if cfg.estimator == "coarray-music":
                yield _coarray_noise(_lag_smoothing(r, self.geometry), l)
            else:
                yield np.linalg.eigh(r)[1][..., :n - l]


def run_point(config: ExperimentConfig, point_index: int, *,
              engine: _TrialEngine | None = None) -> tuple[np.ndarray, np.ndarray]:
    """All trials for one sweep point.

    Returns (per-trial RMSE array, per-trial fill counts), in trial order.
    Every trial owns a stream keyed by (seed, point index, trial index), so
    entry t equals what the trial gives on its own, through
    next(engine.noise(point_index, [t]))[0] and a full-scan pick, scored
    against config.scenarios[point_index]. The trials run chunk by chunk
    through engine.noise and the engine's pruned search, which bounds a
    chunk in capped groups of rows and certifies it on the union of its
    trials' kept blocks; each trial is picked by one pick_peaks call, and
    the point's estimates are scored in one array operation. `engine` lets
    a sweep share one engine, built for the same config, across its points.
    """
    points = config.points
    if not 0 <= point_index < len(points):
        raise ValueError(f"point_index {point_index} out of range 0..{len(points) - 1}")
    if engine is None:
        engine = _TrialEngine(config)
    elif engine.cfg != config:
        raise ValueError("engine was built for a different config")
    scenario = config.scenarios[point_index]
    l = scenario.source_count
    estimates = np.empty((config.trials, l))
    fills = np.empty(config.trials, dtype=int)
    chunks = engine.noise(point_index, range(config.trials))
    spectra = itertools.chain.from_iterable(engine.search.spectra(ens, l) for ens in chunks)
    for t, spectrum in enumerate(spectra):
        est = pick_peaks(spectrum, l, config.fov_deg)
        estimates[t] = est.angles
        fills[t] = est.fill_count
    return _sorted_rmse(estimates, np.sort(scenario.angles)), fills


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run the full parameter sweep and reduce each point to one RMSE.

    The point RMSE pools squared errors across trials:
    sqrt(mean_t(rmse_t^2)), so every source of every trial weighs equally.
    """
    engine = _TrialEngine(config)
    rmses, fills = [], []
    for i in range(len(config.points)):
        errs, fill = run_point(config, i, engine=engine)
        rmses.append(float(np.sqrt(np.mean(errs ** 2))))
        fills.append(int(fill.sum()))
    return SweepResult(params=config.points, rmse_deg=tuple(rmses),
                       trials=(config.trials,) * len(rmses), fill_counts=tuple(fills),
                       fingerprint=config.fingerprint(), seed=config.seed)


def run_overloaded_demo(config: ExperimentConfig) -> tuple[Pseudospectrum, DoaEstimateSet]:
    """Single-realization demonstration, typically more sources than elements.

    Runs one trial (point 0, trial 0 of the master seed) and returns the
    pseudospectrum with the picked estimates for plotting. The spectrum
    covers +-fov plus one guard point per side (the whole grid at fov 90).
    """
    if config.family != "overloaded-demo":
        raise ConfigError(f"key 'family': run_overloaded_demo needs family "
                          f"'overloaded-demo', got {config.family!r}", "family")
    engine = _TrialEngine(config)
    en = next(engine.noise(0, [0]))[0]
    window = fov_window(engine.grid, config.fov_deg, guard=1)
    spectrum = Pseudospectrum(engine.grid[window], _spectrum(en, engine.steering)[window])
    return spectrum, pick_peaks(spectrum, config.source_count, config.fov_deg)


@dataclass(frozen=True)
class LinkBudget:
    """One-way free-space (impedance ETA_0) link for the SNR-to-range mapping."""

    transmit_power_w: float
    transmit_gain: float
    wavelength_m: float
    noise_power_w: float

    def __post_init__(self):
        for name in ("transmit_power_w", "transmit_gain", "wavelength_m", "noise_power_w"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")


def snr_to_range(budget: LinkBudget, snr_linear: float) -> float:
    """Range (meters) at which a link delivers the given linear SNR.

    Inverts the free-space propagation law: the received field power
    density falls as 1/r^2, so r = sqrt(P_t G_t lam^2 /
    (16 pi^2 eta_0 P_N SNR)).
    """
    if not 0.0 < snr_linear < math.inf:
        raise ValueError(f"snr_linear must be finite and > 0, got {snr_linear}")
    num = budget.transmit_power_w * budget.transmit_gain * budget.wavelength_m ** 2
    den = 16.0 * math.pi ** 2 * ETA_0 * budget.noise_power_w * snr_linear
    return math.sqrt(num / den)


def range_ratio(snr0_db: float, snr_db: float) -> float:
    """Range gain from operating at snr_db instead of reference snr0_db.

    The SNR ratio enters under a square root: received power already
    falls as 1/r^2, so reading the ratio linearly would double count.
    A 20 dB sensitivity improvement therefore buys a 10x range
    extension, not 100x. Multiplicative across chained differences.
    """
    return math.sqrt(10.0 ** ((snr0_db - snr_db) / 10.0))


def required_snr_for_rmse(curve: SweepResult, target_rmse_deg: float) -> float:
    """Smallest SNR (dB) on an snr-sweep curve achieving the target RMSE.

    Only the high-SNR suffix on which the curve is non-increasing is used,
    which excludes the noisy low-SNR threshold region. Between grid points
    the curve is interpolated linearly in (SNR, log10 RMSE); an exact
    grid-point hit returns that grid SNR, and so does a bracketing point of
    RMSE 0, where log10 RMSE has no finite value to interpolate to.
    """
    snr = np.asarray(curve.params, dtype=float)
    err = np.asarray(curve.rmse_deg, dtype=float)
    if snr.shape != err.shape:
        raise ValueError(f"curve has {snr.size} SNRs but {err.size} RMSEs")
    if snr.size < 2 or not np.isfinite(snr).all() or np.any(np.diff(snr) <= 0):
        raise ValueError("curve needs >= 2 points with finite, strictly increasing SNR")
    if not np.all((err >= 0) & (err < math.inf)):
        raise ValueError(f"curve RMSEs must be finite and >= 0, got {curve.rmse_deg}")
    if not 0.0 < target_rmse_deg < math.inf:
        raise ValueError(f"target RMSE must be finite and > 0, got {target_rmse_deg}")

    start = snr.size - 1
    while start > 0 and err[start - 1] >= err[start]:
        start -= 1
    s, e = snr[start:], err[start:]
    if target_rmse_deg < e[-1] or target_rmse_deg > e[0]:
        raise ValueError(f"target {target_rmse_deg} outside the achievable range "
                         f"[{e[-1]:.6g}, {e[0]:.6g}] of the monotone curve segment")
    for i in range(e.size):
        if e[i] <= target_rmse_deg:
            if e[i] == target_rmse_deg or e[i] == 0 or i == 0:
                return float(s[i])
            t = ((math.log10(target_rmse_deg) - math.log10(e[i - 1]))
                 / (math.log10(e[i]) - math.log10(e[i - 1])))
            return float(s[i - 1] + t * (s[i] - s[i - 1]))
    raise AssertionError("unreachable: target inside verified range")

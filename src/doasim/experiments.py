"""Monte Carlo accuracy experiments and the free-space link budget.

An experiment is a sweep over one parameter (source separation or SNR),
running many independent trials per point and reducing them to an RMSE.
Randomness is fully determined by one master seed: trial t of point p
draws from a stream keyed by (seed, p, t), so results are bit-reproducible
regardless of execution order or thread count.

Manifold perturbations (element pattern deviations, mutual coupling) are
applied only on the data-generating side; the estimator always scans with
the nominal manifold. That asymmetry is the calibration-mismatch model.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .estimators import (DoaEstimateSet, Pseudospectrum, azimuth_grid,
                         coarray_music, fov_window, fov_window_size,
                         music_pseudospectrum, pick_peaks, virtual_steering)
from .geometry import ArrayGeometry, GeometryError, is_perfect, named_geometry
from .manifold import (SourceScenario, apply_coupling_model, generate_snapshots,
                       make_manifold, phase_ramp, sample_covariance, steering_matrix)
# perturb is not called here; it stays in this namespace for callers that
# look it up through experiments, such as perfbench/tracing.py
from .patterns import (ElementPattern, PatternError, PatternPerturbation, TableError,
                       evaluate, make_pattern, perturb, perturbed_gains)

FAMILIES = ("symmetric-pair-angle-sweep", "snr-sweep", "fixed-scenario",
            "overloaded-demo")
ESTIMATORS = ("element-music", "coarray-music")

# free-space wave impedance, ohms
ETA_0 = 376.730

_OVERLOADED_ANGLES = (-54.0, -42.0, -30.0, -18.0, -6.0, 6.0, 18.0, 30.0, 42.0, 54.0)

# A trial scans whole blocks of this many full-grid columns. BLAS computes
# the last (n mod kernel width) columns of a matrix product on a separate
# path, so a scan cut at any column would differ from a full-grid scan in
# the last bits of its final columns; aligned blocks keep every column on
# the path it takes in the full scan, for kernel widths dividing 16.
_SCAN_BLOCK = 16


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
    return float(np.sqrt(np.mean((e - t) ** 2)))


def _as_int(key, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"key {key!r}: expected integer, got {v!r}", key)
    return v


def _as_float(key, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"key {key!r}: expected number, got {v!r}", key)
    return float(v)


def _as_float_tuple(key, v) -> tuple[float, ...]:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"key {key!r}: expected a list of numbers, got {v!r}", key)
    return tuple(_as_float(key, x) for x in v)


def _as_str(key, v) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"key {key!r}: expected string, got {v!r}", key)
    return v


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    `sweep` holds the swept parameter grid: half-angles (degrees) for the
    symmetric-pair family, SNR (dB) for snr-sweep; empty for single-point
    families, which report their one point as parameter 0.0. `angles` is
    the fixed scenario for the non-swept families.
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
        if isinstance(self.geometry, list):
            object.__setattr__(self, "geometry", tuple(self.geometry))
        object.__setattr__(self, "sweep", tuple(float(s) for s in self.sweep))
        if self.angles is not None:
            object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        numbers = {
            "manifold.coupling.c1": (self.coupling_c1,),
            "manifold.coupling.decay": (self.coupling_decay,),
            "manifold.perturbation.phase_noise_std_deg": (self.phase_noise_std_deg,),
            "manifold.perturbation.param_tolerance": (self.param_tolerance,),
            "snr_db": (self.snr_db,),
            "fov_deg": (self.fov_deg,),
            "grid_step_deg": (self.grid_step_deg,),
            "sweep": self.sweep,
            "angles": self.angles or (),
        }
        numbers.update({f"manifold.pattern.{k}": (v,) for k, v in self.pattern_params.items()
                        if isinstance(v, (int, float))})
        for key, values in numbers.items():
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"key {key!r}: must be finite, got "
                                  f"{', '.join(map(repr, values))}", key)
        # the bounds apply_coupling_model enforces, checked before any trial runs
        if abs(self.coupling_c1) >= 1.0:
            raise ConfigError(f"key 'manifold.coupling.c1': |c1| must be < 1, got "
                              f"{self.coupling_c1}", "manifold.coupling.c1")
        if not 0.0 < self.coupling_decay < 1.0:
            raise ConfigError(f"key 'manifold.coupling.decay': must be in (0, 1), got "
                              f"{self.coupling_decay}", "manifold.coupling.decay")
        # the bounds PatternPerturbation enforces
        if self.phase_noise_std_deg < 0.0:
            raise ConfigError(f"key 'manifold.perturbation.phase_noise_std_deg': must be "
                              f">= 0, got {self.phase_noise_std_deg}",
                              "manifold.perturbation.phase_noise_std_deg")
        if not 0.0 <= self.param_tolerance < 1.0:
            raise ConfigError(f"key 'manifold.perturbation.param_tolerance': must be in "
                              f"[0, 1), got {self.param_tolerance}",
                              "manifold.perturbation.param_tolerance")
        if self.family not in FAMILIES:
            raise ConfigError(f"key 'family': unknown family {self.family!r}, "
                              f"expected one of {', '.join(FAMILIES)}", "family")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"key 'estimator': unknown estimator {self.estimator!r}",
                              "estimator")
        if self.trials < 1:
            raise ConfigError(f"key 'trials': must be >= 1, got {self.trials}", "trials")
        if self.snapshots < 1:
            raise ConfigError(f"key 'snapshots': must be >= 1, got {self.snapshots}",
                              "snapshots")
        if self.seed < 0:
            raise ConfigError(f"key 'seed': must be >= 0, got {self.seed}", "seed")
        if not 0 < self.fov_deg <= 90:
            raise ConfigError(f"key 'fov_deg': must be in (0, 90], got {self.fov_deg}",
                              "fov_deg")
        if self.grid_step_deg <= 0:
            raise ConfigError(f"key 'grid_step_deg': must be > 0", "grid_step_deg")

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

        if self.angles:
            if len(set(self.angles)) != len(self.angles):
                raise ConfigError("key 'angles': must be distinct", "angles")
            if any(abs(a) > self.fov_deg for a in self.angles):
                raise ConfigError("key 'angles': must lie within the field of view",
                                  "angles")

        need = max(3, self.source_count)
        have = fov_window_size(self.grid_step_deg, self.fov_deg)
        if have < need:
            raise ConfigError(f"key 'grid_step_deg': the +-{self.fov_deg:g} deg pick "
                              f"window of a {self.grid_step_deg:g} deg grid holds "
                              f"{have} points, need at least {need}", "grid_step_deg")

        # estimator/geometry compatibility, checked before any trial runs
        geom = self.resolve_geometry()
        l = self.source_count
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
        if self.pattern == "tabulated":
            if "file" not in self.pattern_params:
                raise ConfigError("key 'manifold.pattern.file': required for tabulated "
                                  "pattern", "manifold.pattern.file")
            try:
                pattern = make_pattern(self.pattern, **self.pattern_params)
            except (TableError, OSError) as exc:
                raise ConfigError(f"key 'manifold.pattern.file': {exc}",
                                  "manifold.pattern.file") from None
        else:
            pattern = make_pattern(self.pattern, **self.pattern_params)
        # validated once here; a tabulated pattern keeps the rows read here,
        # which the fingerprint hashes
        object.__setattr__(self, "_pattern", pattern)

    @property
    def source_count(self) -> int:
        if self.family == "symmetric-pair-angle-sweep":
            return 2
        return len(self.angles)

    @property
    def points(self) -> tuple[float, ...]:
        """Swept parameter values; single-point families report 0.0."""
        return self.sweep if self.sweep else (0.0,)

    def scenario_at(self, point: float) -> SourceScenario:
        if self.family == "symmetric-pair-angle-sweep":
            return SourceScenario((-point, point), self.snr_db)
        if self.family == "snr-sweep":
            return SourceScenario(self.angles, point)
        return SourceScenario(self.angles, self.snr_db)

    def resolve_geometry(self) -> ArrayGeometry:
        try:
            return named_geometry(self.geometry if isinstance(self.geometry, str)
                                  else list(self.geometry))
        except GeometryError as exc:
            raise ConfigError(f"key 'geometry': {exc}", "geometry") from None

    def nominal_pattern(self) -> ElementPattern:
        return self._pattern

    def perturbation(self) -> PatternPerturbation:
        return PatternPerturbation(self.phase_noise_std_deg, self.param_tolerance)

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
        m.update({
            "manifold.coupling.c1": self.coupling_c1,
            "manifold.coupling.decay": self.coupling_decay,
            "manifold.perturbation.phase_noise_std_deg": self.phase_noise_std_deg,
            "manifold.perturbation.param_tolerance": self.param_tolerance,
            "snr_db": self.snr_db,
            "snapshots": self.snapshots,
            "trials": self.trials,
            "estimator": self.estimator,
            "fov_deg": self.fov_deg,
            "grid_step_deg": self.grid_step_deg,
            "seed": self.seed,
        })
        if self.sweep:
            m["sweep"] = list(self.sweep)
        if self.angles and self.family != "symmetric-pair-angle-sweep":
            m["angles"] = list(self.angles)
        return m

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """Build and validate a config from a flat dotted-key mapping."""
        m = dict(mapping)
        kwargs: dict = {}
        for req in ("family", "geometry", "manifold.pattern"):
            if req not in m:
                raise ConfigError(f"missing required key {req!r}", req)
        kwargs["family"] = _as_str("family", m.pop("family"))
        geom = m.pop("geometry")
        if isinstance(geom, str):
            kwargs["geometry"] = geom
        elif isinstance(geom, list) and all(isinstance(p, int) and not isinstance(p, bool)
                                            for p in geom):
            kwargs["geometry"] = tuple(geom)
        else:
            raise ConfigError(f"key 'geometry': expected name or integer list, "
                              f"got {geom!r}", "geometry")
        kwargs["pattern"] = _as_str("manifold.pattern", m.pop("manifold.pattern"))

        params: dict = {}
        for k in sorted(m):
            if k.startswith("manifold.pattern."):
                name = k[len("manifold.pattern."):]
                v = m.pop(k)
                params[name] = _as_str(k, v) if name == "file" else _as_float(k, v)
        kwargs["pattern_params"] = params

        simple = {
            "manifold.coupling.c1": ("coupling_c1", _as_float),
            "manifold.coupling.decay": ("coupling_decay", _as_float),
            "manifold.perturbation.phase_noise_std_deg": ("phase_noise_std_deg", _as_float),
            "manifold.perturbation.param_tolerance": ("param_tolerance", _as_float),
            "sweep": ("sweep", _as_float_tuple),
            "angles": ("angles", _as_float_tuple),
            "snr_db": ("snr_db", _as_float),
            "snapshots": ("snapshots", _as_int),
            "trials": ("trials", _as_int),
            "estimator": ("estimator", _as_str),
            "fov_deg": ("fov_deg", _as_float),
            "grid_step_deg": ("grid_step_deg", _as_float),
            "seed": ("seed", _as_int),
        }
        for key in list(m):
            if key not in simple:
                raise ConfigError(f"unknown key {key!r}", key)
            attr, coerce = simple[key]
            kwargs[attr] = coerce(key, m.pop(key))
        try:
            return cls(**kwargs)
        except PatternError as exc:
            raise ConfigError(f"key 'manifold.pattern': {exc}",
                              "manifold.pattern") from None

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

    CSV_HEADER = "param,rmse_deg,trials,fill_count"

    def to_csv_text(self) -> str:
        lines = [self.CSV_HEADER,
                 f"# fingerprint={self.fingerprint} seed={self.seed}"]
        for p, r, t, f in zip(self.params, self.rmse_deg, self.trials,
                              self.fill_counts):
            lines.append(f"{p!r},{r!r},{t},{f}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "SweepResult":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != cls.CSV_HEADER:
            raise ValueError(f"first line must be {cls.CSV_HEADER!r}")
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
            rows.append((float(parts[0]), float(parts[1]), int(parts[2]),
                         int(parts[3])))
        return cls(params=tuple(r[0] for r in rows),
                   rmse_deg=tuple(r[1] for r in rows),
                   trials=tuple(r[2] for r in rows),
                   fill_counts=tuple(r[3] for r in rows),
                   fingerprint=fingerprint, seed=seed)


class _Point(NamedTuple):
    """One sweep point: its scenario and the data-side constants its trials
    share. `ramp` is the phase ramp at the source angles (N x L); `steering`
    is the coupled data steering, fixed when nothing is perturbed."""

    index: int
    scenario: SourceScenario
    ramp: np.ndarray
    steering: np.ndarray | None


class _TrialEngine:
    """Shared per-trial machinery with precomputed steering tables.

    The scan covers only the +-fov pick window plus one guard point per side,
    widened to whole _SCAN_BLOCK blocks and sliced out of azimuth_grid(step),
    so that every spectrum value in it, and with it every estimate, is
    bit-identical to a scan of the whole grid.

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
        window = fov_window(grid, config.fov_deg, guard=1)
        start = window.start - window.start % _SCAN_BLOCK
        stop = min(window.stop + (-window.stop) % _SCAN_BLOCK, grid.size)
        self.grid = grid[start:stop]
        if config.estimator == "coarray-music":
            self.steering = virtual_steering(self.geometry.aperture, self.grid)
        else:
            self.steering = steering_matrix(self.nominal, self.grid)
        coupled = apply_coupling_model(self.nominal, config.coupling_c1,
                                       config.coupling_decay)
        self.coupling = coupled.coupling

    def _coupled(self, a: np.ndarray) -> np.ndarray:
        return a if self.coupling is None else self.coupling @ a

    def point(self, index: int) -> _Point:
        """Sweep point `index` with its phase ramp and, when nothing is
        perturbed, its data steering, computed once for all its trials."""
        scenario = self.cfg.scenario_at(self.cfg.points[index])
        ramp = phase_ramp(self.geometry, scenario.angles)
        steering = None
        if self.perturbation.is_zero:
            steering = self._coupled(evaluate(self.pattern, scenario.angles) * ramp)
        return _Point(index, scenario, ramp, steering)

    def data_steering(self, point: _Point, pert_seq: np.random.SeedSequence) -> np.ndarray:
        """The trial's data steering (N x L). A perturbed config draws one
        pattern deviation per element from the children of `pert_seq`."""
        if point.steering is not None:
            return point.steering
        rngs = [np.random.default_rng(c)
                for c in pert_seq.spawn(self.geometry.element_count)]
        gains = perturbed_gains(self.pattern, self.perturbation, rngs,
                                point.scenario.angles)
        return self._coupled(gains * point.ramp)

    def run_trial(self, point: _Point,
                  trial_index: int) -> tuple[Pseudospectrum, DoaEstimateSet]:
        cfg = self.cfg
        root = np.random.SeedSequence([cfg.seed, point.index, trial_index])
        pert_seq, snap_seq = root.spawn(2)
        snaps = generate_snapshots(self.nominal, point.scenario, cfg.snapshots,
                                   np.random.default_rng(snap_seq),
                                   steering=self.data_steering(point, pert_seq))
        r = sample_covariance(snaps)
        l = point.scenario.source_count
        if cfg.estimator == "coarray-music":
            ps = coarray_music(r, self.geometry, l, self.grid, self.steering)
        else:
            ps = music_pseudospectrum(r, self.nominal, l, self.grid, self.steering)
        return ps, pick_peaks(ps, l, cfg.fov_deg)


def run_point(config: ExperimentConfig, point_index: int, threads: int = 1, *,
              engine: _TrialEngine | None = None) -> tuple[np.ndarray, np.ndarray]:
    """All trials for one sweep point.

    Returns (per-trial RMSE array, per-trial fill counts), in trial order;
    bit-identical for any thread count because every trial owns a stream
    keyed by (seed, point index, trial index). `engine` lets a sweep share
    one engine, built for the same config, across its points.
    """
    points = config.points
    if not 0 <= point_index < len(points):
        raise ValueError(f"point_index {point_index} out of range 0..{len(points) - 1}")
    if engine is None:
        engine = _TrialEngine(config)
    elif engine.cfg != config:
        raise ValueError("engine was built for a different config")
    point = engine.point(point_index)
    truth = point.scenario.angles

    def one(t: int) -> tuple[float, int]:
        _, est = engine.run_trial(point, t)
        return rmse(est.angles, truth), est.fill_count

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            out = list(pool.map(one, range(config.trials)))
    else:
        out = [one(t) for t in range(config.trials)]
    errs = np.array([o[0] for o in out])
    fills = np.array([o[1] for o in out], dtype=int)
    return errs, fills


def run_sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Run the full parameter sweep and reduce each point to one RMSE.

    The point RMSE pools squared errors across trials:
    sqrt(mean_t(rmse_t^2)), so every source of every trial weighs equally.
    """
    engine = _TrialEngine(config)
    params, rmses, counts, fills = [], [], [], []
    for i, p in enumerate(config.points):
        errs, fill = run_point(config, i, threads=threads, engine=engine)
        params.append(p)
        rmses.append(float(np.sqrt(np.mean(errs ** 2))))
        counts.append(config.trials)
        fills.append(int(fill.sum()))
    return SweepResult(params=tuple(params), rmse_deg=tuple(rmses),
                       trials=tuple(counts), fill_counts=tuple(fills),
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
    spectrum, estimates = engine.run_trial(engine.point(0), 0)
    window = fov_window(spectrum.grid, config.fov_deg, guard=1)
    return Pseudospectrum(spectrum.grid[window], spectrum.values[window]), estimates


@dataclass(frozen=True)
class LinkBudget:
    """One-way free-space link parameters for the SNR-to-range mapping."""

    transmit_power_w: float
    transmit_gain: float
    wavelength_m: float
    noise_power_w: float
    impedance_ohm: float = ETA_0

    def __post_init__(self):
        for name in ("transmit_power_w", "transmit_gain", "wavelength_m",
                     "noise_power_w", "impedance_ohm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


def snr_to_range(budget: LinkBudget, snr_linear: float) -> float:
    """Range (meters) at which a link delivers the given linear SNR.

    Inverts the free-space propagation law: the received field power
    density falls as 1/r^2, so r = sqrt(P_t G_t lam^2 /
    (16 pi^2 eta_0 P_N SNR)).
    """
    if snr_linear <= 0:
        raise ValueError(f"snr_linear must be > 0, got {snr_linear}")
    num = budget.transmit_power_w * budget.transmit_gain * budget.wavelength_m ** 2
    den = 16.0 * math.pi ** 2 * budget.impedance_ohm * budget.noise_power_w * snr_linear
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
    grid-point hit returns that grid SNR.
    """
    snr = np.asarray(curve.params, dtype=float)
    err = np.asarray(curve.rmse_deg, dtype=float)
    if snr.size < 2 or np.any(np.diff(snr) <= 0):
        raise ValueError("curve needs >= 2 points with strictly increasing SNR")
    if target_rmse_deg <= 0:
        raise ValueError(f"target RMSE must be > 0, got {target_rmse_deg}")

    start = snr.size - 1
    while start > 0 and err[start - 1] >= err[start]:
        start -= 1
    s, e = snr[start:], err[start:]
    if target_rmse_deg < e[-1] or target_rmse_deg > e[0]:
        raise ValueError(f"target {target_rmse_deg} outside the achievable range "
                         f"[{e[-1]:.6g}, {e[0]:.6g}] of the monotone curve segment")
    for i in range(e.size):
        if e[i] <= target_rmse_deg:
            if e[i] == target_rmse_deg or i == 0:
                return float(s[i])
            t = ((math.log10(target_rmse_deg) - math.log10(e[i - 1]))
                 / (math.log10(e[i]) - math.log10(e[i - 1])))
            return float(s[i - 1] + t * (s[i] - s[i - 1]))
    raise AssertionError("unreachable: target inside verified range")

"""The trial engine and its runners.

An experiment is a sweep over one parameter (source separation or SNR),
running many independent trials per point and reducing them to an RMSE.
Randomness is fully determined by one master seed: trial t of point p
draws from a stream keyed by (seed, p, t), so results are bit-reproducible
and any trial can be replayed on its own. Each run reads a config that
`config` has checked.

Manifold perturbations (element pattern deviations, mutual coupling) are
applied only on the data-generating side; the estimator always scans with
the nominal manifold. That asymmetry is the calibration-mismatch model.
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator

import numpy as np

from ._streams import _stream_states, loaded
from .config import ConfigError, ExperimentConfig, SweepResult, _trial_bytes
# apply_coupling_model, coarray_music, generate_snapshots, music_pseudospectrum
# and perturb are not called here. They stay in this namespace because
# perfbench/tracing.py patches each of them on experiments as a layer
# boundary (the coupling as an engine build, the two scans as the scan, the
# snapshots as synthesis, perturb as the perturbation), and its tests pin the
# boundaries it cannot find to one name.
from .estimators import (_CHUNK_BYTES, DoaEstimateSet, Pseudospectrum, _coarray_noise,
                         _lag_smoothing, _PeakSearch, _scan_slice, _spectrum, azimuth_grid,
                         coarray_music, fov_window, music_pseudospectrum, pick_peaks,
                         virtual_steering)
from .manifold import (_synthesize, apply_coupling_model, generate_snapshots, make_manifold,
                       phase_ramp, sample_covariance, steering_matrix)
from .patterns import evaluate, perturb, perturbed_gains


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


# trials per _stream_states call, so that seeding memory does not grow with
# the trial count
_SEED_CHUNK = 256


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
        draws every element deviation of a perturbed config into stacked
        arrays, the phase noise only up to the last grid node the point's
        angles read, and each trial's snapshot stream fills its slices of
        the source and noise draws; every stream loads the one shared
        generator. Mixing, covariance and the eigen-kernel (element-music's
        eigh, or coarray-music's _lag_smoothing and _coarray_noise) then run
        once on the stack, each trial bit for bit as alone. The kernels skip
        the public functions' checks: the config validated the source count,
        geometry and estimator, and sample_covariance is exactly Hermitian,
        so element-music runs a bare eigh.
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
                                        loaded(self._rng, elements), scenario.angles,
                                        rows=b * n)
                steering = self._coupled(gains.reshape(b, n, l) * ramp)
            sr, nr = np.empty((b, 2, l, k)), np.empty((b, 2, n, k))
            for i, rng in enumerate(loaded(self._rng, snaps)):
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
    trials' kept blocks, picking each round's certified trials in one
    stacked pass. Each trial still goes through one pick_peaks call, which
    returns the pick its certified spectrum carries, or picks a full scan,
    and the point's estimates are scored in one array operation. `engine` lets
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

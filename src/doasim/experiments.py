"""The trial engine, its random streams, the runners and the link budget.

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
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

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

# free-space wave impedance, ohms
ETA_0 = 376.730


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

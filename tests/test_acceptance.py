"""End-to-end acceptance checks.

Every test prints one [acceptance] line (visible with pytest -s), so a full
run reads as a checklist. All Monte Carlo runs are seeded; results are
bit-reproducible for a given platform and BLAS thread count. Fixed-scenario
points are cached at module scope because several criteria share them.
"""

import math

import numpy as np
import pytest

from doasim import (
    ExperimentConfig,
    LinkBudget,
    PatternPerturbation,
    Pseudospectrum,
    RankError,
    SourceScenario,
    azimuth_grid,
    coarray_covariance,
    coarray_music,
    difference_coarray,
    generate_snapshots,
    hermitian_eig,
    is_perfect,
    make_isotropic,
    make_manifold,
    make_mra,
    make_pattern,
    make_ula,
    music_pseudospectrum,
    named_geometry,
    perturb,
    pick_peaks,
    range_ratio,
    rmse,
    run_point,
    run_sweep,
    sample_covariance,
    snr_to_range,
    steering_matrix,
    steering_vector,
)
from doasim.estimators import _spectrum
from doasim.experiments import _TrialEngine

import conftest
from oracles import best_pairing_rmse, exhaustive_mra

SEED = 20260815
FOV_DEG = 30.0          # inside every element's usable view; clears the +-50 deg nulls
PAIR_ANGLES = (-10.0, 10.0)
SNR_DB = -5.0
SNAPSHOTS = 50
TRIALS = 1000

_point_cache: dict = {}


def fixed_point_errors(geometry: str, pattern: str, *, param_tolerance=0.0,
                       phase_noise_std_deg=0.0) -> np.ndarray:
    """Per-trial errors for the two-source fixed scenario, cached."""
    key = (geometry, pattern, param_tolerance, phase_noise_std_deg)
    if key not in _point_cache:
        cfg = ExperimentConfig(
            family="fixed-scenario", geometry=geometry, pattern=pattern,
            angles=PAIR_ANGLES, snr_db=SNR_DB, snapshots=SNAPSHOTS,
            trials=TRIALS, seed=SEED, fov_deg=FOV_DEG,
            param_tolerance=param_tolerance,
            phase_noise_std_deg=phase_noise_std_deg)
        errs, _ = run_point(cfg, 0)
        _point_cache[key] = errs
    return _point_cache[key]


def rmse_and_se(errs: np.ndarray) -> tuple[float, float]:
    """RMSE and its delta-method standard error from per-trial errors."""
    r = float(np.sqrt(np.mean(errs ** 2)))
    se_ms = float(np.std(errs ** 2, ddof=1) / np.sqrt(errs.size))
    return r, se_ms / (2.0 * r) if r > 0 else 0.0


def report(num: int, slug: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[acceptance] criterion {num} ({slug}): {verdict}{suffix}"
    print(line, flush=True)
    conftest.acceptance_lines.append(line)
    assert ok, f"criterion {num} ({slug}) failed: {detail}"


def test_criterion_1_sparse_geometry_oracle():
    ok = True
    details = []
    for n in range(2, 9):
        geom = make_mra(n)
        perfect = is_perfect(geom)
        best_aperture, best_positions = exhaustive_mra(n)
        match = (geom.aperture == best_aperture
                 and tuple(geom.positions) == best_positions)
        ok = ok and perfect and match
        details.append(f"n={n}:{geom.aperture}")
    ok = ok and make_mra(8).aperture == 23
    report(1, "hole-free maximal-aperture catalog", ok, " ".join(details))


def test_criterion_2_noiseless_grid_limited_estimate():
    man = make_manifold(make_ula(8), make_isotropic())
    a = steering_vector(man, 10.0)
    cov = np.outer(a, a.conj()) + 1e-12 * np.eye(8)
    ps = music_pseudospectrum(cov, man, 1, azimuth_grid())
    est = pick_peaks(ps, 1)
    err = abs(est.angles[0] - 10.0)
    report(2, "noiseless single-source exactness", err <= 0.01,
           f"error {err:.2e} deg <= 0.01")


def test_criterion_3_pattern_and_geometry_orderings():
    stats = {(g, p): rmse_and_se(fixed_point_errors(g, p))
             for g in ("ula8", "mra8")
             for p in ("dipole_ref", "patch", "vivaldi")}

    def margin(worse, better):
        (rw, sw), (rb, sb) = stats[worse], stats[better]
        return (rw - rb) / math.hypot(sw, sb)

    margins = []
    for p in ("dipole_ref", "patch", "vivaldi"):
        margins.append(margin(("ula8", p), ("mra8", p)))
    for g in ("ula8", "mra8"):
        margins.append(margin((g, "dipole_ref"), (g, "patch")))
        margins.append(margin((g, "patch"), (g, "vivaldi")))
    ok = all(m >= 3.0 for m in margins)
    vals = " ".join(f"{stats[k][0]:.4f}" for k in sorted(stats))
    report(3, "sparse-geometry and directive-pattern orderings", ok,
           f"min margin {min(margins):.1f} sigma, rmse {vals}")


def test_criterion_4_resolution_threshold_orderings():
    half_angles = (0.2, 0.28, 0.4, 0.56, 0.8, 1.1, 1.6, 2.2,
                   3.2, 4.4, 6.3, 8.8, 12.0)

    def threshold(geometry, pattern):
        cfg = ExperimentConfig(
            family="symmetric-pair-angle-sweep", geometry=geometry,
            pattern=pattern, sweep=half_angles, snr_db=SNR_DB,
            snapshots=SNAPSHOTS, trials=128, seed=SEED, fov_deg=FOV_DEG)
        curve = np.asarray(run_sweep(cfg).rmse_deg)
        # smallest separation from which every larger one stays at target
        for i, half in enumerate(half_angles):
            if np.all(curve[i:] <= 0.4):
                return 2.0 * half
        return math.inf

    thr = {(g, p): threshold(g, p)
           for g in ("ula8", "mra8")
           for p in ("dipole_ref", "patch", "vivaldi")}
    checks = [thr[("mra8", p)] < thr[("ula8", p)]
              for p in ("dipole_ref", "patch", "vivaldi")]
    checks += [thr[(g, "vivaldi")] < thr[(g, "dipole_ref")]
               for g in ("ula8", "mra8")]
    vals = " ".join(f"{k[0]}/{k[1]}:{v:g}" for k, v in sorted(thr.items()))
    report(4, "separation-threshold orderings at 0.4 deg", all(checks), vals)


def test_criterion_5_overloaded_coarray_identification():
    angles = (-54.0, -42.0, -30.0, -18.0, -6.0, 6.0, 18.0, 30.0, 42.0, 54.0)
    mra = named_geometry("mra8")
    man = make_manifold(mra, make_isotropic())
    grid = azimuth_grid()
    found_snr = None
    worst = math.inf
    for snr in range(-25, 6, 5):
        scen = SourceScenario(angles=angles, snr_db=float(snr))
        snaps = generate_snapshots(man, scen, 1024,
                                   np.random.SeedSequence([SEED, 0, 0]))
        ps = coarray_music(sample_covariance(snaps), mra, len(angles), grid)
        est = pick_peaks(ps, len(angles))
        worst = float(np.max(np.abs(np.sort(np.asarray(est.angles))
                                    - np.asarray(angles))))
        if worst <= 0.5:
            found_snr = snr
            break

    ula = named_geometry("ula8")
    man_u = make_manifold(ula, make_isotropic())
    snaps = generate_snapshots(man_u, SourceScenario(angles=angles, snr_db=0.0),
                               1024, np.random.SeedSequence([SEED, 0, 0]))
    with pytest.raises(RankError):
        music_pseudospectrum(sample_covariance(snaps), man_u, len(angles), grid)
    ok = found_snr is not None
    report(5, "ten sources from eight elements", ok,
           f"snr {found_snr} dB, worst error {worst:.3f} deg; "
           "element-space rank rejection raised")


def test_criterion_6_range_mapping_exactness():
    budget = LinkBudget(transmit_power_w=1.0, transmit_gain=10.0,
                        wavelength_m=0.125, noise_power_w=1e-12)
    errs = []
    for snr_lin in (0.01, 1.0, 37.5, 1e4):
        r1 = snr_to_range(budget, snr_lin)
        r4 = snr_to_range(budget, 4.0 * snr_lin)
        errs.append(abs(r4 - r1 / 2.0) / r1)
    for a, b, c in ((-10.0, 0.0, 10.0), (3.0, -7.5, 12.25)):
        chained = range_ratio(a, b) * range_ratio(b, c)
        errs.append(abs(chained - range_ratio(a, c)))
    worst = max(errs)
    report(6, "square-root range law", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_7_perturbation_robustness():
    ok = True
    parts = []
    for g in ("ula8", "mra8"):
        e0 = fixed_point_errors(g, "patch")
        e1 = fixed_point_errors(g, "patch", param_tolerance=0.10)
        r0, _ = rmse_and_se(e0)
        r1, _ = rmse_and_se(e1)
        rel = abs(r1 - r0) / r0
        ok = ok and rel < 0.25
        parts.append(f"{g} patch {rel:.4f}")
    for g in ("ula8", "mra8"):
        e0 = fixed_point_errors(g, "vivaldi")
        e1 = fixed_point_errors(g, "vivaldi", param_tolerance=0.10,
                                phase_noise_std_deg=5.0)
        r0, _ = rmse_and_se(e0)
        r1, _ = rmse_and_se(e1)
        # trials are paired (common snapshot noise), so difference the
        # squared errors per trial to get the standard error of r1 - r0
        d = e1 ** 2 - e0 ** 2
        se = float(np.std(d, ddof=1) / np.sqrt(d.size)) / (r0 + r1)
        ok = ok and (r1 - r0) >= -se
        parts.append(f"{g} vivaldi {(r1 - r0) / se:+.1f} sigma")
    report(7, "dimension-tolerance and phase-noise response", ok,
           "; ".join(parts))


def test_criterion_8_invariant_suite():
    gen = np.random.default_rng(SEED)
    ok = True
    parts = []

    man = make_manifold(make_ula(8), make_pattern("patch"))
    scen = SourceScenario(angles=PAIR_ANGLES, snr_db=0.0)
    snaps = generate_snapshots(man, scen, 64, gen)
    cov = sample_covariance(snaps)
    herm = np.array_equal(cov, cov.conj().T)
    psd = float(np.linalg.eigvalsh(cov).min()) >= -1e-12 * np.abs(cov).max()
    ok = ok and herm and psd
    parts.append(f"covariance hermitian={herm} psd={psd}")

    w, v = hermitian_eig(cov)
    resid = float(np.linalg.norm(cov @ v - v * w) / np.linalg.norm(cov))
    ok = ok and resid < 1e-9
    parts.append(f"eig residual {resid:.1e}")

    a = steering_matrix(man, PAIR_ANGLES)
    exact = a @ a.conj().T + 1e-12 * np.eye(8)
    _, vecs = hermitian_eig(exact)
    noise_vecs = vecs[:, :6]
    leak = float(np.abs(noise_vecs.conj().T @ a).max())
    ok = ok and leak < 1e-8
    parts.append(f"noiseless subspace leak {leak:.1e}")

    mra = make_mra(8)
    man_m = make_manifold(mra, make_isotropic())
    snaps_m = generate_snapshots(man_m, scen, 256, gen)
    rss = coarray_covariance(sample_covariance(snaps_m), mra)
    rss_psd = float(np.linalg.eigvalsh(rss).min()) >= -1e-10 * np.abs(rss).max()
    ok = ok and rss_psd
    parts.append(f"smoothed psd={rss_psd}")

    cfg = ExperimentConfig(family="fixed-scenario", geometry="ula8",
                           pattern="vivaldi", angles=PAIR_ANGLES,
                           snr_db=SNR_DB, snapshots=SNAPSHOTS, trials=32,
                           seed=SEED, fov_deg=FOV_DEG,
                           phase_noise_std_deg=2.0)
    errs, fills = run_point(cfg, 0)
    engine = _TrialEngine(cfg)
    replayed = True
    for t in reversed(range(cfg.trials)):
        en = next(engine.noise(0, [t]))[0]
        est = pick_peaks(Pseudospectrum(engine.grid, _spectrum(en, engine.steering)),
                         len(PAIR_ANGLES), FOV_DEG)
        replayed = replayed and (rmse(est.angles, PAIR_ANGLES) == errs[t]
                                 and est.fill_count == fills[t])
    ok = ok and replayed
    parts.append(f"replay-invariant={replayed}")

    pat = make_pattern("vivaldi")
    identity = perturb(pat, PatternPerturbation(), gen) is pat
    ok = ok and identity
    parts.append(f"zero-perturbation identity={identity}")

    worst_gap = 0.0
    for _ in range(300):
        truth = np.sort(gen.uniform(-60, 60, size=3))
        est = truth + gen.normal(0, 5, size=3)
        gen.shuffle(est)
        worst_gap = max(worst_gap, abs(rmse(est, truth)
                                       - best_pairing_rmse(est, truth)))
    ok = ok and worst_gap <= 1e-12
    parts.append(f"pairing vs oracle gap {worst_gap:.1e}")

    report(8, "structural invariants", ok, "; ".join(parts))

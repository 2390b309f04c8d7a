import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doasim import estimators, experiments
from doasim.estimators import (azimuth_grid, coarray_music, fov_window,
                               music_pseudospectrum, pick_peaks)
from doasim.experiments import (ESTIMATORS, ConfigError, ExperimentConfig,
                                LinkBudget, SweepResult, range_ratio,
                                required_snr_for_rmse, rmse, run_overloaded_demo,
                                run_point, run_sweep, snr_to_range)
from doasim.manifold import (ArrayManifold, apply_coupling_model, generate_snapshots,
                             make_manifold, sample_covariance, steering_matrix)
from doasim.patterns import export_tabulated, make_vivaldi, perturb

from oracles import best_pairing_rmse


# -------------------------------------------------------------------- rmse

def test_rmse_basic():
    assert abs(rmse([-10.2, 9.9], [-10.0, 10.0])
               - math.sqrt((0.04 + 0.01) / 2)) < 1e-12
    assert rmse([10.0], [10.0]) == 0.0


def test_rmse_order_invariant():
    assert rmse([9.9, -10.2], [-10.0, 10.0]) == rmse([-10.2, 9.9], [10.0, -10.0])


def test_rmse_is_optimal_assignment():
    # sorted pairing must equal the brute-force best assignment
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        l = int(rng.integers(1, 4))
        est = rng.uniform(-90.0, 90.0, l)
        tru = rng.uniform(-90.0, 90.0, l)
        assert abs(rmse(est, tru) - best_pairing_rmse(est, tru)) < 1e-12


def test_rmse_validation():
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        rmse([], [])


# ------------------------------------------------------------------ config

def _tiny_config(**overrides) -> ExperimentConfig:
    base = dict(family="fixed-scenario", geometry="ula8", pattern="isotropic",
                angles=(-10.0, 10.0), snr_db=-5.0, snapshots=16, trials=3,
                grid_step_deg=0.5, seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        _tiny_config(family="grid-search")
    with pytest.raises(ConfigError):
        _tiny_config(estimator="esprit")
    with pytest.raises(ConfigError):
        _tiny_config(trials=0)
    with pytest.raises(ConfigError):
        _tiny_config(seed=-1)
    with pytest.raises(ConfigError):
        _tiny_config(angles=(0.0, 0.0))
    with pytest.raises(ConfigError):
        _tiny_config(angles=(0.0, 80.0), fov_deg=45.0)
    with pytest.raises(ConfigError):  # sweep forbidden for fixed scenarios
        _tiny_config(sweep=(1.0, 2.0))
    with pytest.raises(ConfigError):  # sweep required for sweep families
        ExperimentConfig(family="snr-sweep", geometry="ula8", pattern="isotropic")
    with pytest.raises(ConfigError):  # grid must increase
        ExperimentConfig(family="snr-sweep", geometry="ula8",
                         pattern="isotropic", sweep=(0.0, 0.0))


def test_config_rejects_too_coarse_grid():
    # the +-10 deg window of a 25.7 deg grid holds no point at all
    with pytest.raises(ConfigError, match="grid_step_deg"):
        _tiny_config(grid_step_deg=25.0, fov_deg=10.0, angles=(-5.0, 5.0))
    # 9 window points cannot hold 10 estimates
    with pytest.raises(ConfigError, match="at least 10"):
        _tiny_config(geometry="mra8", estimator="coarray-music", fov_deg=60.0,
                     angles=tuple(np.linspace(-54.0, 54.0, 10)),
                     grid_step_deg=15.0)
    # three points (-90, 0, 90) are the fewest any scan accepts
    assert _tiny_config(grid_step_deg=90.0, angles=(0.0,)).grid_step_deg == 90.0
    with pytest.raises(ConfigError, match="holds 2 points"):
        _tiny_config(grid_step_deg=180.0, angles=(0.0,))


def test_config_estimator_compatibility():
    # too many sources for element-space MUSIC, caught before any trial
    with pytest.raises(ConfigError):
        _tiny_config(angles=tuple(np.linspace(-40, 40, 9)))
    # holey custom layout cannot feed the coarray path
    with pytest.raises(ConfigError):
        _tiny_config(geometry=(0, 1, 6), estimator="coarray-music",
                     angles=(-10.0, 10.0))
    # source count above the virtual aperture
    with pytest.raises(ConfigError):
        _tiny_config(geometry="ula4", estimator="coarray-music",
                     angles=tuple(np.linspace(-40, 40, 4)))
    ok = _tiny_config(geometry="mra8", estimator="coarray-music",
                      angles=tuple(np.linspace(-54.0, 54.0, 10)))
    assert ok.source_count == 10


def test_config_family_defaults():
    cfg = ExperimentConfig(family="overloaded-demo", geometry="mra8",
                           pattern="patch", estimator="coarray-music")
    assert len(cfg.angles) == 10
    sweep = ExperimentConfig(family="symmetric-pair-angle-sweep",
                             geometry="ula8", pattern="isotropic",
                             sweep=(1.0, 2.0, 4.0))
    assert sweep.source_count == 2
    assert sweep.scenario_at(2.0).angles == (-2.0, 2.0)
    assert sweep.points == (1.0, 2.0, 4.0)
    assert _tiny_config().points == (0.0,)


def test_config_mapping_roundtrip():
    cfg = _tiny_config(pattern="patch",
                       pattern_params={"peak_gain_dbi": 8.0, "exponent": 1.5},
                       coupling_c1=0.25)
    again = ExperimentConfig.from_mapping(cfg.to_mapping())
    assert again == cfg
    assert again.fingerprint() == cfg.fingerprint()


def test_config_mapping_errors():
    good = _tiny_config().to_mapping()
    bad = dict(good)
    bad["turbo"] = True
    with pytest.raises(ConfigError, match="turbo"):
        ExperimentConfig.from_mapping(bad)
    bad = dict(good)
    del bad["family"]
    with pytest.raises(ConfigError, match="family"):
        ExperimentConfig.from_mapping(bad)
    bad = dict(good)
    bad["trials"] = 10.5
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig.from_mapping(bad)
    bad = dict(good)
    bad["geometry"] = [0, 1, 2.5]
    with pytest.raises(ConfigError, match="geometry"):
        ExperimentConfig.from_mapping(bad)


# ------------------------------------------------------------------ sweeps

def test_run_sweep_deterministic():
    cfg = _tiny_config()
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert a == b
    assert a.to_csv_text() == b.to_csv_text()


def test_run_sweep_thread_count_invariant():
    cfg = _tiny_config(trials=6)
    serial = run_sweep(cfg, threads=1)
    threaded = run_sweep(cfg, threads=3)
    assert serial == threaded


def _coupled_sweep(**overrides) -> ExperimentConfig:
    base = dict(family="snr-sweep", geometry="ula8", pattern="patch",
                angles=(-10.0, 10.0), sweep=(-6.0, 0.0, 6.0), trials=4,
                snapshots=16, fov_deg=30.0, grid_step_deg=0.05, coupling_c1=0.2,
                phase_noise_std_deg=5.0, param_tolerance=0.05, seed=9)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_sweep_points_equal_separate_run_point_calls(monkeypatch, threads):
    cfg = _coupled_sweep()
    seen = {}
    original = experiments.run_point

    def recording(config, point_index, threads=1, **kwargs):
        seen[point_index] = original(config, point_index, threads, **kwargs)
        return seen[point_index]

    monkeypatch.setattr(experiments, "run_point", recording)
    result = run_sweep(cfg, threads=threads)
    monkeypatch.undo()
    assert sorted(seen) == [0, 1, 2]
    for p in range(3):
        errs, fills = run_point(cfg, p)
        assert np.array_equal(seen[p][0], errs)
        assert np.array_equal(seen[p][1], fills)
        assert result.rmse_deg[p] == float(np.sqrt(np.mean(errs ** 2)))
        assert result.fill_counts[p] == int(fills.sum())


def test_run_sweep_builds_one_engine(monkeypatch):
    built = []

    class CountingEngine(experiments._TrialEngine):
        def __init__(self, config):
            built.append(config)
            super().__init__(config)

    monkeypatch.setattr(experiments, "_TrialEngine", CountingEngine)
    run_sweep(_coupled_sweep(), threads=2)
    assert len(built) == 1


def test_coarray_run_point_checks_geometry_at_most_once(monkeypatch):
    # the hole-free check belongs to the geometry's lag table, not to each trial
    cfg = _tiny_config(geometry="mra4", estimator="coarray-music", trials=6)
    calls = []
    original = estimators.is_perfect

    def counting(geometry):
        calls.append(geometry)
        return original(geometry)

    monkeypatch.setattr(estimators, "is_perfect", counting)
    monkeypatch.setattr(experiments, "is_perfect", counting)
    estimators._lag_table.cache_clear()
    run_point(cfg, 0)
    run_point(cfg, 0)
    assert len(calls) <= 1


def test_run_point_rejects_engine_of_other_config():
    engine = experiments._TrialEngine(_coupled_sweep())
    with pytest.raises(ValueError, match="different config"):
        run_point(_coupled_sweep(seed=10), 0, engine=engine)


def _replay_data_manifold(cfg: ExperimentConfig, pert_seq) -> ArrayManifold:
    """One trial's data-side manifold from public functions only: a perturbed
    copy of the nominal pattern per child of pert_seq, then the coupling."""
    geom = cfg.resolve_geometry()
    nominal = cfg.nominal_pattern()
    pert = cfg.perturbation()
    pats = [nominal] * geom.element_count
    if pert.phase_noise_std_deg > 0 or pert.param_tolerance > 0:
        pats = [perturb(nominal, pert, np.random.default_rng(c))
                for c in pert_seq.spawn(geom.element_count)]
    return apply_coupling_model(make_manifold(geom, pats), cfg.coupling_c1,
                                cfg.coupling_decay)


def _trial_streams(cfg: ExperimentConfig, point_index: int, trial_index: int):
    return np.random.SeedSequence([cfg.seed, point_index, trial_index]).spawn(2)


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("fov", [30.0, 45.5, 90.0])
@pytest.mark.parametrize("step", [0.01, 0.013, 0.07])
def test_engine_window_scan_matches_full_grid(estimator, fov, step):
    # the engine scans only blocks around the pick window with precomputed
    # steering; the reference replays the trial through public functions and
    # scans the whole grid, evaluating steering on the fly. Spectrum values
    # must agree bit for bit, not just the picks.
    cfg = ExperimentConfig(family="fixed-scenario", geometry="mra8",
                           pattern="vivaldi", angles=(-21.3, 4.0, 17.5),
                           snr_db=-3.0, snapshots=32, trials=3,
                           estimator=estimator, fov_deg=fov, grid_step_deg=step,
                           coupling_c1=0.1, phase_noise_std_deg=3.0, seed=4)
    engine = experiments._TrialEngine(cfg)
    point = engine.point(0)
    scenario = point.scenario
    grid = azimuth_grid(step)
    window = fov_window(grid, fov, guard=1)
    for t in range(cfg.trials):
        spectrum, est = engine.run_trial(point, t)
        pert_seq, snap_seq = _trial_streams(cfg, 0, t)
        snaps = generate_snapshots(_replay_data_manifold(cfg, pert_seq), scenario,
                                   cfg.snapshots, np.random.default_rng(snap_seq))
        r = sample_covariance(snaps)
        if estimator == "coarray-music":
            full = coarray_music(r, engine.geometry, 3, grid)
        else:
            full = music_pseudospectrum(r, engine.nominal, 3, grid)
        start = int(np.searchsorted(grid, spectrum.grid[0]))
        cols = slice(start, start + spectrum.grid.size)
        assert cols.start <= window.start and cols.stop >= window.stop
        assert np.array_equal(spectrum.grid, grid[cols])
        assert np.array_equal(spectrum.values, full.values[cols])
        assert est == pick_peaks(full, 3, fov)


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "vivaldi.csv"
    export_tabulated(make_vivaldi(), path, step_deg=2.0)
    return str(path)


_ANGLE = st.one_of(st.integers(-90, 90).map(float),
                   st.floats(-90.0, 90.0, allow_nan=False))


@pytest.mark.parametrize("tolerance", [0.0, 0.1])
@pytest.mark.parametrize("phase_noise", [0.0, 4.0])
@pytest.mark.parametrize("c1", [0.0, 0.3])
@pytest.mark.parametrize("kind", ["isotropic", "dipole_ref", "patch", "vivaldi",
                                  "tabulated"])
@settings(max_examples=6, deadline=None)
@given(geometry=st.sampled_from(["ula4", "ula8", "mra4", "mra8", (0, 1, 5, 7)]),
       angles=st.lists(_ANGLE, min_size=1, max_size=3, unique=True),
       seed=st.integers(0, 2**32 - 1), trial=st.integers(0, 10**6))
def test_engine_data_steering_matches_public_replay(table_file, kind, c1, phase_noise,
                                                    tolerance, geometry, angles, seed,
                                                    trial):
    # the engine builds the perturbed, coupled data steering in one pass; it
    # must equal steering_matrix of the manifold the public functions build
    # from the same streams, bit for bit, nominal or perturbed
    cfg = ExperimentConfig(family="fixed-scenario", geometry=geometry, pattern=kind,
                           pattern_params={"file": table_file} if kind == "tabulated"
                           else {},
                           angles=tuple(angles), coupling_c1=c1,
                           phase_noise_std_deg=phase_noise, param_tolerance=tolerance,
                           grid_step_deg=1.0, trials=1, seed=seed)
    engine = experiments._TrialEngine(cfg)
    point = engine.point(0)
    got = engine.data_steering(point, _trial_streams(cfg, 0, trial)[0])
    replay = _replay_data_manifold(cfg, _trial_streams(cfg, 0, trial)[0])
    assert np.array_equal(got, steering_matrix(replay, point.scenario.angles))


def test_run_point_trial_streams_differ():
    errs, fills = run_point(_tiny_config(trials=4), 0)
    assert errs.shape == (4,) and fills.shape == (4,)
    assert len(set(np.round(errs, 12))) > 1
    with pytest.raises(ValueError):
        run_point(_tiny_config(), 1)


def test_seed_changes_results():
    a = run_sweep(_tiny_config(seed=1))
    b = run_sweep(_tiny_config(seed=2))
    assert a.rmse_deg != b.rmse_deg


def test_high_snr_hits_grid_accuracy():
    cfg = _tiny_config(snr_db=60.0, trials=5, snapshots=50, grid_step_deg=0.01)
    result = run_sweep(cfg)
    assert result.rmse_deg[0] < 0.01
    assert result.fill_counts[0] == 0


def test_snr_sweep_monotone_above_threshold():
    cfg = ExperimentConfig(family="snr-sweep", geometry="ula8",
                           pattern="isotropic", angles=(-10.0, 10.0),
                           sweep=(-8.0, -4.0, 0.0, 4.0, 8.0), trials=500,
                           snapshots=50, grid_step_deg=0.02, seed=5)
    curve = run_sweep(cfg)
    r = curve.rmse_deg
    for lo, hi in zip(r[1:], r[:-1]):
        assert lo <= hi * 1.02  # statistical slack


def test_sweep_csv_roundtrip_bit_exact():
    cfg = _tiny_config(family="snr-sweep", angles=(-10.0, 10.0),
                       sweep=(-6.0, 0.0, 6.0), trials=2)
    result = run_sweep(cfg)
    text = result.to_csv_text()
    back = SweepResult.from_csv_text(text)
    assert back == result
    assert back.to_csv_text() == text
    lines = text.splitlines()
    assert lines[0] == "param,rmse_deg,trials,fill_count"
    assert lines[1].startswith("#")
    assert len(lines) == 2 + 3


def test_sweep_csv_errors():
    with pytest.raises(ValueError):
        SweepResult.from_csv_text("wrong,header\n")
    with pytest.raises(ValueError):
        SweepResult.from_csv_text("param,rmse_deg,trials,fill_count\n1,2,3\n")


def test_overloaded_demo_runs_and_is_deterministic():
    cfg = ExperimentConfig(family="overloaded-demo", geometry="mra8",
                           pattern="patch", estimator="coarray-music",
                           snr_db=0.0, snapshots=256, grid_step_deg=0.05,
                           seed=3)
    ps, est = run_overloaded_demo(cfg)
    ps2, est2 = run_overloaded_demo(cfg)
    assert len(est.angles) == 10
    assert est.angles == est2.angles
    assert np.array_equal(ps.values, ps2.values)
    with pytest.raises(ConfigError):
        run_overloaded_demo(_tiny_config())


# ------------------------------------------------------------- link budget

def test_snr_to_range_reference_case():
    budget = LinkBudget(transmit_power_w=16.0 * math.pi ** 2 * 376.730,
                        transmit_gain=1.0, wavelength_m=1.0,
                        noise_power_w=1.0)
    assert abs(snr_to_range(budget, 1.0) - 1.0) < 1e-12
    assert abs(snr_to_range(budget, 4.0) - 0.5) < 1e-12


def test_snr_to_range_validation():
    budget = LinkBudget(1.0, 1.0, 0.1, 1e-12)
    with pytest.raises(ValueError):
        snr_to_range(budget, 0.0)
    with pytest.raises(ValueError):
        snr_to_range(budget, -2.0)
    with pytest.raises(ValueError):
        LinkBudget(0.0, 1.0, 0.1, 1e-12)


def test_range_ratio_values():
    assert range_ratio(-5.0, -5.0) == 1.0
    assert abs(range_ratio(-5.0, 15.0) - 0.1) < 1e-12
    assert abs(range_ratio(-5.0, -25.0) - 10.0) < 1e-12


def test_range_ratio_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = rng.uniform(-40.0, 20.0, 3)
        assert abs(range_ratio(a, c) - range_ratio(a, b) * range_ratio(b, c)) < 1e-12


def test_range_ratio_consistent_with_budget():
    budget = LinkBudget(3.0, 2.5, 0.12, 4e-13)
    rng = np.random.default_rng(8)
    for _ in range(50):
        s0_db, s_db = rng.uniform(-30.0, 30.0, 2)
        direct = (snr_to_range(budget, 10.0 ** (s_db / 10.0))
                  / snr_to_range(budget, 10.0 ** (s0_db / 10.0)))
        assert abs(direct - range_ratio(s0_db, s_db)) < 1e-12


# ------------------------------------------------------- snr interpolation

def _curve(params, rmses) -> SweepResult:
    n = len(params)
    return SweepResult(params=tuple(params), rmse_deg=tuple(rmses),
                       trials=(100,) * n, fill_counts=(0,) * n)


def test_required_snr_exact_grid_hit():
    curve = _curve((-10.0, -5.0, 0.0, 5.0), (3.0, 1.0, 0.1, 0.01))
    assert required_snr_for_rmse(curve, 0.1) == 0.0
    assert required_snr_for_rmse(curve, 3.0) == -10.0


def test_required_snr_log_interpolation():
    curve = _curve((0.0, 5.0), (0.1, 0.01))
    # halfway in log10(rmse) lands halfway in snr
    assert abs(required_snr_for_rmse(curve, 10.0 ** -1.5) - 2.5) < 1e-9


def test_required_snr_uses_monotone_suffix():
    # threshold bump at low SNR must be excluded from the search
    curve = _curve((-10.0, -5.0, 0.0, 5.0), (0.5, 1.5, 0.1, 0.01))
    got = required_snr_for_rmse(curve, 0.4)
    assert got > -5.0
    expect = -5.0 + 5.0 * ((math.log10(0.4) - math.log10(1.5))
                           / (math.log10(0.1) - math.log10(1.5)))
    assert abs(got - expect) < 1e-9


def test_required_snr_out_of_range():
    curve = _curve((-5.0, 0.0, 5.0), (1.0, 0.1, 0.01))
    with pytest.raises(ValueError):
        required_snr_for_rmse(curve, 0.001)
    with pytest.raises(ValueError):
        required_snr_for_rmse(curve, 2.0)
    with pytest.raises(ValueError):
        required_snr_for_rmse(_curve((1.0,), (0.1,)), 0.1)
    with pytest.raises(ValueError):
        required_snr_for_rmse(curve, 0.0)


def test_required_snr_plateau_returns_smallest():
    curve = _curve((-5.0, 0.0, 5.0, 10.0), (1.0, 0.5, 0.5, 0.2))
    assert required_snr_for_rmse(curve, 0.5) == 0.0

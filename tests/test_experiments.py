import ast
import dataclasses
import io
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from doasim import _streams, config, coverage, estimators, experiments
from doasim.config import (_OVERLOADED_ANGLES, ESTIMATORS, ConfigError, ExperimentConfig,
                           SweepResult, parse_config_text, read_results, write_results)
from doasim.estimators import (Pseudospectrum, _spectrum, azimuth_grid, coarray_music,
                               fov_window, music_pseudospectrum, pick_peaks)
from doasim.experiments import rmse, run_overloaded_demo, run_point, run_sweep
from doasim.manifold import (ArrayManifold, apply_coupling_model, generate_snapshots,
                             make_manifold, sample_covariance, steering_matrix)
from doasim.patterns import export_tabulated, make_vivaldi, perturb

from oracles import best_pairing_rmse, evaluated_values_equal, loop_pick


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
    # a symmetric pair derives its angles, from half-angles in (0, fov]
    pair = dict(family="symmetric-pair-angle-sweep", geometry="mra8", pattern="patch")
    with pytest.raises(ConfigError, match="key 'angles': symmetric-pair") as info:
        ExperimentConfig(**pair, sweep=(1.0,), angles=(1.0, 2.0))
    assert info.value.key == "angles"
    for sweep in ((1.0, 40.0), (-1.0, 4.0)):
        with pytest.raises(ConfigError, match="key 'sweep': half-angles must be in") as info:
            ExperimentConfig(**pair, fov_deg=30.0, sweep=sweep)
        assert info.value.key == "sweep"


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
    # a step above 120 deg gives fewer, and azimuth_grid rejects it
    with pytest.raises(ConfigError, match=r"grid_step_deg.*\[0.0001, 120\]"):
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
    assert sweep.scenarios[1].angles == (-2.0, 2.0)
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


@pytest.mark.parametrize("key, value", [("snr_db", 10**5000), ("angles", (10**5000,)),
                                        ("seed", -10**5000)],
                         ids=["snr_db", "angles", "seed"])
def test_config_error_names_key_of_int_past_digit_limit(key, value):
    # such an int has no repr; the error shows its bit length and the key
    with pytest.raises(ConfigError, match="16610-bit integer") as exc:
        ExperimentConfig(family="fixed-scenario", geometry="ula4", pattern="isotropic",
                         **{key: value})
    assert exc.value.key == key


@pytest.mark.parametrize("position", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_config_error_names_geometry_of_non_finite_position(position):
    with pytest.raises(ConfigError, match="finite") as exc:
        ExperimentConfig(family="fixed-scenario", geometry=(0, 1, position),
                         pattern="isotropic")
    assert exc.value.key == "geometry"


def test_config_error_names_geometry_holding_int_past_digit_limit():
    # such a list has no repr; the error says why and names the key
    with pytest.raises(ConfigError, match="integer past the digit limit") as exc:
        ExperimentConfig(family="fixed-scenario", geometry=(0, 10**5000, 2.5),
                         pattern="isotropic")
    assert exc.value.key == "geometry"


# ------------------------------------------------------------------ sweeps

def test_run_sweep_deterministic():
    cfg = _tiny_config()
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert a == b
    assert _csv_text(a) == _csv_text(b)


def _csv_text(result: SweepResult) -> str:
    buf = io.StringIO()
    write_results(result, buf)
    return buf.getvalue()


def _coupled_sweep(**overrides) -> ExperimentConfig:
    base = dict(family="snr-sweep", geometry="ula8", pattern="patch",
                angles=(-10.0, 10.0), sweep=(-6.0, 0.0, 6.0), trials=4,
                snapshots=16, fov_deg=30.0, grid_step_deg=0.05, coupling_c1=0.2,
                phase_noise_std_deg=5.0, param_tolerance=0.05, seed=9)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("sweeps", [1, 2])
def test_run_sweep_points_equal_separate_run_point_calls(monkeypatch, sweeps):
    # with sweeps=2 the second sweep runs on caches the first one warmed
    cfg = _coupled_sweep()
    seen = []
    original = experiments.run_point

    def recording(cfg, point_index, **kwargs):
        out = original(cfg, point_index, **kwargs)
        seen.append((point_index, out))
        return out

    monkeypatch.setattr(experiments, "run_point", recording)
    results = [run_sweep(cfg) for _ in range(sweeps)]
    monkeypatch.undo()
    assert [p for p, _ in seen] == [0, 1, 2] * sweeps
    for k, result in enumerate(results):
        for p in range(3):
            errs, fills = run_point(cfg, p)
            recorded_errs, recorded_fills = seen[3 * k + p][1]
            assert np.array_equal(recorded_errs, errs)
            assert np.array_equal(recorded_fills, fills)
            assert result.rmse_deg[p] == float(np.sqrt(np.mean(errs ** 2)))
            assert result.fill_counts[p] == int(fills.sum())


def test_run_sweep_builds_one_engine(monkeypatch):
    built = []

    class CountingEngine(experiments._TrialEngine):
        def __init__(self, cfg):
            built.append(cfg)
            super().__init__(cfg)

    monkeypatch.setattr(experiments, "_TrialEngine", CountingEngine)
    run_sweep(_coupled_sweep())
    assert len(built) == 1


def test_config_builds_nonideality_objects_once(monkeypatch):
    # the geometry, the perturbation and the coupling are built by their
    # owners once, when the config is; neither the engine nor the sweep
    # builds them again
    calls = []

    def counting(name):
        original = getattr(config, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(config, name, wrapper)

    for name in ("named_geometry", "PatternPerturbation", "apply_coupling_model"):
        counting(name)
    cfg = _coupled_sweep()
    assert sorted(calls) == ["PatternPerturbation", "apply_coupling_model", "named_geometry"]
    calls.clear()
    engine = experiments._TrialEngine(cfg)
    run_point(cfg, 0, engine=engine)
    run_sweep(cfg)
    assert calls == []
    assert cfg.coupling is not None and not cfg.perturbation.is_zero
    assert engine.nominal.geometry is cfg.array_geometry
    for name in ("array_geometry", "nominal_pattern", "perturbation", "coupling"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, None)


def test_config_builds_each_scenario_once(monkeypatch):
    # one SourceScenario per point, built when the config is; a sweep, a
    # point and the demo read config.scenarios and build none
    built = []
    original = config.SourceScenario

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(config, "SourceScenario", counting)
    sweep = _coupled_sweep(trials=2)
    demo = ExperimentConfig(family="overloaded-demo", geometry="mra8", pattern="patch",
                            estimator="coarray-music", snapshots=16, grid_step_deg=0.5)
    assert len(built) == len(sweep.points) + 1
    assert [s.snr_db for s in sweep.scenarios] == list(sweep.sweep)
    built.clear()
    run_sweep(sweep)
    run_point(sweep, 1)
    run_overloaded_demo(demo)
    assert built == []


@pytest.mark.parametrize("cfg", [
    _tiny_config(), _coupled_sweep(),
    _tiny_config(family="symmetric-pair-angle-sweep", angles=None, sweep=(1.0, 2.0, 4.0))],
    ids=["fixed", "snr-sweep", "pair-sweep"])
def test_replaced_config_rebuilds_its_scenarios(cfg):
    # dataclasses.replace runs the constructor again: the scenarios follow
    # the new fields
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    assert dataclasses.replace(cfg, seed=5).scenarios == cfg.scenarios
    sweep = tuple(p + 1.0 for p in cfg.sweep)
    assert (dataclasses.replace(cfg, sweep=sweep).scenarios
            == ExperimentConfig(**{**fields, "sweep": sweep}).scenarios)
    if cfg.sweep:
        assert dataclasses.replace(cfg, sweep=sweep).scenarios != cfg.scenarios


@pytest.mark.parametrize("family", ["snr-sweep", "fixed-scenario", "overloaded-demo"])
@pytest.mark.parametrize("angles", [[5.0, 5.0], []], ids=["repeated", "empty"])
def test_file_and_constructor_reject_bad_angles_alike(family, angles):
    # SourceScenario owns "at least one angle" and "distinct angles"; a file
    # and the constructor both report its error under the key angles
    sweep = (0.0, 5.0) if family == "snr-sweep" else ()
    estimator = "coarray-music" if family == "overloaded-demo" else "element-music"
    with pytest.raises(ConfigError, match="key 'angles'") as info:
        ExperimentConfig(family=family, geometry="mra8", pattern="patch", sweep=sweep,
                         estimator=estimator, angles=angles)
    assert info.value.key == "angles"
    text = (f"family = {family}\ngeometry = mra8\nmanifold.pattern = patch\n"
            f"estimator = {estimator}\nangles = {angles}\n"
            + (f"sweep = {list(sweep)}\n" if sweep else ""))
    with pytest.raises(ConfigError, match="line 5: key 'angles'") as info:
        parse_config_text(text)
    assert info.value.key == "angles"


def test_coarray_run_point_checks_geometry_at_most_once(monkeypatch):
    # the hole-free check belongs to the geometry's lag table, not to each trial
    cfg = _tiny_config(geometry="mra4", estimator="coarray-music", trials=6)
    calls = []
    original = estimators.is_perfect

    def counting(geometry):
        calls.append(geometry)
        return original(geometry)

    monkeypatch.setattr(estimators, "is_perfect", counting)
    monkeypatch.setattr(config, "is_perfect", counting)
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
    geom = cfg.array_geometry
    nominal = cfg.nominal_pattern
    pert = cfg.perturbation
    pats = [nominal] * geom.element_count
    if pert.phase_noise_std_deg > 0 or pert.param_tolerance > 0:
        pats = [perturb(nominal, pert, np.random.default_rng(c))
                for c in pert_seq.spawn(geom.element_count)]
    return apply_coupling_model(make_manifold(geom, pats), cfg.coupling_c1,
                                cfg.coupling_decay)


def _trial_streams(cfg: ExperimentConfig, point_index: int, trial_index: int):
    return np.random.SeedSequence([cfg.seed, point_index, trial_index]).spawn(2)


def _trial_noise(engine, point_index: int, trials):
    """The engine's noise subspaces of `trials`, one per trial, unstacked."""
    return itertools.chain.from_iterable(engine.noise(point_index, trials))


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
    scenario = cfg.scenarios[0]
    grid = azimuth_grid(step)
    window = fov_window(grid, fov, guard=1)
    for t, en in enumerate(_trial_noise(engine, 0, range(cfg.trials))):
        spectrum = Pseudospectrum(engine.grid, _spectrum(en, engine.steering))
        est = pick_peaks(spectrum, 3, fov)
        pert_seq, snap_seq = _trial_streams(cfg, 0, t)
        snaps = generate_snapshots(_replay_data_manifold(cfg, pert_seq), scenario,
                                   cfg.snapshots, np.random.default_rng(snap_seq))
        r = sample_covariance(snaps)
        if estimator == "coarray-music":
            full = coarray_music(r, cfg.array_geometry, 3, grid)
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
       seed=st.integers(0, 2**32 - 1),
       trials=st.lists(st.integers(0, 10**6), min_size=1, max_size=4, unique=True))
# the engine draws each element's phase noise only up to the last node the
# angles read: all 181 nodes at +90 degrees, 2 at -90, the angles exactly on
# nodes or between them
@example(geometry="ula8", angles=[-90.0, 90.0], seed=0, trials=[0, 1, 2])
@example(geometry="mra8", angles=[-90.0], seed=2**32 - 1, trials=[3, 9])
@example(geometry="mra4", angles=[-10.0, 0.0, 10.0], seed=3, trials=[5, 6, 7, 8])
@example(geometry="ula4", angles=[-89.5, 0.25, 89.999], seed=7, trials=[1, 2, 40])
def test_engine_data_steering_matches_public_replay(table_file, kind, c1, phase_noise,
                                                    tolerance, geometry, angles, seed,
                                                    trials):
    # the engine builds the perturbed, coupled data steering of a chunk of
    # trials in one pass and synthesizes their snapshots from it; each trial's
    # must equal steering_matrix of the manifold the public functions build
    # from the same streams, bit for bit, nominal or perturbed. A perturbed
    # chunk passes one steering matrix per trial, a nominal one the matrix
    # all its trials share.
    cfg = ExperimentConfig(family="fixed-scenario", geometry=geometry, pattern=kind,
                           pattern_params={"file": table_file} if kind == "tabulated"
                           else {},
                           angles=tuple(angles), coupling_c1=c1,
                           phase_noise_std_deg=phase_noise, param_tolerance=tolerance,
                           grid_step_deg=1.0, trials=1, seed=seed)
    engine = experiments._TrialEngine(cfg)
    scenario = cfg.scenarios[0]
    seen = []
    synthesize = experiments._synthesize

    def recording(steering, *args):
        seen.extend(np.reshape(steering, (-1, *steering.shape[-2:])))
        return synthesize(steering, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_synthesize", recording)
        next(engine.noise(0, trials))
    assert len(seen) == (1 if cfg.perturbation.is_zero else len(trials))
    for t, steering in zip(trials, itertools.cycle(seen)):
        replay = _replay_data_manifold(cfg, _trial_streams(cfg, 0, t)[0])
        assert np.array_equal(steering, steering_matrix(replay, scenario.angles))


def test_run_point_errors_do_not_depend_on_seed_chunks(monkeypatch):
    # trials run in stacked chunks; neither the chunk size nor a trial's place
    # in its chunk may show in the errors: one chunk of the whole point, the
    # default chunks, chunks of 2 and chunks of one trial agree bit for bit,
    # for both estimators, nominal or perturbed
    sizes = []

    def run(cfg, chunk):
        monkeypatch.setattr(experiments, "_SEED_CHUNK", chunk)
        engine = experiments._TrialEngine(cfg)
        noise = engine.noise

        def recording(*args):
            for ens in noise(*args):
                sizes.append(len(ens))
                yield ens

        engine.noise = recording
        sizes.clear()
        return run_point(cfg, 1, engine=engine)

    for estimator, perturbed in itertools.product(ESTIMATORS, [False, True]):
        cfg = _coupled_sweep(trials=5, estimator=estimator,
                             phase_noise_std_deg=5.0 if perturbed else 0.0,
                             param_tolerance=0.05 if perturbed else 0.0)
        errs, fills = run(cfg, cfg.trials)
        assert sizes == [cfg.trials]
        for chunk, expected in [(256, [5]), (2, [2, 2, 1]), (1, [1] * 5)]:
            chunked_errs, chunked_fills = run(cfg, chunk)
            assert sizes == expected
            assert np.array_equal(chunked_errs, errs)
            assert np.array_equal(chunked_fills, fills)


@pytest.mark.parametrize("chunk, shape", [
    (100, dict(family="symmetric-pair-angle-sweep", geometry="mra8", pattern="vivaldi",
               sweep=(0.4, 12.0), snapshots=50, fov_deg=30.0, trials=100)),
    (6, dict(family="fixed-scenario", geometry="mra8", pattern="isotropic",
             angles=_OVERLOADED_ANGLES, snapshots=1024,
             estimator="coarray-music", trials=100)),
    (15, dict(family="snr-sweep", geometry="ula8", pattern="patch", coupling_c1=0.2,
              phase_noise_std_deg=5.0, param_tolerance=0.05, sweep=(-20.0, 19.0),
              angles=(-10.0, 10.0), snapshots=50, fov_deg=30.0, trials=15)),
], ids=["element-fov30", "coarray-overloaded", "perturbed-many-points"])
def test_chunks_of_benchmark_shapes_stay_under_the_byte_cap(monkeypatch, chunk, shape):
    # the chunk size counts each stacked array at its real size: the draws
    # and snapshots at 16 bytes an entry, the search's float rows at 8 bytes
    # per block. On the benchmark's three shapes a point runs in chunks of
    # 100 (the whole point), 6 and 15 (the whole point) trials, and no array
    # the chunk stacks, nor any product of the search, bound or union,
    # passes _CHUNK_BYTES: the bound pass runs in groups of rows. A point's
    # traced peak stays within 5 * _CHUNK_BYTES. Every point of the sweep
    # runs, down to its lowest SNR or narrowest separation, where the union
    # of a chunk's kept blocks is widest
    cfg = ExperimentConfig(**shape, grid_step_deg=0.01)
    engine = experiments._TrialEngine(cfg)
    refs = engine.search._refs
    sizes, stacked, products, unions, bound_groups = [], [], [], [], []
    synthesize, covariance = experiments._synthesize, experiments.sample_covariance
    sq_norms, compact = estimators._sq_norms, estimators._PeakSearch._compact
    denominators = estimators._denominators

    def recording_sq_norms(x):
        # every product of the search; a complex one is squared in place,
        # beside one temporary of half its size
        products.append(x.nbytes)
        return sq_norms(x)

    def recording_denominators(ens, table):
        bound_groups.append(table is refs)
        return denominators(ens, table)

    def recording_compact(self, ens, kept):
        unions.append(kept.size)
        return compact(self, ens, kept)

    # sizes only: arrays held here would count in the traced peak
    def recording_synthesize(steering, snr_db, sr, nr):
        x = synthesize(steering, snr_db, sr, nr)
        stacked.extend(a.nbytes for a in (steering, sr, nr, x))
        return x

    def recording_covariance(x):
        r = covariance(x)
        stacked.append(r.nbytes)
        return r

    monkeypatch.setattr(experiments, "_synthesize", recording_synthesize)
    monkeypatch.setattr(experiments, "sample_covariance", recording_covariance)
    monkeypatch.setattr(estimators, "_sq_norms", recording_sq_norms)
    monkeypatch.setattr(estimators, "_denominators", recording_denominators)
    monkeypatch.setattr(estimators._PeakSearch, "_compact", recording_compact)
    noise = engine.noise

    def recording(*args):
        for ens in noise(*args):
            sizes.append(len(ens))
            stacked.append(ens.nbytes)
            yield ens

    engine.noise = recording
    tracemalloc.start()
    try:
        for index in range(len(cfg.points)):
            sizes.clear()
            bound_groups.clear()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_point(cfg, index, engine=engine)
            assert tracemalloc.get_traced_memory()[1] - base <= 5 * experiments._CHUNK_BYTES
            assert sizes[0] == chunk and sum(sizes) == cfg.trials
            assert sum(bound_groups) > len(sizes)
    finally:
        tracemalloc.stop()
    assert max(stacked) <= experiments._CHUNK_BYTES
    assert unions and max(products) <= experiments._CHUNK_BYTES


def test_element_point_of_several_chunks_replays_each_trial(monkeypatch):
    # a benchmark-sized element-music point runs as one chunk; with the byte
    # cap lowered it runs in chunks of 7, and every trial, wherever it sits
    # in its chunk, equals its replay as a chunk of one with a full-scan pick
    cfg = ExperimentConfig(family="symmetric-pair-angle-sweep", geometry="mra8",
                           pattern="vivaldi", sweep=(0.4, 12.0), snapshots=50,
                           fov_deg=30.0, trials=20, seed=3)
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 7 * 16 * 8 * cfg.snapshots)
    engine = experiments._TrialEngine(cfg)
    noise, sizes = engine.noise, []

    def recording(*args):
        for ens in noise(*args):
            sizes.append(len(ens))
            yield ens

    engine.noise = recording
    for index in range(len(cfg.points)):
        sizes.clear()
        errs, fills = run_point(cfg, index, engine=engine)
        assert sizes == [7, 7, 6]
        truth = cfg.scenarios[index].angles
        for t in range(cfg.trials):
            en = next(noise(index, [t]))[0]
            est = pick_peaks(Pseudospectrum(engine.grid, _spectrum(en, engine.steering)),
                             len(truth), cfg.fov_deg)
            assert rmse(est.angles, truth) == errs[t] and est.fill_count == fills[t]


@pytest.mark.parametrize("cfg", [
    _coupled_sweep(trials=7, sweep=(-20.0, -6.0, 6.0)),
    _coupled_sweep(trials=5, geometry="mra8", estimator="coarray-music",
                   angles=(-20.0, -7.0, 5.0, 16.0), fov_deg=45.0),
], ids=["perturbed", "coarray"])
def test_sweep_picks_each_trial_once_through_experiments_pick_peaks(monkeypatch, cfg):
    # a sweep picks every trial with one call of experiments.pick_peaks, the
    # name the benchmark's corrupted-estimate check patches, on a spectrum
    # whose picks are those of the trial's full scan; a certified compact
    # spectrum holds the full scan's values and gives its pick from them
    calls = []

    def recording(spectrum, count, fov_deg):
        calls.append((spectrum, count, fov_deg))
        return pick_peaks(spectrum, count, fov_deg)

    monkeypatch.setattr(experiments, "pick_peaks", recording)
    run_sweep(cfg)
    monkeypatch.undo()
    engine = experiments._TrialEngine(cfg)
    l = cfg.source_count
    full = [Pseudospectrum(engine.grid, _spectrum(en, engine.steering))
            for index in range(len(cfg.points))
            for en in _trial_noise(engine, index, range(cfg.trials))]
    assert len(calls) == len(full) == cfg.trials * len(cfg.points)
    for (spectrum, count, fov), want in zip(calls, full):
        assert type(spectrum) is Pseudospectrum and (count, fov) == (l, cfg.fov_deg)
        expected = pick_peaks(want, l, fov)
        assert pick_peaks(spectrum, l, fov) == expected
        # a certified compact spectrum carries the round's stacked pick for
        # exactly (l, fov), which is the full scan's; a full scan carries none
        certified = spectrum.grid.size < engine.grid.size
        assert (spectrum._pick is not None) == certified
        if certified:
            assert spectrum._pick[0] == (l, cfg.fov_deg) and spectrum._pick[1] == expected
            assert loop_pick(spectrum.grid, spectrum.values, l, fov) == (expected.angles, l)
            assert evaluated_values_equal(spectrum, want)
    # the contract covers the certified compact spectra, not only full scans
    assert any(spectrum.grid.size < engine.grid.size for spectrum, _, _ in calls)


@pytest.mark.parametrize("cfg", [
    _coupled_sweep(trials=6),
    _coupled_sweep(trials=6, geometry="mra8", estimator="coarray-music",
                   angles=(-20.0, -7.0, 5.0, 16.0), fov_deg=45.0),
    _coupled_sweep(trials=6, geometry="ula4", pattern="vivaldi", angles=(-12.0, 0.0, 12.0)),
], ids=["perturbed", "coarray", "one-column"])
def test_engine_spectra_pass_public_checks(cfg):
    # the search builds its spectra without the constructor's checks; every
    # one it gives a sweep, compact or full scan, must pass them
    engine = experiments._TrialEngine(cfg)
    l = cfg.source_count
    for index in range(len(cfg.points)):
        for ens in engine.noise(index, range(cfg.trials)):
            for spectrum in engine.search.spectra(ens, l):
                checked = Pseudospectrum(spectrum.grid, spectrum.values)
                assert np.array_equal(checked.grid, spectrum.grid)
                assert np.array_equal(checked.values, spectrum.values)


@settings(max_examples=60, deadline=None)
@given(geometry=st.sampled_from(["ula4", "ula8", "mra4", "mra8", (0, 1, 5, 7)]),
       kind=st.sampled_from(["isotropic", "dipole_ref", "patch", "vivaldi", "tabulated"]),
       estimator=st.sampled_from(ESTIMATORS),
       fov=st.sampled_from([5.0, 30.0, 45.5, 60.0, 89.0, 90.0]),
       step=st.sampled_from([0.01, 0.013, 0.05, 0.1, 0.5]),
       spots=st.lists(st.floats(-0.98, 0.98), min_size=1, max_size=5, unique=True),
       snr=st.floats(-20.0, 20.0), snapshots=st.sampled_from([4, 16, 64]),
       c1=st.sampled_from([0.0, 0.3]), phase_noise=st.sampled_from([0.0, 4.0]),
       tolerance=st.sampled_from([0.0, 0.1]), seed=st.integers(0, 2**32 - 1))
def test_engine_pruned_search_matches_full_scan(table_file, geometry, kind, estimator,
                                                fov, step, spots, snr, snapshots, c1,
                                                phase_noise, tolerance, seed):
    # run_point's pruned search gives the full scan's estimates (angles,
    # fills, peaks_found), and every spectrum value it evaluates equals the
    # full-scan value bit for bit. The vivaldi pattern has nulls at +-50 deg.
    angles = tuple(sorted({round(fov * x, 3) for x in spots}))
    try:
        cfg = ExperimentConfig(family="fixed-scenario", geometry=geometry, pattern=kind,
                               pattern_params={"file": table_file}
                               if kind == "tabulated" else {},
                               angles=angles, snr_db=snr, snapshots=snapshots,
                               trials=3, estimator=estimator, fov_deg=fov,
                               grid_step_deg=step, coupling_c1=c1,
                               phase_noise_std_deg=phase_noise,
                               param_tolerance=tolerance, seed=seed)
    except ConfigError:
        assume(False)
    engine = experiments._TrialEngine(cfg)
    l = len(angles)
    for en in _trial_noise(engine, 0, range(cfg.trials)):
        full = Pseudospectrum(engine.grid, _spectrum(en, engine.steering))
        [pruned] = engine.search.spectra(en[None], l)
        assert pick_peaks(pruned, l, fov) == pick_peaks(full, l, fov)
        assert evaluated_values_equal(pruned, full)


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
    text = _csv_text(result)
    back = read_results(io.StringIO(text))
    assert back == result
    assert _csv_text(back) == text
    lines = text.splitlines()
    assert lines[0] == "param,rmse_deg,trials,fill_count"
    assert lines[1].startswith("#")
    assert len(lines) == 2 + 3


def test_sweep_csv_errors():
    with pytest.raises(ValueError):
        read_results(io.StringIO("wrong,header\n"))
    with pytest.raises(ValueError):
        read_results(io.StringIO("param,rmse_deg,trials,fill_count\n1,2,3\n"))


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


# ------------------------------------------------------------ module seams

def _tree(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text())


def _defined(tree: ast.Module) -> set:
    """The names `tree` binds at module level, and its classes' methods."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update(n.name for n in node.body if isinstance(n, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _imported(tree: ast.Module) -> list:
    """(level, dotted name) of every import in `tree`, with the names taken
    by `from ... import`; level 0 is absolute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(0, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [(node.level, f"{node.module or ''}.{a.name}") for a in node.names]
    return found


def test_streams_and_coverage_are_split_from_the_engine():
    # the streams can be replaced whole, the engine keeps none of the moved
    # code, and the coverage helpers do not depend on the engine
    streams, cover = _tree(_streams), _tree(coverage)
    for level, module in _imported(streams):
        assert level == 0 and module.split(".")[0] in {"numpy", *sys.stdlib_module_names}
    moved = _defined(streams) | _defined(cover)
    assert {"_stream_states", "loaded", "ETA_0", "range_ratio"} <= moved
    assert not (_defined(_tree(experiments)) & (moved | {"_load"}))
    assert not [m for _, m in _imported(cover) if "experiments" in m.split(".")]

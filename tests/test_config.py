import dataclasses
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from doasim.config import (parse_config, parse_config_text, read_results,
                           serialize_config, write_results)
from doasim.cli import main
from doasim.experiments import (_SCALARS, ESTIMATORS, MAX_LEVEL_DB, MIN_LEVEL_DB, ConfigError,
                                ExperimentConfig, SweepResult, run_point)
from doasim.patterns import MIN_STEP_DEG

SAMPLE = """\
# two-source accuracy sweep
family = snr-sweep
geometry = mra8
manifold.pattern = patch
manifold.pattern.peak_gain_dbi = 8.0
manifold.pattern.exponent = 1.5
manifold.coupling.c1 = 0.2
manifold.coupling.decay = 0.5

sweep = [-15, -10, -5, 0]
angles = [-10, 10]
trials = 40
snapshots = 50
estimator = element-music
seed = 9
"""


def test_parse_happy_path():
    cfg = parse_config_text(SAMPLE)
    assert cfg.family == "snr-sweep"
    assert cfg.geometry == "mra8"
    assert cfg.pattern == "patch"
    assert cfg.pattern_params == {"peak_gain_dbi": 8.0, "exponent": 1.5}
    assert cfg.coupling_c1 == 0.2
    assert cfg.sweep == (-15.0, -10.0, -5.0, 0.0)
    assert cfg.angles == (-10.0, 10.0)
    assert cfg.trials == 40
    assert cfg.seed == 9
    # untouched defaults
    assert cfg.fov_deg == 90.0
    assert cfg.grid_step_deg == 0.01
    assert cfg.phase_noise_std_deg == 0.0


def test_parse_geometry_position_list():
    cfg = parse_config_text("family = fixed-scenario\ngeometry = [0, 1, 4, 6]\n"
                            "manifold.pattern = isotropic\n")
    assert cfg.geometry == (0, 1, 4, 6)
    assert cfg.resolve_geometry().aperture == 6


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("family = fixed-scenario\nno equals sign here\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("family = fixed-scenario\ngeometry = ula8\n"
                          "trials = many\nmanifold.pattern = isotropic\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("family = fixed-scenario\nfamily = snr-sweep\n")


@pytest.mark.parametrize("pattern, line4", [
    ("vivaldi", "manifold.pattern.null_angle_deg = 100"),
    ("patch", "manifold.pattern.bogus = 3"),
])
def test_bad_pattern_parameter_names_its_own_line(pattern, line4):
    # the error points at the parameter's line, not at the kind's on line 3
    key = line4.partition(" =")[0]
    text = f"family = fixed-scenario\ngeometry = mra8\nmanifold.pattern = {pattern}\n{line4}\n"
    with pytest.raises(ConfigError, match="line 4") as exc:
        parse_config_text(text)
    assert exc.value.key == key


def test_parse_unknown_key_named():
    text = SAMPLE + "turbo_mode = 1\n"
    with pytest.raises(ConfigError, match="turbo_mode"):
        parse_config_text(text)


def test_parse_missing_required_key():
    with pytest.raises(ConfigError, match="manifold.pattern"):
        parse_config_text("family = fixed-scenario\ngeometry = ula8\n")


def test_roundtrip_parse_serialize_parse():
    cfg = parse_config_text(SAMPLE)
    text = serialize_config(cfg)
    again = parse_config_text(text)
    assert again == cfg
    assert serialize_config(again) == text


_PATTERNS = st.one_of(
    st.tuples(st.sampled_from(["isotropic", "dipole_ref"]), st.just({})),
    st.tuples(st.just("patch"), st.fixed_dictionaries(
        {}, optional={"peak_gain_dbi": st.floats(-300.0, 300.0),
                      "exponent": st.floats(0.1, 4.0)})),
    st.tuples(st.just("vivaldi"), st.fixed_dictionaries(
        {}, optional={"peak_gain_dbi": st.floats(-300.0, 300.0)})))


@st.composite
def _configs(draw):
    family = draw(st.sampled_from(["symmetric-pair-angle-sweep", "snr-sweep",
                                   "fixed-scenario", "overloaded-demo"]))
    estimator = draw(st.sampled_from(ESTIMATORS))
    geometry = draw(st.sampled_from(["ula4", "ula8", "mra4", "mra8"]
                                    + ([(0, 1, 5, 7), [0, 2, 3]]
                                       if estimator == "element-music" else [])))
    pattern, params = draw(_PATTERNS)
    fov = draw(st.floats(1.0, 90.0))
    step = draw(st.floats(0.01, 0.5))
    inside = st.floats(-fov, fov)
    kwargs = {}
    if family == "symmetric-pair-angle-sweep":
        kwargs["sweep"] = tuple(sorted(draw(st.sets(st.floats(step, fov), min_size=1,
                                                    max_size=4))))
    else:
        kwargs["angles"] = tuple(draw(st.sets(inside, min_size=1, max_size=3)))
    if family == "snr-sweep":
        kwargs["sweep"] = tuple(sorted(draw(st.sets(st.floats(-300.0, 300.0),
                                                    min_size=1, max_size=4))))
    try:
        return ExperimentConfig(
            family=family, geometry=geometry, pattern=pattern, pattern_params=params,
            coupling_c1=draw(st.floats(-0.99, 0.99)),
            coupling_decay=draw(st.floats(0.01, 0.99)),
            phase_noise_std_deg=draw(st.floats(0.0, 30.0)),
            param_tolerance=draw(st.floats(0.0, 0.99)),
            snr_db=draw(st.floats(-300.0, 300.0)), snapshots=draw(st.integers(1, 5000)),
            trials=draw(st.integers(1, 10**6)), estimator=estimator, fov_deg=fov,
            grid_step_deg=step, seed=draw(st.integers(0, 2**63)), **kwargs)
    except ConfigError:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(cfg=_configs())
def test_serialize_parse_serialize_roundtrip(cfg):
    text = serialize_config(cfg)
    again = parse_config_text(text)
    assert again == cfg
    assert again.fingerprint() == cfg.fingerprint()
    assert serialize_config(again) == text


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NOT_A_NUMBER = st.one_of(st.booleans(), st.none(), st.text("abcxyz", min_size=1),
                          st.lists(_FINITE, max_size=2))
_NOT_AN_INT = st.one_of(_NOT_A_NUMBER, _FINITE)  # 3.0 is a float, not an int
_BELOW_0 = st.floats(max_value=-1e-300)  # -0.0 is not below 0
# config key -> out-of-range values of the right type (bounded float
# strategies also draw the infinity beyond their bound)
_OUT_OF_RANGE = {
    "manifold.coupling.c1": st.floats(min_value=1.0) | st.floats(max_value=-1.0),
    "manifold.coupling.decay": st.floats(max_value=0.0) | st.floats(min_value=1.0),
    "manifold.perturbation.phase_noise_std_deg": _BELOW_0,
    "manifold.perturbation.param_tolerance": _BELOW_0 | st.floats(min_value=1.0),
    "snr_db": (st.floats(max_value=MIN_LEVEL_DB, exclude_max=True)
               | st.floats(min_value=MAX_LEVEL_DB, exclude_min=True)),
    "snapshots": st.integers(max_value=0),
    "trials": st.integers(max_value=0),
    "estimator": st.text(min_size=1).filter(lambda e: e not in ESTIMATORS),
    "fov_deg": st.floats(max_value=0.0) | st.floats(min_value=90.0, exclude_min=True),
    "grid_step_deg": st.floats(max_value=MIN_STEP_DEG, exclude_max=True),
    "seed": st.integers(max_value=-1),
    "manifold.pattern.peak_gain_dbi": (st.floats(max_value=MIN_LEVEL_DB, exclude_max=True)
                                       | st.floats(min_value=MAX_LEVEL_DB, exclude_min=True)),
    "manifold.pattern.exponent": st.floats(max_value=0.0) | st.floats(min_value=1e300),
}


@st.composite
def _invalid_scalars(draw):
    """(key, value): one scalar key of a config with a value it must reject."""
    key = draw(st.sampled_from(sorted(_OUT_OF_RANGE)))
    if key in ("snapshots", "trials", "seed"):
        wrong_type = _NOT_AN_INT
    elif key == "estimator":
        wrong_type = st.one_of(st.booleans(), st.none(), _FINITE)
    else:
        wrong_type = st.one_of(_NOT_A_NUMBER, st.sampled_from([np.nan, np.inf, -np.inf]))
    return key, draw(_OUT_OF_RANGE[key] | wrong_type)


@settings(max_examples=200, deadline=None)
@given(cfg=_configs(), invalid=_invalid_scalars())
def test_every_invalid_scalar_exits_2(cfg, invalid):
    # a valid config with one scalar made non-finite, out of range or of the
    # wrong type fails at parse time with exit 2, before any output is written
    key, value = invalid
    mapping = {**cfg.to_mapping(), key: value}
    with tempfile.TemporaryDirectory() as tmp:
        conf, out = Path(tmp) / "bad.conf", Path(tmp) / "out"
        conf.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in mapping.items()))
        assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 2
        assert not out.exists()


_BAD_ELEMENT = st.one_of(st.booleans(), st.none(), st.text("abcxyz", min_size=1),
                        st.sampled_from([np.nan, np.inf, -np.inf]), st.lists(_FINITE, max_size=1))


@st.composite
def _invalid_lists(draw):
    """(key, value): `sweep` or `angles` not a list, or a list holding a
    non-number. A None `angles` is left out: the constructor reads it as
    "not set" (the family's default), and a config file has no null."""
    key = draw(st.sampled_from(["sweep", "angles"]))
    head, tail = draw(st.lists(_FINITE, max_size=2)), draw(st.lists(_FINITE, max_size=2))
    not_a_list = st.one_of(st.booleans(), st.text("abcxyz", min_size=1), _FINITE,
                           st.none() if key == "sweep" else st.nothing())
    return key, draw(not_a_list | _BAD_ELEMENT.map(lambda x: head + [x] + tail))


_PATTERN_PARAMS = ["peak_gain_dbi", "exponent", "main_exponent", "null_angle_deg",
                   "ripple_period_deg", "phase_ripple_deg", "file", "bogus"]
_ANY_VALUE = st.one_of(_FINITE, _BAD_ELEMENT, st.lists(_FINITE, max_size=2))
# (key, value): any value for a pattern parameter, in range or not
_pattern_params = st.tuples(st.sampled_from(_PATTERN_PARAMS).map("manifold.pattern.{}".format),
                            _ANY_VALUE)


def _rejected_key(build):
    try:
        build()
    except ConfigError as exc:
        return exc.key
    return None


@settings(max_examples=300, deadline=None)
@given(cfg=_configs(), invalid=st.one_of(_invalid_scalars(), _invalid_lists(),
                                         _pattern_params))
def test_file_and_constructor_reject_alike(cfg, invalid):
    # one validator: a value the config file rejects, ExperimentConfig
    # rejects too, with a ConfigError naming the same key
    key, value = invalid
    mapping = {**cfg.to_mapping(), key: value}
    text = "".join(f"{k} = {json.dumps(v)}\n" for k, v in mapping.items())
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    if key.startswith("manifold.pattern."):
        fields["pattern_params"] = {**cfg.pattern_params,
                                    key[len("manifold.pattern."):]: value}
    else:
        fields[_SCALARS[key][0] if key in _SCALARS else key] = value
    from_file = _rejected_key(lambda: parse_config_text(text))
    assume(from_file is not None)
    assert _rejected_key(lambda: ExperimentConfig(**fields)) == from_file


def test_readme_config_table_lists_every_key():
    # the README's config table and the keys a config may set cannot drift
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = re.findall(r"^\| `([^`]+)` \|", readme, flags=re.MULTILINE)
    structural = ["family", "geometry", "manifold.pattern", "manifold.pattern.<param>",
                  "sweep", "angles"]
    assert sorted(table) == sorted(structural + list(_SCALARS))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(_FINITE, _FINITE, st.integers(0, 10**9),
                               st.integers(0, 10**9)), max_size=30),
       fingerprint=st.text("0123456789abcdef", min_size=1, max_size=16),
       seed=st.integers(0, 2**63))
def test_write_read_results_roundtrip(rows, fingerprint, seed):
    result = SweepResult(params=tuple(r[0] for r in rows),
                         rmse_deg=tuple(r[1] for r in rows),
                         trials=tuple(r[2] for r in rows),
                         fill_counts=tuple(r[3] for r in rows),
                         fingerprint=fingerprint, seed=seed)
    buf = io.StringIO()
    write_results(result, buf)
    again = read_results(io.StringIO(buf.getvalue()))
    assert again == result
    assert [np.signbit(x) for x in again.params + again.rmse_deg] == \
        [np.signbit(x) for x in result.params + result.rmse_deg]


def test_serialize_includes_resolved_defaults():
    cfg = parse_config_text("family = fixed-scenario\ngeometry = ula8\n"
                            "manifold.pattern = isotropic\n")
    text = serialize_config(cfg)
    assert "trials = 1000" in text
    assert "grid_step_deg = 0.01" in text
    assert "angles = [-10.0, 10.0]" in text


def test_parse_config_path_and_file(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text(SAMPLE)
    assert parse_config(path) == parse_config_text(SAMPLE)
    with open(path) as fh:
        assert parse_config(fh) == parse_config_text(SAMPLE)
    with pytest.raises(ConfigError, match="missing.conf"):
        parse_config(tmp_path / "missing.conf")


def test_results_roundtrip(tmp_path):
    result = SweepResult(params=(1.0, 2.0), rmse_deg=(0.123456789012345, 0.5),
                         trials=(10, 10), fill_counts=(0, 3),
                         fingerprint="abc123", seed=4)
    path = tmp_path / "out.csv"
    write_results(result, path)
    assert read_results(path) == result
    buf = io.StringIO()
    write_results(result, buf)
    assert read_results(io.StringIO(buf.getvalue())) == result


def test_results_io_errors_name_path(tmp_path):
    result = SweepResult(params=(1.0,), rmse_deg=(0.1,), trials=(1,),
                         fill_counts=(0,))
    bad = tmp_path / "nope" / "out.csv"
    with pytest.raises(OSError, match="nope"):
        write_results(result, bad)
    with pytest.raises(OSError, match="nope"):
        read_results(bad)


def test_empty_sweep_result_serializes():
    empty = SweepResult(params=(), rmse_deg=(), trials=(), fill_counts=(),
                        fingerprint="f", seed=0)
    text = empty.to_csv_text()
    assert text.splitlines() == ["param,rmse_deg,trials,fill_count",
                                 "# fingerprint=f seed=0"]
    assert SweepResult.from_csv_text(text) == empty


def test_config_unparsed_value_is_string():
    cfg = parse_config_text("family = fixed-scenario\ngeometry = ula8\n"
                            "manifold.pattern = isotropic\n")
    assert isinstance(cfg.family, str)
    with pytest.raises(ConfigError):
        parse_config_text("family = fixed-scenario\ngeometry = ula8\n"
                          "manifold.pattern = isotropic\ntrials = \"12\"\n")


@pytest.mark.parametrize("name, fingerprint", [
    ("angle_sweep.conf", "2b8210ccdc7a888e"),
    ("overloaded.conf", "289d10608e26503e"),
    ("snr_sweep.conf", "9ae5debb69566b61"),
])
def test_shipped_config_fingerprints_are_stable(name, fingerprint):
    # stricter validation must not change what a valid config hashes to
    configs = Path(__file__).resolve().parent.parent / "configs"
    assert parse_config(configs / name).fingerprint() == fingerprint


@pytest.mark.parametrize("as_int, as_float", [
    ({"snr_db": -5}, {"snr_db": -5.0}),
    ({"fov_deg": 30}, {"fov_deg": 30.0}),
    ({"pattern_params": {"exponent": 2}}, {"pattern_params": {"exponent": 2.0}}),
])
def test_equal_configs_have_equal_fingerprints(as_int, as_float):
    # an integer and the equal float must not hash differently
    base = dict(family="fixed-scenario", geometry="ula8", pattern="patch")
    a = ExperimentConfig(**base, **as_int)
    b = ExperimentConfig(**base, **as_float)
    assert a == b
    assert a.fingerprint() == b.fingerprint()
    assert serialize_config(a) == serialize_config(b)


def test_levels_up_to_the_limit_run_finite():
    # the largest SNR and gain a config may set keep the covariance finite;
    # one dB more is rejected at parse time
    cfg = ExperimentConfig(family="fixed-scenario", geometry="mra8", pattern="vivaldi",
                           pattern_params={"peak_gain_dbi": MAX_LEVEL_DB},
                           snr_db=MAX_LEVEL_DB, estimator="coarray-music",
                           snapshots=16, trials=2, grid_step_deg=0.5)
    errs, _ = run_point(cfg, 0)
    assert np.all(np.isfinite(errs))
    with pytest.raises(ConfigError, match="snr_db"):
        ExperimentConfig(family="fixed-scenario", geometry="mra8", pattern="patch",
                         snr_db=MAX_LEVEL_DB + 1)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_levels_down_to_the_lower_limit_run_finite(tmp_path, capsys, estimator):
    # the smallest SNR and gain a config may set run finite without a numpy
    # warning; one dB less exits 2 at parse time
    cfg = ExperimentConfig(family="fixed-scenario", geometry="mra8", pattern="vivaldi",
                           pattern_params={"peak_gain_dbi": MIN_LEVEL_DB},
                           snr_db=MIN_LEVEL_DB, estimator=estimator,
                           snapshots=16, trials=2, grid_step_deg=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        errs, _ = run_point(cfg, 0)
    assert np.all(np.isfinite(errs))
    for key in ("snr_db", "manifold.pattern.peak_gain_dbi"):
        conf = tmp_path / "low.conf"
        conf.write_text(serialize_config(cfg).replace(f"{key} = {MIN_LEVEL_DB!r}",
                                                      f"{key} = {MIN_LEVEL_DB - 1!r}"))
        assert main(["sweep", "--config", str(conf), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err


def test_tabulated_fingerprint_hashes_table_rows(tmp_path):
    # the fingerprint follows the table's contents, not only its path
    table = tmp_path / "table.csv"
    text = ("azimuth_deg,gain_dbi,phase_deg\n"
            "-90.0,0.0,0.0\n0.0,3.0,10.0\n90.0,0.0,0.0\n")
    conf = ("family = fixed-scenario\ngeometry = ula8\n"
            f"manifold.pattern = tabulated\nmanifold.pattern.file = {table}\n")
    table.write_text(text)
    first = parse_config_text(conf)
    table.write_text(text.replace("3.0", "3.5"))
    edited = parse_config_text(conf)
    table.write_text(text + "\n")  # same rows, different bytes
    same_rows = parse_config_text(conf)
    assert edited.fingerprint() != first.fingerprint()
    assert same_rows.fingerprint() == first.fingerprint()
    # the rows read at parse time are the ones a run uses
    assert first.nominal_pattern().samples[1] == (0.0, 3.0, 10.0)
    assert edited.nominal_pattern().samples[1] == (0.0, 3.5, 10.0)

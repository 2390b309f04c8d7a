import io
from pathlib import Path

import pytest

from doasim.config import (parse_config, parse_config_text, read_results,
                           serialize_config, write_results)
from doasim.experiments import ConfigError, ExperimentConfig, SweepResult

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

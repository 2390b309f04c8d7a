import numpy as np
import pytest

from doasim import cli
from doasim.cli import main
from doasim.config import read_results
from doasim.estimators import azimuth_grid, fov_window
from doasim.patterns import evaluate, load_tabulated, make_vivaldi

SWEEP_CONF = """\
family = snr-sweep
geometry = ula8
manifold.pattern = isotropic
sweep = [-5, 5]
angles = [-10, 10]
trials = 4
snapshots = 16
grid_step_deg = 0.5
seed = 2
"""

DEMO_CONF = """\
family = overloaded-demo
geometry = mra8
manifold.pattern = patch
estimator = coarray-music
snr_db = 5.0
snapshots = 128
grid_step_deg = 0.1
seed = 6
"""


def test_sweep_writes_csv_and_svg(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text(SWEEP_CONF)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 0
    result = read_results(out / "exp.csv")
    assert result.params == (-5.0, 5.0)
    assert result.trials == (4, 4)
    assert result.seed == 2
    svg = (out / "exp.svg").read_text()
    assert svg.startswith("<svg")
    assert f"seed={result.seed}" in svg


def test_sweep_reruns_identically(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text(SWEEP_CONF)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", str(conf), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(conf), "--out", str(out2)]) == 0
    assert (out1 / "exp.csv").read_bytes() == (out2 / "exp.csv").read_bytes()


def test_sweep_seed_override(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text(SWEEP_CONF)
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(conf), "--out", str(out),
                 "--seed", "77"]) == 0
    assert read_results(out / "exp.csv").seed == 77


def test_sweep_bad_config_exits_2(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text(SWEEP_CONF + "unknown_key = 3\n")
    assert main(["sweep", "--config", str(conf), "--out", str(tmp_path)]) == 2
    assert "unknown_key" in capsys.readouterr().err


def test_sweep_too_coarse_grid_exits_2(tmp_path, capsys):
    # the +-10 deg window of a 25 deg grid holds no point; caught at parse
    # time, before any trial runs
    conf = tmp_path / "coarse.conf"
    conf.write_text(SWEEP_CONF.replace("grid_step_deg = 0.5",
                                       "grid_step_deg = 25\nfov_deg = 10"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 2
    assert "grid_step_deg" in capsys.readouterr().err
    assert not out.exists()


def _with_key(conf: str, key: str, value: str) -> str:
    lines = [ln for ln in conf.splitlines() if ln.partition("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize("key, value", [
    ("manifold.coupling.c1", "1.5"),
    ("manifold.coupling.c1", "NaN"),
    ("manifold.coupling.decay", "1.0"),
    ("manifold.coupling.decay", "0"),
    ("manifold.perturbation.phase_noise_std_deg", "Infinity"),
    ("manifold.perturbation.param_tolerance", "NaN"),
    ("snr_db", "NaN"),
    ("fov_deg", "NaN"),
    ("grid_step_deg", "Infinity"),
    # a step whose grid would not fit in memory
    ("grid_step_deg", "1e-9"),
    ("sweep", "[-5, NaN]"),
    ("angles", "[-10, -Infinity]"),
    ("manifold.pattern.peak_gain_dbi", "NaN"),
    ("manifold.perturbation.phase_noise_std_deg", "-1.0"),
    ("manifold.perturbation.param_tolerance", "-0.1"),
    ("manifold.perturbation.param_tolerance", "1.0"),
    # levels whose 10**(dB/10) overflows the covariance
    ("snr_db", "7000"),
    ("sweep", "[-5, 4000]"),
    ("manifold.pattern.peak_gain_dbi", "8000"),
    # levels whose 10**(dB/20) underflows the steering or leaves no signal
    ("snr_db", "-7000"),
    ("sweep", "[-4000, 5]"),
    ("manifold.pattern.peak_gain_dbi", "-8000"),
    # shapes whose squared gain underflows the spectrum floor inside +-fov
    ("manifold.pattern.exponent", "1e300"),
    ("manifold.pattern.main_exponent", "1e300"),
    # an integer literal past Python's 4,300-digit conversion limit
    pytest.param("snr_db", "1" + "0" * 5000, id="snr_db-5001 digits"),
    # positions past 2**53, which float phases cannot hold exactly
    pytest.param("geometry", "[0, 1, 9007199254740993]", id="geometry-2**53+1"),
    pytest.param("geometry", "[0, 1, 1" + "0" * 400 + "]", id="geometry-401 digits"),
])
def test_sweep_invalid_scalar_exits_2(tmp_path, capsys, key, value):
    # rejected at parse time, naming the key, before any trial runs
    conf = tmp_path / "bad.conf"
    pattern = "vivaldi" if key == "manifold.pattern.main_exponent" else "patch"
    text = SWEEP_CONF.replace("manifold.pattern = isotropic", f"manifold.pattern = {pattern}")
    conf.write_text(_with_key(text, key, value))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert not out.exists()
    if len(value) > 100:
        # a long value is echoed as a short prefix; the key and line remain
        assert len(err.encode()) < 200
        assert f"line {conf.read_text().count(chr(10))}: key {key!r}" in err


@pytest.mark.parametrize("family", ["snr-sweep", "fixed-scenario"])
def test_sweep_empty_angles_exits_2(tmp_path, capsys, family):
    # a scenario without sources is rejected at parse time, naming the key
    # and its line, before the output directory is made
    lines = [ln for ln in SWEEP_CONF.splitlines()
             if not (family == "fixed-scenario" and ln.startswith("sweep"))]
    text = _with_key("\n".join(lines).replace("snr-sweep", family), "angles", "[]")
    conf = tmp_path / "empty.conf"
    conf.write_text(text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 2
    assert f"line {text.count(chr(10))}: key 'angles'" in capsys.readouterr().err
    assert not out.exists()


ANGLE_SWEEP_CONF = """\
family = symmetric-pair-angle-sweep
geometry = ula8
manifold.pattern = isotropic
sweep = [0.4, 3.0]
trials = 2
snapshots = 16
fov_deg = 90
"""


@pytest.mark.parametrize("step, code", [("60", 2), ("0.5", 2), ("0.4", 0)])
def test_sweep_step_above_smallest_half_angle_exits_2(tmp_path, capsys, step, code):
    # a grid step wider than the smallest swept half-angle cannot place the
    # pair; rejected at parse time, before any trial runs
    conf = tmp_path / "pair.conf"
    conf.write_text(ANGLE_SWEEP_CONF + f"grid_step_deg = {step}\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == code
    if code == 2:
        assert "grid_step_deg" in capsys.readouterr().err
        assert not out.exists()


TABLE = "azimuth_deg,gain_dbi,phase_deg\n-90.0,0.0,0.0\n0.0,3.0,10.0\n90.0,0.0,0.0\n"


@pytest.mark.parametrize("table", [None, "azimuth_deg,gain_dbi,phase_deg\n0,1,2\n",
                                   TABLE.replace("3.0", "x"), TABLE.replace("3.0", "4000"),
                                   TABLE.replace("3.0", "-4000")])
def test_sweep_bad_pattern_table_exits_2(tmp_path, capsys, table):
    # a missing or malformed table is read and rejected at parse time
    path = tmp_path / "table.csv"
    if table is not None:
        path.write_text(table)
    conf = tmp_path / "tab.conf"
    conf.write_text(SWEEP_CONF.replace("manifold.pattern = isotropic",
                                       f"manifold.pattern = tabulated\n"
                                       f"manifold.pattern.file = {path}"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 2
    assert "manifold.pattern.file" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_failing_at_run_time_exits_3_and_writes_nothing(tmp_path):
    # a trial count too large for the results array passes the parser and
    # fails once the sweep runs; the output directory is made only after it
    conf = tmp_path / "huge.conf"
    conf.write_text("family = fixed-scenario\ngeometry = ula8\n"
                    "manifold.pattern = isotropic\ntrials = 1000000000000000000\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 3
    assert not out.exists()


def test_sweep_out_of_memory_exits_3_and_writes_nothing(tmp_path, monkeypatch):
    # a sweep whose arrays do not fit in memory is a run-time failure with a
    # documented exit code, not a traceback
    def out_of_memory(config):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "run_sweep", out_of_memory)
    conf = tmp_path / "sweep.conf"
    conf.write_text("family = fixed-scenario\ngeometry = ula8\n"
                    "manifold.pattern = isotropic\ntrials = 1000000000000\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 3
    assert not out.exists()


def test_sweep_missing_config_exits_2(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.conf"),
                 "--out", str(tmp_path)]) == 2


def test_demo_outputs(tmp_path):
    conf = tmp_path / "ten.conf"
    conf.write_text(DEMO_CONF)
    out = tmp_path / "out"
    assert main(["demo", "--config", str(conf), "--out", str(out)]) == 0
    spectrum = (out / "ten_spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "azimuth_deg,power_db"
    assert spectrum[1].startswith("# fingerprint=")
    assert "seed=6" in spectrum[1]
    estimates = (out / "ten_estimates.csv").read_text().splitlines()
    assert estimates[0] == "angle_deg,filled"
    assert len(estimates) == 2 + 10
    assert (out / "ten.svg").exists()
    # every data cell must parse as a plain decimal, not a numpy repr
    for line in spectrum[2:5] + estimates[2:5]:
        for cell in line.split(","):
            float(cell)


@pytest.mark.parametrize("fov", [60.0, 90.0])
def test_demo_spectrum_covers_fov_window(tmp_path, fov):
    # +-fov plus one guard point per side; the whole grid at fov 90
    conf = tmp_path / "ten.conf"
    conf.write_text(DEMO_CONF + f"fov_deg = {fov}\n")
    assert main(["demo", "--config", str(conf), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "ten_spectrum.csv").read_text().splitlines()[2:]
    azimuths = np.array([float(row.split(",")[0]) for row in rows])
    grid = azimuth_grid(0.1)
    expected = grid[fov_window(grid, fov, guard=1)]
    assert np.array_equal(azimuths, expected)
    edge = 60.1 if fov < 90 else 90.0
    assert azimuths[[0, -1]] == pytest.approx([-edge, edge], abs=1e-9)
    assert azimuths.size == (1203 if fov < 90 else 1801)


def test_demo_on_sweep_config_exits_2(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text(SWEEP_CONF)
    out = tmp_path / "out"
    assert main(["demo", "--config", str(conf), "--out", str(out)]) == 2
    assert not out.exists()


def test_geometry_report(capsys):
    assert main(["geometry", "--name", "mra8"]) == 0
    out = capsys.readouterr().out
    assert "positions: 0 1 2 11 15 18 21 23" in out
    assert "aperture: 23 half-wavelengths (11.5 wavelengths)" in out
    assert "hole-free coarray: yes" in out
    assert "0:8" in out


def test_geometry_unknown_exits_2(capsys):
    assert main(["geometry", "--name", "spiral9"]) == 2
    assert "spiral9" in capsys.readouterr().err


def test_pattern_export_roundtrip(tmp_path):
    path = tmp_path / "viv.csv"
    assert main(["pattern", "--kind", "vivaldi", "--export", str(path),
                 "--step", "0.5"]) == 0
    table = load_tabulated(path)
    az = np.linspace(-90.0, 90.0, 181)
    assert np.allclose(evaluate(table, az), evaluate(make_vivaldi(), az),
                       atol=1e-9)


def test_pattern_export_io_failure_exits_3(tmp_path):
    dest = tmp_path / "missing_dir" / "x.csv"
    assert main(["pattern", "--kind", "patch", "--export", str(dest)]) == 3


@pytest.mark.parametrize("step", ["nan", "inf", "1e-9"])
def test_pattern_export_bad_step_exits_2(tmp_path, capsys, step):
    # a step that is not finite, leaves fewer than 2 rows or is below the
    # floor writes no table
    dest = tmp_path / "x.csv"
    assert main(["pattern", "--kind", "patch", "--export", str(dest), "--step", step]) == 2
    assert "step_deg" in capsys.readouterr().err
    assert not dest.exists()


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # missing required options
    assert exc.value.code == 2

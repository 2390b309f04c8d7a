"""Every file doasim reads or writes goes through one reader, one writer and
one CSV layout. These tests pin the bytes of each CSV to the formula it was
written with before the layout was shared, and the message of each failed
read or write."""
import io
import re

import numpy as np
import pytest

from doasim.cli import main
from doasim.config import (ConfigError, SweepResult, parse_config, parse_config_text,
                           read_results, write_results)
from doasim.experiments import run_overloaded_demo, run_sweep
from doasim.patterns import (TABLE_HEADER, ElementPattern, evaluate, export_tabulated,
                             load_tabulated, make_pattern)
from doasim.svgplot import render_plot

DEMO_CONF = """\
family = overloaded-demo
geometry = mra8
manifold.pattern = patch
estimator = coarray-music
snr_db = 5.0
snapshots = 64
grid_step_deg = 0.1
fov_deg = 60
seed = 3
"""

SWEEP_CONF = """\
family = snr-sweep
geometry = ula8
manifold.pattern = isotropic
sweep = [-5, 5]
angles = [-10, 10]
trials = 3
snapshots = 16
grid_step_deg = 0.5
seed = 2
"""

RESULT = SweepResult(params=(-0.0, 1.5), rmse_deg=(0.1, -0.0), trials=(3, 3),
                     fill_counts=(0, 2), fingerprint="abc", seed=4)


# the texts each CSV was written with before the shared layout

def _sweep_formula(result: SweepResult) -> str:
    lines = ["param,rmse_deg,trials,fill_count",
             f"# fingerprint={result.fingerprint} seed={result.seed}"]
    for p, r, t, f in zip(result.params, result.rmse_deg, result.trials,
                          result.fill_counts):
        lines.append(f"{p!r},{r!r},{t},{f}")
    return "\n".join(lines) + "\n"


def _table_formula(rows) -> str:
    return "\n".join([TABLE_HEADER] + [f"{a!r},{d!r},{p!r}" for a, d, p in rows]) + "\n"


def _sampled_rows(pattern: ElementPattern, step_deg: float):
    az = np.linspace(-90.0, 90.0, round(180.0 / step_deg) + 1)
    g = evaluate(pattern, az)
    return [(float(a), float(20.0 * np.log10(np.abs(v))),
             float(np.rad2deg(np.angle(v)))) for a, v in zip(az, g)]


def _written(result: SweepResult) -> str:
    buf = io.StringIO()
    write_results(result, buf)
    return buf.getvalue()


@pytest.mark.parametrize("result", [
    RESULT,
    SweepResult(params=(), rmse_deg=(), trials=(), fill_counts=(), fingerprint="f"),
    # numpy integer counts print as plain integers
    SweepResult(params=(2.0,), rmse_deg=(0.25,), trials=(np.int64(7),),
                fill_counts=(np.int64(1),)),
], ids=["negative-zero", "empty", "numpy-ints"])
def test_results_csv_bytes_unchanged(result):
    assert _written(result) == _sweep_formula(result)


def test_sweep_csv_bytes_unchanged(tmp_path):
    conf = tmp_path / "snr.conf"
    conf.write_text(SWEEP_CONF)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 0
    expected = _sweep_formula(run_sweep(parse_config_text(SWEEP_CONF)))
    assert (out / "snr.csv").read_text() == expected


def test_demo_csv_bytes_unchanged(tmp_path):
    conf = tmp_path / "ten.conf"
    conf.write_text(DEMO_CONF)
    out = tmp_path / "out"
    assert main(["demo", "--config", str(conf), "--out", str(out)]) == 0
    cfg = parse_config_text(DEMO_CONF)
    spectrum, estimates = run_overloaded_demo(cfg)
    meta = f"fingerprint={cfg.fingerprint()} seed={cfg.seed}"
    rows = "\n".join(f"{float(a)!r},{float(v)!r}"
                     for a, v in zip(spectrum.grid, spectrum.to_db()))
    assert (out / "ten_spectrum.csv").read_text() == \
        f"azimuth_deg,power_db\n# {meta}\n{rows}\n"
    est_rows = "\n".join(f"{float(a)!r},{int(f)}" for a, f in
                         zip(estimates.angles, estimates.filled))
    assert (out / "ten_estimates.csv").read_text() == \
        f"angle_deg,filled\n# {meta}\n{est_rows}\n"


@pytest.mark.parametrize("kind", ["isotropic", "dipole_ref", "patch", "vivaldi"])
@pytest.mark.parametrize("step", [1.0, 0.5])
def test_table_bytes_unchanged(kind, step):
    pattern = make_pattern(kind)
    buf = io.StringIO()
    export_tabulated(pattern, buf, step_deg=step)
    assert buf.getvalue() == _table_formula(_sampled_rows(pattern, step))


def test_stored_table_with_negative_zero_bytes_unchanged():
    text = f"{TABLE_HEADER}\n-90.0,-0.0,0.0\n0.0,3.0,-0.0\n90.0,0.0,-0.0\n"
    table = load_tabulated(io.StringIO(text))
    buf = io.StringIO()
    export_tabulated(table, buf)
    assert buf.getvalue() == _table_formula(table.samples) == text


# each file operation on a path inside a directory that does not exist:
# (call, read or write, exception type)
_FILE_OPS = {
    "parse_config": (parse_config, "read", ConfigError),
    "read_results": (read_results, "read", OSError),
    "write_results": (lambda path: write_results(RESULT, path), "write", OSError),
    "load_tabulated": (load_tabulated, "read", OSError),
    "export_tabulated": (lambda path: export_tabulated(make_pattern("patch"), path),
                         "write", OSError),
    "render_plot": (lambda path: render_plot(RESULT, path), "write", OSError),
}


@pytest.mark.parametrize("name", sorted(_FILE_OPS))
def test_file_errors_name_operation_and_path(tmp_path, name):
    call, operation, error = _FILE_OPS[name]
    path = tmp_path / "missing" / "x.csv"
    with pytest.raises(error) as exc:
        call(path)
    message = str(exc.value)
    assert re.match(rf"cannot {operation} .* {re.escape(str(path))}: ", message)
    assert not path.exists()


def test_demo_unwritable_spectrum_exits_3_naming_path(tmp_path, capsys):
    conf = tmp_path / "ten.conf"
    conf.write_text(DEMO_CONF)
    out = tmp_path / "out"
    spectrum_path = out / "ten_spectrum.csv"
    spectrum_path.mkdir(parents=True)
    assert main(["demo", "--config", str(conf), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"cannot write spectrum to {spectrum_path}: " in err

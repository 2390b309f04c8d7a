"""Every output file the program ships, pinned.

The runs are the benchmark's three workloads at seeds 0, 3, 7 and 2**32 - 1
(their configs are committed under tests/data/outputs, as
perfbench/workloads.py writes them), plus configs/angle_sweep.conf,
configs/snr_sweep.conf and the overloaded demo: 31 CSV and SVG files. Each
run goes through cli.main, as the command line does.

On the stack the pins were recorded on (pins.json's "stack", the Tier-1
header line), every file must match byte for byte: a CSV its committed
text, an SVG its SHA-256. Another stack may round differently (another
numpy, BLAS or SIMD target), so there every CSV field must equal its pin
or, as a number, lie within REL_TOL of it, relatively; the SVGs, which
draw those numbers, are not compared.

REL_TOL is sqrt(eps), about 1.5e-8: a number that moves further has lost
half its digits, which rounding changes of about eps per operation do only
through a condition number above 1/sqrt(eps), about 6.7e7. A pick that
flips to another maximum moves an angle by a peak spacing, and an RMSE by
far more than that. Either is a finding to report, not a tolerance to
widen. (On an AVX-512 Xeon, limiting numpy to fewer SIMD targets with
NPY_DISABLE_CPU_FEATURES, and OpenBLAS to older kernels with
OPENBLAS_CORETYPE, changed the bytes of most files but moved no CSV
number by more than 8e-14, relatively.)

After a deliberate output change, re-pin from the tree and stack at hand
with `PYTHONPATH=src python tests/test_outputs.py`, and review the diff.
"""
import hashlib
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import conftest
from doasim import cli

DATA = Path(__file__).parent / "data" / "outputs"
CONFIGS = Path(__file__).parents[1] / "configs"
RUNS = ([("sweep", conf) for conf in sorted(DATA.glob("*.conf"))]
        + [("sweep", CONFIGS / "angle_sweep.conf"), ("sweep", CONFIGS / "snr_sweep.conf"),
           ("demo", CONFIGS / "overloaded.conf")])
REL_TOL = math.sqrt(sys.float_info.epsilon)


def _outputs(out: Path) -> list[Path]:
    for command, conf in RUNS:
        assert cli.main([command, "--config", str(conf), "--out", str(out)]) == 0, conf
    return sorted(out.iterdir())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(got: str, want: str) -> bool:
    try:
        return math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=0.0)
    except ValueError:
        return False


def _numbers_match(got: str, want: str) -> bool:
    rows = [line.split(",") for line in got.splitlines()]
    pins = [line.split(",") for line in want.splitlines()]
    return len(rows) == len(pins) and all(
        len(row) == len(pin) and all(a == b or _close(a, b) for a, b in zip(row, pin))
        for row, pin in zip(rows, pins))


def test_outputs_match_their_pins(tmp_path):
    pins = json.loads((DATA / "pins.json").read_text())
    stack = conftest.stack()
    exact = stack == pins["stack"]
    files = _outputs(tmp_path)
    assert ({f.name for f in files}
            == {p.name for p in DATA.glob("*.csv")} | set(pins["svg_sha256"]))
    misses = []
    for f in files:
        if f.suffix == ".svg":
            ok = not exact or _sha256(f) == pins["svg_sha256"][f.name]
        elif exact:
            ok = f.read_bytes() == (DATA / f.name).read_bytes()
        else:
            ok = _numbers_match(f.read_text(), (DATA / f.name).read_text())
        if not ok:
            misses.append(f.name)
    compared = ("bytes of every CSV and SVG" if exact else
                f"CSV numbers within relative {REL_TOL:.2g}, SVGs not compared; "
                f"pinned on {pins['stack']}")
    verdict = "FAIL " + " ".join(misses) if misses else "PASS"
    line = f"[outputs] {len(files)} files: {verdict} ({compared}; stack {stack})"
    conftest.acceptance_lines.append(line)
    assert not misses, line


def test_numbers_match_within_the_tolerance_only():
    # the comparison another stack takes, on a pinned sweep CSV
    want = (DATA / "snr_sweep.csv").read_text()
    header, meta, row, *rest = want.splitlines(keepends=True)
    param, rmse, trials, fills = row.rstrip("\n").split(",")

    def moved(value):
        return "".join([header, meta, ",".join((param, repr(value), trials, fills)) + "\n",
                        *rest])

    assert _numbers_match(want, want)
    assert _numbers_match(moved(float(rmse) * (1.0 + REL_TOL / 2.0)), want)
    assert not _numbers_match(moved(float(rmse) * (1.0 + 2.0 * REL_TOL)), want)
    assert not _numbers_match(want.replace("seed=1", "seed=2"), want)
    assert not _numbers_match(want + row, want)


def main() -> None:
    """Rewrite the pinned CSVs and pins.json from this tree and stack."""
    with tempfile.TemporaryDirectory() as tmp:
        files = _outputs(Path(tmp))
        for f in files:
            if f.suffix == ".csv":
                shutil.copyfile(f, DATA / f.name)
        pins = {"stack": conftest.stack(),
                "svg_sha256": {f.name: _sha256(f) for f in files if f.suffix == ".svg"}}
    (DATA / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""The fresh process in which the benchmark measures doasim.

    python3 perfbench/child.py setup CONF
        Prints {"setup_s": ..., "calibration": ...}: the time to import
        doasim and parse CONF, then the calibration kernel's time.
    python3 perfbench/child.py run WORKLOAD CONF OUT SEED TRIALS SECONDS TRACE RESULT SPANS
        Calls doasim.cli.main(["sweep", "--config", CONF, "--out", OUT])
        until SECONDS have passed, checks every call's outputs against the
        replay oracle and writes the samples to RESULT (and spans to SPANS
        when TRACE is 1).

Nothing from numpy or doasim is imported before the set-up timer starts.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_CALLS = 4
# The calibration kernel's time on a 2-core x86-64 VM (numpy 2.4, OpenBLAS,
# one thread) in a quiet phase; times are reported at this machine speed.
CALIBRATION_REFERENCE_S = 0.040


def _import_doasim():
    sys.path.insert(0, str(SRC))
    import doasim
    if not Path(doasim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"doasim imported from {doasim.__file__}, not from {SRC}")
    return doasim


def setup(conf: str) -> dict:
    t0 = perf_counter()
    _import_doasim()
    from doasim.config import parse_config
    parse_config(conf)
    setup_s = perf_counter() - t0
    import numpy as np
    calibrate = calibrator(np)
    calibrate()  # the first run pays for page faults
    return {"setup_s": setup_s, "calibration": calibrate()}


def calibrator(np):
    """A fixed numpy kernel shaped like the MUSIC scan, independent of doasim.

    Its run time follows the machine's current speed, which on a shared
    host drifts by tens of percent over minutes; timing it before and after
    every CLI call lets run.py express each call at a reference speed.
    """
    rng = np.random.default_rng(0)
    steering = rng.standard_normal((8, 18001)) + 1j * rng.standard_normal((8, 18001))
    noise = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))

    def calibrate() -> float:
        t0 = perf_counter()
        for _ in range(40):
            proj = noise.conj() @ steering
            v = 1.0 / np.maximum(np.einsum("ij,ij->j", proj, proj.conj()).real, 1e-300)
            np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))
        return perf_counter() - t0

    return calibrate


def speed_scales(calibrations: list[float]) -> list[float]:
    """Per call, the factor that turns its time into time at reference speed:
    the reference over the mean of the calibrations just before and after."""
    return [2 * CALIBRATION_REFERENCE_S / (a + b) for a, b in zip(calibrations, calibrations[1:])]


def run(name, conf, out, seed, trials, seconds, trace) -> tuple[dict, dict | None]:
    """Samples of one workload run, and the span dump when traced.

    With tracing on, calls alternate between untraced and traced, so the
    untraced ones give the tracing overhead's base. `calibrations` has one
    more entry than `walls`: the kernel is timed before every call and
    after the last.
    """
    import contextlib
    import io
    import resource
    import traceback

    _import_doasim()
    import numpy as np
    from doasim import cli

    import oracle
    import tracing
    import workloads

    mapping = workloads.config_mapping(name, seed, trials)
    argv = ["sweep", "--config", conf, "--out", out]
    stem = Path(conf).stem
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(tracing.ROOT, cli.main)
    missing: list[str] = []
    calls = []
    errors = []
    seen: dict[tuple, tuple] = {}
    calibrate = calibrator(np)
    calibrations = [calibrate()]
    start = perf_counter()
    while len(calls) < MIN_CALLS or perf_counter() - start < seconds:
        traced = bool(trace) and len(calls) % 2 == 1
        lo = len(tracer.names)
        if traced:
            missing = tracer.install()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = (traced_main if traced else cli.main)(argv)
        except Exception:  # a crash of the program is a failed call, not ours
            rc = None
            errors.append(traceback.format_exc())
        finally:
            wall = perf_counter() - t0
            tracer.remove()
        outputs = ("", "")
        if rc == 0:
            outputs = tuple(_read(Path(out) / f"{stem}.{ext}") for ext in ("csv", "svg"))
        # identical outputs are stored once, so memory does not grow with the call count
        outputs = seen.setdefault(outputs, outputs)
        calls.append({"wall": wall, "traced": traced, "rc": rc, "spans": (lo, len(tracer.names)),
                      "outputs": outputs})
        calibrations.append(calibrate())
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    expected = oracle.expected_rows(mapping, conf)
    n_points = len(expected)
    if None in expected:
        errors.append("oracle: points disagreeing with the replay: "
                      f"{[p for p, row in enumerate(expected) if row is None]}")
    failed = 0
    layer: dict[str, list] = {}
    for call, scale in zip(calls, speed_scales(calibrations)):
        csv_text, svg_text = call["outputs"]
        bad = n_points if call["rc"] != 0 else oracle.bad_points(csv_text, svg_text, expected, seed)
        failed += bad
        if call["traced"] and not bad:
            lo, hi = call["spans"]
            trials_done = sum(int(ln.split(",")[2]) for ln in csv_text.splitlines()[1:]
                              if ln and not ln.startswith("#"))
            try:
                metrics = tracer.sweep_metrics(lo, hi, trials_done)
            except ValueError as exc:
                errors.append(f"trace: {exc}")
                continue
            for k, v in metrics.items():
                layer.setdefault(k, []).append(v * scale if k.endswith("_s") else v)
    result = {
        "walls": [c["wall"] for c in calls],
        "calibrations": calibrations,
        "traced": [c["traced"] for c in calls],
        "trials_per_call": mapping["trials"] * n_points,
        "points": n_points,
        "attempted": n_points * len(calls),
        "failed": failed,
        "maxrss_kb": maxrss_kb,
        "layer": layer,
        "missing_boundaries": missing,
        "errors": errors[:3],
        "numpy": np.__version__,
        "blas": _blas(np),
    }
    return result, (tracer.dump() if trace else None)


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def _blas(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        print(json.dumps(setup(argv[1])))
        return 0
    if argv[:1] == ["run"] and len(argv) == 10:
        name, conf, out, seed, trials, seconds, trace, result_path, spans_path = argv[1:]
        result, spans = run(name, conf, out, int(seed), int(trials), float(seconds), int(trace))
        if spans is not None:
            Path(spans_path).write_text(json.dumps(spans))
        Path(result_path).write_text(json.dumps(result))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

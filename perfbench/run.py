"""doasim benchmark: seeded Monte Carlo workloads through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Run from the repository root. For each workload the benchmark writes a
config generated from the seed, times set-up in fresh processes, then runs
doasim.cli.main(["sweep", ...]) repeatedly for S seconds in one fresh
child process and checks every call's CSV and SVG against the replay
oracle (perfbench/oracle.py). With --trace 0 it reports the end-to-end
metrics; with --trace 1 the per-layer metrics of perfbench/tracing.py.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Records, including the run manifest and the spans, are written
to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import child
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
BLAS_THREADS = "1"  # at most nproc; one thread keeps timings steady
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 120  # beyond the measured seconds

END_TO_END_UNITS = {"trials_per_s": "trials/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def _child(args: list[str], timeout: float) -> str:
    env = {**os.environ, **{k: BLAS_THREADS for k in BLAS_ENV}}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[0]} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def _git_commit() -> str:
    """HEAD's commit read from .git, without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}"
    return f"p{100 * (n - 10) / n:.0f}={sorted(values)[n - 11]:.6g}, n={n}"


def run_workload(name: str, seed: int, seconds: float, trace: int, trials: int,
                 work: Path) -> dict:
    """One workload in one mode: metrics, counts, checks and records."""
    mapping = workloads.config_mapping(name, seed, trials)
    conf = work / f"{name}.conf"
    conf.write_text(workloads.config_text(mapping))
    out = work / "out"
    result_path = work / f"{name}-result.json"
    spans_path = OUT / f"{name}-seed{seed}-spans.json"

    setups = []
    if not trace:
        setups = [json.loads(_child(["setup", str(conf)], SETUP_TIMEOUT_S))
                  for _ in range(SETUP_REPEATS)]
    _child(["run", name, str(conf), str(out), str(seed), str(mapping["trials"]), str(seconds),
            str(trace), str(result_path), str(spans_path)], seconds + RUN_TIMEOUT_S)
    res = json.loads(result_path.read_text())

    scaled = [w * k for w, k in zip(res["walls"], child.speed_scales(res["calibrations"]))]
    walls = [w for w, t in zip(scaled, res["traced"]) if not t]
    raw = [w for w, t in zip(res["walls"], res["traced"]) if not t]
    notes, checks = {}, {"errors": res["errors"]}
    if trace:
        traced = [w for w, t in zip(scaled, res["traced"]) if t]
        layer = {k: statistics.median(v) for k, v in res["layer"].items()}
        layer["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(walls)
        metrics = {k: (layer.get(k, 0.0), unit) for k, unit in tracing.LAYER_UNITS.items()}
        checks["missing_boundaries"] = res["missing_boundaries"]
        notes = {k: f"median of {len(traced)} traced sweeps" for k in metrics}
        notes["trace.overhead_ratio"] = (f"median of {len(traced)} traced over median of "
                                         f"{len(walls)} untraced sweeps")
    else:
        values = {
            "trials_per_s": statistics.median(res["trials_per_call"] / w for w in walls),
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(
                x["setup_s"] * child.CALIBRATION_REFERENCE_S / x["calibration"] for x in setups),
            "peak_rss_mb": res["maxrss_kb"] / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        notes = {"trials_per_s": f"median at reference speed, {res['trials_per_call']} trials "
                                 f"per sweep, n={len(walls)}; as timed "
                                 f"{statistics.median(res['trials_per_call'] / w for w in raw):.6g}",
                 "wall_s": f"median at reference speed, {_tail(walls)}; as timed "
                           f"{statistics.median(raw):.6g}",
                 "setup_s": f"median at reference speed, n={len(setups)}; as timed "
                            f"{statistics.median(x['setup_s'] for x in setups):.6g}",
                 "peak_rss_mb": "ru_maxrss of the workload process"}
    correct = res["failed"] == 0 and not res["errors"] and bool(walls)
    record = {
        "workload": name, "seed": seed, "trace": trace, "config": mapping,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": res["attempted"], "failed": res["failed"], "correct": correct,
        "checks": checks, "samples": {"walls": res["walls"], "traced": res["traced"],
                                      "calibrations": res["calibrations"],
                                      "setup_s": setups, "layer": res["layer"]},
        "sizes": {"points": res["points"], "trials_per_point": mapping["trials"],
                  "trials_per_sweep": res["trials_per_call"]},
        "runtime": {"numpy": res["numpy"], "blas": res["blas"]},
    }
    return {"record": record, "metrics": metrics, "notes": notes}


def manifest(seed: int, names: list[str], runtime: dict, trials: int | None) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": runtime["numpy"],
        "blas": runtime["blas"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: BLAS_THREADS for k in BLAS_ENV},
        "git_commit": _git_commit(),
        "seed": seed,
        "workloads": {n: {"points": len(workloads.points(workloads.config_mapping(n, seed))),
                          "trials_per_point": trials or workloads.WORKLOADS[n].trials}
                      for n in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one trial per point, for smoke tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "doasim" / "__init__.py").is_file():
        print(f"error: no doasim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = args.seed % 2 ** 32  # doasim master seeds are non-negative
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    trials = 1 if args.tiny else None

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        runs = [(name, run_workload(name, seed, args.seconds, trace, trials, work))
                for name in names for trace in modes]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    man = manifest(seed, names, runs[0][1]["record"]["runtime"], trials)
    print("manifest " + json.dumps(man, sort_keys=True))
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, run in runs:
        rec = run["record"]
        rec["manifest"] = man
        (OUT / f"{name}-seed{seed}-trace{rec['trace']}.json").write_text(
            json.dumps(rec, indent=1))
        ratio = rec["failed"] / rec["attempted"]
        print(f"{name} fail_ratio = {ratio} ({rec['failed']} of {rec['attempted']} "
              f"sweep points failed)")
        for check, value in rec["checks"].items():
            if value not in (True, []):
                print(f"{name} check {check}: {value}")
        for metric, (value, unit) in run["metrics"].items():
            print(f"{name} {metric} = {value:.6g} {unit} ({run['notes'][metric]})")
            key = metric if len(runs) == 1 else f"{name}.{metric}"
            final["metrics"][key] = {"value": value, "unit": unit}
        final["correct"] = final["correct"] and rec["correct"]
        final["attempted"] += rec["attempted"]
        final["failed"] += rec["failed"]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

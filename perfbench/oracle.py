"""Output checks and the replay oracle behind `fail_ratio`.

The replay recomputes a trial from the workload mapping through public
functions only, following the stream keying the README documents:
SeedSequence([seed, p, t]).spawn(2) gives the perturbation and snapshot
streams, and the perturbation stream spawns one child per element. The
estimator scans without precomputed steering. Per-trial errors must equal
run_point's bit for bit.
"""
from __future__ import annotations

import math
import random
import re

import numpy as np

from doasim.config import parse_config
from doasim.estimators import azimuth_grid, coarray_music, music_pseudospectrum, pick_peaks
from doasim.experiments import rmse, run_point
from doasim.geometry import named_geometry
from doasim.manifold import (SourceScenario, apply_coupling_model, generate_snapshots,
                             make_manifold, sample_covariance)
from doasim.patterns import PatternPerturbation, make_pattern, perturb

import workloads

CSV_HEADER = "param,rmse_deg,trials,fill_count"
FINGERPRINT = re.compile(r"^# fingerprint=[0-9a-f]{16} seed=(\d+)$")
REPLAYS_PER_POINT = 2
# The pooled point RMSE is a mean over trials; allow for summation order.
POOLED_RTOL = 1e-12


def replay_trial(mapping: dict, p: int, t: int) -> tuple[float, int]:
    """(RMSE, fill count) of trial t at point p, from public functions only."""
    geom = named_geometry(mapping["geometry"])
    prefix = "manifold.pattern."
    nominal = make_pattern(mapping["manifold.pattern"],
                           **{k[len(prefix):]: v for k, v in mapping.items()
                              if k.startswith(prefix)})
    pert = PatternPerturbation(mapping["manifold.perturbation.phase_noise_std_deg"],
                               mapping["manifold.perturbation.param_tolerance"])
    pert_seq, snap_seq = np.random.SeedSequence([mapping["seed"], p, t]).spawn(2)
    pats = [nominal] * geom.element_count
    if pert.phase_noise_std_deg > 0 or pert.param_tolerance > 0:
        pats = [perturb(nominal, pert, np.random.default_rng(c))
                for c in pert_seq.spawn(geom.element_count)]
    data = apply_coupling_model(make_manifold(geom, pats), mapping["manifold.coupling.c1"],
                                mapping["manifold.coupling.decay"])
    angles, snr = workloads.scenario(mapping, workloads.points(mapping)[p])
    snaps = generate_snapshots(data, SourceScenario(angles, snr), mapping["snapshots"],
                               np.random.default_rng(snap_seq))
    r = sample_covariance(snaps)
    grid = azimuth_grid(mapping["grid_step_deg"])
    if mapping["estimator"] == "coarray-music":
        spectrum = coarray_music(r, geom, len(angles), grid)
    else:
        spectrum = music_pseudospectrum(r, make_manifold(geom, nominal), len(angles), grid)
    est = pick_peaks(spectrum, len(angles), mapping["fov_deg"])
    return rmse(est.angles, angles), est.fill_count


def expected_rows(mapping: dict, conf_path: str) -> list:
    """Per point, the CSV row run_point implies, or None if the point failed.

    A point fails when run_point raises, gives a non-finite error, or
    disagrees with the replay on any sampled trial.
    """
    points = workloads.points(mapping)
    try:
        cfg = parse_config(conf_path)
    except Exception:  # a config the program rejects fails every point
        return [None] * len(points)
    trials = mapping["trials"]
    rng = random.Random(mapping["seed"])
    rows = []
    for p, point in enumerate(points):
        try:
            errs, fills = run_point(cfg, p)
            ok = errs.shape == (trials,) and bool(np.all(np.isfinite(errs)))
            for t in rng.sample(range(trials), min(REPLAYS_PER_POINT, trials)):
                ok = ok and replay_trial(mapping, p, t) == (float(errs[t]), int(fills[t]))
        except Exception:  # any failure of the program fails the point
            ok = False
        pooled = float(np.sqrt(np.mean(errs ** 2))) if ok else None
        rows.append((point, pooled, trials, int(fills.sum())) if ok else None)
    return rows


def bad_points(csv_text: str, svg_text: str, expected: list, seed: int) -> int:
    """How many points of one CLI call's outputs are wrong.

    Every point fails if the CSV lacks its header or fingerprint line or
    the SVG is missing; otherwise each point must have exactly one finite
    row that matches the expected row.
    """
    lines = [ln for ln in csv_text.splitlines() if ln.strip()]
    fp = [m for m in map(FINGERPRINT.match, lines[1:]) if m]
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    if (not lines or lines[0] != CSV_HEADER or len(fp) != 1 or int(fp[0].group(1)) != seed
            or "<svg" not in svg_text or len(rows) != len(expected)):
        return len(expected)
    return sum(not _row_ok(row, exp) for row, exp in zip(rows, expected))


def _row_ok(row: list, exp) -> bool:
    if exp is None or len(row) != 4:
        return False
    try:
        param, err, trials, fills = float(row[0]), float(row[1]), int(row[2]), int(row[3])
    except ValueError:
        return False
    return (math.isfinite(err) and param == exp[0] and trials == exp[2] and fills == exp[3]
            and abs(err - exp[1]) <= POOLED_RTOL * abs(exp[1]))

"""The benchmark's workloads and the doasim config each one generates.

A workload fixes the shape of an experiment; the seed passed to the
benchmark becomes the config's master seed, so the same seed gives the
same inputs. Every key the program reads is written out explicitly, so a
changed default in the program cannot silently change a workload.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

OVERLOADED_ANGLES = (-54.0, -42.0, -30.0, -18.0, -6.0, 6.0, 18.0, 30.0, 42.0, 54.0)


@dataclass(frozen=True)
class Workload:
    why: str
    trials: int  # Monte Carlo trials per sweep point at the benchmark's size
    config: dict


_NOMINAL = {
    "manifold.coupling.c1": 0.0,
    "manifold.coupling.decay": 0.5,
    "manifold.perturbation.phase_noise_std_deg": 0.0,
    "manifold.perturbation.param_tolerance": 0.0,
}

WORKLOADS = {
    "element-fov30": Workload(
        why="angle sweep on mra8/vivaldi with element-music and a 30 deg window: "
            "scan, peak pick and per-trial overhead do the work; coarray smoothing "
            "is bypassed",
        trials=100,
        config={
            "family": "symmetric-pair-angle-sweep",
            "geometry": "mra8",
            "manifold.pattern": "vivaldi",
            **_NOMINAL,
            "sweep": [0.4, 0.8, 1.6, 3.2, 6.4, 12.0],
            "snr_db": -5.0,
            "snapshots": 50,
            "estimator": "element-music",
            "fov_deg": 30.0,
            "grid_step_deg": 0.01,
        }),
    "coarray-overloaded": Workload(
        why="ten sources on eight mra8 elements with coarray-music, 1024 snapshots "
            "and the full 90 deg window: lag averaging, synthesis and a 24-row scan "
            "do the work",
        trials=100,
        config={
            "family": "fixed-scenario",
            "geometry": "mra8",
            "manifold.pattern": "isotropic",
            **_NOMINAL,
            "angles": list(OVERLOADED_ANGLES),
            "snr_db": -5.0,
            "snapshots": 1024,
            "estimator": "coarray-music",
            "fov_deg": 90.0,
            "grid_step_deg": 0.01,
        }),
    "perturbed-many-points": Workload(
        why="40-point SNR sweep on ula8/patch with coupling and pattern perturbation, "
            "few trials per point: engine builds, perturbation and coupled data "
            "manifolds do the work",
        trials=15,
        config={
            "family": "snr-sweep",
            "geometry": "ula8",
            "manifold.pattern": "patch",
            "manifold.coupling.c1": 0.2,
            "manifold.coupling.decay": 0.5,
            "manifold.perturbation.phase_noise_std_deg": 5.0,
            "manifold.perturbation.param_tolerance": 0.05,
            "sweep": [float(s) for s in range(-20, 20)],
            "angles": [-10.0, 10.0],
            "snapshots": 50,
            "estimator": "element-music",
            "fov_deg": 30.0,
            "grid_step_deg": 0.01,
        }),
}


def config_mapping(name: str, seed: int, trials: int | None = None) -> dict:
    """The flat config mapping of workload `name` for master seed `seed`."""
    w = WORKLOADS[name]
    return {**w.config, "trials": trials or w.trials, "seed": seed}


def config_text(mapping: dict) -> str:
    """Render a mapping in doasim's `key = value` config format."""
    return "".join(f"{k} = {json.dumps(v)}\n" for k, v in mapping.items())


def points(mapping: dict) -> tuple[float, ...]:
    """Sweep values; a single-point family has one point."""
    return tuple(mapping.get("sweep", (0.0,)))


def scenario(mapping: dict, point: float) -> tuple[tuple[float, ...], float]:
    """(source angles, element SNR in dB) at one sweep point."""
    family = mapping["family"]
    if family == "symmetric-pair-angle-sweep":
        return (-point, point), mapping["snr_db"]
    if family == "snr-sweep":
        return tuple(mapping["angles"]), point
    return tuple(mapping["angles"]), mapping["snr_db"]

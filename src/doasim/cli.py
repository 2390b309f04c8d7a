"""Command line front end.

Subcommands: sweep (Monte Carlo RMSE sweep from a config file), demo
(single-realization overloaded scenario), geometry (inspect an array
layout), pattern (export a built-in element pattern as a table).

Exit codes: 0 success, 2 configuration/input errors, 3 runtime failures.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from ._files import csv_text, write_text
from .config import ConfigError, parse_config, write_results
from .estimators import RankError
from .experiments import run_overloaded_demo, run_sweep
from .geometry import GeometryError, difference_coarray, is_perfect, named_geometry
from .patterns import PatternError, TableError, export_tabulated, make_pattern
from .svgplot import render_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config, seed=args.seed)
    result = run_sweep(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.config).stem
    csv_path = out / f"{stem}.csv"
    svg_path = out / f"{stem}.svg"
    write_results(result, csv_path)
    render_plot(result, svg_path, title=f"{cfg.family} ({cfg.estimator})",
                meta=f"fingerprint={result.fingerprint} seed={result.seed}")
    for p, r, f in zip(result.params, result.rmse_deg, result.fill_counts):
        print(f"[sweep] param={p:g} rmse_deg={r:.6g} fills={f}")
    print(f"[sweep] wrote {csv_path} and {svg_path} (seed={result.seed})")
    return EXIT_OK


def _cmd_demo(args) -> int:
    cfg = parse_config(args.config)
    # runs the demo, which checks the family, before anything is written
    spectrum, estimates = run_overloaded_demo(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.config).stem
    meta = f"fingerprint={cfg.fingerprint()} seed={cfg.seed}"

    spec_path = out / f"{stem}_spectrum.csv"
    write_text(spec_path, csv_text("azimuth_deg,power_db", meta, zip(
        spectrum.grid.tolist(), spectrum.to_db().tolist())), "spectrum")
    est_path = out / f"{stem}_estimates.csv"
    write_text(est_path, csv_text("angle_deg,filled", meta, zip(
        estimates.angles, map(int, estimates.filled))), "estimates")

    svg_path = out / f"{stem}.svg"
    render_plot(spectrum, svg_path, title=f"{len(estimates.angles)} sources, "
                f"{cfg.estimator}", marks=estimates.angles,
                meta=meta)

    print(f"[demo] estimates_deg={' '.join(f'{a:.3f}' for a in estimates.angles)}")
    print(f"[demo] peaks_found={estimates.peaks_found} "
          f"fill_count={estimates.fill_count}")
    print(f"[demo] wrote {spec_path}, {est_path}, {svg_path} (seed={cfg.seed})")
    return EXIT_OK


def _cmd_geometry(args) -> int:
    geom = named_geometry(args.name)
    ca = difference_coarray(geom)
    print(f"name: {geom.name}")
    print(f"positions: {' '.join(str(p) for p in geom.positions)}")
    print(f"element count: {geom.element_count}")
    print(f"aperture: {geom.aperture} half-wavelengths "
          f"({geom.aperture / 2:g} wavelengths)")
    print(f"hole-free coarray: {'yes' if is_perfect(geom) else 'no'}")
    weights = " ".join(f"{m}:{ca.weight(m)}" for m in range(geom.aperture + 1))
    print(f"coarray weights (lag:count): {weights}")
    return EXIT_OK


def _cmd_pattern(args) -> int:
    pattern = make_pattern(args.kind)
    export_tabulated(pattern, args.export, step_deg=args.step)
    print(f"[pattern] wrote {args.kind} table to {args.export} "
          f"(step {args.step:g} deg)")
    return EXIT_OK


# built on the first main() call, not at import, and reused by later calls
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doasim",
        description="Sparse-array direction finding simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a Monte Carlo RMSE sweep")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the master seed")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("demo", help="run a single overloaded-scenario realization")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("geometry", help="inspect an array layout")
    p.add_argument("--name", required=True,
                   help="geometry name, e.g. ula8 or mra8")
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("pattern", help="export a built-in element pattern")
    p.add_argument("--kind", required=True,
                   choices=["isotropic", "dipole_ref", "patch", "vivaldi"])
    p.add_argument("--export", required=True, help="output table path")
    p.add_argument("--step", type=float, default=1.0,
                   help="sample spacing in degrees")
    p.set_defaults(func=_cmd_pattern)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GeometryError, PatternError, TableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RankError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

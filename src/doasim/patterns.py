"""Element gain patterns: complex far-field response versus azimuth.

Each pattern maps azimuth (degrees, broadside = 0, valid over +/-90) to a
complex gain g(phi). Magnitudes are linear voltage gains relative to
isotropic; a pattern quoted at G dBi has |g| = 10**(G/20) at its peak.

Parametric surrogates (patch, vivaldi) use cosine-power main lobes with a
floor on the cosine argument so the dB form stays finite at the horizon.
Measured or vendor data enters through the tabulated kind.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from ._files import csv_text, read_text, write_text

# floor for cosine factors inside dB expressions; keeps endfire finite
_COS_FLOOR = 1e-3
# internal grid for additive phase-noise realizations, degrees
_NOISE_GRID = np.arange(-90.0, 91.0)

TABLE_HEADER = "azimuth_deg,gain_dbi,phase_deg"

# finest azimuth step a config's scan grid or an exported table may use, deg:
# at 1e-4 a +-90 deg grid holds 1.8 M points
MIN_STEP_DEG = 1e-4


class PatternError(ValueError):
    """Invalid pattern parameters; `param` names the offending parameter."""

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message)
        self.param = param


class TableError(ValueError):
    """Malformed tabulated pattern data."""


@dataclass(frozen=True, eq=True)
class ElementPattern:
    """One element's complex gain model.

    kind: isotropic | dipole_ref | patch | vivaldi | tabulated.
    params: numeric shape/level parameters for parametric kinds.
    samples: (azimuth_deg, gain_dbi, phase_deg) rows for tabulated kind.
    phase_noise_deg: additive phase offsets on the internal 1-degree grid,
    attached by perturb(); None for a nominal pattern.
    """

    kind: str
    params: dict[str, float] = field(default_factory=dict)
    samples: tuple[tuple[float, float, float], ...] | None = None
    phase_noise_deg: tuple[float, ...] | None = None


@dataclass(frozen=True)
class PatternPerturbation:
    """Manufacturing-style deviations applied per element.

    phase_noise_std_deg: i.i.d. Gaussian phase error drawn on a 1-degree
    internal grid and linearly interpolated between grid points.
    param_tolerance: fractional bound; every shape parameter is scaled by
    an independent uniform draw in [1 - tol, 1 + tol].
    """

    phase_noise_std_deg: float = 0.0
    param_tolerance: float = 0.0

    def __post_init__(self):
        # NaN fails both tests too
        if not 0.0 <= self.phase_noise_std_deg < math.inf:
            raise PatternError(f"phase_noise_std_deg must be finite and >= 0, got "
                               f"{self.phase_noise_std_deg}", "phase_noise_std_deg")
        if not 0.0 <= self.param_tolerance < 1.0:
            raise PatternError(f"param_tolerance must be in [0, 1), got "
                               f"{self.param_tolerance}", "param_tolerance")

    @property
    def is_zero(self) -> bool:
        """True when the perturbation changes nothing (and draws nothing)."""
        return self.phase_noise_std_deg == 0.0 and self.param_tolerance == 0.0


# parameters scaled by param_tolerance, per kind, in draw order
_SHAPE_PARAMS: dict[str, tuple[str, ...]] = {
    "isotropic": (),
    "dipole_ref": (),
    "patch": ("exponent",),
    "vivaldi": ("main_exponent", "null_angle_deg", "phase_ripple_deg", "ripple_period_deg"),
    "tabulated": (),
}


def make_isotropic() -> ElementPattern:
    return ElementPattern("isotropic")


def make_dipole_ref() -> ElementPattern:
    """Reference dipole: flat 2.15 dBi gain, zero phase, over the full view."""
    return ElementPattern("dipole_ref", {"peak_gain_dbi": 2.15})


def make_patch(peak_gain_dbi: float = 8.0, exponent: float = 1.5) -> ElementPattern:
    """Microstrip patch surrogate: cosine-power lobe, flat phase.

    Gain in dBi is peak + 20*exponent*log10(max(cos phi, floor)).
    """
    if exponent <= 0:
        raise PatternError(f"patch exponent must be > 0, got {exponent}", "exponent")
    return ElementPattern("patch", {"peak_gain_dbi": float(peak_gain_dbi),
                                    "exponent": float(exponent)})


def make_vivaldi(peak_gain_dbi: float = 13.0, null_angle_deg: float = 50.0,
                 phase_ripple_deg: float = 60.0, ripple_period_deg: float = 25.0,
                 main_exponent: float = 3.0) -> ElementPattern:
    """Tapered-slot surrogate: narrow main lobe, sidelobe nulls, phase ripple.

    Magnitude is a cosine-power main lobe times |cos(pi*phi/(2*null_angle))|,
    giving deep nulls at +/-null_angle. Phase ripples sinusoidally with the
    configured amplitude and period.
    """
    if not 0 < null_angle_deg <= 90:
        raise PatternError(f"null_angle_deg must be in (0, 90], got {null_angle_deg}",
                           "null_angle_deg")
    if ripple_period_deg <= 0:
        raise PatternError(f"ripple_period_deg must be > 0, got {ripple_period_deg}",
                           "ripple_period_deg")
    if main_exponent <= 0:
        raise PatternError(f"main_exponent must be > 0, got {main_exponent}", "main_exponent")
    return ElementPattern("vivaldi", {
        "peak_gain_dbi": float(peak_gain_dbi),
        "null_angle_deg": float(null_angle_deg),
        "phase_ripple_deg": float(phase_ripple_deg),
        "ripple_period_deg": float(ripple_period_deg),
        "main_exponent": float(main_exponent),
    })


def make_pattern(kind: str, **params) -> ElementPattern:
    """Build a pattern by kind name; 'tabulated' takes file=<path>. A bad or
    missing parameter is named in the PatternError's `param`."""
    makers = {"isotropic": make_isotropic, "dipole_ref": make_dipole_ref,
              "patch": make_patch, "vivaldi": make_vivaldi,
              "tabulated": lambda file: load_tabulated(file)}
    if kind not in makers:
        raise PatternError(f"unknown pattern kind {kind!r}")
    unknown = sorted(set(params) - set(inspect.signature(makers[kind]).parameters))
    if unknown:
        raise PatternError(f"{kind} pattern has no parameter {unknown[0]!r}", unknown[0])
    if kind == "tabulated" and "file" not in params:
        raise PatternError("tabulated pattern requires file=<path>", "file")
    return makers[kind](**params)


def _magnitude_dbi(kind: str, p: dict, az: np.ndarray) -> np.ndarray:
    # parameters are numbers or (N, 1) columns, one row per element
    if kind == "isotropic":
        return np.zeros_like(az)
    if kind == "dipole_ref":
        return np.full_like(az, p["peak_gain_dbi"])
    cos_az = np.maximum(np.cos(np.deg2rad(az)), _COS_FLOOR)
    if kind == "patch":
        return p["peak_gain_dbi"] + 20.0 * p["exponent"] * np.log10(cos_az)
    if kind == "vivaldi":
        null = np.maximum(np.abs(np.cos(np.pi * az / (2.0 * p["null_angle_deg"]))),
                          _COS_FLOOR)
        return (p["peak_gain_dbi"]
                + 20.0 * p["main_exponent"] * np.log10(cos_az)
                + 20.0 * np.log10(null))
    raise PatternError(f"unknown pattern kind {kind!r}")


def _phase_deg(kind: str, p: dict, az: np.ndarray) -> np.ndarray:
    if kind == "vivaldi":
        return p["phase_ripple_deg"] * np.sin(2.0 * np.pi * az / p["ripple_period_deg"])
    return np.zeros_like(az)


def _azimuths(azimuth_deg) -> np.ndarray:
    az = np.atleast_1d(np.asarray(azimuth_deg, dtype=float))
    if not np.all(np.abs(az) <= 90.0):  # NaN fails the comparison too
        raise ValueError("azimuth out of range: must lie in [-90, 90] degrees")
    return az


def _segments(az: np.ndarray) -> np.ndarray:
    """Index j of the noise-grid segment [x_j, x_j+1] that _interp_noise
    reads at each azimuth: it reads nodes j and j + 1 only."""
    return np.clip(np.searchsorted(_NOISE_GRID, az, side="right") - 1, 0, _NOISE_GRID.size - 2)


def _noise_nodes(az: np.ndarray) -> int:
    """How many leading phase-noise nodes _interp_noise reads at the
    azimuths az: 2 at -90 degrees, all 181 at +90, none at no azimuth."""
    return int(_segments(az).max(initial=-2)) + 2


def _interp_noise(az: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """np.interp(az, _NOISE_GRID, row) for every row of noise at once.

    Same arithmetic as np.interp: slope * (x - x_j) + y_j on the segment
    [x_j, x_j+1) holding x (exactly y_j on a node), and the last value at
    the last node.
    """
    j = _segments(az)
    x0, x1 = _NOISE_GRID[j], _NOISE_GRID[j + 1]
    y0, y1 = noise[..., j], noise[..., j + 1]
    y = (y1 - y0) / (x1 - x0) * (az - x0) + y0
    return np.where(az == x1, y1, y)


def _gain(pattern: ElementPattern, params: dict, noise, az: np.ndarray) -> np.ndarray:
    """Complex gain of `pattern` with its shape parameters replaced by `params`
    and its phase noise by `noise`, at the validated azimuths `az`.

    Parameters may be (N, 1) columns and noise an (N, grid) array; the gain
    is then (N, K), row n computed with exactly the arithmetic of a single
    pattern holding row n's parameters and noise.
    """
    if pattern.kind == "tabulated":
        t = np.asarray(pattern.samples, dtype=float)
        mag_dbi = np.interp(az, t[:, 0], t[:, 1])
        phase = np.interp(az, t[:, 0], np.unwrap(t[:, 2], period=360.0))
    else:
        mag_dbi = _magnitude_dbi(pattern.kind, params, az)
        phase = _phase_deg(pattern.kind, params, az)

    if noise is not None:
        phase = phase + _interp_noise(az, np.asarray(noise, dtype=float))

    return 10.0 ** (mag_dbi / 20.0) * np.exp(1j * np.deg2rad(phase))


def evaluate(pattern: ElementPattern, azimuth_deg) -> np.ndarray:
    """Complex gain at the given azimuth(s). Domain is [-90, 90] degrees."""
    g = _gain(pattern, pattern.params, pattern.phase_noise_deg, _azimuths(azimuth_deg))
    return g[0] if np.ndim(azimuth_deg) == 0 else g


def _draw(pattern: ElementPattern, perturbation: PatternPerturbation, rngs, rows: int,
          nodes: int = _NOISE_GRID.size) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The raw deviation draws of `rows` copies of `pattern`, one row each: a
    (rows, k) array of uniforms on [0, 1) for the k shape-parameter scales,
    then a (rows, nodes) array of standard normals for the first `nodes`
    points of the phase-noise grid. Either is None when switched off;
    _deviation maps them. Row i is drawn, in that fixed order, by the i-th
    generator of `rngs`, before the next one is taken; fewer than `rows`
    generators raise ValueError. A generator's first `nodes` normals are
    those of its draw of the whole grid, so a prefix that holds every node
    _interp_noise reads gives the same gains. A pattern that already carries
    phase noise raises PatternError before anything is drawn: a copy built
    from new draws would drop that noise, not add to it."""
    if pattern.phase_noise_deg is not None:
        raise PatternError("cannot perturb a pattern that already carries phase noise",
                           "phase_noise_deg")
    u = z = None
    if perturbation.param_tolerance > 0.0:
        u = np.empty((rows, len(_SHAPE_PARAMS[pattern.kind])))
    if perturbation.phase_noise_std_deg > 0.0:
        z = np.empty((rows, nodes))
    i = -1
    for i, rng in zip(range(rows), rngs):
        if u is not None:
            rng.random(out=u[i])
        if z is not None:
            rng.standard_normal(out=z[i])
    if i + 1 < rows:
        raise ValueError(f"rngs gave {i + 1} generators for {rows} rows")
    return u, z


def _deviation(perturbation: PatternPerturbation, u, z) -> tuple:
    """(scales, phase noise) from raw draws of any shape, or None where a
    draw is: Generator.uniform(1 - tol, 1 + tol) and Generator.normal(0,
    std) of the same generator, bit for bit, as numpy computes them from
    the same raw draws as lo + (hi - lo) * u and 0.0 + std * z."""
    lo, hi = 1.0 - perturbation.param_tolerance, 1.0 + perturbation.param_tolerance
    return (None if u is None else lo + (hi - lo) * u,
            None if z is None else 0.0 + perturbation.phase_noise_std_deg * z)


def _scaled(pattern: ElementPattern, scales) -> dict:
    """pattern.params with shape parameter i multiplied by scales[i]."""
    params = dict(pattern.params)
    for name, s in zip(_SHAPE_PARAMS[pattern.kind], scales):
        params[name] = params[name] * s
    return params


def perturb(pattern: ElementPattern, perturbation: PatternPerturbation,
            rng: np.random.Generator) -> ElementPattern:
    """Realize one manufacturing deviation of a pattern.

    Draw order is fixed (shape parameter scales, then the whole phase-noise
    grid) so a given rng state maps to exactly one perturbed pattern. Zero
    perturbation returns a pattern that evaluates bit-identically. Any other
    raises PatternError on a pattern that already carries phase noise.
    """
    if perturbation.is_zero:
        return pattern
    scales, noise = _deviation(perturbation, *_draw(pattern, perturbation, [rng], 1))
    params = _scaled(pattern, () if scales is None else scales[0])
    return ElementPattern(pattern.kind, params, pattern.samples,
                          None if noise is None else tuple(noise[0]))


def perturbed_gains(pattern: ElementPattern, perturbation: PatternPerturbation,
                    rngs, azimuth_deg, *, rows: int | None = None) -> np.ndarray:
    """Complex gains of one perturbed copy of `pattern` per generator, (N, K).

    `rngs` is any iterable of N generators, a one-shot iterator included,
    and is consumed once, in order. Row n equals evaluate(perturb(pattern,
    perturbation, rng_n), azimuth_deg) bit for bit: each generator makes the
    same draws in the same order into stacked arrays, the phase-noise grid
    only up to the last node the azimuths read, and all N copies are
    evaluated in one pass with their shape parameters as (N, 1) columns.
    With `rows` = N given, each generator makes its draws before the next is
    taken, so one generator may come back reloaded, as the trial engine's
    streams do, and fewer than N generators raise ValueError; without it,
    `rngs` is read into a list first. As with perturb, a pattern that
    already carries phase noise raises PatternError unless the perturbation
    is zero.
    """
    az = _azimuths(azimuth_deg)
    if rows is None:
        rngs = list(rngs)
        rows = len(rngs)
    if perturbation.is_zero:
        return np.broadcast_to(evaluate(pattern, az), (rows, az.size))
    scales, noise = _deviation(perturbation, *_draw(pattern, perturbation, rngs, rows,
                                                    _noise_nodes(az)))
    params = pattern.params
    if scales is not None:
        # (params, N, 1): iterating yields one (N, 1) column per shape parameter
        params = _scaled(pattern, scales.T[:, :, None])
    return np.broadcast_to(_gain(pattern, params, noise, az), (rows, az.size))


def _parse_row(line: str, lineno: int) -> tuple[float, float, float]:
    parts = line.split(",")
    if len(parts) != 3:
        raise TableError(f"row {lineno}: expected 3 comma-separated fields, got {len(parts)}")
    try:
        az, dbi, ph = (float(s) for s in parts)
    except ValueError:
        raise TableError(f"row {lineno}: non-numeric field in {line!r}") from None
    if not all(map(math.isfinite, (az, dbi, ph))):
        raise TableError(f"row {lineno}: non-finite value in {line!r}")
    return az, dbi, ph


def load_tabulated(source) -> ElementPattern:
    """Parse a pattern table: header azimuth_deg,gain_dbi,phase_deg then rows.

    Azimuths must be strictly increasing and must span [-90, 90] so every
    in-domain lookup interpolates rather than extrapolates. Errors carry the
    offending line number.
    """
    lines = read_text(source, "pattern table").splitlines()
    if not lines or lines[0].strip() != TABLE_HEADER:
        raise TableError(f"line 1: header must be {TABLE_HEADER!r}")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rows.append(_parse_row(line, i))
    if len(rows) < 2:
        raise TableError("table needs at least 2 rows")
    for i in range(1, len(rows)):
        if rows[i][0] <= rows[i - 1][0]:
            raise TableError(f"row {i + 2}: azimuths must be strictly increasing")
    if rows[0][0] > -90.0 or rows[-1][0] < 90.0:
        raise TableError(f"table must span [-90, 90], covers "
                         f"[{rows[0][0]}, {rows[-1][0]}]")
    return ElementPattern("tabulated", samples=tuple(rows))


def export_tabulated(pattern: ElementPattern, destination, step_deg: float = 1.0) -> None:
    """Write a pattern to the table format.

    A nominal tabulated pattern round-trips bit-exactly (stored rows are
    written verbatim); parametric kinds are sampled on a uniform grid.
    """
    if pattern.kind == "tabulated" and pattern.phase_noise_deg is None:
        rows = pattern.samples
    else:
        # [MIN_STEP_DEG, 360) gives at least 2 rows; NaN fails the test too
        if not MIN_STEP_DEG <= step_deg < 360.0:
            raise PatternError(f"step_deg must be in [{MIN_STEP_DEG:g}, 360), got {step_deg}")
        az = np.linspace(-90.0, 90.0, round(180.0 / step_deg) + 1)
        g = evaluate(pattern, az)
        rows = [(float(a), float(20.0 * np.log10(np.abs(v))),
                 float(np.rad2deg(np.angle(v)))) for a, v in zip(az, g)]
    write_text(destination, csv_text(TABLE_HEADER, None, rows), "pattern table")

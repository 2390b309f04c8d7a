"""Link budget, range ratio and required SNR.

They read the SNR gains of RMSE curves as one-way detection range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SweepResult

# free-space wave impedance, ohms
ETA_0 = 376.730


@dataclass(frozen=True)
class LinkBudget:
    """One-way free-space (impedance ETA_0) link for the SNR-to-range mapping."""

    transmit_power_w: float
    transmit_gain: float
    wavelength_m: float
    noise_power_w: float

    def __post_init__(self):
        for name in ("transmit_power_w", "transmit_gain", "wavelength_m", "noise_power_w"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")


def snr_to_range(budget: LinkBudget, snr_linear: float) -> float:
    """Range (meters) at which a link delivers the given linear SNR.

    Inverts the free-space propagation law: the received field power
    density falls as 1/r^2, so r = sqrt(P_t G_t lam^2 /
    (16 pi^2 eta_0 P_N SNR)).
    """
    if not 0.0 < snr_linear < math.inf:
        raise ValueError(f"snr_linear must be finite and > 0, got {snr_linear}")
    num = budget.transmit_power_w * budget.transmit_gain * budget.wavelength_m ** 2
    den = 16.0 * math.pi ** 2 * ETA_0 * budget.noise_power_w * snr_linear
    try:
        r = math.sqrt(num / den)
    except ZeroDivisionError:
        r = math.inf
    return _in_float_range(r, f"snr_linear {snr_linear}: the range")


def range_ratio(snr0_db: float, snr_db: float) -> float:
    """Range gain from operating at snr_db instead of reference snr0_db.

    The SNR ratio enters under a square root: received power already
    falls as 1/r^2, so reading the ratio linearly would double count.
    A 20 dB sensitivity improvement therefore buys a 10x range
    extension, not 100x. Multiplicative across chained differences.
    """
    for name, value in (("snr0_db", snr0_db), ("snr_db", snr_db)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    d = snr0_db - snr_db
    power = _pow10(d / 10.0)
    # past about +-3083 dB the power ratio leaves the float range before its
    # square root does; only then is the range ratio taken in one step
    ratio = math.sqrt(power) if 0.0 < power < math.inf else _pow10(d / 20.0)
    return _in_float_range(ratio, f"range ratio of snr0_db {snr0_db} to snr_db {snr_db}")


def _pow10(x: float) -> float:
    """10**x, or inf where it overflows."""
    try:
        return 10.0 ** x
    except OverflowError:
        return math.inf


def _in_float_range(value: float, what: str) -> float:
    """`value` if it is finite and > 0; else `what` overflowed or underflowed
    a float on the way, and a ValueError says so."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} leaves the float range")
    return value


def required_snr_for_rmse(curve: SweepResult, target_rmse_deg: float) -> float:
    """Smallest SNR (dB) on an snr-sweep curve achieving the target RMSE.

    Only the high-SNR suffix on which the curve is non-increasing is used,
    which excludes the noisy low-SNR threshold region. Between grid points
    the curve is interpolated linearly in (SNR, log10 RMSE); an exact
    grid-point hit returns that grid SNR, and so does a bracketing point of
    RMSE 0, where log10 RMSE has no finite value to interpolate to.
    """
    snr = np.asarray(curve.params, dtype=float)
    err = np.asarray(curve.rmse_deg, dtype=float)
    if snr.shape != err.shape:
        raise ValueError(f"curve has {snr.size} SNRs but {err.size} RMSEs")
    # steps of finite SNRs can overflow, and those of non-finite ones are NaN;
    # the checks below reject both
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(snr)
    if snr.size < 2 or not np.isfinite(snr).all() or np.any(steps <= 0):
        raise ValueError("curve needs >= 2 points with finite, strictly increasing SNR")
    if not np.isfinite(steps).all():
        raise ValueError("curve SNR steps must be finite; a step between its SNRs "
                         "leaves the float range")
    if not np.all((err >= 0) & (err < math.inf)):
        raise ValueError(f"curve RMSEs must be finite and >= 0, got {curve.rmse_deg}")
    if not 0.0 < target_rmse_deg < math.inf:
        raise ValueError(f"target RMSE must be finite and > 0, got {target_rmse_deg}")

    start = snr.size - 1
    while start > 0 and err[start - 1] >= err[start]:
        start -= 1
    s, e = snr[start:], err[start:]
    if target_rmse_deg < e[-1] or target_rmse_deg > e[0]:
        raise ValueError(f"target {target_rmse_deg} outside the achievable range "
                         f"[{e[-1]:.6g}, {e[0]:.6g}] of the monotone curve segment")
    for i in range(e.size):
        if e[i] <= target_rmse_deg:
            if e[i] == target_rmse_deg or e[i] == 0 or i == 0:
                return float(s[i])
            t = ((math.log10(target_rmse_deg) - math.log10(e[i - 1]))
                 / (math.log10(e[i]) - math.log10(e[i - 1])))
            lo, hi = float(s[i - 1]), float(s[i])
            snr_db = lo + t * (hi - lo)
            if not math.isfinite(snr_db):
                raise ValueError(f"the SNR interpolated between {lo} and {hi} dB "
                                 f"leaves the float range")
            return snr_db
    raise AssertionError("unreachable: target inside verified range")

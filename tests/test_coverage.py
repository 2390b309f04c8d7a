"""The coverage helpers: link budget, range ratio and required SNR."""
import math
import re

import numpy as np
import pytest

from doasim.config import SweepResult
from doasim.coverage import LinkBudget, range_ratio, required_snr_for_rmse, snr_to_range


# ------------------------------------------------------------- link budget

def test_snr_to_range_reference_case():
    budget = LinkBudget(transmit_power_w=16.0 * math.pi ** 2 * 376.730,
                        transmit_gain=1.0, wavelength_m=1.0,
                        noise_power_w=1.0)
    assert abs(snr_to_range(budget, 1.0) - 1.0) < 1e-12
    assert abs(snr_to_range(budget, 4.0) - 0.5) < 1e-12


def test_snr_to_range_validation():
    budget = LinkBudget(1.0, 1.0, 0.1, 1e-12)
    with pytest.raises(ValueError):
        snr_to_range(budget, 0.0)
    with pytest.raises(ValueError):
        snr_to_range(budget, -2.0)
    with pytest.raises(ValueError):
        LinkBudget(0.0, 1.0, 0.1, 1e-12)
    with pytest.raises(ValueError, match="transmit_power_w"):
        LinkBudget(math.nan, 1.0, 0.1, 1e-12)
    for snr in (math.nan, math.inf):
        with pytest.raises(ValueError, match="snr_linear"):
            snr_to_range(budget, snr)
    # a budget whose numerator overflows: 0 / 0 or inf / x on the way
    extreme = LinkBudget(1e300, 1e10, 1.0, 1e-300)
    for snr in (1e-300, 1.0):
        with pytest.raises(ValueError, match=f"snr_linear {snr}: .*float range"):
            snr_to_range(extreme, snr)
    with pytest.raises(ValueError, match="float range"):
        snr_to_range(LinkBudget(1e-300, 1e-300, 1.0, 1.0), 1.0)


def test_range_ratio_values():
    assert range_ratio(-5.0, -5.0) == 1.0
    assert abs(range_ratio(-5.0, 15.0) - 0.1) < 1e-12
    assert abs(range_ratio(-5.0, -25.0) - 10.0) < 1e-12


def test_range_ratio_validation():
    for snr0_db, snr_db, name in ((math.nan, 0.0, "snr0_db"), (math.inf, 0.0, "snr0_db"),
                                  (0.0, math.inf, "snr_db"), (0.0, -math.inf, "snr_db")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            range_ratio(snr0_db, snr_db)
    # 10**350 overflows, 10**-350 underflows to 0, 1e308 - -1e308 is inf
    for snr0_db, snr_db in ((7000.0, 0.0), (0.0, 7000.0), (1e308, -1e308)):
        with pytest.raises(ValueError, match=re.escape(f"snr0_db {snr0_db} to snr_db {snr_db} "
                                                       f"leaves the float range")):
            range_ratio(snr0_db, snr_db)


def test_range_ratio_past_the_float_range_of_the_power_ratio():
    # 10**(d/10) leaves the float range for |d| above about 3083 dB, though
    # the range ratio 10**(d/20) does not until about 6165 dB
    assert range_ratio(4000.0, 0.0) == 10.0 ** 200
    assert range_ratio(0.0, 4000.0) == 10.0 ** -200
    assert range_ratio(6000.0, 0.0) == 10.0 ** 300
    # just inside the power ratio's range the ratio keeps its square-root form
    assert range_ratio(3000.0, 0.0) == math.sqrt(10.0 ** 300)


def test_range_ratio_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = rng.uniform(-40.0, 20.0, 3)
        assert abs(range_ratio(a, c) - range_ratio(a, b) * range_ratio(b, c)) < 1e-12


def test_range_ratio_consistent_with_budget():
    budget = LinkBudget(3.0, 2.5, 0.12, 4e-13)
    rng = np.random.default_rng(8)
    for _ in range(50):
        s0_db, s_db = rng.uniform(-30.0, 30.0, 2)
        direct = (snr_to_range(budget, 10.0 ** (s_db / 10.0))
                  / snr_to_range(budget, 10.0 ** (s0_db / 10.0)))
        assert abs(direct - range_ratio(s0_db, s_db)) < 1e-12


# ------------------------------------------------------- snr interpolation

def _curve(params, rmses) -> SweepResult:
    n = len(params)
    return SweepResult(params=tuple(params), rmse_deg=tuple(rmses),
                       trials=(100,) * n, fill_counts=(0,) * n)


def test_required_snr_exact_grid_hit():
    curve = _curve((-10.0, -5.0, 0.0, 5.0), (3.0, 1.0, 0.1, 0.01))
    assert required_snr_for_rmse(curve, 0.1) == 0.0
    assert required_snr_for_rmse(curve, 3.0) == -10.0
    # log10(0) has no finite value: a zero-RMSE bracketing point gives its own SNR
    zero = _curve((-5.0, 0.0, 5.0), (1.0, 0.1, 0.0))
    assert required_snr_for_rmse(zero, 0.05) == 5.0


def test_required_snr_log_interpolation():
    curve = _curve((0.0, 5.0), (0.1, 0.01))
    # halfway in log10(rmse) lands halfway in snr
    assert abs(required_snr_for_rmse(curve, 10.0 ** -1.5) - 2.5) < 1e-9


def test_required_snr_uses_monotone_suffix():
    # threshold bump at low SNR must be excluded from the search
    curve = _curve((-10.0, -5.0, 0.0, 5.0), (0.5, 1.5, 0.1, 0.01))
    got = required_snr_for_rmse(curve, 0.4)
    assert got > -5.0
    expect = -5.0 + 5.0 * ((math.log10(0.4) - math.log10(1.5))
                           / (math.log10(0.1) - math.log10(1.5)))
    assert abs(got - expect) < 1e-9


def test_required_snr_out_of_range():
    curve = _curve((-5.0, 0.0, 5.0), (1.0, 0.1, 0.01))
    with pytest.raises(ValueError):
        required_snr_for_rmse(curve, 0.001)
    with pytest.raises(ValueError):
        required_snr_for_rmse(curve, 2.0)
    with pytest.raises(ValueError):
        required_snr_for_rmse(_curve((1.0,), (0.1,)), 0.1)
    with pytest.raises(ValueError):
        required_snr_for_rmse(curve, 0.0)
    with pytest.raises(ValueError, match="target RMSE"):
        required_snr_for_rmse(curve, math.nan)
    with pytest.raises(ValueError, match="SNR"):
        required_snr_for_rmse(_curve((-5.0, math.nan, 5.0), (1.0, 0.1, 0.01)), 0.1)
    with pytest.raises(ValueError, match="RMSEs"):
        required_snr_for_rmse(_curve((-5.0, 0.0, 5.0), (1.0, math.nan, 0.01)), 0.1)


def test_required_snr_rejects_snr_steps_past_the_float_range():
    # -1e308 to 1e308 is a step of inf: the interpolation would give inf
    curve = _curve((-1e308, 1e308), (1.0, 0.1))
    with pytest.raises(ValueError, match="SNR steps must be finite"):
        required_snr_for_rmse(curve, 0.5)
    # finite steps on the same scale interpolate as usual
    assert required_snr_for_rmse(_curve((-1e307, 1e307), (1.0, 0.1)), 0.1) == 1e307


def test_required_snr_rejects_mismatched_lengths():
    # SweepResult checks nothing; the helper names both lengths
    curve = SweepResult(params=(0.0, 5.0, 10.0), rmse_deg=(1.0, 0.1), trials=(100,) * 3,
                        fill_counts=(0,) * 3)
    with pytest.raises(ValueError, match="3 SNRs but 2 RMSEs"):
        required_snr_for_rmse(curve, 0.5)


def test_required_snr_plateau_returns_smallest():
    curve = _curve((-5.0, 0.0, 5.0, 10.0), (1.0, 0.5, 0.5, 0.2))
    assert required_snr_for_rmse(curve, 0.5) == 0.0

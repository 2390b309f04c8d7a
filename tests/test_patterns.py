import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doasim import patterns
from doasim.patterns import (ElementPattern, PatternError, PatternPerturbation,
                             TableError, evaluate, export_tabulated,
                             load_tabulated, make_dipole_ref, make_isotropic,
                             make_patch, make_pattern, make_vivaldi, perturb,
                             perturbed_gains)

DENSE = np.linspace(-90.0, 90.0, 721)


def test_isotropic_is_unity():
    g = evaluate(make_isotropic(), DENSE)
    assert np.all(g == 1.0 + 0.0j)


def test_dipole_flat_gain():
    g = evaluate(make_dipole_ref(), DENSE)
    assert np.all(np.abs(g) == 10.0 ** (2.15 / 20.0))
    assert np.all(np.angle(g) == 0.0)


def test_patch_peak_value():
    g = evaluate(make_patch(), 0.0)
    assert abs(abs(g) - 10.0 ** (8.0 / 20.0)) < 1e-9


def test_patch_rolloff_at_60deg():
    # peak 8 dBi, exponent 1.5: gain drops by 20*1.5*log10(cos 60)
    expected_dbi = 8.0 + 30.0 * math.log10(math.cos(math.radians(60.0)))
    g = evaluate(make_patch(), 60.0)
    assert abs(20.0 * math.log10(abs(g)) - expected_dbi) < 1e-9


def test_patch_endfire_clamps_finite():
    g = evaluate(make_patch(), np.array([-90.0, 90.0]))
    dbi = 20.0 * np.log10(np.abs(g))
    assert np.all(np.isfinite(dbi))
    assert np.all(dbi <= -60.0)


def test_vivaldi_peak_value():
    g = evaluate(make_vivaldi(), 0.0)
    assert abs(abs(g) - 10.0 ** (13.0 / 20.0)) < 1e-9


def test_vivaldi_nulls():
    g = evaluate(make_vivaldi(), np.array([-50.0, 50.0]))
    assert np.all(20.0 * np.log10(np.abs(g)) < -30.0)


def test_vivaldi_phase_ripple():
    # 60 deg amplitude, 25 deg period: quarter period gives the full swing
    g = evaluate(make_vivaldi(), 6.25)
    assert abs(np.rad2deg(np.angle(g)) - 60.0) < 1e-9


def test_peak_is_at_broadside():
    for p in (make_isotropic(), make_dipole_ref(), make_patch(), make_vivaldi()):
        mags = np.abs(evaluate(p, DENSE))
        assert mags.max() == abs(evaluate(p, 0.0))
    for p in (make_patch(), make_vivaldi()):
        # directive kinds peak uniquely at broadside
        mags = np.abs(evaluate(p, DENSE))
        assert DENSE[np.argmax(mags)] == 0.0


@pytest.mark.parametrize("pattern", [make_isotropic(), make_dipole_ref(),
                                     make_patch(), make_vivaldi()])
def test_magnitude_even_symmetry(pattern):
    pos = np.abs(evaluate(pattern, DENSE))
    neg = np.abs(evaluate(pattern, -DENSE))
    assert np.array_equal(pos, neg)


def test_azimuth_domain_checked():
    with pytest.raises(ValueError):
        evaluate(make_patch(), 90.5)
    with pytest.raises(ValueError):
        evaluate(make_patch(), np.array([0.0, -120.0]))
    with pytest.raises(ValueError):
        evaluate(make_patch(), float("nan"))


def test_invalid_parameters_rejected():
    with pytest.raises(PatternError):
        make_patch(exponent=0.0)
    with pytest.raises(PatternError):
        make_vivaldi(null_angle_deg=0.0)
    with pytest.raises(PatternError):
        make_vivaldi(ripple_period_deg=-5.0)
    with pytest.raises(PatternError, match="main_exponent") as info:
        make_vivaldi(main_exponent=0)
    assert info.value.param == "main_exponent"
    with pytest.raises(PatternError, match="unknown pattern kind 'foo'"):
        evaluate(ElementPattern("foo"), 0.0)
    with pytest.raises(PatternError):
        make_pattern("helix")
    with pytest.raises(PatternError):
        make_pattern("patch", bogus=1.0)
    with pytest.raises(PatternError):
        make_pattern("tabulated")


# ---------------------------------------------------------------- tabulated

def _small_table() -> str:
    rows = ["azimuth_deg,gain_dbi,phase_deg"]
    for az in range(-90, 91, 10):
        rows.append(f"{float(az)!r},{float(-abs(az)) / 10!r},{float(az) / 4!r}")
    return "\n".join(rows) + "\n"


def test_tabulated_hits_rows_exactly():
    p = load_tabulated(io.StringIO(_small_table()))
    g = evaluate(p, np.array([-90.0, 0.0, 40.0]))
    assert np.allclose(20.0 * np.log10(np.abs(g)), [-9.0, 0.0, -4.0], atol=1e-12)
    assert np.allclose(np.rad2deg(np.angle(g)), [-22.5, 0.0, 10.0], atol=1e-9)


def test_tabulated_interpolates_between_rows():
    p = load_tabulated(io.StringIO(_small_table()))
    g = evaluate(p, 35.0)
    assert abs(20.0 * math.log10(abs(g)) - (-3.5)) < 1e-9
    assert abs(np.rad2deg(np.angle(g)) - 8.75) < 1e-9


def test_tabulated_unwraps_phase():
    # raw phases jump from +170 to -170: unwrapped they continue to +190,
    # so the midpoint interpolates to 180, not 0
    text = ("azimuth_deg,gain_dbi,phase_deg\n"
            "-90.0,0.0,0.0\n0.0,0.0,170.0\n10.0,0.0,-170.0\n90.0,0.0,-170.0\n")
    p = load_tabulated(io.StringIO(text))
    g = evaluate(p, 5.0)
    assert abs(abs(np.rad2deg(np.angle(g))) - 180.0) < 1e-9


def test_tabulated_roundtrip_bit_exact():
    text = _small_table()
    p = load_tabulated(io.StringIO(text))
    out = io.StringIO()
    export_tabulated(p, out)
    assert out.getvalue() == text


def test_export_then_load_matches_parametric():
    src = make_vivaldi()
    buf = io.StringIO()
    export_tabulated(src, buf, step_deg=0.5)
    back = load_tabulated(io.StringIO(buf.getvalue()))
    az = np.linspace(-90.0, 90.0, 361)
    assert np.allclose(evaluate(back, az), evaluate(src, az), atol=1e-9)


def test_table_parse_errors_name_the_row():
    with pytest.raises(TableError, match="line 1"):
        load_tabulated(io.StringIO("azimuth,gain,phase\n1,2,3\n"))
    with pytest.raises(TableError, match="row 3"):
        load_tabulated(io.StringIO("azimuth_deg,gain_dbi,phase_deg\n"
                                   "-90.0,0,0\n0.0,1\n90.0,0,0\n"))
    with pytest.raises(TableError, match="row 3"):
        load_tabulated(io.StringIO("azimuth_deg,gain_dbi,phase_deg\n"
                                   "-90.0,0,0\n0.0,x,0\n90.0,0,0\n"))
    with pytest.raises(TableError, match="row 4"):
        load_tabulated(io.StringIO("azimuth_deg,gain_dbi,phase_deg\n"
                                   "-90.0,0,0\n0.0,0,0\n-5.0,0,0\n90.0,0,0\n"))
    with pytest.raises(TableError, match="row 3: non-finite"):
        load_tabulated(io.StringIO("azimuth_deg,gain_dbi,phase_deg\n"
                                   "-90.0,0,0\n0.0,nan,0\n90.0,0,0\n"))


def test_table_must_span_field_of_view():
    with pytest.raises(TableError, match="span"):
        load_tabulated(io.StringIO("azimuth_deg,gain_dbi,phase_deg\n"
                                   "-89.0,0,0\n90.0,0,0\n"))
    with pytest.raises(TableError, match="span"):
        load_tabulated(io.StringIO("azimuth_deg,gain_dbi,phase_deg\n"
                                   "-90.0,0,0\n89.0,0,0\n"))
    with pytest.raises(TableError):
        load_tabulated(io.StringIO("azimuth_deg,gain_dbi,phase_deg\n-90.0,0,0\n"))


# ------------------------------------------------------------ perturbations

def test_zero_perturbation_is_identity():
    p = make_vivaldi()
    q = perturb(p, PatternPerturbation(), np.random.default_rng(1))
    assert np.array_equal(evaluate(q, DENSE), evaluate(p, DENSE))


def test_perturb_is_deterministic():
    p = make_patch()
    pert = PatternPerturbation(phase_noise_std_deg=5.0, param_tolerance=0.1)
    a = perturb(p, pert, np.random.default_rng(42))
    b = perturb(p, pert, np.random.default_rng(42))
    assert a == b
    assert np.array_equal(evaluate(a, DENSE), evaluate(b, DENSE))


def test_param_tolerance_bounds():
    pert = PatternPerturbation(param_tolerance=0.10)
    rng = np.random.default_rng(7)
    exponents = [perturb(make_patch(), pert, rng).params["exponent"]
                 for _ in range(2000)]
    assert min(exponents) >= 1.5 * 0.9
    assert max(exponents) <= 1.5 * 1.1
    # tolerance must actually spread across the band
    assert max(exponents) - min(exponents) > 0.25


def test_phase_noise_statistics():
    # sample std of (perturbed - nominal) phase at grid azimuths over many
    # draws should sit near the configured 5 degrees
    pert = PatternPerturbation(phase_noise_std_deg=5.0)
    rng = np.random.default_rng(3)
    base = make_dipole_ref()
    probe = np.array([-60.0, 0.0, 45.0])
    nominal = np.angle(evaluate(base, probe))
    diffs = []
    for _ in range(10_000):
        q = perturb(base, pert, rng)
        diffs.append(np.rad2deg(np.angle(evaluate(q, probe)) - nominal))
    std = np.std(np.asarray(diffs))
    assert 4.0 <= std <= 6.0


def test_phase_noise_interpolates_between_grid_points():
    pert = PatternPerturbation(phase_noise_std_deg=5.0)
    q = perturb(make_isotropic(), pert, np.random.default_rng(11))
    noise = np.asarray(q.phase_noise_deg)
    # grid is 1-degree spaced from -90; azimuth 0.5 sits between nodes 90, 91
    got = np.rad2deg(np.angle(evaluate(q, 0.5)))
    assert abs(got - 0.5 * (noise[90] + noise[91])) < 1e-9


def test_perturbation_validation():
    with pytest.raises(PatternError):
        PatternPerturbation(phase_noise_std_deg=-1.0)
    with pytest.raises(PatternError):
        PatternPerturbation(param_tolerance=1.0)


@pytest.mark.parametrize("field, value", [
    ("phase_noise_std_deg", math.nan), ("phase_noise_std_deg", math.inf),
    ("phase_noise_std_deg", -1.0), ("param_tolerance", math.nan),
    ("param_tolerance", math.inf), ("param_tolerance", -0.1)])
def test_perturbation_rejects_non_finite_and_names_it(field, value):
    # the one owner of the perturbation ranges: NaN and infinities fail too,
    # and the error names the parameter, which a config maps to its key
    with pytest.raises(PatternError, match=field) as info:
        PatternPerturbation(**{field: value})
    assert info.value.param == field


def test_perturb_tabulated_gets_phase_noise_only():
    p = load_tabulated(io.StringIO(_small_table()))
    pert = PatternPerturbation(phase_noise_std_deg=2.0, param_tolerance=0.2)
    q = perturb(p, pert, np.random.default_rng(5))
    assert q.samples == p.samples
    assert q.phase_noise_deg is not None
    assert np.allclose(np.abs(evaluate(q, DENSE)), np.abs(evaluate(p, DENSE)))


@settings(max_examples=300, deadline=None)
@given(tol=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       std=st.floats(-323.0, 300.0).map(lambda e: 10.0 ** e), k=st.integers(1, 4),
       rows=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_deviation_maps_raw_draws_as_uniform_and_normal(tol, std, k, rows, seed):
    # a perturbation draws raw uniforms and standard normals and maps them
    # itself, one element or a stack of elements at a time; every value must
    # be what Generator.uniform(1 - tol, 1 + tol) and Generator.normal(0, std)
    # give from the same generator state, bit for bit
    pert = PatternPerturbation(phase_noise_std_deg=std, param_tolerance=tol)
    raw, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    u, z = np.empty((rows, k)), np.empty((rows, 181))
    for i in range(rows):
        u[i], z[i] = raw.random(k), raw.standard_normal(181)
    scales, noise = patterns._deviation(pert, u, z)
    for i in range(rows):
        assert np.array_equal(scales[i], ref.uniform(1.0 - tol, 1.0 + tol, k))
        assert np.array_equal(noise[i], ref.normal(0.0, std, 181))


# node azimuths (every integer degree, the ends included) and points between
_AZIMUTHS = st.lists(st.one_of(st.integers(-90, 90).map(float),
                               st.floats(-90.0, 90.0, allow_nan=False)),
                     min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(azimuths=_AZIMUTHS, rows=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       log_std=st.floats(-3.0, 2.0))
def test_noise_interpolation_matches_np_interp(azimuths, rows, seed, log_std):
    # the per-row phase-noise lookup keeps np.interp's arithmetic bit for bit,
    # on grid nodes and at +-90 degrees as well as between nodes
    az = np.array(azimuths)
    noise = np.random.default_rng(seed).normal(0.0, 10.0 ** log_std, (rows, 181))
    expected = np.stack([np.interp(az, np.arange(-90.0, 91.0), row) for row in noise])
    assert np.array_equal(patterns._interp_noise(az, noise), expected)
    assert np.array_equal(patterns._interp_noise(az, noise[0]), expected[0])


_KINDS = [make_isotropic(), make_dipole_ref(), make_patch(), make_vivaldi(),
          load_tabulated(io.StringIO(_small_table()))]


@pytest.mark.parametrize("pattern", _KINDS, ids=lambda p: p.kind)
@settings(max_examples=40, deadline=None)
@given(azimuths=_AZIMUTHS, count=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       std=st.sampled_from([0.0, 3.0]), tol=st.sampled_from([0.0, 0.2]))
def test_perturbed_gains_rows_equal_perturb_then_evaluate(pattern, azimuths, count,
                                                         seed, std, tol):
    # one broadcast pass over all copies gives each row exactly what
    # perturbing and evaluating that copy alone gives, whether the generators
    # come as a list or as a one-shot iterator
    pert = PatternPerturbation(phase_noise_std_deg=std, param_tolerance=tol)
    children = np.random.SeedSequence(seed).spawn(count)
    expected = [evaluate(perturb(pattern, pert, np.random.default_rng(c)), azimuths)
                for c in children]
    for rngs in ([np.random.default_rng(c) for c in children],
                 iter([np.random.default_rng(c) for c in children])):
        got = perturbed_gains(pattern, pert, rngs, azimuths)
        assert got.shape == (count, len(azimuths))
        assert np.array_equal(got, np.stack(expected))

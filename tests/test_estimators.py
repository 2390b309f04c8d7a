import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from doasim import estimators
from doasim.estimators import (DoaEstimateSet, Pseudospectrum, RankError,
                               azimuth_grid, coarray_covariance, coarray_music,
                               fov_window, hermitian_eig,
                               music_pseudospectrum, pick_peaks, virtual_steering,
                               _unitary_basis)
from doasim.geometry import (ArrayGeometry, GeometryError, make_mra, make_ula,
                             named_geometry)
from doasim.manifold import (SourceScenario, generate_snapshots, make_manifold,
                             sample_covariance, steering_matrix, steering_vector)
from doasim.patterns import MIN_STEP_DEG, make_isotropic, make_patch

from oracles import (concatenated_virtual_steering, evaluated_values_equal,
                     loop_coarray_smoothed, loop_pick, naive_coarray_smoothed)


def _iso(geometry):
    return make_manifold(geometry, make_isotropic())


# ------------------------------------------------------------------- eigen

@settings(max_examples=200, deadline=None)
@given(x=hnp.arrays(complex, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                    elements=st.complex_numbers(max_magnitude=1e100, allow_nan=False,
                                                allow_infinity=False)))
def test_sample_covariance_is_exactly_hermitian(x):
    # the sweep engine runs a bare eigh on sample_covariance's output; that
    # equals hermitian_eig, which symmetrizes first, only because the
    # covariance is Hermitian bit for bit
    r = sample_covariance(x)
    assert np.array_equal(r, r.conj().T)
    try:
        bare = np.linalg.eigh(r)
    except np.linalg.LinAlgError:
        # LAPACK does not converge on some draws mixing 1e-237 and 1e99
        # entries; hermitian_eig, on the same matrix, must fail alike
        with pytest.raises(np.linalg.LinAlgError):
            hermitian_eig(r)
    else:
        for ours, b in zip(hermitian_eig(r), bare):
            assert np.array_equal(ours, b)
    # the sweep engine forms a chunk's covariances as one stack; each must be
    # its slice's covariance bit for bit, wherever the slice sits
    stack = sample_covariance(np.stack([x[::-1], x, 3.0 * x]))
    assert stack.shape == (3, *r.shape)
    assert np.array_equal(stack[1], r)
    assert np.array_equal(stack[0], sample_covariance(x[::-1]))
    assert np.array_equal(stack[2], sample_covariance(3.0 * x))


def test_eigh_identity():
    vals, vecs = hermitian_eig(np.eye(4, dtype=complex))
    assert np.allclose(vals, 1.0)
    assert np.allclose(vecs @ vecs.conj().T, np.eye(4), atol=1e-12)


def test_eigh_rank_one():
    a = np.array([1.0, 1.0j, -1.0, 2.0])
    r = np.outer(a, a.conj())
    vals, vecs = hermitian_eig(r)
    assert np.all(np.diff(vals) >= 0)
    assert abs(vals[-1] - np.vdot(a, a).real) < 1e-9
    assert np.max(np.abs(vals[:-1])) < 1e-9


def test_eigh_residual():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    r = x @ x.conj().T
    vals, vecs = hermitian_eig(r)
    residual = np.max(np.abs(r @ vecs - vecs * vals))
    assert residual < 1e-9 * np.max(np.abs(r))


def test_eigh_rejects_non_hermitian():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eig(bad)
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[np.nan, 0], [0, 1.0]], dtype=complex))


# ------------------------------------------------------------------- music

def test_noiseless_single_source_peak():
    m = _iso(make_ula(8))
    a = steering_vector(m, 10.0)
    r = np.outer(a, a.conj())
    ps = music_pseudospectrum(r, m, 1)
    est = pick_peaks(ps, 1)
    assert abs(est.angles[0] - 10.0) <= 0.01
    assert est.fill_count == 0


def test_white_covariance_gives_flat_spectrum():
    m = _iso(make_ula(8))
    ps = music_pseudospectrum(np.eye(8, dtype=complex), m, 1,
                              grid=azimuth_grid(0.1))
    assert ps.values.max() / ps.values.min() < 1.0 + 1e-6


def test_music_scale_invariance():
    m = _iso(make_ula(8))
    sc = SourceScenario((-25.0, 12.0), 5.0)
    r = sample_covariance(generate_snapshots(m, sc, 100, 3))
    grid = azimuth_grid(0.05)
    e1 = pick_peaks(music_pseudospectrum(r, m, 2, grid), 2)
    e2 = pick_peaks(music_pseudospectrum(7.3 * r, m, 2, grid), 2)
    assert np.allclose(e1.angles, e2.angles, atol=1e-9)


def test_music_rank_limits():
    m = _iso(make_ula(8))
    r = np.eye(8, dtype=complex)
    with pytest.raises(RankError):
        music_pseudospectrum(r, m, 8)
    with pytest.raises(RankError):
        music_pseudospectrum(r, m, 0)
    with pytest.raises(ValueError):
        music_pseudospectrum(np.eye(6, dtype=complex), m, 2)


def test_noise_subspace_orthogonal_to_steering():
    m = _iso(make_mra(8))
    angles = (-30.0, 5.0, 40.0)
    a = steering_matrix(m, np.array(angles))
    r = a @ a.conj().T
    _, vecs = hermitian_eig(r)
    en = vecs[:, :5]
    for k in range(3):
        leak = np.linalg.norm(en.conj().T @ a[:, k]) ** 2
        assert leak < 1e-8 * np.linalg.norm(a[:, k]) ** 2


def test_gain_scaling_leaves_peaks_unchanged():
    # constant positive gain factor cancels in the spectrum shape
    geom = make_ula(8)
    data = make_manifold(geom, make_patch())
    scaled = make_manifold(geom, make_patch(peak_gain_dbi=14.0))
    sc = SourceScenario((-18.0, 22.0), 10.0)
    r = sample_covariance(generate_snapshots(data, sc, 200, 11))
    grid = azimuth_grid(0.05)
    p1 = pick_peaks(music_pseudospectrum(r, data, 2, grid), 2)
    p2 = pick_peaks(music_pseudospectrum(r, scaled, 2, grid), 2)
    assert p1.angles == p2.angles


# ------------------------------------------------------------------- peaks

def _spectrum(grid, values):
    return Pseudospectrum(np.asarray(grid, dtype=float),
                          np.asarray(values, dtype=float))


def test_pick_peaks_parabolic_refinement():
    # log-spectrum of a Gaussian bump is an exact parabola, so the vertex
    # is recovered to machine precision even off-grid
    grid = np.linspace(-10.0, 10.0, 41)
    true = 1.37
    vals = np.exp(-((grid - true) ** 2) / 3.0)
    est = pick_peaks(_spectrum(grid, vals), 1, fov_deg=10.0)
    assert abs(est.angles[0] - true) < 1e-9
    assert est.peaks_found == 1


def test_pick_peaks_monotone_spectrum_fills():
    grid = np.linspace(-5.0, 5.0, 11)
    vals = np.linspace(1.0, 2.0, 11)
    est = pick_peaks(_spectrum(grid, vals), 2, fov_deg=5.0)
    assert est.peaks_found == 1
    assert est.fill_count == 1
    assert est.angles == (4.0, 5.0)
    assert est.filled == (True, False)


def test_pick_peaks_respects_fov():
    grid = np.linspace(-90.0, 90.0, 181)
    vals = np.ones(181)
    vals[5] = 10.0   # peak at -85, outside a 30 degree window
    vals[95] = 5.0   # peak at +5, inside
    est = pick_peaks(_spectrum(grid, vals), 1, fov_deg=30.0)
    assert est.angles == (5.0,)


def test_pick_peaks_validation():
    grid = np.linspace(-90.0, 90.0, 181)
    ps = _spectrum(grid, np.ones(181) + 0.001 * np.cos(grid))
    with pytest.raises(ValueError):
        pick_peaks(ps, 0)
    with pytest.raises(ValueError):
        pick_peaks(ps, 1, fov_deg=120.0)


@settings(max_examples=300, deadline=None)
@given(step=st.floats(0.05, 6.0), fov=st.floats(0.01, 90.0),
       count=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       levels=st.sampled_from([0, 2, 4]))
def test_pick_peaks_on_fov_window_matches_full_grid(step, fov, count, seed, levels):
    # a spectrum known only on the window plus one guard point per side
    # picks exactly what the whole-grid spectrum picks; few value levels
    # make plateaus and ties between candidate maxima
    grid = azimuth_grid(step)
    rng = np.random.default_rng(seed)
    vals = (rng.integers(1, levels + 1, grid.size).astype(float) if levels
            else np.exp(rng.normal(0.0, 3.0, grid.size)))
    window = fov_window(grid, fov, guard=1)
    assume(window.stop - window.start >= 3)  # smallest valid Pseudospectrum
    windowed = _spectrum(grid[window], vals[window])
    try:
        expected = pick_peaks(_spectrum(grid, vals), count, fov)
    except ValueError:
        with pytest.raises(ValueError):
            pick_peaks(windowed, count, fov)
        return
    assert pick_peaks(windowed, count, fov) == expected


def test_pick_peaks_returns_an_attached_pick_for_its_count_and_fov_only():
    grid = np.linspace(-90.0, 90.0, 181)
    vals = 1.0 + np.cos(np.deg2rad(grid) * 7.0) ** 2 + 0.01 * np.arange(181) / 181.0
    public = Pseudospectrum(grid.copy(), vals.copy())
    marker = DoaEstimateSet(angles=(-1.0, 1.0), filled=(False, False), peaks_found=2)
    attached = Pseudospectrum._trusted(grid, vals, ((2, 30.0), marker))
    assert pick_peaks(attached, 2, 30.0) is marker
    # any other count or fov picks afresh from the values
    for count, fov in ((1, 30.0), (3, 30.0), (2, 29.0), (2, 90.0)):
        got = pick_peaks(attached, count, fov)
        assert got is not marker and got == pick_peaks(public, count, fov)
    with pytest.raises(ValueError, match="count"):
        pick_peaks(attached, 0, 30.0)


def test_public_spectra_carry_no_attached_pick():
    grid = np.linspace(-90.0, 90.0, 181)
    vals = 1.0 + np.cos(np.deg2rad(grid) * 7.0) ** 2
    marker = DoaEstimateSet(angles=(-1.0, 1.0), filled=(False, False), peaks_found=2)
    attached = Pseudospectrum._trusted(grid.copy(), vals.copy(), ((2, 30.0), marker))
    assert Pseudospectrum(grid, vals)._pick is None
    assert Pseudospectrum._trusted(grid.copy(), vals.copy())._pick is None
    # a spectrum rebuilt from an attached one, with its values or others,
    # goes through the constructor and so carries none
    fresh = Pseudospectrum(attached.grid, attached.values)
    assert fresh._pick is None
    assert dataclasses.replace(attached, values=vals * 2.0)._pick is None
    assert pick_peaks(fresh, 2, 30.0) == pick_peaks(Pseudospectrum(grid, vals), 2, 30.0)


def _bits(angles):
    return [float(a).hex() for a in angles]


# 1, 2 and 4 have logs in arithmetic progression, so a rising or falling run
# of them is a flat-curvature triple; a set this small makes ties common
_PICK_LEVELS = (1.0, 2.0, 4.0, 3.0)


@settings(max_examples=400, deadline=None)
@given(stack=st.lists(st.lists(st.integers(0, 3), min_size=24, max_size=24),
                      min_size=1, max_size=5),
       size=st.integers(3, 24), count=st.integers(1, 5),
       fov=st.one_of(st.just(90.0), st.floats(1.0, 90.0)))
# maxima on both grid edges, which the whole-grid window's ends are
@example(stack=[[3, 0, 1, 0, 1, 0, 3] + [0] * 17], size=7, count=3, fov=90.0)
# maxima on both ends of the window [-30, 30] of a 30 degree grid, refined
# from the neighbours outside it
@example(stack=[[0, 0, 3, 0, 3, 0, 0] + [0] * 17, [0, 0, 3, 2, 1, 3, 0] + [0] * 17],
         size=7, count=2, fov=30.0)
# a window-end maximum whose grid neighbours make a flat-curvature triple
# (1, 2, 4), in a row of fewer maxima than count
@example(stack=[[0, 0, 0, 0, 1, 2, 0] + [0] * 17], size=7, count=2, fov=30.0)
# a window that holds no grid point, for one row and for a stack
@example(stack=[[0] * 24], size=4, count=1, fov=1.0)
@example(stack=[[0] * 24, [1] * 24], size=4, count=2, fov=1.0)
def test_pick_rows_equals_loop_picker_and_pick_peaks(stack, size, count, fov):
    # the stacked picker gives every row what the brute-force picker and
    # pick_peaks give it alone, bit for bit
    grid = np.linspace(-90.0, 90.0, size)
    values = np.array([[_PICK_LEVELS[v] for v in row[:size]] for row in stack])
    window = fov_window(grid, fov)
    got = estimators._pick_rows(grid, values, count, fov, window)
    assert len(got) == len(values)
    for est, row in zip(got, values):
        angles, found = loop_pick(grid, row, count, fov)
        assert _bits(est.angles) == _bits(angles)
        assert est.peaks_found == found and est.filled == (False,) * found
        if window.stop - window.start < count:
            continue
        alone = pick_peaks(Pseudospectrum(grid, row), count, fov)
        assert alone.peaks_found == found
        if found == count:
            assert alone == est and _bits(alone.angles) == _bits(est.angles)
        else:
            picked = [a for a, f in zip(alone.angles, alone.filled) if not f]
            assert _bits(picked) == _bits(est.angles)


@settings(max_examples=200, deadline=None)
@given(levels=st.lists(st.integers(0, 800), min_size=3, max_size=120),
       count=st.integers(1, 6), fov=st.floats(1.0, 90.0),
       scale=st.floats(1e-6, 1e6))
# levels in arithmetic progression make the log spectrum a straight line:
# its computed curvature is rounding noise whose sign scaling can flip
@example(levels=[0, 640, 720, 800], count=1, fov=30.0, scale=2.0)
def test_pick_peaks_invariant_under_positive_scaling(levels, count, fov, scale):
    # a MUSIC spectrum has no absolute level, so scaling it must not change
    # which peaks are picked or filled. Levels 10^(k/100) keep distinct values
    # 2% apart, so no comparison flips under rounding; the parabolic
    # refinement reads log values shifted by log(scale), so refined angles
    # may move at rounding level only.
    grid = np.linspace(-90.0, 90.0, len(levels))
    vals = 10.0 ** (np.asarray(levels) / 100.0)
    window = fov_window(grid, fov)
    assume(window.stop - window.start >= count)
    base = pick_peaks(Pseudospectrum(grid, vals), count, fov)
    scaled = pick_peaks(Pseudospectrum(grid, vals * scale), count, fov)
    assert scaled.filled == base.filled
    assert scaled.peaks_found == base.peaks_found
    assert scaled.angles == pytest.approx(base.angles, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 24), columns=st.integers(3, 400),
       seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-8.0, 3.0))
def test_spectrum_denominator_matches_conjugate_einsum(rows, columns, seed, log_scale):
    # the complex scan sums |E_n^H a|^2 from the squared real and imaginary
    # parts; it must equal the einsum against the conjugate bit for bit, on
    # scans of at least 3 grid points (the smallest Pseudospectrum)
    rng = np.random.default_rng(seed)
    elements = rows + int(rng.integers(1, 4))

    def cnormal(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    noise_vecs = cnormal((elements, rows))
    steering = cnormal((elements, columns)) * 10.0 ** log_scale
    proj = noise_vecs.conj().T @ steering
    denom = np.einsum("ij,ij->j", proj, proj.conj()).real
    expected = 1.0 / np.maximum(denom, estimators._DENOM_FLOOR)
    assert np.array_equal(estimators._spectrum(noise_vecs, steering), expected)


def test_fov_window_bounds():
    grid = azimuth_grid(0.5)
    inner = fov_window(grid, 30.0)
    assert (grid[inner.start], grid[inner.stop - 1]) == (-30.0, 30.0)
    guarded = fov_window(grid, 30.0, guard=1)
    assert (grid[guarded.start], grid[guarded.stop - 1]) == (-30.5, 30.5)
    # off-grid fov: the window ends on the last points inside it
    w = fov_window(grid, 30.2)
    assert (grid[w.start], grid[w.stop - 1]) == (-30.0, 30.0)
    # the guard is clipped at the grid ends, so fov 90 keeps the whole grid
    assert fov_window(grid, 90.0, guard=1) == slice(0, grid.size)


def test_pseudospectrum_validation():
    with pytest.raises(ValueError):
        _spectrum([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        _spectrum([0.0, 1.0, 2.0], [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        _spectrum([0.0, 1.0, 2.0], [1.0, np.inf, 1.0])
    with pytest.raises(ValueError, match="equal-length"):
        _spectrum([0.0, 1.0, 2.0], [1.0, 1.0])


# ----------------------------------------------------------------- coarray

def test_coarray_white_input():
    r = coarray_covariance(np.eye(3, dtype=complex), make_ula(3))
    assert np.allclose(r, np.eye(3) / 3.0, atol=1e-15)


def test_coarray_output_size_is_virtual_aperture():
    r = coarray_covariance(np.eye(8, dtype=complex), make_mra(8))
    assert r.shape == (24, 24)


def test_coarray_single_source_rank_one():
    geom = make_mra(8)
    m = _iso(geom)
    a = steering_vector(m, 0.0)
    rss = coarray_covariance(np.outer(a, a.conj()), geom)
    vals = np.linalg.eigvalsh(rss)
    assert vals[-1] > 0.1
    assert np.max(np.abs(vals[:-1])) < 1e-10 * vals[-1]


def test_coarray_matches_naive_oracle():
    rng = np.random.default_rng(9)
    geom = make_mra(4)
    x = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
    r = sample_covariance(x)
    got = coarray_covariance(r, geom)
    want = naive_coarray_smoothed(r, geom.positions)
    assert np.allclose(got, want, atol=1e-12)
    assert np.array_equal(got, got.conj().T)
    assert np.linalg.eigvalsh(got).min() > -1e-10


def test_coarray_rejects_holey_geometry():
    holey = ArrayGeometry((0, 1, 6))
    with pytest.raises(GeometryError):
        coarray_covariance(np.eye(3, dtype=complex), holey)


def test_coarray_rejects_covariance_of_other_size():
    with pytest.raises(ValueError, match="covariance size 4 != element count 8"):
        coarray_covariance(np.eye(4), make_mra(8))


def test_coarray_music_recovers_source():
    geom = make_mra(8)
    m = _iso(geom)
    sc = SourceScenario((-14.0,), 10.0)
    r = sample_covariance(generate_snapshots(m, sc, 500, 3))
    ps = coarray_music(r, geom, 1)
    est = pick_peaks(ps, 1)
    assert abs(est.angles[0] - (-14.0)) < 0.1


def test_coarray_music_rejects_overflowing_smoothed_covariance():
    # a finite covariance whose smoothed coarray covariance overflows is
    # rejected before the eigendecomposition, not left to fail inside it
    with pytest.raises(ValueError, match="non-finite"):
        coarray_music(np.eye(4) * 1e300, make_mra(4), 2, azimuth_grid(1.0))


def test_coarray_music_overloaded_capacity():
    geom = make_mra(8)
    with pytest.raises(RankError):
        coarray_music(np.eye(8, dtype=complex), geom, 24)
    # 10 > 8 elements is fine against aperture 23
    m = _iso(geom)
    angles = tuple(np.linspace(-54.0, 54.0, 10))
    sc = SourceScenario(angles, 20.0)
    r = sample_covariance(generate_snapshots(m, sc, 2000, 5))
    est = pick_peaks(coarray_music(r, geom, 10), 10)
    assert len(est.angles) == 10


def _centred_steering(aperture, az):
    k = np.arange(aperture + 1) - aperture / 2.0
    return np.exp(-1j * np.pi * k[:, None] * np.sin(np.deg2rad(az))[None, :])


def test_virtual_steering_structure():
    v = virtual_steering(23, np.array([0.0]))
    assert v.shape == (24, 1) and v.dtype == np.float64
    assert np.allclose(v[:12], np.sqrt(2.0)) and np.all(v[12:] == 0.0)
    # an even aperture has a middle row of ones
    v6 = virtual_steering(6, np.array([-40.0, 0.0, 30.0]))
    assert v6.shape == (7, 3)
    assert np.all(v6[3] == 1.0)
    az = np.linspace(-90.0, 90.0, 37)
    for aperture in (1, 2, 3, 6, 23):
        q = _unitary_basis(aperture + 1)
        assert np.allclose(q.conj().T @ q, np.eye(aperture + 1), atol=1e-15)
        assert np.allclose(q @ virtual_steering(aperture, az),
                           _centred_steering(aperture, az), atol=1e-12)


@pytest.mark.parametrize("aperture", [1, 2, 3, 4, 5, 6, 7, 8, 23, 24])
@pytest.mark.parametrize("size", [1, 2, 17, 18001])
def test_virtual_steering_matches_concatenated_rows(aperture, size):
    # the table is written in place; it must be the concatenation of its
    # row blocks bit for bit, for odd and even apertures
    az = np.linspace(-90.0, 90.0, size) if size > 1 else np.array([37.25])
    got = virtual_steering(aperture, az)
    want = concatenated_virtual_steering(aperture, az)
    assert got.shape == want.shape == (aperture + 1, size)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, sources", [("ula3", 1), ("mra4", 4), ("mra8", 10)])
def test_coarray_noise_is_checked_eig_in_unitary_basis(name, sources):
    # coarray_music and the sweep engine share this kernel, so neither can
    # serve as the other's reference: pin it, bit for bit, to hermitian_eig
    # of Re(Q^H R_ss Q), and pin each slice of a stacked call to the call
    # on its covariance alone
    geom = named_geometry(name)
    rng = np.random.default_rng(5)
    rss = []
    for _ in range(4):
        x = rng.standard_normal((geom.element_count, 64)) \
            + 1j * rng.standard_normal((geom.element_count, 64))
        rss.append(coarray_covariance(sample_covariance(x), geom))
    q = _unitary_basis(geom.aperture + 1)
    _, vecs = hermitian_eig((q.conj().T @ rss[0] @ q).real)
    alone = [estimators._coarray_noise(r[None], sources)[0] for r in rss]
    assert np.array_equal(alone[0], vecs[:, :geom.aperture + 1 - sources])
    stacked = estimators._coarray_noise(np.stack(rss), sources)
    assert stacked.shape == (len(rss), geom.aperture + 1, geom.aperture + 1 - sources)
    for got, want in zip(stacked, alone):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, sources", [("ula3", 1), ("mra3", 2),
                                           ("mra4", 4), ("mra8", 10)])
def test_coarray_music_unitary_basis_identity(name, sources):
    # the real-basis spectrum is the complex MUSIC spectrum on the smoothed
    # covariance, scanned with the plain uncentred virtual steering
    geom = named_geometry(name)
    m = geom.aperture
    angles = tuple(np.linspace(-50.0, 50.0, sources)) if sources > 1 else (17.0,)
    sc = SourceScenario(angles, 10.0)
    r = sample_covariance(generate_snapshots(_iso(geom), sc, 2000, 8))
    grid = azimuth_grid(0.05)
    got = coarray_music(r, geom, sources, grid)

    rss = coarray_covariance(r, geom)
    _, vecs = np.linalg.eigh(rss)
    en = vecs[:, : m + 1 - sources]
    k = np.arange(m + 1)
    a = np.exp(-1j * np.pi * k[:, None] * np.sin(np.deg2rad(grid))[None, :])
    want = 1.0 / np.sum(np.abs(en.conj().T @ a) ** 2, axis=0)
    assert np.allclose(got.values, want, rtol=1e-9, atol=0.0)
    p_got, p_want = pick_peaks(got, sources), pick_peaks(Pseudospectrum(grid, want), sources)
    assert np.allclose(p_got.angles, p_want.angles, rtol=0.0, atol=1e-9)
    assert (p_got.filled, p_got.peaks_found) == (p_want.filled, p_want.peaks_found)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from([f"ula{n}" for n in range(2, 17)]
                            + [f"mra{n}" for n in range(2, 9)]),
       seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-3.0, 3.0))
def test_coarray_covariance_property(name, seed, log_scale):
    # random Hermitian input, not necessarily PSD, on any hole-free catalog layout
    geom = named_geometry(name)
    n = geom.element_count
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 10.0 ** log_scale
    r = (x + x.conj().T) / 2.0
    got = coarray_covariance(r, geom)
    assert np.array_equal(got, loop_coarray_smoothed(r, geom.positions))
    want = naive_coarray_smoothed(r, geom.positions)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * max(1.0, np.abs(want).max()))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from([f"ula{n}" for n in range(2, 17)]
                            + [f"mra{n}" for n in range(2, 9)] + ["custom"]),
       trials=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       log_scale=st.floats(-3.0, 308.0))
@example(name="mra8", trials=1, seed=0, log_scale=308.0)
@example(name="mra8", trials=3, seed=1, log_scale=308.0)
@example(name="mra8", trials=600, seed=1, log_scale=0.0)
def test_lag_smoothing_of_a_stack_matches_each_matrix(name, trials, seed, log_scale):
    # a stack of covariances is smoothed in one call, each bit for bit as
    # alone, on every catalog layout and a custom hole-free one, up to scales
    # where the lag products overflow
    geom = ArrayGeometry((0, 1, 2, 5, 8)) if name == "custom" else named_geometry(name)
    n = geom.element_count
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((trials, n, n)) + 1j * rng.standard_normal((trials, n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        r = (x + np.swapaxes(x.conj(), -1, -2)) * (10.0 ** log_scale / 2.0)
        stacked = estimators._lag_smoothing(r, geom)
        alone = np.stack([estimators._lag_smoothing(ri, geom) for ri in r])
        one = estimators._lag_smoothing(r[:1], geom)
    assert stacked.shape == alone.shape == (trials, geom.aperture + 1, geom.aperture + 1)
    assert np.array_equal(stacked, alone, equal_nan=True)
    assert np.array_equal(one, alone[:1], equal_nan=True)


def test_azimuth_grid_defaults():
    g = azimuth_grid()
    assert g.size == 18001
    assert g[0] == -90.0 and g[-1] == 90.0
    with pytest.raises(ValueError):
        azimuth_grid(0.0)


def test_azimuth_grid_needs_three_points():
    # 120 deg is the widest step whose grid holds the 3 points a
    # Pseudospectrum needs, and MIN_STEP_DEG the finest; a step outside
    # [MIN_STEP_DEG, 120], infinite or NaN is rejected, naming it
    assert np.array_equal(azimuth_grid(120.0), [-90.0, 0.0, 90.0])
    assert azimuth_grid(MIN_STEP_DEG).size == 1_800_001
    for step in (200.0, math.inf, math.nan, 120.5, MIN_STEP_DEG / 2):
        with pytest.raises(ValueError, match=f"got {step}"):
            azimuth_grid(step)


# ------------------------------------------------------------ pruned search

def _bumps(size, centres, width=20.0, height=100.0):
    """1 plus a Lorentzian bump per centre; a centre given as (c, left, right)
    has its own half-widths on either side."""
    i = np.arange(size, dtype=float)
    vals = np.ones(size)
    for c in centres:
        c, left, right = c if isinstance(c, tuple) else (c, width, width)
        vals += height / (1.0 + ((i - c) / np.where(i < c, left, right)) ** 2)
    return vals


def _hand_search(grid, vals, fov):
    # a three-row real table whose spectrum under the noise subspace (e1, e2)
    # is exactly 1 / (1 / sqrt(vals))**2; a one-column subspace would always
    # take the full scan
    table = np.vstack((1.0 / np.sqrt(vals), np.zeros((2, vals.size))))
    return estimators._PeakSearch(grid, table, fov), np.eye(3)[:, :2], table


def _scan_grid(fov, step=0.1):
    """The block-aligned slice of azimuth_grid(step) that the trial engine
    scans for a +-fov window."""
    full = azimuth_grid(step)
    return full[estimators._scan_slice(full, fov)]


def test_scan_slice_is_block_aligned_and_covers_the_guarded_window():
    for step, fov in [(0.01, 30.0), (0.013, 45.5), (0.1, 89.0), (0.01, 90.0), (0.5, 5.0)]:
        full = azimuth_grid(step)
        cut = estimators._scan_slice(full, fov)
        window = fov_window(full, fov, guard=1)
        assert cut.start % 16 == 0 and (cut.stop % 16 == 0 or cut.stop == full.size)
        assert cut.start <= window.start and window.stop <= cut.stop
        assert cut.start > window.start - 16 and cut.stop < window.stop + 16


def _matches_full_scan(spectrum, full, count, fov):
    """The estimates pick_peaks takes from a spectrum the search gave,
    checked equal to its pick on the full scan; a certified compact
    spectrum must also hold the full scan's values at each of its columns,
    and give its attached pick from those values alone (loop_pick)."""
    got = pick_peaks(spectrum, count, fov)
    assert got == pick_peaks(full, count, fov)
    assert evaluated_values_equal(spectrum, full)
    certified = spectrum.grid.size < full.grid.size
    assert (spectrum._pick is not None) == certified
    if certified:
        assert loop_pick(spectrum.grid, spectrum.values, count, fov) == (got.angles, count)
    return got


def _pruned_and_full(vals, count, fov=89.0, grid=None):
    """The estimates picked from the pruned search's spectrum, checked
    against the full spectrum, and whether the search returned the full
    scan."""
    grid = _scan_grid(fov) if grid is None else grid
    search, en, table = _hand_search(grid, vals, fov)
    full = Pseudospectrum(grid, estimators._spectrum(en, table))
    [spectrum] = search.spectra(en[None], count)
    return _matches_full_scan(spectrum, full, count, fov), int(spectrum.grid.size == grid.size)


@pytest.mark.parametrize("count, picked", [(1, [600]), (3, [10, 600, 1200])])
def test_pruned_search_breaks_ties_as_pick_peaks(count, picked):
    # four maxima of exactly equal value: interior maxima win by index, then
    # the window start (-89 deg), then the window end (+89 deg)
    grid = _scan_grid(89.0)
    vals = _bumps(grid.size, [10, 600, 1200, 1790])
    vals[[10, 600, 1200, 1790]] = 1000.0
    est, fallbacks = _pruned_and_full(vals, count)
    assert fallbacks == 0
    assert np.allclose(est.angles, grid[picked], atol=0.05)


def test_pruned_search_maximum_on_block_edge():
    # two peaks on block edges that fall off within a column on that side,
    # so the block beyond is evaluated only as a neighbour, and two broad
    # bumps whose blocks come before and after them in the gather
    vals = _bumps(1792, [(16 * 30, 0.5, 20.0), (16 * 50 + 15, 20.0, 0.5)])
    vals += _bumps(1792, [16 * 10 + 8, 16 * 70 + 8], height=50.0) - 1.0
    est, fallbacks = _pruned_and_full(vals, 4)
    assert fallbacks == 0
    assert est.peaks_found == 4


@pytest.mark.parametrize("outside", [0, 3])
def test_pruned_search_maxima_on_window_endpoints(outside):
    # a +-45 deg window inside a block-aligned scan with one guard point per
    # side; bumps centred on the window ends, or beyond them so that the
    # guard point outranks the end and the refinement clips
    grid = _scan_grid(45.0)
    window = fov_window(grid, 45.0)
    vals = _bumps(grid.size, [window.start - outside, window.stop - 1 + outside])
    est, fallbacks = _pruned_and_full(vals, 2, fov=45.0)
    assert fallbacks == 0
    if outside:
        assert est.angles == (-45.0, 45.0)


def test_pruned_search_leaves_partial_last_block_to_full_scan(monkeypatch):
    # 18,001 columns: the last block holds only +90 deg. BLAS's real
    # small-matrix kernel rounds a product's last columns differently from
    # the full-size product, so a peak there is found by the full scan, and
    # every value the search evaluates before it equals the full scan's. The
    # highest bump has a flat top, so the first round keeps only whole
    # blocks and does not certify; the picks double until they reach the
    # +90 deg peak
    grid = azimuth_grid(0.01)
    assert grid.size % 16 == 1
    vals = _flat_topped(grid.size, 16 * 250 + 8, 16 * 562 + 8, grid.size - 1)
    q = np.linalg.qr(np.random.default_rng(5).normal(size=(16, 16)))[0]
    table = q @ np.vstack((1.0 / np.sqrt(vals), np.zeros((15, grid.size))))
    en = q[:, :12]
    full = Pseudospectrum(grid, estimators._spectrum(en, table))
    compacts = []
    compact = estimators._PeakSearch._compact

    def recording_compact(self, noise, blocks):
        compacts.append((blocks, *compact(self, noise, blocks)))
        return compacts[-1][1:]

    monkeypatch.setattr(estimators._PeakSearch, "_compact", recording_compact)
    [got] = estimators._PeakSearch(grid, table, 90.0).spectra(en[None], 2)
    monkeypatch.undo()
    assert got.grid.size == grid.size
    est = pick_peaks(got, 2)
    assert est == pick_peaks(full, 2)
    assert 90.0 in est.angles
    assert compacts
    for blocks, cgrid, values in compacts:
        assert blocks[-1] < grid.size // 16
        assert evaluated_values_equal(Pseudospectrum(cgrid, values[0]), full)


def test_pruned_search_ignores_maxima_where_kept_runs_meet(monkeypatch):
    # a narrow flat-topped bump (no strict maximum) and a narrow peak are
    # picked first; the block right of the flat top rises toward a broad,
    # lower peak two blocks on, so where its run meets the next kept run its
    # last column is a strict maximum of the compact spectrum only. It lies
    # below the bound of the broad peak's unpicked block, so the first round
    # does not certify, and the broad peak is found after doubling
    flat, narrow, edge = 16 * 20 + 8, 16 * 80 + 8, 16 * 22 - 1
    vals = _bumps(1792, [(flat, 3.0, 3.0), (narrow, 5.0, 5.0)])
    vals += _bumps(1792, [edge + 24], height=30.0) - 1.0
    vals[[flat - 1, flat + 1]] = vals[flat]
    rounds = _count_rounds(monkeypatch)
    est, fallbacks = _pruned_and_full(vals, 2)
    assert fallbacks == 0 and len(rounds) > 1
    grid = _scan_grid(89.0)
    assert np.allclose(est.angles, grid[[edge + 24, narrow]], atol=0.05)


def _count_rounds(monkeypatch):
    """A list that gains one entry per evaluated set of blocks."""
    rounds = []
    original = estimators._PeakSearch._compact

    def counting(self, ens, kept):
        rounds.append((ens, kept))
        return original(self, ens, kept)

    monkeypatch.setattr(estimators._PeakSearch, "_compact", counting)
    return rounds


def test_pruned_search_certifies_after_doubling(monkeypatch):
    # the highest bump has a flat top, so it holds no strict maximum: the
    # first blocks picked show only one maximum, and the picked set doubles
    # until the third bump's block is in it
    vals = _bumps(1792, [400, 900, 1400], height=100.0)
    vals[400] += 5.0
    vals[[399, 401]] = vals[400]
    vals[1300:1501] = _bumps(1792, [1400], height=40.0)[1300:1501] + 1.0
    rounds = _count_rounds(monkeypatch)
    _, fallbacks = _pruned_and_full(vals, 2)
    assert fallbacks == 0
    assert len(rounds) > 1


def test_pruned_search_falls_back_to_fill():
    # a monotone spectrum holds one maximum; the second estimate is filled
    # from the largest leftover values, which needs the whole window
    est, fallbacks = _pruned_and_full(np.linspace(1.0, 2.0, 1792), 2)
    assert fallbacks == 1
    assert est.fill_count == 1


def test_pruned_search_falls_back_when_most_blocks_qualify():
    # a ripple with a maximum in nearly every block leaves no block that
    # its bound can rule out
    i = np.arange(1792)
    _, fallbacks = _pruned_and_full(2.0 + np.sin(2 * np.pi * i / 19.0), 1)
    assert fallbacks == 1


def test_pruned_search_bound_holds_where_it_is_tight():
    # columns that are positive multiples of the noise vector make the
    # triangle inequality an equality, so only the slack keeps every
    # computed value at or below its block's bound
    grid = azimuth_grid(0.01)
    rng = np.random.default_rng(3)
    en = np.linalg.qr(rng.normal(size=(6, 2)))[0]
    scale = rng.uniform(0.2, 1.0, grid.size)
    # a block whose smallest column nearly vanishes leaves a bound far
    # below the roundings of s_b and r_b
    every_other = np.arange(0, grid.size - 16, 32)
    scale[every_other + rng.integers(0, 16, every_other.size)] = 1e-8
    table = np.outer(en[:, 0], scale)
    search = estimators._PeakSearch(grid, table, 90.0)
    _, bound = search._bounds(en)
    vals = estimators._spectrum(en, table)
    block_max = np.maximum.reduceat(vals, np.arange(0, grid.size, 16))
    assert np.all(block_max <= bound)


# ------------------------------------------------- pruned search of a chunk

@settings(max_examples=100, deadline=None)
@given(trials=st.integers(1, 200), columns=st.integers(2, 14), extra=st.integers(1, 10),
       size=st.integers(1, 120), real=st.booleans(), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_grouped_denominators_match_one_product(trials, columns, extra, size, real, data,
                                                seed):
    # the search's bound and union products run in groups of rows under a
    # byte cap; every row must equal one product of the whole stack bit for
    # bit, on real (coarray) and complex (element) tables
    rng = np.random.default_rng(seed)
    rows = columns + extra

    def draw(shape):
        x = rng.standard_normal(shape)
        return x if real else x + 1j * rng.standard_normal(shape)

    ens = np.linalg.qr(draw((trials, rows, columns)))[0]
    table = draw((rows, size))
    expected = estimators._denominators(ens, table)
    group = data.draw(st.integers(1, trials))
    row_bytes = columns * size * np.result_type(ens, table).itemsize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_CHUNK_BYTES", 2 * group * row_bytes)
        calls = []
        denominators = estimators._denominators
        mp.setattr(estimators, "_denominators",
                   lambda e, t: calls.append(len(e)) or denominators(e, t))
        got = estimators._grouped_denominators(ens, table)
    assert calls == [min(group, trials - i) for i in range(0, trials, group)]
    assert got.shape == (trials, size) and got.dtype == float
    assert np.array_equal(got, expected)

def _stacked_hand_search(grid, rows, fov):
    # _hand_search for a chunk: row i of the table is 1 / sqrt(rows[i]) over
    # a zero row, and the i-th noise subspace is (e_i, e_zero), so that its
    # spectrum is exactly 1 / (1 / sqrt(rows[i]))**2. Every subspace shares
    # the one table, as the trials of a sweep point do
    b = len(rows)
    table = np.vstack((1.0 / np.sqrt(np.asarray(rows)), np.zeros((1, grid.size))))
    ens = np.stack([np.eye(b + 1)[:, [i, b]] for i in range(b)])
    return estimators._PeakSearch(grid, table, fov), ens, table


def _chunk_matches_full_scans(grid, rows, count, fov):
    """Checks, row by row, that the spectra the search gives a chunk pick
    what the full scans pick and hold their values; returns which rows took
    the full scan."""
    search, ens, table = _stacked_hand_search(grid, rows, fov)
    spectra = list(search.spectra(ens, count))
    assert len(spectra) == len(rows)
    for spectrum, en in zip(spectra, ens):
        _matches_full_scan(spectrum, Pseudospectrum(grid, estimators._spectrum(en, table)),
                           count, fov)
    return [spectrum.grid.size == grid.size for spectrum in spectra]


def test_pruned_search_scans_each_fallback_when_its_row_is_reached(monkeypatch):
    # monotone rows hold one maximum, fewer than count, so every row takes
    # the full scan; each one is computed only when its spectrum is taken
    grid = _scan_grid(90.0)
    rows = [np.linspace(1.0, 2.0 + i, grid.size)[::(-1) ** i] for i in range(4)]
    search, ens, table = _stacked_hand_search(grid, rows, 90.0)
    scans = []
    spectrum = estimators._spectrum

    def counted(en, steering):
        if steering is table:
            scans.append(en)
        return spectrum(en, steering)

    monkeypatch.setattr(estimators, "_spectrum", counted)
    spectra = search.spectra(ens, 2)
    assert next(spectra).grid.size == grid.size
    assert len(scans) == 1
    assert len(list(spectra)) == len(rows) - 1
    assert len(scans) == len(rows)


def _flat_topped(size, top, second, third):
    """Bumps of height 105, 100 and 40, the highest with a flat top of three
    equal values and so no strict maximum."""
    vals = _bumps(size, [top, second]) + _bumps(size, [third], height=40.0) - 1.0
    vals[top] += 5.0
    vals[[top - 1, top + 1]] = vals[top]
    return vals


def _ripple(size, lo, hi, amplitude=1.0, period=19.0):
    """1, with a sine ripple of a maximum in about every block over [lo, hi)."""
    vals = np.ones(size)
    vals[lo:hi] += amplitude * (1.0 + np.sin(2 * np.pi * np.arange(lo, hi) / period))
    return vals


def test_pruned_search_certifies_a_mixed_chunk(monkeypatch):
    # one chunk on an 1801-column grid whose last block holds 9 columns:
    # narrow peaks, a flat-topped bump whose picks must double, a monotone
    # spectrum with one maximum, a peak on the partial last block, and a
    # ripple over 40 blocks. The first round evaluates the union of three
    # rows' kept blocks, more than half the window's 113, and certifies
    # two; the flat-topped row alone takes a second round; the monotone row
    # and the one peaking on the partial block take the full scan
    grid = azimuth_grid(0.1)
    size = grid.size
    assert size % 16 == 9
    rows = [_bumps(size, [300, 900], width=3.0, height=60.0),
            _flat_topped(size, 200, 450, 700),
            np.linspace(1.0, 2.0, size),
            _bumps(size, [700, size - 1], width=5.0, height=1.0),
            _ripple(size, 1760 - 16 * 40, 1760)]
    rounds = _count_rounds(monkeypatch)
    fallbacks = _chunk_matches_full_scans(grid, rows, 2, 90.0)
    assert fallbacks == [False, False, True, True, False]
    (ens, union), (again, _) = rounds
    assert len(ens) == 3 and 2 * union.size > -(-size // 16)
    assert len(again) == 1


@st.composite
def _chunk_row(draw, size):
    """The spectrum of one trial of a chunk: bumps, a flat-topped bump that
    needs doubling, a monotone spectrum, a peak on the table's last column,
    or a ripple."""
    kind = draw(st.sampled_from(["bumps", "flat top", "monotone", "last", "ripple"]))
    spot = st.integers(2, size - 3)
    if kind == "bumps":
        centres = draw(st.lists(spot, min_size=1, max_size=4, unique=True))
        return _bumps(size, centres, draw(st.floats(1.0, 40.0)), draw(st.floats(0.5, 300.0)))
    if kind == "flat top":
        return _flat_topped(size, *draw(st.lists(spot, min_size=3, max_size=3, unique=True)))
    if kind == "monotone":
        return np.linspace(1.0, 2.0, size)[::draw(st.sampled_from([1, -1]))]
    if kind == "last":
        return _bumps(size, [draw(spot), size - 1], draw(st.floats(1.0, 40.0)))
    lo = draw(st.integers(0, size - 32))
    return _ripple(size, lo, draw(st.integers(lo + 16, size)),
                   draw(st.floats(0.1, 10.0)), draw(st.floats(5.0, 60.0)))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), scan=st.sampled_from([(0.1, 90.0), (0.1, 45.0), (0.05, 30.0)]),
       count=st.integers(1, 3), trials=st.integers(1, 6))
def test_pruned_search_of_a_chunk_matches_full_scans(data, scan, count, trials):
    # a chunk mixes rows that certify at once, rows whose picks double, rows
    # that take the full scan (too few maxima, most blocks qualifying, a
    # peak on the partial last block of the 1801-column grid at fov 90) and
    # unions past half the window; every row's spectrum picks what its full
    # scan picks
    step, fov = scan
    grid = _scan_grid(fov, step)
    rows = [data.draw(_chunk_row(grid.size)) for _ in range(trials)]
    _chunk_matches_full_scans(grid, rows, count, fov)

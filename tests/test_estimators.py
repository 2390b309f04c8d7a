import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from doasim import estimators
from doasim.estimators import (DoaEstimateSet, Pseudospectrum, RankError,
                               azimuth_grid, coarray_covariance, coarray_music,
                               fov_window, fov_window_size, hermitian_eig,
                               music_pseudospectrum, pick_peaks, virtual_steering,
                               _unitary_basis)
from doasim.geometry import (ArrayGeometry, GeometryError, make_mra, make_ula,
                             named_geometry)
from doasim.manifold import (SourceScenario, generate_snapshots, make_manifold,
                             sample_covariance, steering_matrix, steering_vector)
from doasim.patterns import make_isotropic, make_patch

from oracles import loop_coarray_smoothed, naive_coarray_smoothed


def _iso(geometry):
    return make_manifold(geometry, make_isotropic())


# ------------------------------------------------------------------- eigen

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
    grid = azimuth_grid(0.5, 10.0)
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


@settings(max_examples=200, deadline=None)
@given(levels=st.lists(st.integers(0, 800), min_size=3, max_size=120),
       count=st.integers(1, 6), fov=st.floats(1.0, 90.0),
       scale=st.floats(1e-6, 1e6))
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
    assert fov_window_size(0.5, 30.0) == 121
    assert fov_window_size(25.0, 10.0) == 0


def test_pseudospectrum_validation():
    with pytest.raises(ValueError):
        _spectrum([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        _spectrum([0.0, 1.0, 2.0], [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        _spectrum([0.0, 1.0, 2.0], [1.0, np.inf, 1.0])


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


def test_coarray_music_recovers_source():
    geom = make_mra(8)
    m = _iso(geom)
    sc = SourceScenario((-14.0,), 10.0)
    r = sample_covariance(generate_snapshots(m, sc, 500, 3))
    ps = coarray_music(r, geom, 1)
    est = pick_peaks(ps, 1)
    assert abs(est.angles[0] - (-14.0)) < 0.1


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


def test_azimuth_grid_defaults():
    g = azimuth_grid()
    assert g.size == 18001
    assert g[0] == -90.0 and g[-1] == 90.0
    with pytest.raises(ValueError):
        azimuth_grid(0.0)
    with pytest.raises(ValueError):
        azimuth_grid(0.01, 120.0)

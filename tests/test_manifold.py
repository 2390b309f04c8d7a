import numpy as np
import pytest

from doasim.geometry import make_mra, make_ula
from doasim.manifold import (ArrayManifold, CouplingError, SourceScenario, _synthesize,
                             apply_coupling_model, generate_snapshots, make_manifold,
                             sample_covariance, steering_matrix, steering_vector)
from doasim.patterns import make_dipole_ref, make_isotropic, make_patch

from oracles import complex_synthesize


def _iso(geometry):
    return make_manifold(geometry, make_isotropic())


def test_steering_broadside_is_ones():
    a = steering_vector(_iso(make_ula(2)), 0.0)
    assert np.allclose(a, [1.0, 1.0], atol=1e-15)


def test_steering_half_wavelength_at_30deg():
    # sin 30 = 1/2: second element lags by pi/2, i.e. multiplies by -j
    a = steering_vector(_iso(make_ula(2)), 30.0)
    assert abs(a[0] - 1.0) < 1e-12
    assert abs(a[1] - (-1.0j)) < 1e-12


def test_steering_scales_with_element_gain():
    geom = make_ula(4)
    iso = steering_vector(_iso(geom), 17.0)
    dip = steering_vector(make_manifold(geom, make_dipole_ref()), 17.0)
    assert np.allclose(dip, 10.0 ** (2.15 / 20.0) * iso, atol=1e-12)


def test_isotropic_steering_norm():
    m = _iso(make_mra(8))
    for az in np.linspace(-89.0, 89.0, 41):
        a = steering_vector(m, az)
        assert abs(np.vdot(a, a).real - 8.0) < 1e-12


def test_steering_continuity():
    m = make_manifold(make_mra(8), make_patch())
    a0 = steering_vector(m, 20.0)
    a1 = steering_vector(m, 20.0 + 1e-7)
    assert np.max(np.abs(a1 - a0)) < 1e-5


def test_steering_matrix_matches_vectors():
    m = make_manifold(make_ula(4), make_patch())
    az = np.array([-40.0, 0.0, 10.0])
    big = steering_matrix(m, az)
    for k, a in enumerate(az):
        assert np.array_equal(big[:, k], steering_vector(m, a))


def test_coupling_matrix_entries():
    m = apply_coupling_model(_iso(make_ula(3)), 0.3, 0.5)
    expect = np.array([[1.0, 0.3, 0.15],
                       [0.3, 1.0, 0.3],
                       [0.15, 0.3, 1.0]])
    assert np.allclose(m.coupling, expect, atol=1e-15)


def test_zero_coupling_is_identity():
    base = _iso(make_mra(8))
    m = apply_coupling_model(base, 0.0, 0.5)
    assert m.coupling is None
    az = np.linspace(-80.0, 80.0, 7)
    assert np.array_equal(steering_matrix(m, az), steering_matrix(base, az))


def test_coupling_validation():
    base = _iso(make_ula(3))
    with pytest.raises(ValueError):
        apply_coupling_model(base, 1.0, 0.5)
    with pytest.raises(ValueError):
        apply_coupling_model(base, 0.3, 0.0)
    with pytest.raises(ValueError):
        apply_coupling_model(base, 0.3, 1.0)


@pytest.mark.parametrize("c1, decay, param", [
    (float("nan"), 0.5, "c1"), (complex(float("nan"), 0.0), 0.5, "c1"),
    (float("inf"), 0.5, "c1"), (1.5, 0.5, "c1"), (0.3, float("nan"), "decay"),
    (0.0, float("inf"), "decay"), (0.0, 0.0, "decay")])
def test_coupling_rejects_non_finite_and_names_it(c1, decay, param):
    # the one owner of the coupling ranges: a NaN c1 fails the range test,
    # not the reciprocity check, and the error names the parameter
    with pytest.raises(CouplingError, match=param) as info:
        apply_coupling_model(_iso(make_ula(3)), c1, decay)
    assert info.value.param == param


def test_sparse_layout_couples_less():
    # MRA spreads elements wider, so off-diagonal coupling energy drops
    def energy(geometry):
        c = apply_coupling_model(_iso(geometry), 0.3, 0.5).coupling
        off = np.abs(c - np.diag(np.diag(c))) ** 2
        n = geometry.element_count
        return off.sum() / (n * (n - 1))

    assert energy(make_mra(8)) < energy(make_ula(8))


def test_manifold_validation():
    geom = make_ula(3)
    iso = make_isotropic()
    with pytest.raises(ValueError):
        ArrayManifold(geom, (iso, iso))
    bad = np.eye(3, dtype=complex)
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(ValueError):
        ArrayManifold(geom, (iso,) * 3, bad)
    bad2 = np.eye(3, dtype=complex) * 2.0
    with pytest.raises(ValueError):
        ArrayManifold(geom, (iso,) * 3, bad2)
    with pytest.raises(ValueError, match=r"coupling must be 3x3, got \(2, 2\)"):
        ArrayManifold(geom, (iso,) * 3, np.eye(2, dtype=complex))


def test_scenario_validation():
    with pytest.raises(ValueError):
        SourceScenario(())
    with pytest.raises(ValueError):
        SourceScenario((0.0, 0.0))
    with pytest.raises(ValueError):
        SourceScenario((0.0, 95.0))
    # one SNR that every source shares, stored as a float
    with pytest.raises(TypeError):
        SourceScenario((0.0, 10.0), (0.0, 6.0))
    s = SourceScenario((-10.0, 10.0), -5)
    assert s.snr_db == -5.0 and isinstance(s.snr_db, float)
    assert s.per_source_snr_db == (-5.0, -5.0)


def test_snapshots_shape_and_determinism():
    m = _iso(make_ula(8))
    sc = SourceScenario((-10.0, 10.0), -5.0)
    a = generate_snapshots(m, sc, 50, 1234)
    b = generate_snapshots(m, sc, 50, 1234)
    c = generate_snapshots(m, sc, 50, 999)
    assert a.shape == (8, 50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        generate_snapshots(m, sc, 0, 1)


@pytest.mark.parametrize("stack, n, l, t", [((), 8, 2, 50), ((), 4, 6, 1), ((), 3, 1, 1),
                                             ((5,), 8, 2, 50), ((3,), 8, 10, 1024),
                                             ((2, 2), 4, 6, 1)])
@pytest.mark.parametrize("stacked_steering", [False, True])
def test_synthesize_matches_complex_arithmetic(stack, n, l, t, stacked_steering):
    # the in-place kernel fills real and imaginary parts separately; its
    # snapshots must be those of the complex arithmetic bit for bit, for one
    # trial or a stack, with more sources than elements and a single
    # snapshot, and it must leave its draws untouched
    rng = np.random.default_rng(n * 1000 + l * 10 + t)
    shape = (*stack, n, l) if stacked_steering else (n, l)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    snr = rng.uniform(-40.0, 40.0, l)
    sr, nr = rng.standard_normal((*stack, 2, l, t)), rng.standard_normal((*stack, 2, n, t))
    draws = sr.copy(), nr.copy()
    got = _synthesize(a, snr, sr, nr)
    want = complex_synthesize(a, snr, sr, nr)
    assert got.shape == want.shape == (*stack, n, t) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(sr, draws[0]) and np.array_equal(nr, draws[1])


def test_element_snr_convention():
    # -5 dB source on an isotropic element: signal power adds 10**-0.5 on
    # top of unit noise power
    m = _iso(make_ula(2))
    sc = SourceScenario((12.0,), -5.0)
    x = generate_snapshots(m, sc, 1_000_000, 7)
    power = float(np.mean(np.abs(x) ** 2))
    signal = 10.0 ** (-0.5)
    assert abs(power - 1.0 - signal) < 0.01 * signal


def test_sample_covariance_single_snapshot():
    r = sample_covariance(np.array([[1.0], [1.0j]]))
    assert np.array_equal(r, np.array([[1.0, -1.0j], [1.0j, 1.0]]))


def test_pure_noise_covariance_converges_to_identity():
    m = _iso(make_ula(4))
    rng = np.random.default_rng(21)
    noise = (rng.standard_normal((4, 1_000_000))
             + 1j * rng.standard_normal((4, 1_000_000))) / np.sqrt(2.0)
    r = sample_covariance(noise)
    assert np.max(np.abs(r - np.eye(4))) < 0.01


def test_covariance_matches_model():
    # R -> A diag(p) A^H + I as T grows
    geom = make_ula(8)
    m = _iso(geom)
    sc = SourceScenario((-10.0, 10.0), -5.0)
    r = sample_covariance(generate_snapshots(m, sc, 100_000, 3))
    a = steering_matrix(m, np.array(sc.angles))
    p = 10.0 ** (np.asarray(sc.per_source_snr_db) / 10.0)
    model = a @ np.diag(p) @ a.conj().T + np.eye(8)
    assert np.max(np.abs(r - model)) <= 0.05


def test_covariance_is_hermitian_psd():
    m = make_manifold(make_mra(8), make_patch())
    sc = SourceScenario((-20.0, 5.0, 40.0), 0.0)
    r = sample_covariance(generate_snapshots(m, sc, 64, 17))
    assert np.array_equal(r, r.conj().T)
    assert np.linalg.eigvalsh(r).min() > -1e-12


def test_covariance_input_validation():
    with pytest.raises(ValueError):
        sample_covariance(np.zeros((4, 0)))
    with pytest.raises(ValueError):
        sample_covariance(np.zeros(4))

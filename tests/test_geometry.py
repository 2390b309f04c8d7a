import pytest

from doasim.geometry import (ArrayGeometry, GeometryError, difference_coarray,
                             is_perfect, make_mra, make_ula, named_geometry)

from oracles import exhaustive_mra


def test_ula8_layout():
    g = make_ula(8)
    assert g.positions == tuple(range(8))
    assert g.element_count == 8
    assert g.aperture == 7
    assert g.name == "ula8"


def test_ula_coarray_weights():
    ca = difference_coarray(make_ula(8))
    assert ca.lags == tuple(range(-7, 8))
    assert ca.weight(0) == 8
    assert ca.weight(1) == 7
    assert ca.weight(7) == 1
    assert ca.weight(8) == 0


def test_mra8_catalog_entry():
    g = make_mra(8)
    assert g.aperture == 23
    assert g.element_count == 8
    assert is_perfect(g)


def test_single_wide_pair_has_holes():
    g = ArrayGeometry((0, 5))
    ca = difference_coarray(g)
    assert ca.lags == (-5, 0, 5)
    assert not is_perfect(g)


@pytest.mark.parametrize("n", range(2, 11))
def test_ula_is_perfect(n):
    assert is_perfect(make_ula(n))


@pytest.mark.parametrize("n", range(2, 9))
def test_weights_sum_to_n_squared(n):
    ca = difference_coarray(make_mra(n))
    assert sum(ca.weights.values()) == n * n


@pytest.mark.parametrize("n", range(2, 9))
def test_weights_symmetric(n):
    ca = difference_coarray(make_mra(n))
    for m in ca.lags:
        assert ca.weight(m) == ca.weight(-m)


@pytest.mark.parametrize("n", range(2, 9))
def test_mra_beats_or_matches_ula_aperture(n):
    assert make_mra(n).aperture >= make_ula(n).aperture


@pytest.mark.parametrize("n", range(2, 9))
def test_mra_catalog_matches_exhaustive_search(n):
    # independent exhaustive search: maximal hole-free aperture and the
    # lexicographically smallest layout achieving it
    aperture, positions = exhaustive_mra(n)
    g = make_mra(n)
    assert g.aperture == aperture
    assert g.positions == positions
    assert is_perfect(g)


@pytest.mark.parametrize("bad", [(), (0,), (0, 0, 1), (0, 2, 1), (1, 2, 3),
                                 (0, -1, 2), (0, 1.5, 3),
                                 # past 2**53, where floats stop holding every integer
                                 (0, 1, 2**53 + 1), (0, 1, 10**400),
                                 # int() of these raises its own errors
                                 (0, 1, float("inf")), (0, 1, float("nan"))])
def test_invalid_positions_rejected(bad):
    with pytest.raises(GeometryError):
        ArrayGeometry(bad)


def test_unsupported_sizes_rejected():
    with pytest.raises(GeometryError):
        make_mra(1)
    with pytest.raises(GeometryError):
        make_mra(9)
    with pytest.raises(GeometryError):
        make_ula(1)


def test_named_geometry_resolution():
    assert named_geometry("ula8").positions == tuple(range(8))
    assert named_geometry("mra4").positions == (0, 1, 4, 6)
    custom = named_geometry([0, 1, 4, 6])
    assert custom.positions == (0, 1, 4, 6)
    assert custom.name == "custom"
    with pytest.raises(GeometryError):
        named_geometry("ula")
    with pytest.raises(GeometryError):
        named_geometry("nested7")
    with pytest.raises(GeometryError):
        named_geometry(3.5)

"""Linear array geometries on the half-wavelength integer grid.

Element positions are integers in units of lambda/2, anchored at 0.
Sparse layouts are compared through their difference coarray: the set of
pairwise position differences, which sets the virtual aperture available
to coarray-domain estimators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


class GeometryError(ValueError):
    """Invalid or unsupported array layout."""


# Minimum redundancy arrays, exhaustively verified: for each size the
# hole-free layout of maximal aperture, lexicographically smallest among
# all such layouts. Keyed by element count.
_MRA_CATALOG: dict[int, tuple[int, ...]] = {
    2: (0, 1),
    3: (0, 1, 3),
    4: (0, 1, 4, 6),
    5: (0, 1, 2, 6, 9),
    6: (0, 1, 2, 6, 10, 13),
    7: (0, 1, 2, 3, 8, 13, 17),
    8: (0, 1, 2, 11, 15, 18, 21, 23),
}


@dataclass(frozen=True)
class ArrayGeometry:
    """Immutable linear array: strictly increasing integer positions from 0."""

    positions: tuple[int, ...]
    name: str = "custom"

    def __post_init__(self):
        # int() raises a bare OverflowError on an infinity, ValueError on NaN
        if any(p != p or p in (math.inf, -math.inf) for p in self.positions):
            raise GeometryError(f"positions must be finite, got {self.positions!r}")
        pos = tuple(int(p) for p in self.positions)
        if any(p != q for p, q in zip(pos, self.positions)):
            raise GeometryError(f"positions must be integers, got {self.positions!r}")
        object.__setattr__(self, "positions", pos)
        if len(pos) < 2:
            raise GeometryError("need at least 2 elements")
        # phases are computed in floats, which hold every integer only to 2**53
        big = next((p for p in pos if abs(p) > 2**53), None)
        if big is not None:
            raise GeometryError(f"positions must be at most 2**53, got a "
                                f"{big.bit_length()}-bit one")
        if pos[0] != 0:
            raise GeometryError(f"first position must be 0, got {pos[0]}")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise GeometryError(f"positions must be strictly increasing: {pos}")

    @property
    def element_count(self) -> int:
        return len(self.positions)

    @property
    def aperture(self) -> int:
        """Span in half-wavelength units (largest position)."""
        return self.positions[-1]


@dataclass(frozen=True)
class Coarray:
    """Difference coarray: sorted lags and their multiplicities."""

    lags: tuple[int, ...]
    weights: dict[int, int] = field(compare=False)

    def weight(self, lag: int) -> int:
        """Number of element pairs at the given lag (0 if absent)."""
        return self.weights.get(lag, 0)


def make_ula(n: int) -> ArrayGeometry:
    """Uniform linear array at half-wavelength pitch: positions 0..n-1."""
    if n < 2:
        raise GeometryError(f"ULA needs n >= 2, got {n}")
    return ArrayGeometry(tuple(range(n)), name=f"ula{n}")


def make_mra(n: int) -> ArrayGeometry:
    """Minimum redundancy array from the verified catalog (n in 2..8)."""
    try:
        pos = _MRA_CATALOG[n]
    except (KeyError, TypeError):
        raise GeometryError(f"MRA catalog covers sizes 2..8, got {n!r}") from None
    return ArrayGeometry(pos, name=f"mra{n}")


def difference_coarray(geometry: ArrayGeometry) -> Coarray:
    """All pairwise position differences p_i - p_j with multiplicities."""
    weights: dict[int, int] = {}
    for pi in geometry.positions:
        for pj in geometry.positions:
            lag = pi - pj
            weights[lag] = weights.get(lag, 0) + 1
    return Coarray(lags=tuple(sorted(weights)), weights=weights)


def is_perfect(geometry: ArrayGeometry) -> bool:
    """True when the coarray is hole-free: every lag in -A..A is present."""
    ca = difference_coarray(geometry)
    return all(m in ca.weights for m in range(geometry.aperture + 1))


def named_geometry(spec) -> ArrayGeometry:
    """Resolve a config geometry value: 'ula8', 'mra8', or explicit positions.

    Accepts a name string or a sequence of integer positions.
    """
    if isinstance(spec, str):
        s = spec.strip().lower()
        for prefix, maker in (("ula", make_ula), ("mra", make_mra)):
            if s.startswith(prefix) and s[len(prefix):].isdigit():
                return maker(int(s[len(prefix):]))
        raise GeometryError(f"unknown geometry name {spec!r} (expected ulaN or mraN)")
    if isinstance(spec, (list, tuple)):
        return ArrayGeometry(tuple(spec), name="custom")
    raise GeometryError(f"geometry must be a name or position list, got {type(spec).__name__}")

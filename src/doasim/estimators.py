"""Subspace direction estimators over a dense azimuth grid.

The element-space path runs MUSIC against the physical manifold; the
coarray path averages the covariance over difference-coarray lags to form
a smoothed virtual-array covariance whose aperture, not the element count,
bounds how many sources can be resolved. Estimation always uses the
nominal manifold a caller passes in; any mismatch lives in the data.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, GeometryError, is_perfect
from .manifold import ArrayManifold, steering_matrix

# spectrum denominators are clamped here before inversion
_DENOM_FLOOR = 1e-300
# grid points this far outside +-fov still belong to the pick window
_FOV_TOL = 1e-12


class RankError(ValueError):
    """Source count incompatible with the available (virtual) aperture."""


def azimuth_grid(step_deg: float = 0.01, fov_deg: float = 90.0) -> np.ndarray:
    """Uniform scan grid over [-fov, +fov] degrees."""
    if step_deg <= 0 or fov_deg <= 0 or fov_deg > 90:
        raise ValueError(f"bad grid spec: step {step_deg}, fov {fov_deg}")
    return np.linspace(-fov_deg, fov_deg, round(2.0 * fov_deg / step_deg) + 1)


def fov_window(grid: np.ndarray, fov_deg: float, guard: int = 0) -> slice:
    """Index range of the grid points with |phi| <= fov, the ones pick_peaks
    examines, widened by `guard` points per side and clipped to the grid.

    A spectrum scanned only over fov_window(grid, fov, guard=1) yields the
    same picks as a scan of the whole grid: the window values are the same,
    and the guard points are the outer neighbours that the parabolic
    refinement of a peak on the window edge reads.
    """
    lo, hi = np.searchsorted(grid, [-fov_deg - _FOV_TOL, fov_deg + _FOV_TOL])
    return slice(max(int(lo) - guard, 0), min(int(hi) + guard, len(grid)))


def fov_window_size(step_deg: float, fov_deg: float) -> int:
    """How many points of azimuth_grid(step_deg) lie in the +-fov pick window."""
    window = fov_window(azimuth_grid(step_deg), fov_deg)
    return window.stop - window.start


def _check_hermitian(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"covariance must be square, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("covariance contains non-finite entries")
    scale = max(1.0, float(np.abs(r).max()))
    if float(np.abs(r - r.conj().T).max()) > 1e-9 * scale:
        raise ValueError("covariance is not Hermitian within tolerance 1e-9")
    return r


def hermitian_eig(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns, orthonormal).
    Rejects input that is not Hermitian within a relative 1e-9 tolerance.
    """
    r = _check_hermitian(r)
    return np.linalg.eigh((r + r.conj().T) / 2.0)


@dataclass(frozen=True)
class Pseudospectrum:
    """Sampled spatial spectrum: strictly increasing grid, positive values."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.shape != v.shape or g.ndim != 1 or g.size < 3:
            raise ValueError("grid and values must be equal-length 1-d arrays (>= 3 points)")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("spectrum values must be finite and positive")
        g.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def to_db(self) -> np.ndarray:
        """Values in dB relative to the peak."""
        return 10.0 * np.log10(self.values / self.values.max())


@dataclass(frozen=True)
class DoaEstimateSet:
    """Estimated angles (sorted ascending) with fill-in diagnostics.

    filled[k] is True when the k-th angle did not come from a genuine
    spectrum peak and was filled from the largest leftover grid values.
    """

    angles: tuple[float, ...]
    filled: tuple[bool, ...]
    peaks_found: int

    @property
    def fill_count(self) -> int:
        return sum(self.filled)


def _noise_projection(r: np.ndarray, source_count: int, dim: int) -> np.ndarray:
    if not 1 <= source_count < dim:
        raise RankError(f"source count must be in 1..{dim - 1}, got {source_count}")
    _, vecs = hermitian_eig(r)
    return vecs[:, : dim - source_count]


def _spectrum(noise_vecs: np.ndarray, steering: np.ndarray) -> np.ndarray:
    proj = noise_vecs.conj().T @ steering
    if np.iscomplexobj(proj):
        # |z|^2 summed down the columns, without a conjugate copy; the same
        # values as the einsum bit for bit
        denom = np.sum(np.square(proj.real) + np.square(proj.imag), axis=0)
    else:
        denom = np.einsum("ij,ij->j", proj, proj)
    return 1.0 / np.maximum(denom, _DENOM_FLOOR)


def music_pseudospectrum(r: np.ndarray, manifold: ArrayManifold, source_count: int,
                         grid: np.ndarray | None = None,
                         steering: np.ndarray | None = None) -> Pseudospectrum:
    """Element-space MUSIC: 1 / ||E_n^H a(phi)||^2 over the scan grid.

    Requires source_count < element count. `steering` may carry a
    precomputed steering_matrix(manifold, grid) to amortize grid
    evaluation across many covariances on the same manifold.
    """
    n = manifold.geometry.element_count
    if grid is None:
        grid = azimuth_grid()
    if np.asarray(r).shape != (n, n):
        raise ValueError(f"covariance shape {np.asarray(r).shape} != ({n}, {n})")
    en = _noise_projection(r, source_count, n)
    if steering is None:
        steering = steering_matrix(manifold, grid)
    elif steering.shape != (n, grid.size):
        raise ValueError(f"steering shape {steering.shape} != ({n}, {grid.size})")
    return Pseudospectrum(grid, _spectrum(en, steering))


@functools.lru_cache(maxsize=64)
def _lag_table(geometry: ArrayGeometry) -> tuple[tuple, np.ndarray]:
    """Flat (i, j) pair indices of every coarray lag, grouped by multiplicity.

    Returns (groups, hankel): one group per pair multiplicity w, holding the
    lag indices (lag + M) and their (lags, w) pair indices in row-major
    order; hankel[i, k] = i + k indexes the sliding windows of the lags.
    """
    if not is_perfect(geometry):
        raise GeometryError(f"geometry {geometry.name!r} has coarray holes; "
                            "lag statistics would be incomplete")
    n, m, pos = geometry.element_count, geometry.aperture, geometry.positions
    pairs: list[list[int]] = [[] for _ in range(2 * m + 1)]
    for i in range(n):
        for j in range(n):
            pairs[pos[i] - pos[j] + m].append(i * n + j)
    by_weight: dict[int, list[int]] = {}
    for lag, p in enumerate(pairs):
        by_weight.setdefault(len(p), []).append(lag)
    groups = tuple((np.array(lags), np.array([pairs[lag] for lag in lags]))
                   for _, lags in sorted(by_weight.items()))
    hankel = np.arange(m + 1)[:, None] + np.arange(m + 1)
    for a in (hankel, *(x for g in groups for x in g)):
        a.flags.writeable = False
    return groups, hankel


def coarray_covariance(r: np.ndarray, geometry: ArrayGeometry) -> np.ndarray:
    """Smoothed virtual-array covariance from difference-coarray statistics.

    Averages R[i][j] over all element pairs sharing the same lag to get
    one statistic z[m] per lag m in -M..M (M = aperture), then averages
    the M+1 sliding windows z_k = [z[k-M], ..., z[k]] as rank-1 terms:

        R_ss = (1/(M+1)) * sum_k z_k z_k^H

    which is Hermitian PSD and plays the role of a covariance on a virtual
    ULA of M+1 elements. The geometry must be hole-free so every lag is
    observed. The pair tables behind the lag averages are built once per
    geometry.
    """
    r = _check_hermitian(r)
    n = geometry.element_count
    if r.shape[0] != n:
        raise ValueError(f"covariance size {r.shape[0]} != element count {n}")
    groups, hankel = _lag_table(geometry)
    m = geometry.aperture
    flat = r.ravel()
    z = np.zeros(2 * m + 1, dtype=complex)
    for lags, pairs in groups:
        z[lags] = np.mean(flat[pairs], axis=1)
    windows = z[hankel]  # (M+1, M+1)
    rss = windows @ windows.conj().T / (m + 1)
    return (rss + rss.conj().T) / 2.0


@functools.lru_cache(maxsize=64)
def _unitary_basis(size: int) -> np.ndarray:
    """Unitary Q with Q^H R Q real for every centro-Hermitian R of this size:
    [[I, jI], [J, -jJ]]/sqrt(2), with a sqrt(2) middle entry between the
    blocks when the size is odd (J is the exchange matrix)."""
    half = size // 2
    eye, exch = np.eye(half), np.eye(half)[::-1]
    q = np.zeros((size, size), dtype=complex)
    q[:half, :half], q[:half, size - half:] = eye, 1j * eye
    q[size - half:, :half], q[size - half:, size - half:] = exch, -1j * exch
    if size % 2:
        q[half, half] = np.sqrt(2.0)
    q /= np.sqrt(2.0)
    q.flags.writeable = False
    return q


def virtual_steering(aperture: int, azimuth_deg) -> np.ndarray:
    """Real steering table Q^H a(phi) of the virtual contiguous array.

    a_k(phi) = exp(-j*pi*(k - M/2)*sin(phi)), k = 0..M, is the virtual-ULA
    steering with its phase reference at the array midpoint, and Q is the
    unitary basis coarray_music works in. With d = M/2 - k for
    k < (M+1)//2, the rows are sqrt(2)*cos(pi*d*sin(phi)), then a row of
    ones when M is even, then sqrt(2)*sin(pi*d*sin(phi)); shape (M+1, K).
    """
    az = np.atleast_1d(np.asarray(azimuth_deg, dtype=float))
    d = aperture / 2.0 - np.arange((aperture + 1) // 2)
    phase = np.pi * d[:, None] * np.sin(np.deg2rad(az))[None, :]
    rows = [np.sqrt(2.0) * np.cos(phase)]
    if aperture % 2 == 0:
        rows.append(np.ones((1, az.size)))
    rows.append(np.sqrt(2.0) * np.sin(phase))
    return np.concatenate(rows)


def coarray_music(r: np.ndarray, geometry: ArrayGeometry, source_count: int,
                  grid: np.ndarray | None = None,
                  steering: np.ndarray | None = None) -> Pseudospectrum:
    """MUSIC on the smoothed virtual-array covariance.

    Resolves up to aperture-many sources, which can exceed the physical
    element count on sparse hole-free layouts. R_ss is built from a
    Hermitian Toeplitz lag sequence, so it is centro-Hermitian and
    Re(Q^H R_ss Q) holds all of it in the unitary basis Q: the
    eigendecomposition and the scan run in real arithmetic against the
    real table of virtual_steering (Huarng & Yeh, IEEE TSP 39(4), 1991).
    """
    m = geometry.aperture
    if not 1 <= source_count <= m:
        raise RankError(f"coarray supports 1..{m} sources for {geometry.name!r}, "
                        f"got {source_count}")
    if grid is None:
        grid = azimuth_grid()
    rss = coarray_covariance(r, geometry)
    q = _unitary_basis(m + 1)
    en = _noise_projection((q.conj().T @ rss @ q).real, source_count, m + 1)
    if steering is None:
        steering = virtual_steering(m, grid)
    elif steering.shape != (m + 1, grid.size):
        raise ValueError(f"steering shape {steering.shape} != ({m + 1}, {grid.size})")
    return Pseudospectrum(grid, _spectrum(en, steering))


def _refine(grid: np.ndarray, logv: np.ndarray, idx: int) -> float:
    """3-point parabolic vertex through log-spectrum values; grid edges pass through."""
    if idx == 0 or idx == grid.size - 1:
        return float(grid[idx])
    ym, y0, yp = logv[idx - 1], logv[idx], logv[idx + 1]
    curv = ym - 2.0 * y0 + yp
    if curv == 0.0:
        return float(grid[idx])
    delta = 0.5 * (ym - yp) / curv
    delta = min(0.5, max(-0.5, delta))
    step = grid[idx + 1] - grid[idx] if delta >= 0 else grid[idx] - grid[idx - 1]
    return float(grid[idx] + delta * step)


def pick_peaks(spectrum: Pseudospectrum, count: int,
               fov_deg: float = 90.0) -> DoaEstimateSet:
    """Select the `count` largest strict local maxima inside |phi| <= fov.

    Window endpoints count as maxima against their single neighbor. Each
    interior peak is refined by a parabolic fit to the log spectrum. When
    fewer than `count` maxima exist, the remaining estimates are filled
    from the largest unclaimed grid values and flagged.
    """
    grid, vals = spectrum.grid, spectrum.values
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if fov_deg <= 0 or fov_deg > float(min(-grid[0], grid[-1])):
        raise ValueError(f"fov {fov_deg} exceeds grid extent")
    window = fov_window(grid, fov_deg)
    lo, w = window.start, vals[window]
    if w.size < count:
        raise ValueError(f"window has {w.size} points, cannot place {count} estimates")

    interior = np.flatnonzero((w[1:-1] > w[:-2]) & (w[1:-1] > w[2:])) + 1
    maxima = list(interior)
    if w.size >= 2 and w[0] > w[1]:
        maxima.append(0)
    if w.size >= 2 and w[-1] > w[-2]:
        maxima.append(w.size - 1)
    maxima.sort(key=lambda i: w[i], reverse=True)

    chosen = maxima[:count]
    peaks_found = len(chosen)
    logv = np.log(vals)
    est = [(_refine(grid, logv, lo + i), False) for i in chosen]

    if peaks_found < count:
        leftover = np.argsort(w)[::-1]
        used = set(chosen)
        for i in leftover:
            if len(est) == count:
                break
            if int(i) not in used:
                used.add(int(i))
                est.append((float(grid[lo + int(i)]), True))
    est.sort()
    angles = tuple(min(fov_deg, max(-fov_deg, a)) for a, _ in est)
    return DoaEstimateSet(angles=angles, filled=tuple(f for _, f in est),
                          peaks_found=peaks_found)

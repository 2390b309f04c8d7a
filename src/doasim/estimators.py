"""Subspace direction estimators over a dense azimuth grid.

The element-space path runs MUSIC against the physical manifold; the
coarray path averages the covariance over difference-coarray lags to form
a smoothed virtual-array covariance whose aperture, not the element count,
bounds how many sources can be resolved. Estimation always uses the
nominal manifold a caller passes in; any mismatch lives in the data.
"""
from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, GeometryError, is_perfect
from .manifold import ArrayManifold, steering_matrix
from .patterns import MIN_STEP_DEG

# spectrum denominators are clamped here before inversion
_DENOM_FLOOR = 1e-300
# grid points this far outside +-fov still belong to the pick window
_FOV_TOL = 1e-12
_EPS = float(np.finfo(float).eps)

# Scans are cut in aligned blocks of this many full-grid columns. BLAS
# computes the last (n mod kernel width) columns of a matrix product on a
# separate path, so a scan cut at any column would differ from a full-grid
# scan in the last bits of its final columns; aligned blocks keep every
# column of a whole block on the path it takes in the full scan, for kernel
# widths dividing 16. A partial block at the end of the grid need not keep
# it (see _PeakSearch); a +-fov window that reaches it is the whole grid.
_SCAN_BLOCK = 16
# bytes that one stacked array of a chunk of trials may take, which keeps a
# sweep's peak memory within about 1 MB of running its trials one at a time
_CHUNK_BYTES = 2**20


class RankError(ValueError):
    """Source count incompatible with the available (virtual) aperture."""


def azimuth_grid(step_deg: float = 0.01) -> np.ndarray:
    """Uniform scan grid over [-90, +90] degrees; a narrower field of view
    is a slice of it (fov_window), so every scan shares the same points."""
    # a step below MIN_STEP_DEG gives a grid of millions of points, and one
    # above 120 degrees fewer than the 3 a Pseudospectrum needs; NaN fails the
    # test too
    if not MIN_STEP_DEG <= step_deg <= 120.0:
        raise ValueError(f"grid step must be in [{MIN_STEP_DEG:g}, 120] degrees, "
                         f"got {step_deg}")
    return np.linspace(-90.0, 90.0, round(180.0 / step_deg) + 1)


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
    # ((count, fov_deg), estimate) that pick_peaks returns for that count and
    # fov without a fresh pick; only _trusted attaches one
    _pick = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.shape != v.shape or g.ndim != 1 or g.size < 3:
            raise ValueError("grid and values must be equal-length 1-d arrays (>= 3 points)")
        if (np.diff(g) <= 0).any():
            raise ValueError("grid must be strictly increasing")
        # NaN fails both comparisons
        if not ((v > 0) & (v < np.inf)).all():
            raise ValueError("spectrum values must be finite and positive")
        g.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @classmethod
    def _trusted(cls, grid: np.ndarray, values: np.ndarray,
                 pick: tuple | None = None) -> "Pseudospectrum":
        """A spectrum of float arrays that pass the constructor's checks, which
        it skips: the sweep engine builds one per trial. `pick`, when given,
        is ((count, fov_deg), pick_peaks(spectrum, count, fov_deg)), taken
        from a stacked pick of the spectrum's values."""
        spectrum = object.__new__(cls)
        for name, a in (("grid", grid), ("values", values)):
            a.flags.writeable = False
            object.__setattr__(spectrum, name, a)
        if pick is not None:
            object.__setattr__(spectrum, "_pick", pick)
        return spectrum

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


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norms of the columns of x, or of each matrix of a stack x; a
    complex x is overwritten."""
    if np.iscomplexobj(x):
        # |z|^2 summed down the columns: the real and imaginary parts squared
        # in place, then added, with one temporary half the size of x; the
        # same values as the einsum against the conjugate bit for bit
        parts = x.view(float)
        np.square(parts, out=parts)
        return np.add.reduce(parts[..., ::2] + parts[..., 1::2], axis=-2)
    return np.einsum("...ij,...ij->...j", x, x)


def _denominators(noise_vecs: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """||E_n^H a||^2 at every column a of steering, for E_n or for each E_n
    of a stack, each one bit for bit as if alone."""
    return _sq_norms(np.swapaxes(noise_vecs.conj(), -1, -2) @ steering)


def _grouped_denominators(ens: np.ndarray, table: np.ndarray) -> np.ndarray:
    """_denominators(ens, table) of E_n or of the stack ens, in groups of E_n
    whose product takes at most half of _CHUNK_BYTES, as its squaring
    temporary, the table and the result are held beside it. numpy
    multiplies each matrix of a stack on its own, so every row is bit for
    bit what one product of the whole stack gives; a split of the columns
    would move the bits of a product's last columns."""
    stack = ens.reshape(-1, *ens.shape[-2:])
    out = np.empty((len(stack), table.shape[1]))
    row_bytes = ens.shape[-1] * table.shape[1] * np.result_type(ens, table).itemsize
    step = max(1, _CHUNK_BYTES // 2 // row_bytes)
    for i in range(0, len(stack), step):
        out[i:i + step] = _denominators(stack[i:i + step], table)
    return out.reshape(*ens.shape[:-2], -1)


def _spectrum(noise_vecs: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """1 / ||E_n^H a||^2, floored, at every column a of steering, for E_n or
    for each E_n of a stack: every scan, full or compact, takes this one
    formula."""
    denom = _grouped_denominators(noise_vecs, steering)
    return np.divide(1.0, np.maximum(denom, _DENOM_FLOOR, out=denom), out=denom)


def music_pseudospectrum(r: np.ndarray, manifold: ArrayManifold, source_count: int,
                         grid: np.ndarray | None = None) -> Pseudospectrum:
    """Element-space MUSIC: 1 / ||E_n^H a(phi)||^2 over the scan grid.

    Requires source_count < element count.
    """
    n = manifold.geometry.element_count
    if grid is None:
        grid = azimuth_grid()
    if np.asarray(r).shape != (n, n):
        raise ValueError(f"covariance shape {np.asarray(r).shape} != ({n}, {n})")
    if not 1 <= source_count < n:
        raise RankError(f"source count must be in 1..{n - 1}, got {source_count}")
    _, vecs = hermitian_eig(r)
    return Pseudospectrum(grid, _spectrum(vecs[:, :n - source_count],
                                          steering_matrix(manifold, grid)))


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
    # a finite r can still overflow here; coarray_music rejects the result
    with np.errstate(over="ignore", invalid="ignore"):
        return _lag_smoothing(r, geometry)


def _lag_smoothing(r: np.ndarray, geometry: ArrayGeometry) -> np.ndarray:
    """coarray_covariance without its checks on r, of one matrix or of each of
    a stack (..., N, N) as if alone: np.take gathers C-ordered, so numpy sums
    each lag mean pairwise; from a fancy-indexed stack it sums sequentially."""
    groups, hankel = _lag_table(geometry)
    m = geometry.aperture
    flat = r.reshape(*r.shape[:-2], -1)
    z = np.zeros((*r.shape[:-2], 2 * m + 1), dtype=complex)
    for lags, pairs in groups:
        z[..., lags] = np.mean(np.take(flat, pairs, axis=-1), axis=-1)
    windows = np.take(z, hankel, axis=-1)  # (..., M+1, M+1)
    rss = windows @ np.swapaxes(windows.conj(), -1, -2) / (m + 1)
    return (rss + np.swapaxes(rss.conj(), -1, -2)) / 2.0


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
    The phases, and then the cosines and sines, are written straight into
    the one table.
    """
    az = np.atleast_1d(np.asarray(azimuth_deg, dtype=float))
    half = (aperture + 1) // 2
    d = aperture / 2.0 - np.arange(half)
    table = np.empty((aperture + 1, az.size))
    sines = table[aperture + 1 - half:]
    np.multiply(np.pi * d[:, None], np.sin(np.deg2rad(az)), out=sines)
    np.cos(sines, out=table[:half])
    np.sin(sines, out=sines)
    table *= np.sqrt(2.0)
    if aperture % 2 == 0:
        table[half] = 1.0
    return table


def _coarray_noise(rss: np.ndarray, source_count: int) -> np.ndarray:
    """The real noise subspace (M+1, M+1-L) of a smoothed covariance in the
    unitary basis, or of each of a stack (..., M+1, M+1), without checks on
    rss and source_count: one basis change, one symmetrization and one eigh
    for the stack, each subspace bit for bit that of its covariance alone."""
    size = rss.shape[-1]
    q = _unitary_basis(size)
    x = (q.conj().T @ rss @ q).real
    # symmetric only to rounding, and eigh reads one triangle
    return np.linalg.eigh((x + np.swapaxes(x, -1, -2)) / 2.0)[1][..., :size - source_count]


def coarray_music(r: np.ndarray, geometry: ArrayGeometry, source_count: int,
                  grid: np.ndarray | None = None) -> Pseudospectrum:
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
    # the check keeps an overflowing R_ss a ValueError rather than a failed eigh
    en = _coarray_noise(_check_hermitian(coarray_covariance(r, geometry)), source_count)
    if grid is None:
        grid = azimuth_grid()
    return Pseudospectrum(grid, _spectrum(en, virtual_steering(m, grid)))


def _maxima(w: np.ndarray) -> np.ndarray:
    """Mask of the strict local maxima along the last axis of w, each end
    judged against its one neighbour: of a window, or of each window of a
    stack."""
    mask = np.zeros(w.shape, dtype=bool)
    if w.shape[-1] >= 2:
        np.greater(w[..., :-1], w[..., 1:], out=mask[..., :-1])
        mask[..., -1] = True
        mask[..., 1:] &= w[..., 1:] > w[..., :-1]
    return mask


def pick_peaks(spectrum: Pseudospectrum, count: int,
               fov_deg: float = 90.0) -> DoaEstimateSet:
    """Select the `count` largest strict local maxima inside |phi| <= fov.

    Window endpoints count as maxima against their single neighbor; equal
    maxima rank interior ones by index, then the window start, then the
    window end. Each interior peak is refined by a parabolic fit to the log
    spectrum. When fewer than `count` maxima exist, the remaining estimates
    are filled from the largest unclaimed grid values and flagged. A
    spectrum the sweep engine certified carries its pick for the engine's
    count and fov, which is returned for exactly that count and fov.
    """
    if spectrum._pick is not None and spectrum._pick[0] == (count, fov_deg):
        return spectrum._pick[1]
    grid, vals = spectrum.grid, spectrum.values
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if fov_deg <= 0 or fov_deg > float(min(-grid[0], grid[-1])):
        raise ValueError(f"fov {fov_deg} exceeds grid extent")
    window = fov_window(grid, fov_deg)
    w = vals[window]
    if w.size < count:
        raise ValueError(f"window has {w.size} points, cannot place {count} estimates")
    est = _pick_rows(grid, vals[None], count, fov_deg, window)[0]
    if est.peaks_found == count:
        return est
    # every maximum was picked; the largest other window values fill the rest
    peak = _maxima(w)
    fills = [i for i in np.argsort(w)[::-1].tolist() if not peak[i]][:count - est.peaks_found]
    picks = sorted([(a, False) for a in est.angles]
                   + [(min(fov_deg, max(-fov_deg, float(grid[window.start + i]))), True)
                      for i in fills])
    return DoaEstimateSet(angles=tuple(a for a, _ in picks), filled=tuple(f for _, f in picks),
                          peaks_found=est.peaks_found)


def _pick_rows(grid: np.ndarray, values: np.ndarray, count: int, fov: float,
               window: slice) -> list[DoaEstimateSet]:
    """pick_peaks(Pseudospectrum(grid, row), count, fov) for every row of the
    stack values (B, grid.size), a stack of one included, in one pass and
    without its checks or fills, given window = fov_window(grid, fov). One
    lexsort orders all the stack's maxima by row, then by value descending,
    then as pick_peaks ranks equal values, and each row keeps its first
    `count`: a row with fewer maxima in the window gives them all, with
    peaks_found saying how many. Each peak off the grid edges moves to the
    vertex of the parabola through the logs of its value and its two grid
    neighbours' values, by at most half a step, unless the curvature is
    within the rounding of the three logs; the array operations repeat,
    value by value, the float operations of one peak alone
    (tests/oracles.py's loop_pick)."""
    w = values[:, window]
    n = w.shape[1]
    # np.nonzero of a 2-d mask takes several times as long
    rows, idx = np.divmod(np.flatnonzero(_maxima(w)), n)
    # equal values rank interior maxima by index, the window start, the end
    tie = np.where(idx == 0, n, np.where(idx == n - 1, n + 1, idx))
    order = np.lexsort((tie, -w[rows, idx], rows))
    found = np.bincount(rows, minlength=len(w))
    # each maximum's place in its row's pick order
    place = np.arange(rows.size) - np.repeat(np.cumsum(found) - found, found)
    keep = place < count
    rows, i, place = rows[order[keep]], idx[order[keep]], place[keep]
    i = i + window.start
    at = np.minimum(np.maximum(i[:, None] + np.arange(-1, 2), 0), grid.size - 1)
    ym, y0, yp = np.log(values[rows[:, None], at]).T
    curv = ym - 2.0 * y0 + yp
    # a curvature within the rounding of the three logs is no curvature, and
    # grid edges pass through
    flat = np.abs(curv) <= 4.0 * _EPS * (np.abs(ym) + 2.0 * np.abs(y0) + np.abs(yp))
    flat |= (i == 0) | (i == grid.size - 1)
    delta = np.minimum(0.5, np.maximum(-0.5, 0.5 * (ym - yp) / np.where(flat, 1.0, curv)))
    gm, g0, gp = grid[at].T
    picks = np.full((len(w), count), np.inf)
    picks[rows, place] = np.where(
        flat, g0, g0 + delta * np.where(delta >= 0, gp - g0, g0 - gm))
    picks.sort(axis=1)
    picks = np.minimum(fov, np.maximum(-fov, picks)).tolist()
    return [DoaEstimateSet(angles=tuple(a[:k]), filled=(False,) * k, peaks_found=k)
            for a, k in zip(picks, np.minimum(found, count).tolist())]


def _scan_slice(grid: np.ndarray, fov_deg: float) -> slice:
    """The columns of azimuth grid `grid` that a sweep scans: the +-fov pick
    window with one guard point per side, widened to whole _SCAN_BLOCK
    blocks of `grid`, as _PeakSearch needs."""
    window = fov_window(grid, fov_deg, guard=1)
    start = window.start - window.start % _SCAN_BLOCK
    return slice(start, min(window.stop + (-window.stop) % _SCAN_BLOCK, grid.size))


class _PeakSearch:
    """The MUSIC spectrum over one steering table, cut down to the few blocks
    of the table that can hold a peak pick_peaks picks.

    `grid` is azimuth_grid(step)[_scan_slice(azimuth_grid(step), fov)] and
    `steering` holds its columns. Its blocks are its aligned _SCAN_BLOCK-column
    slices; the last may be partial. spectra(ens, count) yields, for every
    E_n of the stack ens in order and from one search for the stack, a
    Pseudospectrum on which pick_peaks(., count, fov) gives what it gives on
    the full scan Pseudospectrum(grid, _spectrum(en, steering)), bit for bit:

    - Bound. E_n has orthonormal columns, so for columns i and c,
      ||E_n^H a_i|| >= ||E_n^H a_c|| - ||a_i - a_c||. Block b keeps its
      middle column c_b and radius r_b = max_i ||a_i - a_c_b||, taken from
      the table alone, so they hold for any pattern, coupling or coarray
      table. With s_b = ||E_n^H a_c_b|| from one product at the reference
      columns, every value in block b is at most
      UB_b = 1 / max(lb_b^2, floor), lb_b = max((s_b - r_b)(1 - 1e-9) - slack, 0).
    - Slack. Let u = 2**-53, N the table's rows and A = max_i ||a_i||.
      Each entry of a computed E_n^H a errs by at most about N*u*||a||, as
      E_n's columns have unit norm, so a computed s_b, and the square root
      of a computed denominator, err by at most about N**1.5*u*A beyond
      relative roundings of a few u. eigh's E_n is orthonormal only to
      about N*u, which scales r_b <= 2A by up to 1 + N*u, and r_b carries a
      relative rounding of about N*u itself. slack = max(1e-12,
      4*N**1.5*eps)*A (eps = 2u) covers these terms, and also the relative
      roundings, as every quantity involved is at most 2A; the factor
      1 - 1e-9 is a further margin for the relative ones. So lb_b stays
      below the computed root of every denominator in block b, whichever
      product computes it. Squaring, the floor and the reciprocal are
      monotone when rounded, so UB_b bounds every computed value too. A is
      taken as max_b ||a_c_b|| + r_b, which is at least max_i ||a_i||.
    - Search. For every E_n of the stack at once, the count-th largest
      strict maximum of the spectrum at the reference columns of the window
      blocks, lowered by 1e-6 relative, is a first threshold, and the
      window blocks whose bound reaches it are that E_n's picks; its kept
      blocks are its picks and both neighbours of each. The union of the
      kept blocks over the stack is evaluated for every E_n in one stacked
      product over its columns in ascending order, so every column takes
      the path it takes in the full scan. That holds for whole blocks only:
      BLAS computes a product's last (n mod kernel width) columns on a path
      that may also depend on the product's size (OpenBLAS's real
      small-matrix kernel does), so a partial last block is left to the
      full scan. The bound product and the union's run in groups of E_n
      under a byte cap (_grouped_denominators), which leaves every value
      as the whole stack's product gives it; only the stack's float rows,
      row_bytes per E_n, span the whole stack.
    - Compact spectrum. The union's columns alone, whole blocks in
      ascending order, with their values from the union's product. It need
      not span the full scan's grid: a certified one carries its pick, so
      pick_peaks never checks its fov against it.
    - Certificate. For each E_n, let rest be the largest UB_b of the window
      blocks it did not pick. A window value above rest lies in a block it
      picked, whose columns have their grid neighbours next to them in the
      compact spectrum, so it is a strict maximum there exactly when it is
      one in the full scan, by the same rule. Every other value of the
      compact window, in its own kept blocks or in blocks the union holds
      for other E_n, is at most rest. If at least count strict maxima of
      the compact window exceed rest, pick_peaks on it therefore picks the
      full scan's peaks in the same order, and refines them from the same
      neighbours. The certificate runs for the whole stack as one array
      operation.
    - Pick. The E_n that certify in a round share its compact grid, so one
      stacked _pick_rows pass picks them all, and each one's spectrum
      carries its pick for (count, fov), which pick_peaks returns for
      exactly that count and fov without picking again. A full scan carries
      none, and pick_peaks picks it when it is reached.
    - Otherwise that E_n's picks double in bound order, and the E_n that
      did not certify take a further stacked round on the union of their
      new kept blocks. An E_n takes the full scan, computed when it is
      reached, when the coarse pass shows fewer than count maxima (filling
      reads every value), when its kept blocks pass half the window's
      blocks or reach a partial last block, or when E_n has one column.
    """

    def __init__(self, grid: np.ndarray, steering: np.ndarray, fov_deg: float):
        self.grid, self.steering, self.fov = grid, steering, fov_deg
        rows, size = steering.shape
        full = size - size % _SCAN_BLOCK
        self._columns = np.arange(full).reshape(-1, _SCAN_BLOCK)
        parts = [(0, steering[:, :full].reshape(rows, -1, _SCAN_BLOCK))]
        if full < size:
            parts.append((full, steering[:, None, full:]))
        refs, radius = [], []
        for start, blocks in parts:
            # every column minus its block's middle column: one buffer the
            # size of the table, read as real numbers
            mid = blocks.shape[2] // 2
            diff = blocks - blocks[:, :, mid, None]
            reals = diff.view(float).reshape(*diff.shape, -1)
            radius.append(np.einsum("ibjk,ibjk->bj", reals, reals).max(axis=1))
            refs.append(start + mid + _SCAN_BLOCK * np.arange(blocks.shape[1]))
        radius = np.sqrt(np.concatenate(radius))
        self._refs = np.ascontiguousarray(steering[:, np.concatenate(refs)])
        norm = float(np.max(np.sqrt(_sq_norms(self._refs.copy())) + radius))
        slack = max(1e-12, 4.0 * rows ** 1.5 * np.finfo(float).eps) * norm
        self._shift = radius * (1.0 - 1e-9) + slack
        window = fov_window(grid, fov_deg)
        self._blocks = slice(window.start // _SCAN_BLOCK,
                             (window.stop - 1) // _SCAN_BLOCK + 1)

    @staticmethod
    def row_bytes(table: np.ndarray) -> int:
        """Bytes of one E_n's row of the search's float arrays over a table
        shaped as `table` (denominators, bounds, dips and their sorted
        copy): one value per block. The products behind them run in capped
        groups of rows."""
        return 8 * -(-table.shape[1] // _SCAN_BLOCK)

    def _bounds(self, en: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(denominator at the reference columns, UB_b for every block), of
        E_n or of each E_n of a stack, every one bit for bit as if alone."""
        denom = _grouped_denominators(en, self._refs)
        ub = np.sqrt(denom)
        ub *= 1.0 - 1e-9
        ub -= self._shift
        np.maximum(ub, 0.0, out=ub)
        ub *= ub
        np.maximum(ub, _DENOM_FLOOR, out=ub)
        return denom, np.divide(1.0, ub, out=ub)

    def spectra(self, ens: np.ndarray, count: int) -> Iterator[Pseudospectrum]:
        """Yields, for every E_n of the stack ens, in order, its certified
        compact spectrum, or its full scan, computed when its turn comes."""
        # a one-column E_n takes BLAS's matrix-vector path, whose rounding
        # of a column depends on where it sits, so it scans the whole table
        found = self._search(ens, count) if ens.shape[-1] > 1 else [None] * len(ens)
        for en, compact in zip(ens, found):
            yield compact or Pseudospectrum._trusted(self.grid, _spectrum(en, self.steering))

    def _search(self, ens: np.ndarray, count: int) -> list[Pseudospectrum | None]:
        """The certified compact spectrum of each E_n of the stack ens, or
        None where the full table must be scanned."""
        found: list[Pseudospectrum | None] = [None] * len(ens)
        denom, bound = self._bounds(ens)
        blocks = self._blocks
        # spectrum maxima at the reference columns are denominator minima
        dips = -denom[:, blocks]
        maxima = _maxima(dips)
        rows = np.flatnonzero(np.count_nonzero(maxima, axis=1) >= count)
        if not rows.size:
            return found
        np.copyto(dips, -np.inf, where=~maxima)
        # each row's count-th largest maximum
        peak = 1.0 / np.maximum(-np.sort(dips[rows], axis=1)[:, -count], _DENOM_FLOOR)
        window_bound = bound[:, blocks]
        picked = np.zeros(window_bound.shape, dtype=bool)
        picked[rows] = window_bound[rows] >= (peak * (1.0 - 1e-6))[:, None]
        while rows.size:
            keep = np.zeros((rows.size, bound.shape[1] + 2), dtype=bool)
            keep[:, blocks.start + 1:blocks.stop + 1] = picked[rows]
            kept = keep[:, :-2] | keep[:, 1:-1] | keep[:, 2:]
            fits = ((2 * np.count_nonzero(kept, axis=1) <= picked.shape[1])
                    & ~kept[:, self._columns.shape[0]:].any(axis=1))
            rows, kept = rows[fits], kept[fits]
            if not rows.size:
                break
            grid, values = self._compact(ens[rows], np.flatnonzero(kept.any(axis=0)))
            window = fov_window(grid, self.fov)
            w = values[:, window]
            rest = np.max(window_bound[rows], axis=1, where=~picked[rows], initial=0.0)
            done = np.count_nonzero(_maxima(w) & (w > rest[:, None]), axis=1) >= count
            # run_point picks each trial by one call of experiments.pick_peaks,
            # which perfbench patches and times; until the engine times its
            # own stages, the round's stacked pick rides on each spectrum for
            # that call to return, in place of run_point stacking the picks
            done_rows = np.flatnonzero(done)
            picks = _pick_rows(grid, values[done_rows], count, self.fov, window)
            for i, est in zip(done_rows, picks):
                found[rows[i]] = Pseudospectrum._trusted(grid, values[i], ((count, self.fov), est))
            rows = rows[~done]
            # the rank of each block in bound order, by row
            rank = np.argsort(np.argsort(-window_bound[rows], axis=1, kind="stable"), axis=1)
            picked[rows] |= rank < 2 * np.count_nonzero(picked[rows], axis=1)[:, None]
        return found

    def _compact(self, ens: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(grid, values): the spectra of the stack ens, one row of values
        each, at the columns of the `kept` blocks."""
        cols = self._columns[kept].ravel()
        return self.grid[cols], _spectrum(ens, np.take(self.steering, cols, axis=1))

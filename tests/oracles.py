"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written as brute force or first-principles
enumeration so it shares no code path with the library under test.
"""
from __future__ import annotations

from itertools import permutations

import numpy as np


def covers_all_lags(positions, aperture: int) -> bool:
    lags = set()
    for i, a in enumerate(positions):
        for b in positions[:i]:
            lags.add(a - b)
    return all(m in lags for m in range(1, aperture + 1))


def _search_lex_smallest(n: int, aperture: int):
    """First (lex-smallest) hole-free n-subset of {0..aperture} containing
    both endpoints, by depth-first enumeration in increasing order."""
    best = None

    def dfs(chosen, missing):
        nonlocal best
        if best is not None:
            return
        k = len(chosen)
        if k == n:
            if not missing:
                best = tuple(chosen)
            return
        remaining = n - k
        # each future pick covers at most (current size) new lags
        if len(missing) > remaining * k + remaining * (remaining - 1) // 2:
            return
        hi = aperture - (remaining - 1)
        for p in range(chosen[-1] + 1, hi + 1):
            if remaining == 1 and p != aperture:
                continue
            new_lags = {p - c for c in chosen}
            dfs(chosen + [p], missing - new_lags)
            if best is not None:
                return

    dfs([0], set(range(1, aperture + 1)))
    return best


def exhaustive_mra(n: int) -> tuple[int, tuple[int, ...]]:
    """Maximal hole-free aperture for n elements and its lex-smallest layout."""
    for aperture in range(n * (n - 1) // 2, n - 2, -1):
        got = _search_lex_smallest(n, aperture)
        if got is not None:
            return aperture, got
    raise AssertionError(f"no hole-free layout found for n={n}")


def best_pairing_rmse(estimates, truth) -> float:
    """Minimum RMSE over every estimate-to-truth assignment (brute force)."""
    e = np.asarray(estimates, dtype=float)
    t = np.asarray(truth, dtype=float)
    best = np.inf
    for perm in permutations(range(t.size)):
        cand = float(np.sqrt(np.mean((e - t[list(perm)]) ** 2)))
        best = min(best, cand)
    return best


def naive_coarray_smoothed(r: np.ndarray, positions) -> np.ndarray:
    """Plain-loop lag averaging and window smoothing, no vectorization."""
    pos = list(positions)
    n = len(pos)
    m = max(pos)
    z = {}
    for lag in range(-m, m + 1):
        vals = [r[i][j] for i in range(n) for j in range(n)
                if pos[i] - pos[j] == lag]
        assert vals, f"lag {lag} unobserved; geometry not hole-free"
        z[lag] = sum(vals) / len(vals)
    out = np.zeros((m + 1, m + 1), dtype=complex)
    for k in range(m + 1):
        w = np.array([z[k - m + i] for i in range(m + 1)])
        out += np.outer(w, w.conj())
    return out / (m + 1)


def loop_coarray_smoothed(r: np.ndarray, positions) -> np.ndarray:
    """The original per-lag loop of coarray_covariance, kept as the
    bit-for-bit reference of its table-driven lag averaging."""
    r = np.asarray(r)
    pos = list(positions)
    n = len(pos)
    m = max(pos)
    z = np.zeros(2 * m + 1, dtype=complex)
    for lag in range(-m, m + 1):
        pairs = [(i, j) for i in range(n) for j in range(n) if pos[i] - pos[j] == lag]
        z[lag + m] = np.mean([r[i, j] for i, j in pairs])
    windows = np.stack([z[k : k + m + 1] for k in range(m + 1)], axis=1)
    rss = windows @ windows.conj().T / (m + 1)
    return (rss + rss.conj().T) / 2.0



def evaluated_values_equal(pruned, full) -> bool:
    """Whether a pruned spectrum is the full scan, or lies on its grid, holds
    only whole 16-column blocks of it, and holds its values at every column,
    bit for bit."""
    block = 16
    if pruned.grid.size == full.grid.size:
        return (np.array_equal(pruned.grid, full.grid)
                and np.array_equal(pruned.values, full.values))
    idx = np.searchsorted(full.grid, pruned.grid)
    if idx[-1] >= full.grid.size or not np.array_equal(full.grid[idx], pruned.grid):
        return False
    blocks = idx // block
    return bool((np.bincount(blocks)[blocks] == block).all()
                and np.array_equal(pruned.values, full.values[idx]))


def complex_synthesize(steering, snr_db, sr, nr) -> np.ndarray:
    """x = A s + n in complex arithmetic, as the snapshot synthesis first
    computed it: the bit-for-bit reference of the in-place kernel."""
    amp = 10.0 ** (np.asarray(snr_db) / 20.0)
    s = amp[:, None] * (sr[..., 0, :, :] + 1j * sr[..., 1, :, :]) / np.sqrt(2.0)
    noise = (nr[..., 0, :, :] + 1j * nr[..., 1, :, :]) / np.sqrt(2.0)
    return steering @ s + noise


def concatenated_virtual_steering(aperture: int, azimuth_deg) -> np.ndarray:
    """The real virtual-array steering table built row block by row block and
    concatenated, as it was first computed: the bit-for-bit reference of the
    in-place table."""
    az = np.atleast_1d(np.asarray(azimuth_deg, dtype=float))
    d = aperture / 2.0 - np.arange((aperture + 1) // 2)
    phase = np.pi * d[:, None] * np.sin(np.deg2rad(az))[None, :]
    rows = [np.sqrt(2.0) * np.cos(phase)]
    if aperture % 2 == 0:
        rows.append(np.ones((1, az.size)))
    rows.append(np.sqrt(2.0) * np.sin(phase))
    return np.concatenate(rows)


def loop_pick(grid, values, count: int, fov: float) -> tuple[tuple[float, ...], int]:
    """The peak rule pick_peaks documents, on one row of spectrum values, in
    plain loops and without fills: (sorted clamped angles, peaks found).

    The window holds the grid points with -fov - 1e-12 <= phi < fov + 1e-12.
    A strict maximum is above both window neighbours, or above its one
    neighbour at a window end. The `count` largest win; equal values rank
    interior maxima by index, then the window start, then the window end.
    A winner off the grid edges is moved to the vertex of the parabola
    through the logs (numpy's log, one value at a time) of it and its two
    grid neighbours, by at most half a step, unless the curvature is within
    the rounding of the three logs. Angles are sorted and clamped to +-fov.
    """
    grid = [float(g) for g in grid]
    vals = [float(v) for v in values]
    window = [k for k, g in enumerate(grid) if -fov - 1e-12 <= g < fov + 1e-12]
    n = len(window)
    candidates = []
    for p, k in enumerate(window):
        left = p == 0 or vals[k] > vals[window[p - 1]]
        right = p == n - 1 or vals[k] > vals[window[p + 1]]
        if n >= 2 and left and right:
            tie = n if p == 0 else n + 1 if p == n - 1 else p
            candidates.append((-vals[k], tie, k))
    candidates.sort()
    angles = []
    for _, _, k in candidates[:count]:
        angle = grid[k]
        if 0 < k < len(grid) - 1:
            ym, y0, yp = (float(np.log(vals[j])) for j in (k - 1, k, k + 1))
            curv = ym - 2.0 * y0 + yp
            eps = float(np.finfo(float).eps)
            if abs(curv) > 4.0 * eps * (abs(ym) + 2.0 * abs(y0) + abs(yp)):
                delta = min(0.5, max(-0.5, 0.5 * (ym - yp) / curv))
                step = grid[k + 1] - grid[k] if delta >= 0 else grid[k] - grid[k - 1]
                angle = grid[k] + delta * step
        angles.append(angle)
    angles.sort()
    return tuple(min(fov, max(-fov, a)) for a in angles), len(angles)

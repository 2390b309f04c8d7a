"""Array manifold: gain-weighted steering vectors and snapshot synthesis.

The steering vector folds each element's complex pattern into the usual
phase ramp: a_n(phi) = g_n(phi) * exp(-j*pi*p_n*sin(phi)) for integer
positions p_n in half-wavelength units. An optional coupling matrix C
left-multiplies the result.

SNR convention: noise power is 1 per element; a source quoted at S dB has
amplitude 10**(S/20), i.e. the power an isotropic element would receive.
Element gain then enters only through the steering vector, never twice.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry
from .patterns import ElementPattern, evaluate


@dataclass(frozen=True)
class ArrayManifold:
    """Geometry plus one pattern per element plus optional coupling."""

    geometry: ArrayGeometry
    element_patterns: tuple[ElementPattern, ...]
    coupling: np.ndarray | None = None

    def __post_init__(self):
        n = self.geometry.element_count
        if len(self.element_patterns) != n:
            raise ValueError(f"need {n} element patterns, got {len(self.element_patterns)}")
        if self.coupling is not None:
            c = np.array(self.coupling, dtype=complex)
            if c.shape != (n, n):
                raise ValueError(f"coupling must be {n}x{n}, got {c.shape}")
            if not np.allclose(c, c.T, atol=1e-9):
                raise ValueError("coupling must be symmetric (reciprocity)")
            if not np.allclose(np.diag(c), 1.0, atol=1e-9):
                raise ValueError("coupling diagonal must be 1")
            c.flags.writeable = False
            object.__setattr__(self, "coupling", c)


def make_manifold(geometry: ArrayGeometry, pattern) -> ArrayManifold:
    """Uncoupled manifold of one pattern for every element, or of one per element."""
    if isinstance(pattern, ElementPattern):
        patterns = (pattern,) * geometry.element_count
    else:
        patterns = tuple(pattern)
    return ArrayManifold(geometry, patterns)


def phase_ramp(geometry: ArrayGeometry, azimuth_deg) -> np.ndarray:
    """exp(-j*pi*p_n*sin(phi)) for every element n (rows) and azimuth phi."""
    az = np.atleast_1d(np.asarray(azimuth_deg, dtype=float))
    pos = np.asarray(geometry.positions, dtype=float)
    return np.exp(-1j * np.pi * pos[:, None] * np.sin(np.deg2rad(az))[None, :])


def steering_matrix(manifold: ArrayManifold, azimuth_deg) -> np.ndarray:
    """Steering vectors for a grid of azimuths, as columns of an N x K array."""
    az = np.atleast_1d(np.asarray(azimuth_deg, dtype=float))
    phase = phase_ramp(manifold.geometry, az)
    pats = manifold.element_patterns
    if all(p is pats[0] for p in pats):
        gains = np.broadcast_to(evaluate(pats[0], az), phase.shape)
    else:
        gains = np.stack([evaluate(p, az) for p in pats])
    a = gains * phase
    if manifold.coupling is not None:
        a = manifold.coupling @ a
    return a


def steering_vector(manifold: ArrayManifold, azimuth_deg: float) -> np.ndarray:
    """Single steering vector, shape (N,)."""
    return steering_matrix(manifold, azimuth_deg)[:, 0]


def apply_coupling_model(manifold: ArrayManifold, c1: complex,
                         decay: float) -> ArrayManifold:
    """Attach a distance-decaying mutual coupling surrogate.

    C[i][j] = c1 * decay**(|p_i - p_j| - 1) off the diagonal, 1 on it.
    Adjacent (spacing 1) elements couple with strength c1; wider spacings
    decay geometrically. c1 = 0 means no coupling.
    """
    if abs(c1) >= 1.0:
        raise ValueError(f"|c1| must be < 1, got {abs(c1)}")
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must be in (0, 1), got {decay}")
    if c1 == 0:
        return ArrayManifold(manifold.geometry, manifold.element_patterns)
    pos = np.asarray(manifold.geometry.positions)
    dist = np.abs(pos[:, None] - pos[None, :])
    c = np.where(dist == 0, 1.0 + 0.0j, c1 * np.power(float(decay), dist - 1.0))
    return ArrayManifold(manifold.geometry, manifold.element_patterns, c)


@dataclass(frozen=True)
class SourceScenario:
    """Far-field narrowband sources: angles (degrees) and per-source SNR (dB)."""

    angles: tuple[float, ...]
    snr_db: float | tuple[float, ...] = 0.0

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles)
        object.__setattr__(self, "angles", angles)
        if not angles:
            raise ValueError("need at least one source")
        if any(abs(a) > 90.0 for a in angles):
            raise ValueError(f"source angles must lie in [-90, 90]: {angles}")
        if len(set(angles)) != len(angles):
            raise ValueError(f"source angles must be distinct: {angles}")
        if isinstance(self.snr_db, (list, tuple)):
            snr = tuple(float(s) for s in self.snr_db)
            if len(snr) != len(angles):
                raise ValueError(f"need {len(angles)} SNR values, got {len(snr)}")
            object.__setattr__(self, "snr_db", snr)

    @property
    def source_count(self) -> int:
        return len(self.angles)

    @property
    def per_source_snr_db(self) -> tuple[float, ...]:
        if isinstance(self.snr_db, tuple):
            return self.snr_db
        return (float(self.snr_db),) * len(self.angles)


def generate_snapshots(manifold: ArrayManifold, scenario: SourceScenario,
                       snapshot_count: int, rng) -> np.ndarray:
    """Simulate x(t) = A s(t) + n(t) with unit-power complex Gaussian noise.

    Returns the N x T complex array. Sources are i.i.d. circular complex
    Gaussian with amplitude set by the per-source SNR. rng may be a Generator,
    a SeedSequence, or an int seed; the same seed and inputs reproduce the
    snapshots bit-identically (source draws come before noise draws).
    """
    if snapshot_count < 1:
        raise ValueError(f"snapshot_count must be >= 1, got {snapshot_count}")
    gen = np.random.default_rng(rng)

    n, l, t = manifold.geometry.element_count, scenario.source_count, snapshot_count
    sr = gen.standard_normal((2, l, t))
    nr = gen.standard_normal((2, n, t))
    return _synthesize(steering_matrix(manifold, scenario.angles),
                       scenario.per_source_snr_db, sr, nr)


def _synthesize(steering: np.ndarray, snr_db, sr: np.ndarray, nr: np.ndarray) -> np.ndarray:
    """x = A s + n from standard normal draws, for one trial or a stack.

    sr (..., 2, L, T) holds the real and imaginary source draws, scaled to
    the per-source SNRs snr_db; nr (..., 2, N, T) those of the unit-power
    noise. A is N x L or a matching stack (..., N, L). Every entry of a
    stack is computed with exactly the arithmetic of its trial alone.

    The sources are filled, and the noise added, through the real and
    imaginary views of one complex array each, with no complex temporary.
    The values are those of amp * (re + 1j*im) / sqrt(2): numpy divides a
    complex number by a real one as a multiply by its reciprocal.
    """
    scale = 1.0 / np.sqrt(2.0)
    # one amplitude per source, as an array even for equal SNRs: on numpy 2.4.6
    # (AVX-512) a 0-d power differs in its last bit from the array loop for 11
    # of 320 SNRs in 0.25 dB steps over [-40, 40), so a scalar moves estimates
    amp = 10.0 ** (np.asarray(snr_db) / 20.0)[:, None]
    s = np.empty(sr.shape[:-3] + sr.shape[-2:], dtype=complex)
    for part, draw in ((s.real, sr[..., 0, :, :]), (s.imag, sr[..., 1, :, :])):
        np.multiply(amp, draw, out=part)
        part *= scale
    x = steering @ s
    for part, draw in ((x.real, nr[..., 0, :, :]), (x.imag, nr[..., 1, :, :])):
        part += draw * scale
    return x


def sample_covariance(snapshots) -> np.ndarray:
    """Hermitian sample covariance X X^H / T, symmetrized against roundoff.

    A stack (..., N, T) of snapshot arrays gives the stack of their
    covariances, each bit for bit the covariance of its array alone.
    """
    x = np.asarray(snapshots)
    if x.ndim < 2 or x.shape[-1] < 1:
        raise ValueError(f"need an N x T snapshot array or a stack of them, "
                         f"got shape {x.shape}")
    r = x @ np.swapaxes(x.conj(), -1, -2) / x.shape[-1]
    return (r + np.swapaxes(r.conj(), -1, -2)) / 2.0

"""Trial stream keying and seeding.

Trial t of sweep point p draws from streams keyed by (seed, p, t). Their
PCG64 states are computed here in bulk, bit for bit as numpy's SeedSequence
and PCG64 seed them, and loaded into one reused generator as they draw.
"""
from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator

import numpy as np

# numpy's SeedSequence (NEP 19) hashes 32-bit entropy words into a pool of 4
# words and hashes the pool out again for generate_state; PCG64 seeds its
# 128-bit LCG from generate_state(4, uint64). These are their constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..n: the successive hash constants."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(words: np.ndarray, k: int, n: int) -> np.ndarray:
    """SeedSequence's hashmix of the n words on the last axis, as its hash
    calls k..k+n-1."""
    h = _hash_consts(_INIT_A, _MULT_A, k + n)
    v = (words ^ h[k:k + n]) * h[k + 1:]
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_L - y * _MIX_R
    return v ^ v >> 16


def _absorb(pool: np.ndarray, word: np.ndarray, k: int) -> np.ndarray:
    """Mix one entropy word beyond the pool size into every pool word, as
    hash calls k..k+3."""
    return _mix(pool, _hashmix(word[..., None], k, _POOL))


def _pcg64_states(pool: np.ndarray) -> list[tuple[int, int]]:
    """PCG64's (state, inc) when seeded from each pool row: generate_state(4,
    uint64) gives initstate and initseq, then inc = 2 initseq + 1 and
    state = (inc + initstate) M + inc, mod 2**128."""
    h = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    v = (np.tile(pool, 2) ^ h[:-1]) * h[1:]
    words = np.ascontiguousarray(v ^ v >> 16, dtype="<u4").view("<u8").reshape(-1, 4)
    states = []
    for a, b, c, d in words.tolist():
        inc = (c << 65 | d << 1 | 1) & _MASK128
        states.append((((a << 64 | b) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


def _stream_states(seed: int, point_index: int, trials,
                   elements: int) -> tuple[list, list | None]:
    """PCG64 (state, inc) pairs of every trial t in `trials` at once, bit for
    bit those of default_rng on the children of
    SeedSequence([seed, point_index, t]).spawn(2).

    Returns the snapshot stream's pair per trial (spawn key (1,)) and, if
    `elements` > 0, the pairs of the perturbation stream's first `elements`
    children (spawn key (0, j)), trial-major; else None. Indices must be
    below 2**32, one entropy word each.
    """
    t = np.asarray(trials)
    if t.size and not (t.min() >= 0 and t.max() <= _MASK32):
        raise ValueError(f"trial indices must be in [0, 2**32), got {trials!r}")
    # SeedSequence reads an integer as little-endian 32-bit words, 0 as one
    # word, and pads run entropy shorter than the pool with zeros when it has
    # a spawn key
    head = [seed & _MASK32]
    while seed := seed >> 32:
        head.append(seed & _MASK32)
    head.append(point_index)
    run = np.zeros((t.size, max(_POOL, len(head) + 1)), dtype=np.uint32)
    run[:, :len(head)] = head
    run[:, len(head)] = t
    pool = _hashmix(run[:, :_POOL], 0, _POOL)
    k = _POOL
    for src in range(_POOL):
        # the updates from one source word read no other destination word
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src:src + 1], k, _POOL - 1))
        k += _POOL - 1
    for word in run.T[_POOL:]:
        pool = _absorb(pool, word, k)
        k += _POOL
    # the spawn key's words come last: (1,) for snapshots, (0, j) for element j
    snap = _pcg64_states(_absorb(pool, np.ones(1, dtype=np.uint32), k))
    if not elements:
        return snap, None
    pert = _absorb(pool, np.zeros(1, dtype=np.uint32), k)
    j = np.arange(elements, dtype=np.uint32)
    return snap, _pcg64_states(_absorb(pert[:, None], j, k + _POOL))


def loaded(rng: np.random.Generator,
           pairs: Iterable[tuple[int, int]]) -> Iterator[np.random.Generator]:
    """`rng` set to each PCG64 (state, inc) pair of `pairs` in turn, as
    default_rng of that stream's SeedSequence starts, just before the
    caller draws from it."""
    for state, inc in pairs:
        rng.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng

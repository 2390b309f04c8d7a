"""The trial streams: numpy's SeedSequence and PCG64 seeding, replayed in bulk."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doasim import _streams


@pytest.fixture(scope="module")
def loader():
    """The engine's stream loader on one fresh generator: it sets that
    generator to each pair it is given, in turn."""
    return functools.partial(_streams.loaded, np.random.Generator(np.random.PCG64(0)))


_SEED = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64]),
                  st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                  st.integers(2**64, 2**200))
_INDEX = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(seed=_SEED, point=_INDEX, trials=st.lists(_INDEX, min_size=1, max_size=4),
       elements=st.integers(1, 16))
def test_stream_states_match_seed_sequence(loader, seed, point, trials, elements):
    # the bulk kernel reproduces SeedSequence([seed, p, t]).spawn(2), the first
    # child's spawn(elements) and PCG64's seeding; a numpy release that seeds
    # differently fails here instead of silently moving every output
    snap, elems = _streams._stream_states(seed, point, trials, elements)
    assert len(snap) == len(trials) and len(elems) == len(trials) * elements
    for i, t in enumerate(trials):
        pert_seq, snap_seq = np.random.SeedSequence([seed, point, t]).spawn(2)
        pairs = [snap[i], *elems[i * elements:(i + 1) * elements]]
        for seq, got in zip([snap_seq, *pert_seq.spawn(elements)], loader(pairs)):
            expected = np.random.default_rng(seq)
            assert got.bit_generator.state == expected.bit_generator.state
            assert got.standard_normal() == expected.standard_normal()
            assert got.uniform() == expected.uniform()
            assert got.normal(1.0, 2.0) == expected.normal(1.0, 2.0)


def test_stream_states_reject_indices_past_one_word():
    for trial in (-1, 2**32):
        with pytest.raises(ValueError, match="trial indices"):
            _streams._stream_states(0, 0, [trial], 0)

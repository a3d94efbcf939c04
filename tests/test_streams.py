"""The batch-wide stream words against numpy's own generators."""
import numpy as np
import pytest

from trimix.streams import as_random, derived_rng, initial_states, raw_words

SEEDS = (0, 7, 2**32 - 1, 2**32, 2**40, 2**130 + 5)
PREFIXES = ((), (1, 3, 8), (2, 5))
ROWS = np.array([(i, v) for v in (0, 1) for i in range(64)])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix", PREFIXES)
def test_words_equal_the_generators_raw_output(seed, prefix):
    # a numpy upgrade that changes SeedSequence or PCG64 fails here first
    expected = np.array([derived_rng(seed, *prefix, *row).bit_generator.random_raw(5)
                         for row in ROWS.tolist()])
    for n in range(1, 6):
        assert np.array_equal(raw_words(seed, prefix, ROWS, n), expected[:, :n]), n


def test_rows_of_any_width():
    for rows in (np.zeros((3, 0), dtype=np.int64), np.arange(5)[:, None], np.arange(12).reshape(3, 4)):
        expected = [derived_rng(9, 4, *row).bit_generator.random_raw(2) for row in rows.tolist()]
        assert np.array_equal(raw_words(9, (4,), rows, 2), np.array(expected).reshape(-1, 2))


def test_key_values_past_32_bits_build_their_generator():
    rows = np.array([(1, 2**32), (3, 4), (0, 2**32 - 1), (2**40 + 3, 0)])
    expected = [derived_rng(7, 2, *row).bit_generator.random_raw(3) for row in rows.tolist()]
    assert np.array_equal(raw_words(7, (2,), rows, 3), np.array(expected))


def test_as_random_is_the_generators_random():
    rows = np.arange(40)[:, None]
    assert as_random(raw_words(11, (2, 6), rows, 1)[:, 0]).tolist() == [
        derived_rng(11, 2, 6, b).random() for b in range(40)]


WIDE_ROWS = np.concatenate([ROWS, [(2**32 - 1, 0), (2**32, 1), (5, 2**32), (2**40 + 3, 0)]])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix", PREFIXES)
def test_initial_states_equal_the_generators_state(seed, prefix):
    states = initial_states(seed, prefix, WIDE_ROWS)
    assert len(states) == len(WIDE_ROWS)
    for row, state in zip(WIDE_ROWS.tolist(), states):
        assert state == derived_rng(seed, *prefix, *row).bit_generator.state, row


@pytest.mark.parametrize("seed", (0, 2**32, 2**130 + 5))
def test_a_pcg64_set_to_a_state_draws_what_the_generator_draws(seed):
    bitgen = np.random.PCG64(1)
    gen = np.random.Generator(bitgen)
    for row, state in zip(WIDE_ROWS.tolist(), initial_states(seed, (4,), WIDE_ROWS)):
        own = derived_rng(seed, 4, *row)
        bitgen.state = state
        for draw in (lambda g: g.normal(0.0, 0.8, size=2), lambda g: g.uniform(0.85, 1.0),
                     lambda g: g.random(3), lambda g: g.integers(0, 5, size=4),
                     lambda g: g.permutation(9), lambda g: g.normal(size=(4, 4))):
            assert np.array_equal(draw(gen), draw(own)), row

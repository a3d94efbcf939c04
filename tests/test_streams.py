"""The batch-wide stream words against numpy's own generators."""
import numpy as np
import pytest

from trimix.streams import as_random, derived_rng, raw_words

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

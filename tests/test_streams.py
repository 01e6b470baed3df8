import warnings

import numpy as np
import pytest

from geomedian.streams import NS_BOOT_MEDIAN, NS_DATA, child_seed, rademacher, substream


def test_substream_reproducible():
    a = substream(7, NS_DATA, 3).standard_normal(16)
    b = substream(7, NS_DATA, 3).standard_normal(16)
    assert np.array_equal(a, b)


def test_substream_keys_distinguish_everything():
    draws = {
        "base": substream(7, NS_DATA, 3).standard_normal(8).tobytes(),
        "seed": substream(8, NS_DATA, 3).standard_normal(8).tobytes(),
        "namespace": substream(7, NS_BOOT_MEDIAN, 3).standard_normal(8).tobytes(),
        "index": substream(7, NS_DATA, 4).standard_normal(8).tobytes(),
    }
    assert len(set(draws.values())) == 4


def test_child_seed_deterministic_and_keyed():
    assert child_seed(1, 2, 3) == child_seed(1, 2, 3)
    assert child_seed(1, 2, 3) != child_seed(1, 2, 4)
    assert child_seed(1, 2, 3) != child_seed(2, 2, 3)


def _philox_signs(seed, namespace, replicate, n):
    """Signs of one replicate read bit by bit from numpy's own Philox stream.

    The stream is read from counter 0 with no ``advance``: replicate b owns
    ceil(ceil(n / 64) / 4) blocks of four 64-bit words, starting at word
    4 * b * blocks.
    """
    key = np.random.SeedSequence(seed, spawn_key=(namespace,)).generate_state(2, np.uint64)
    words = -(-n // 64)
    start = 4 * replicate * -(-words // 4)
    raw = np.random.Philox(key=key).random_raw(start + words)[start:]
    return np.array([1.0 if (int(raw[i // 64]) >> (i % 64)) & 1 else -1.0 for i in range(n)])


@pytest.mark.parametrize("n", [1, 63, 64, 65, 100, 257])
def test_rademacher_matches_numpy_philox(n):
    # 250..261 crosses the bootstrap's 256-replicate batch boundary
    first, count = 250, 12
    for seed, namespace in [(0, NS_BOOT_MEDIAN), (2**64 - 1, 9)]:
        signs = rademacher(seed, namespace, first, count, n)
        assert signs.shape == (count, n) and signs.dtype == np.float64
        for row in range(count):
            assert np.array_equal(signs[row], _philox_signs(seed, namespace, first + row, n))


def test_rademacher_rows_depend_only_on_replicate():
    whole = rademacher(3, NS_BOOT_MEDIAN, 0, 300, 70)
    for first, count in [(0, 1), (5, 17), (255, 2), (256, 44), (299, 1)]:
        assert np.array_equal(rademacher(3, NS_BOOT_MEDIAN, first, count, 70), whole[first:first + count])


def test_rademacher_keys_distinguish_everything():
    draws = {
        "base": rademacher(7, NS_BOOT_MEDIAN, 3, 1, 128).tobytes(),
        "seed": rademacher(8, NS_BOOT_MEDIAN, 3, 1, 128).tobytes(),
        "namespace": rademacher(7, NS_DATA, 3, 1, 128).tobytes(),
        "replicate": rademacher(7, NS_BOOT_MEDIAN, 4, 1, 128).tobytes(),
    }
    assert len(set(draws.values())) == 4


def test_rademacher_values_and_balance():
    draws = rademacher(0, 9, 0, 1, 20000)
    assert draws.shape == (1, 20000)
    assert set(np.unique(draws)) == {-1.0, 1.0}
    assert abs(draws.mean()) < 4.0 / np.sqrt(20000)
    # every bit position of a word is balanced across replicates
    columns = rademacher(0, 9, 0, 4000, 64).mean(axis=0)
    assert np.abs(columns).max() < 5.0 / np.sqrt(4000)


def test_rademacher_emits_no_warning():
    # the key schedule wraps modulo 2**64; numpy warns on uint64 scalar overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 1, 2**63, 2**64 - 1):
            rademacher(seed, NS_BOOT_MEDIAN, 2**40, 3, 300)

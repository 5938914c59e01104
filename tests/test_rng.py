import math

import numpy as np
import pytest

from gtslatent import rng as rng_module
from gtslatent.rng import Rng, derive_seed


def test_same_seed_same_stream():
    a = Rng(1234)
    b = Rng(1234)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_differ():
    a = [Rng(1).next_u64() for _ in range(4)]
    b = [Rng(2).next_u64() for _ in range(4)]
    assert a != b


def test_uniform_range_and_determinism():
    rng = Rng(7)
    vals = [rng.uniform() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    # crude uniformity sanity
    assert 0.4 < np.mean(vals) < 0.6


def test_uniform_in_bounds():
    rng = Rng(3)
    for _ in range(500):
        v = rng.uniform_in(-2.5, 1.5)
        assert -2.5 <= v < 1.5


def test_randint_range_and_errors():
    rng = Rng(11)
    counts = [0] * 5
    for _ in range(5000):
        counts[rng.randint(5)] += 1
    assert all(c > 800 for c in counts)
    with pytest.raises(ValueError):
        rng.randint(0)


def test_shuffle_is_permutation():
    rng = Rng(5)
    items = list(range(40))
    shuffled = items.copy()
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_uniform_matrix_shape_bounds_determinism():
    a = Rng(9).uniform_matrix(7, 5, -0.25, 0.25)
    b = Rng(9).uniform_matrix(7, 5, -0.25, 0.25)
    assert a.shape == (7, 5)
    assert np.all(a >= -0.25) and np.all(a < 0.25)
    assert np.array_equal(a, b)


def test_derive_seed_independent_streams():
    children = [derive_seed(42, i) for i in range(100)]
    assert len(set(children)) == 100
    assert derive_seed(42, 3) == derive_seed(42, 3)
    assert derive_seed(42, 3) != derive_seed(43, 3)
    with pytest.raises(ValueError):
        derive_seed(1, -1)


def _scalar_draws(rng, k):
    return [rng.next_u64() for _ in range(k)]


def _reference_shuffle(rng, items):
    """The one-draw-at-a-time Fisher-Yates that block draws must reproduce."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("k", [0, 1, rng_module._BLOCK_MIN - 1,
                               rng_module._BLOCK_MIN, 5000, 70900, 256000])
def test_block_draws_equal_scalar_draws(k):
    if k == 5000:  # not a multiple of the lane length, so a scalar tail runs
        assert k % math.isqrt(k) != 0
    scalar, block = Rng(2024), Rng(2024)
    expected = _scalar_draws(scalar, k)
    got = block._next_block(k)
    assert got.dtype == np.uint64 and got.shape == (k,)
    assert got.tolist() == expected
    assert block.next_u64() == scalar.next_u64()


def test_block_draws_across_chunks(monkeypatch):
    monkeypatch.setattr(rng_module, "_CHUNK_DRAWS", 4096)
    scalar, block = Rng(77), Rng(77)
    assert block._next_block(70900).tolist() == _scalar_draws(scalar, 70900)
    assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("n, count", [(0, 2), (1, 3), (2, 4), (10, 5),
                                      (710, 12)])
def test_permutations_equal_successive_shuffles(monkeypatch, n, count):
    monkeypatch.setattr(rng_module, "_CHUNK_DRAWS", 4096)  # several blocks
    shuffled, permuted = Rng(31), Rng(31)
    expected = []
    for _ in range(count):
        items = list(range(n))
        shuffled.shuffle(items)
        expected.append(items)
    got = list(permuted.permutations(n, count))
    assert [p.tolist() for p in got] == expected
    assert permuted.next_u64() == shuffled.next_u64()


@pytest.mark.parametrize("n", [2, 10, 5000])
def test_shuffle_matches_reference_loop(n):
    items, reference = list(range(n)), list(range(n))
    block, scalar = Rng(8), Rng(8)
    block.shuffle(items)
    _reference_shuffle(scalar, reference)
    assert items == reference
    assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("rows, cols", [(1, 1), (7, 5), (256, 64)])
def test_uniform_matrix_matches_elementwise_loop(rows, cols):
    scalar = Rng(13)
    flat = np.empty(rows * cols)
    for k in range(rows * cols):
        flat[k] = scalar.uniform()
    expected = -0.3 + (0.4 - -0.3) * flat.reshape(rows, cols)
    block = Rng(13)
    got = block.uniform_matrix(rows, cols, -0.3, 0.4)
    assert got.tobytes() == expected.tobytes()
    assert block.next_u64() == scalar.next_u64()


def test_permutations_validation():
    with pytest.raises(ValueError):
        next(Rng(1).permutations(-1, 2))
    with pytest.raises(ValueError):
        next(Rng(1).permutations(3, -2))
    assert list(Rng(1).permutations(5, 0)) == []


# Known answers of the stream, computed with the one-draw-at-a-time
# generator; a change to any of them changes every dataset and run.
@pytest.mark.parametrize("seed, first", [
    (0, [0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0]),
    (1, [0xB3F2AF6D0FC710C5, 0x853B559647364CEA, 0x92F89756082A4514]),
    (42, [0x15780B2E0C2EC716, 0x6104D9866D113A7E, 0xAE17533239E499A1]),
    (2 ** 64 - 1, [0x8F5520D52A7EAD08, 0xC476A018CAA1802D,
                   0x81DE31C0D260469E]),
])
def test_known_answer_first_draws(seed, first):
    rng = Rng(seed)
    assert [rng.next_u64() for _ in range(3)] == first


def test_known_answer_uniform_matrix_and_shuffle():
    assert Rng(7).uniform_matrix(2, 3, -0.5, 0.5).tolist() == [
        [0.2005764821796896, -0.22124877052621572, 0.3396274618764198],
        [0.4810977250149351, 0.49086027883306826, 0.372773938745132]]
    items = list(range(10))
    Rng(5).shuffle(items)
    assert items == [4, 2, 9, 3, 7, 1, 8, 6, 0, 5]

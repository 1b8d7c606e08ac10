import numpy as np
import pytest

from vfsynth.rng import RngStream


def test_same_seed_and_path_reproduces():
    a = RngStream(42, "train", 0)
    b = RngStream(42, "train", 0)
    assert np.array_equal(a.normal(100), b.normal(100))
    assert np.array_equal(a.integers(0, 1000, size=50), b.integers(0, 1000, size=50))
    # every party draws its batch rows like this, so the rows stay aligned
    for _ in range(10):
        assert np.array_equal(a.subsample(100, 32), b.subsample(100, 32))


def test_distinct_paths_are_independent():
    a = RngStream(42, "train", 0)
    b = RngStream(42, "train", 1)
    assert not np.array_equal(a.normal(100), b.normal(100))


def test_interleaving_has_no_effect():
    a1 = RngStream(7, "a")
    b1 = RngStream(7, "b")
    interleaved_a = [a1.normal(3) for _ in range(4)]
    interleaved_b = [b1.normal(3) for _ in range(4)]

    a2 = RngStream(7, "a")
    solo_a = [a2.normal(3) for _ in range(4)]
    for x, y in zip(interleaved_a, solo_a):
        assert np.array_equal(x, y)
    b2 = RngStream(7, "b")
    solo_b = [b2.normal(3) for _ in range(4)]
    for x, y in zip(interleaved_b, solo_b):
        assert np.array_equal(x, y)


def test_child_derivation_is_stable():
    root = RngStream(3)
    c1 = root.child("shadow", 5)
    c2 = RngStream(3, "shadow", 5)
    assert c1.stream_id == c2.stream_id
    assert np.array_equal(c1.uniform(10), c2.uniform(10))


def test_int_and_str_labels_hash_differently():
    assert RngStream(0, 1).stream_id != RngStream(0, "1").stream_id


# a float or bool seed once ran as int(seed), and a string seed as its number
@pytest.mark.parametrize("seed", [1.5, True, "3"])
def test_seed_must_be_an_int(seed):
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got "):
        RngStream(seed)


def test_bool_label_rejected():
    with pytest.raises(TypeError):
        RngStream(0, True)


def test_subsample_full_range_is_sorted_identity():
    s = RngStream(11)
    assert np.array_equal(s.subsample(5, 5), np.arange(5))
    assert np.array_equal(RngStream(11).subsample(1, 1), np.array([0]))


def test_subsample_rejects_oversize():
    with pytest.raises(ValueError):
        RngStream(0).subsample(3, 4)


def test_subsample_uniform_inclusion():
    # empirical inclusion frequency of each index ~ k/n
    n, k, reps = 10, 3, 100_000
    s = RngStream(123, "mc")
    counts = np.zeros(n)
    for _ in range(reps):
        counts[s.subsample(n, k)] += 1
    freq = counts / reps
    assert np.all(np.abs(freq - k / n) < 0.01)


def test_subsample_indices_distinct():
    s = RngStream(5)
    for _ in range(100):
        idx = s.subsample(20, 12)
        assert len(np.unique(idx)) == 12

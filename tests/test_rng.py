import numpy as np
import pytest

from cqbrain.errors import InvalidArgument
from cqbrain.rng import _GOLDEN, _MASK64, Rng, _fnv1a

from oracles import finalize_scalar


def test_same_seed_same_stream():
    a = Rng(42).uniform(100)
    b = Rng(42).uniform(100)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).uniform(50), Rng(2).uniform(50))


def test_derived_streams_are_independent_of_draw_order():
    root = Rng(7)
    a = root.derive("alpha")
    b = root.derive("beta")
    first = a.uniform(10)

    root2 = Rng(7)
    b2 = root2.derive("beta")
    _ = b2.uniform(5)  # draws on one stream must not disturb the other
    a2 = root2.derive("alpha")
    assert np.array_equal(first, a2.uniform(10))
    assert not np.array_equal(Rng(7).derive("alpha").uniform(10), b.uniform(10))


def test_derivation_is_stable_regardless_of_parent_consumption():
    root = Rng(3)
    root.uniform(100)
    assert np.array_equal(root.derive("x").uniform(4), Rng(3).derive("x").uniform(4))


def test_uniform_bounds_and_moments():
    u = Rng(0).uniform(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normal_moments():
    z = Rng(11).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert np.isfinite(z).all()


def test_normal_odd_length_and_scalar():
    z = Rng(5).normal(7)
    assert z.shape == (7,)
    scalar = Rng(5).normal(())
    assert isinstance(scalar, np.ndarray) and scalar.shape == ()


def test_integers_range():
    v = Rng(9).integers(3, 17, 1000)
    assert v.min() >= 3 and v.max() < 17
    assert len(np.unique(v)) == 14
    for high in (3, 2):
        with pytest.raises(InvalidArgument, match="empty range"):
            Rng(9).integers(3, high, 1)


def test_permutation_is_a_permutation():
    p = Rng(13).permutation(50)
    assert sorted(p.tolist()) == list(range(50))
    assert not np.array_equal(p, np.arange(50))


def test_shapes():
    assert Rng(1).uniform((3, 4)).shape == (3, 4)
    assert Rng(1).normal((2, 5)).shape == (2, 5)
    assert Rng(1).integers(0, 10, (2, 2)).shape == (2, 2)


@pytest.mark.parametrize("seed", [0, -1, 2**64 + 5])
@pytest.mark.parametrize("label", ["", "größe:µ"])
def test_keys_and_first_draws_match_the_scalar_finalizer(seed, label):
    root_key = finalize_scalar((seed & _MASK64) * _GOLDEN)
    child_key = finalize_scalar(root_key ^ _fnv1a(label))
    root, child = Rng(seed), Rng(seed).derive(label)
    assert (int(root._key), int(child._key)) == (root_key, child_key)
    for rng, key in ((root, root_key), (child, child_key)):
        raw = [finalize_scalar(key + i * _GOLDEN) for i in range(3)]
        assert rng.uniform(3).tolist() == [(x >> 11) * 2.0**-53 for x in raw]

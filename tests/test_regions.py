import numpy as np
import pytest

from prtree.regions import Region


def test_root_region_covers_everything():
    r = Region.root(3)
    assert r.lower.shape == r.upper.shape == (3,)
    assert np.all(np.isinf(r.lower)) and np.all(np.isinf(r.upper))
    X = np.array([[0.0, 1e10, -1e10]])
    assert r.contains(X).tolist() == [True]


def test_split_replaces_one_bound():
    r = Region.root(2)
    left, right = r.split(0, 1.5)
    assert left.upper[0] == 1.5 and left.upper[1] == np.inf
    assert right.lower[0] == 1.5 and right.lower[1] == -np.inf
    with pytest.raises(ValueError, match="outside open interval"):
        left.split(0, 2.0)


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        Region(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Region(np.array([0.0]), np.array([[1.0]]))


def test_contains_half_open():
    r = Region(np.array([0.0]), np.array([1.0]))
    X = np.array([[0.0], [0.5], [1.0], [1.5]])
    assert r.contains(X).tolist() == [False, True, True, False]


def test_children_partition_parent_rows():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 2))
    parent = Region(np.array([-1.0, -np.inf]), np.array([1.0, 0.5]))
    left, right = parent.split(1, -0.3)
    inp = parent.contains(X)
    assert np.array_equal(inp, left.contains(X) | right.contains(X))
    assert not np.any(left.contains(X) & right.contains(X))

import numpy as np
import pytest

from prtree.regions import Region
from prtree.tree import FlatTree


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


def test_leaf_regions_equal_regions_built_through_the_constructor():
    # Region.split builds its children unchecked; every leaf region must still
    # be what the validated constructor gives for the same bounds
    nodes = FlatTree.leaf()
    for i, j, s in ((0, 0, 0.5), (1, 1, -1.0), (2, 0, 2.0), (4, 2, 0.0), (3, 1, -3.0)):
        nodes.grow(i, j, s)
    found = nodes.leaf_regions(3)
    assert len(found) == 6
    for _, r in found:
        checked = Region(r.lower.tolist(), r.upper.tolist())
        for got, want in ((r.lower, checked.lower), (r.upper, checked.upper)):
            assert got.dtype == want.dtype == float and got.shape == want.shape == (3,)
            assert np.array_equal(got, want) and not got.flags.writeable
    with pytest.raises(ValueError, match="outside open interval"):
        found[0][1].split(0, 0.5)

import numpy as np
import pytest

from prtree.data import (
    CsvFormatError,
    Dataset,
    RngSpec,
    StandardScaler,
    load_csv,
    read_csv,
    standard_scale,
)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 2)), np.ones(2), ("a", "b"))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, np.nan]]), np.array([1.0]), ("a", "b"))
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 2)), np.ones(3), ("a",))


def test_dataset_subset():
    d = Dataset(np.arange(12.0).reshape(4, 3), np.arange(4.0), ("a", "b", "c"))
    s = d.subset([2, 0])
    assert s.n == 2
    assert np.array_equal(s.features[0], d.features[2])
    assert s.target.tolist() == [2.0, 0.0]


def test_rng_determinism_and_streams():
    a = RngSpec(7).generator().random(5)
    b = RngSpec(7).generator().random(5)
    assert np.array_equal(a, b)
    c = RngSpec(7, 1).generator().random(5)
    assert not np.array_equal(a, c)
    assert RngSpec(7).stream(3) == RngSpec(7, 3)


def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,y,b\n1,10,2\n3,20,4\n")
    d = load_csv(path, "y")
    assert d.feature_names == ("a", "b")
    assert d.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert d.target.tolist() == [10.0, 20.0]
    assert read_csv(path)[1].tolist() == [[1.0, 10.0, 2.0], [3.0, 20.0, 4.0]]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("a,b\n1,2\n", "target column not found"),
        ("a,b,a,y\n1,2,3,4\n", "duplicate column names"),
        ("a,y\n1\n", "expected 2 cells"),
        ("a,y\n1,\n", "blank cell"),
        ("a,y\nfoo,2\n", "non-numeric"),
        ("a,y\n1,2\nnan,2\n", "row 3, column 'a': non-finite"),
        ("a,y\n1,inf\n", "row 2, column 'y': non-finite"),
        ("", "empty file"),
        ("a,y\n", "no data rows"),
    ],
)
def test_load_csv_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError, match=fragment):
        load_csv(path, "y")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(CsvFormatError, match="file not found"):
        load_csv(tmp_path / "nope.csv", "y")


def test_scaler_statistics():
    X = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
    sc = StandardScaler().fit(X)
    assert np.allclose(sc.mean, [3.0, 5.0])
    assert np.allclose(sc.std, [2.0, 1.0])  # zero-variance column keeps std 1
    Z = sc.transform(X)
    assert np.allclose(Z[:, 0], [-1.0, 0.0, 1.0])
    assert np.allclose(Z[:, 1], 0.0)


def test_standard_scale_dataset():
    rng = np.random.default_rng(1)
    d = Dataset(rng.normal(2.0, 3.0, size=(50, 2)), rng.normal(size=50), ("a", "b"))
    scaled, sc = standard_scale(d)
    assert np.allclose(scaled.features.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(scaled.features.std(axis=0, ddof=1), 1.0)
    assert np.array_equal(scaled.target, d.target)
    assert np.allclose(sc.transform(d.features), scaled.features)

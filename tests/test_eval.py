import numpy as np
import pytest

from conftest import random_dataset
from prtree import evaluate
from prtree.data import Dataset, RngSpec
from prtree.evaluate import (
    GRID_MULTIPLIERS,
    LearnerSpec,
    bias_variance,
    cross_validate,
    fit_model,
    make_cv_plan,
    tune_sigma,
    write_biasvar_csv,
    write_cv_csv,
)
from prtree.pbart import PBartHyper
from prtree.tree import StoppingRule, fit_prtree


class _Constant:
    def __init__(self, value):
        self.value = value

    def predict(self, X):
        return np.full(np.atleast_2d(X).shape[0], self.value)


def _fit_with(monkeypatch, fit):
    """Make the harness fit `fit(train)` whatever the spec names."""
    monkeypatch.setattr(evaluate, "fit_model", lambda spec, tr, sigma, rng: fit(tr))


def test_plan_partitions_and_stratifies():
    rng = np.random.default_rng(0)
    d = random_dataset(rng, 137, 2)
    plan = make_cv_plan(d)
    assert plan.n_folds == 10
    all_idx = sorted(i for fold in plan.folds for i in fold)
    assert all_idx == list(range(137))
    # per-fold decile histograms stay within one count of an even share
    edges = np.quantile(d.target, np.linspace(0, 1, 11)[1:-1])
    bins = np.searchsorted(edges, d.target, side="left")
    for b in range(10):
        counts = [np.sum(bins[list(fold)] == b) for fold in plan.folds]
        assert max(counts) - min(counts) <= 1


def test_plan_round_indices():
    rng = np.random.default_rng(1)
    d = random_dataset(rng, 50, 1)
    plan = make_cv_plan(d)
    rest, test = plan.round_indices(3)
    assert sorted(np.concatenate([rest, test]).tolist()) == list(range(50))
    assert test.size == len(plan.folds[3]) + len(plan.folds[4])


def test_plan_too_small():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        make_cv_plan(random_dataset(rng, 5, 1))


@pytest.mark.parametrize("n_folds", [0, 1, 2])
def test_plan_needs_a_training_fold(n_folds):
    # each round holds out two folds, so two or fewer leave nothing to train on
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="at least 3.*holds out two folds"):
        make_cv_plan(random_dataset(rng, 50, 1), n_folds=n_folds)
    assert make_cv_plan(random_dataset(rng, 50, 1), n_folds=3).n_folds == 3


def test_tune_sigma_grid_structure(small_data):
    train = small_data.subset(np.arange(60))
    valid = small_data.subset(np.arange(60, 80))
    sigma = tune_sigma(train, valid, lambda tr, s: fit_prtree(tr, s))
    sigma_hat = train.features.std(axis=0, ddof=1)
    ratios = sigma / sigma_hat
    assert np.allclose(ratios, ratios[0])
    assert any(abs(ratios[0] - c) < 1e-12 for c in GRID_MULTIPLIERS)


def test_tune_sigma_piecewise_constant_prefers_hard():
    # noiseless step target: the hard tree is exact, so c = 0 wins
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, size=(120, 1))
    y = np.where(X[:, 0] > 0.0, 5.0, -5.0)
    d = Dataset(X, y, ("a",))
    sigma = tune_sigma(d.subset(np.arange(90)), d.subset(np.arange(90, 120)),
                       lambda tr, s: fit_prtree(tr, s))
    assert np.all(sigma == 0.0)


def test_tune_sigma_all_tie_returns_smallest(small_data):
    train = small_data.subset(np.arange(60))
    valid = small_data.subset(np.arange(60, 80))
    sigma = tune_sigma(train, valid, lambda tr, s: _Constant(0.0))
    assert np.all(sigma == 0.0)


def test_tune_sigma_no_finite_rmse_raises(small_data):
    train = small_data.subset(np.arange(60))
    valid = small_data.subset(np.arange(60, 80))
    with pytest.raises(ValueError, match=r"0\.0, 0\.25, .*2\.0\]"):
        tune_sigma(train, valid, lambda tr, s: _Constant(np.nan))


def test_empty_validation_subset_rejected(small_data):
    # an empty validation set cannot even be constructed as a Dataset
    with pytest.raises(ValueError):
        small_data.subset([])


def test_cross_validate_perfect_learner_is_zero(monkeypatch):
    rng = np.random.default_rng(8)
    d = Dataset(rng.normal(size=(60, 2)), np.full(60, 3.0), ("a", "b"))
    _fit_with(monkeypatch, lambda tr: _Constant(3.0))
    spec = LearnerSpec(sigma=np.zeros(2))
    res = cross_validate(d, spec, make_cv_plan(d), RngSpec(0))
    assert np.all(res.fold_rmse == 0.0) and res.mean == 0.0


def test_cross_validate_constant_on_standardized_target(monkeypatch):
    rng = np.random.default_rng(4)
    y = rng.normal(size=200)
    y = (y - y.mean()) / y.std(ddof=0)
    d = Dataset(rng.normal(size=(200, 2)), y, ("a", "b"))
    _fit_with(monkeypatch, lambda tr: _Constant(tr.target.mean()))
    spec = LearnerSpec(sigma=np.zeros(2))
    res = cross_validate(d, spec, make_cv_plan(d), RngSpec(0))
    assert res.mean == pytest.approx(1.0, abs=0.15)


def test_cross_validate_zero_predictor_rms(monkeypatch):
    rng = np.random.default_rng(5)
    d = Dataset(rng.normal(size=(100, 1)), rng.normal(size=100), ("a",))
    _fit_with(monkeypatch, lambda tr: _Constant(0.0))
    spec = LearnerSpec(sigma=np.zeros(1))
    plan = make_cv_plan(d)
    res = cross_validate(d, spec, plan, RngSpec(0))
    for i in range(10):
        _, test = plan.round_indices(i)
        rms = np.sqrt(np.mean(d.target[test] ** 2))
        assert res.fold_rmse[i] == pytest.approx(rms, abs=1e-9)


def test_cross_validate_deterministic(small_data):
    plan = make_cv_plan(small_data)
    spec = LearnerSpec(kind="tree")
    a = cross_validate(small_data, spec, plan, RngSpec(3))
    b = cross_validate(small_data, spec, plan, RngSpec(3))
    assert np.array_equal(a.fold_rmse, b.fold_rmse)


def test_cross_validate_too_small():
    rng = np.random.default_rng(6)
    big = Dataset(rng.normal(size=(20, 1)), rng.normal(size=20), ("a",))
    plan = make_cv_plan(big)
    small = big.subset(np.arange(8))
    with pytest.raises(ValueError):
        cross_validate(small, LearnerSpec(), plan, RngSpec(0))


def test_bias_variance_constant_predictor(small_data, monkeypatch):
    _fit_with(monkeypatch, lambda tr: _Constant(2.0))
    spec = LearnerSpec(sigma=np.zeros(3))
    rep = bias_variance(small_data, spec, 5, RngSpec(0))
    assert rep.variance == 0.0
    assert rep.trials == 5
    assert rep.mse >= rep.variance


def test_bias_variance_oracle_predictor(monkeypatch):
    # y = f(x) + noise, predictor returns f(x): bias_sq ~ noise variance
    rng = np.random.default_rng(7)
    X = rng.normal(size=(400, 1))
    f = 2.0 * X[:, 0]
    noise = 0.5
    y = f + noise * rng.normal(size=400)
    d = Dataset(X, y, ("a",))

    class _F:
        def predict(self, Xq):
            return 2.0 * np.atleast_2d(Xq)[:, 0]

    _fit_with(monkeypatch, lambda tr: _F())
    spec = LearnerSpec(sigma=np.zeros(1))
    rep = bias_variance(d, spec, 5, RngSpec(1))
    assert rep.variance <= 1e-30  # identical trials, up to summation roundoff
    assert rep.bias_sq == pytest.approx(noise**2, rel=0.35)


def test_bias_variance_validation(small_data):
    with pytest.raises(ValueError):
        bias_variance(small_data, LearnerSpec(sigma=np.zeros(3)), 1, RngSpec(0))


def test_bias_variance_deterministic(small_data):
    spec = LearnerSpec(kind="tree", sigma=np.zeros(3))
    a = bias_variance(small_data, spec, 4, RngSpec(2))
    b = bias_variance(small_data, spec, 4, RngSpec(2))
    assert a.bias_sq == b.bias_sq and a.variance == b.variance and a.mse == b.mse


def test_csv_writers(tmp_path):
    cv_path = tmp_path / "cv.csv"
    write_cv_csv(cv_path, [("data", "tree", 0, 1.5), ("data", "tree", 1, 2.0)])
    lines = cv_path.read_text().splitlines()
    assert lines[0] == "dataset,method,fold,rmse"
    assert len(lines) == 3 and lines[1].startswith("data,tree,0,")

    bv_path = tmp_path / "bv.csv"
    write_biasvar_csv(bv_path, [("rf", 10, 0.1, 0.2, 0.3)])
    lines = bv_path.read_text().splitlines()
    assert lines[0] == "method,knob,bias_sq,variance,mse"
    assert len(lines) == 2


def test_pbart_spec_fits_n_trees(small_data):
    spec = LearnerSpec(kind="pbart", n_trees=3)
    assert spec.hyper == PBartHyper(m=3)
    spec.hyper = PBartHyper(m=3, it_burn=1, it_max=2)
    chain = fit_model(spec, small_data, np.zeros(3), RngSpec(0))
    assert [len(snap) for snap in chain.trees] == [3]


def test_pbart_spec_rejects_another_tree_count_and_a_leaf_cap():
    with pytest.raises(ValueError, match="n_trees"):
        LearnerSpec(kind="pbart", n_trees=3, hyper=PBartHyper(m=50))
    with pytest.raises(ValueError, match="max_leaves"):
        LearnerSpec(kind="pbart", n_trees=50, rule=StoppingRule(max_leaves=4))


def test_unknown_learner_kind():
    with pytest.raises(ValueError):
        LearnerSpec(kind="mystery")

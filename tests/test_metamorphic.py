"""Metamorphic relations of the four learners (Chen et al. 1998; Segura et
al. 2016), checked at bench-like size without an oracle.

Bit for bit: features x 4 fitted with sigma x 4 predict at 4X what the
original fit predicts at X, and a target x 2 predicts twice the original
predictions. A power of two scales every sum, midpoint, quotient and Phi
argument of a fit exactly, so the tolerance is 0.

To rounding, within TOL = 1e-12 x max(1, max |prediction|); the worst error
seen on these problems is 1.8e-15 x max(1, max |prediction|):
- a target + 1 shifts tree, rf and pbart predictions by 1;
- permuting the training rows leaves tree, gbt and pbart predictions
  unchanged;
- permuting the features (and sigma with them) leaves tree, rf and gbt
  predictions unchanged. At sigma = 0 it is exact on these rows, where no
  two coordinates' best cuts tie, and is asserted with tolerance 0; a soft
  membership multiplies its per-coordinate masses in ascending coordinate
  order, so a permutation reorders that product.

Not asserted, because they do not hold: gbt under a shift (it starts from
F0 = 0, so (1 - shrinkage)^m of the target's mean is never fitted), rf under
a row permutation (the bootstrap draws row indices), pbart under a feature
permutation (the moves draw an index into the admissible coordinates), and
rf under a feature permutation at sigma = 0: a bootstrap's repeated rows
give exact SSE ties between coordinates, which the split search breaks
toward the smaller coordinate index.

    python -m pytest -q tests/test_metamorphic.py
"""

import numpy as np
import pytest

from conftest import random_dataset
from prtree.data import Dataset, RngSpec
from prtree.ensemble import fit_prgbt, fit_prrf
from prtree.pbart import PBartHyper, fit_pbart
from prtree.tree import StoppingRule, fit_prtree

RULE = StoppingRule(min_leaf_fraction=0.05)
TOL = 1e-12

LEARNERS = {
    "tree": lambda d, sigma: fit_prtree(d, sigma, RULE),
    "rf": lambda d, sigma: fit_prrf(d, 4, sigma, RULE, RngSpec(3)),
    "gbt": lambda d, sigma: fit_prgbt(d, 4, sigma, RULE, shrinkage=0.5),
    "pbart": lambda d, sigma: fit_pbart(d, PBartHyper(m=5, it_burn=10, it_max=40), sigma,
                                        RngSpec(3), RULE),
}


def _problem(kind):
    """n = 80 training rows over p = 4 features, sigma 0 or 0.3 std, and
    query rows: the training rows and 40 fresh ones."""
    rng = np.random.default_rng(40)
    d = random_dataset(rng, 80, 4)
    sigma = np.zeros(4) if kind == "hard" else 0.3 * d.features.std(axis=0, ddof=1)
    return d, sigma, np.vstack([d.features, rng.normal(size=(40, 4))])


@pytest.mark.parametrize("kind", ["hard", "soft"])
@pytest.mark.parametrize("learner", sorted(LEARNERS))
def test_features_and_sigma_times_4_predict_the_same_at_4x(learner, kind):
    d, sigma, X = _problem(kind)
    fit = LEARNERS[learner]
    want = fit(d, sigma).predict(X)
    assert np.unique(want).size > 4
    scaled = Dataset(4.0 * d.features, d.target, d.feature_names)
    assert np.array_equal(fit(scaled, 4.0 * sigma).predict(4.0 * X), want)


@pytest.mark.parametrize("kind", ["hard", "soft"])
@pytest.mark.parametrize("learner", sorted(LEARNERS))
def test_target_times_2_predicts_twice(learner, kind):
    d, sigma, X = _problem(kind)
    fit = LEARNERS[learner]
    want = fit(d, sigma).predict(X)
    assert np.unique(want).size > 4
    doubled = Dataset(d.features, 2.0 * d.target, d.feature_names)
    assert np.array_equal(fit(doubled, sigma).predict(X), 2.0 * want)


def _close(got, want):
    return np.max(np.abs(got - want)) <= TOL * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("kind", ["hard", "soft"])
@pytest.mark.parametrize("learner", ["pbart", "rf", "tree"])
def test_target_plus_1_shifts_the_predictions_by_1(learner, kind):
    d, sigma, X = _problem(kind)
    fit = LEARNERS[learner]
    want = fit(d, sigma).predict(X)
    assert np.unique(want).size > 4
    shifted = Dataset(d.features, d.target + 1.0, d.feature_names)
    assert _close(fit(shifted, sigma).predict(X), want + 1.0)


@pytest.mark.parametrize("kind", ["hard", "soft"])
@pytest.mark.parametrize("learner", ["gbt", "pbart", "tree"])
def test_permuted_rows_predict_the_same(learner, kind):
    d, sigma, X = _problem(kind)
    fit = LEARNERS[learner]
    want = fit(d, sigma).predict(X)
    assert np.unique(want).size > 4
    perm = np.random.default_rng(41).permutation(d.n)
    permuted = Dataset(d.features[perm], d.target[perm], d.feature_names)
    assert _close(fit(permuted, sigma).predict(X), want)


@pytest.mark.parametrize("learner, kind", [
    ("gbt", "hard"), ("tree", "hard"), ("gbt", "soft"), ("rf", "soft"), ("tree", "soft")])
def test_permuted_features_predict_the_same(learner, kind):
    d, sigma, X = _problem(kind)
    fit = LEARNERS[learner]
    want = fit(d, sigma).predict(X)
    assert np.unique(want).size > 4
    perm = np.array([2, 0, 3, 1])
    permuted = Dataset(d.features[:, perm], d.target, tuple(d.feature_names[j] for j in perm))
    got = fit(permuted, sigma[perm]).predict(X[:, perm])
    assert np.array_equal(got, want) if kind == "hard" else _close(got, want)

"""Metamorphic relations that every learner keeps bit for bit (Chen et al.
1998; Segura et al. 2016): features x 4 fitted with sigma x 4 predict at 4X
what the original fit predicts at X, and a target x 2 predicts twice the
original predictions. A power of two scales every sum, midpoint, quotient
and Phi argument of a fit exactly, so the tolerance is 0.

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

"""Probabilistic regression trees and their ensemble extensions.

A PR tree is a regression tree whose leaves contribute to every prediction
with a soft weight: the Gaussian mass of the leaf's hyper-rectangle around
the query point. On top of the single tree, this package provides bagging
(PR-RF), gradient boosting (PR-GBT), and a Bayesian sum-of-trees sampler
(P-BART), plus a cross-validation and bias-variance evaluation harness.
"""

from .data import Dataset, RngSpec, StandardScaler, load_csv, standard_scale
from .regions import Region
from .kernel import build_membership
from .tree import (
    PRTree,
    StoppingRule,
    candidate_variables,
    find_best_split,
    fit_prtree,
    fit_weights,
    split_membership_column,
)
from .ensemble import (
    BoostedEnsemble,
    Forest,
    fit_prgbt,
    fit_prrf,
)
from .pbart import (
    PBartChain,
    PBartHyper,
    draw_gammas,
    draw_sigma_tilde,
    fit_pbart,
    marginal_log_likelihood,
    mh_accept,
    propose_tree,
    tree_log_prior,
)
from .evaluate import (
    BiasVarReport,
    CVPlan,
    CVResult,
    LearnerSpec,
    bias_variance,
    cross_validate,
    fit_model,
    make_cv_plan,
    tune_on_holdout,
    tune_sigma,
    write_biasvar_csv,
    write_cv_csv,
)

__all__ = [
    "Dataset",
    "RngSpec",
    "StandardScaler",
    "load_csv",
    "standard_scale",
    "Region",
    "build_membership",
    "split_membership_column",
    "PRTree",
    "StoppingRule",
    "fit_weights",
    "candidate_variables",
    "find_best_split",
    "fit_prtree",
    "Forest",
    "BoostedEnsemble",
    "fit_prrf",
    "fit_prgbt",
    "PBartHyper",
    "PBartChain",
    "tree_log_prior",
    "marginal_log_likelihood",
    "propose_tree",
    "mh_accept",
    "draw_gammas",
    "draw_sigma_tilde",
    "fit_pbart",
    "CVPlan",
    "CVResult",
    "LearnerSpec",
    "BiasVarReport",
    "make_cv_plan",
    "tune_sigma",
    "tune_on_holdout",
    "fit_model",
    "cross_validate",
    "bias_variance",
    "write_cv_csv",
    "write_biasvar_csv",
]

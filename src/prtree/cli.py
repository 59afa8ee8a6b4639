"""Command-line interface: fit, predict, cross-validate, and bias-variance
experiments over CSV datasets.

Config precedence: built-in defaults, then a JSON config file (--config),
then explicit command-line flags. All randomness flows from --seed through
named streams, so repeated runs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .data import CsvFormatError, Dataset, RngSpec, load_csv, read_csv
from .evaluate import (
    DEFAULT_TREES,
    READS,
    LearnerSpec,
    bias_variance,
    cross_validate,
    fit_model,
    make_cv_plan,
    tune_on_holdout,
    write_biasvar_csv,
    write_cv_csv,
)
from .pbart import PBartHyper
from .tree import Model, StoppingRule, _typed

log = logging.getLogger("prtree")

# None: the library's own default (`_spec`, `make_cv_plan`)
DEFAULTS = {
    "model": "tree",
    "target": "y",
    "seed": 0,
    "folds": None,
    "trees": None,       # model-dependent: evaluate.DEFAULT_TREES
    "shrinkage": None,
    "iters": None,
    "burn": None,
    "alpha": None,
    "beta": None,
    "nu": None,
    "min_leaf": None,
    "max_leaves": None,
    "sigma": None,
    "trials": 20,
    "out": None,
}
# the config keys that set each knob of evaluate.READS
KNOB_KEYS = {"n_trees": ("trees",), "shrinkage": ("shrinkage",),
             "hyper": ("iters", "burn", "alpha", "beta", "nu")}
# a config value as json.loads gives it, or as text from a flag: a bool is
# neither, and an integer no fraction
_integer = _typed("an integer", str, int)
_number = _typed("a number", str, int, float)


class ConfigError(ValueError):
    pass


def _parse_sigma(text, p):
    """--sigma over p features, one value for all or one each; the fitters
    check the values (`tree.scales`)."""
    try:
        values = [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"--sigma must be numeric, got {text!r}") from None
    return np.full(p, values[0]) if len(values) == 1 else np.array(values)


def _int_list(text) -> list[int]:
    """A comma-separated integer list, as --trees 1,5 gives, or one integer."""
    return [int(v) for v in str(text).split(",") if v.strip() != ""]


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        unknown = set(loaded) - set(DEFAULTS) - {"data", "model_file"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in list(cfg) + ["data", "model_file"]:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    wrong = [f"{key!r} may not be null" for key, value in DEFAULTS.items()
             if value is not None and cfg[key] is None]
    wrong += [f"{key!r} must be text" for key in ("model", "data", "model_file", "out")
              if cfg.get(key) is not None and not isinstance(cfg[key], str)]
    if wrong:
        raise ConfigError(f"config key {', '.join(wrong)}")
    return cfg


def _value(cfg, key: str, kind):
    """kind(cfg[key]); a ConfigError naming the key if kind rejects the value."""
    try:
        return kind(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: cannot read {cfg[key]!r}: {exc}") from None


def _load_dataset(cfg) -> Dataset:
    if not cfg.get("data"):
        raise ConfigError("--data is required")
    return load_csv(cfg["data"], cfg["target"])


def _given(cfg, kind, **keys) -> dict:
    """{arg: kind(cfg[key])} of each arg=key that the config sets; the other
    arguments keep the library's defaults."""
    return {arg: _value(cfg, key, kind) for arg, key in keys.items() if cfg[key] is not None}


def _spec(cfg, p: int) -> LearnerSpec:
    """The learner the config names, over p features; its sigma is the
    config's, or None to tune one."""
    model = cfg["model"]
    # an unknown model is LearnerSpec's to reject
    unread = [key for knob, keys in KNOB_KEYS.items() if knob not in READS.get(model, KNOB_KEYS)
              for key in keys if cfg[key] is not None]
    if unread:
        raise ConfigError(f"model {model!r} does not read {', '.join(unread)}")
    n_trees = DEFAULT_TREES.get(model) if cfg["trees"] is None else _value(cfg, "trees", _integer)
    hyper = None
    if model == "pbart":
        hyper = PBartHyper(m=n_trees, **_given(cfg, _number, alpha="alpha", beta="beta", nu="nu"),
                           **_given(cfg, _integer, it_burn="burn", it_max="iters"))
    return LearnerSpec(
        kind=model,
        n_trees=n_trees,
        rule=StoppingRule(**_given(cfg, _number, min_leaf_fraction="min_leaf"),
                          **_given(cfg, _integer, max_leaves="max_leaves")),
        hyper=hyper,
        sigma=None if cfg["sigma"] is None else _parse_sigma(cfg["sigma"], p),
        **_given(cfg, _number, shrinkage="shrinkage"),
    )


def _cmd_fit(cfg) -> int:
    """Fit the configured model on the whole dataset, tuning sigma on an
    internal 65/15-style holdout when no explicit --sigma is given."""
    d = _load_dataset(cfg)
    spec = _spec(cfg, d.p)
    rng = RngSpec(_value(cfg, "seed", _integer))
    sigma = spec.sigma
    if sigma is None:
        cut = min(max(1, int(round(0.8125 * d.n))), d.n - 1)
        sigma = tune_on_holdout(d, spec, rng.stream(999), cut)
        log.info("tuned sigma: %s", sigma.tolist())
    model = fit_model(spec, d, sigma, rng)
    out = cfg["out"] or "model.json"
    Path(out).write_text(model.to_json() + "\n")
    log.info("wrote model to %s", out)
    return 0


def _predict_features(path, target: str, names) -> np.ndarray:
    """The feature columns of a CSV in the model's order, found by name. The
    target column is optional at prediction time and dropped if present; a
    model file without feature names takes the remaining columns in order."""
    header, table = read_csv(path)
    columns = [h for h in header if h != target]
    names = list(names) or columns
    missing = [h for h in names if h not in columns]
    extra = [h for h in columns if h not in names]
    if missing or extra:
        raise ConfigError(
            f"columns of {path} do not match the model's features: "
            f"missing {missing}, extra {extra}"
        )
    return table[:, [header.index(h) for h in names]]


def _cmd_predict(cfg) -> int:
    if not cfg.get("model_file"):
        raise ConfigError("--model-file is required")
    if not cfg.get("data"):
        raise ConfigError("--data is required")
    model = Model.from_json(Path(cfg["model_file"]).read_text())
    preds = model.predict(_predict_features(cfg["data"], cfg["target"], model.feature_names))
    out = cfg["out"] or "predictions.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["row", "prediction"])
        for i, v in enumerate(preds):
            w.writerow([i, repr(float(v))])
    log.info("wrote %d predictions to %s", len(preds), out)
    return 0


def _cmd_cv(cfg) -> int:
    d = _load_dataset(cfg)
    spec = _spec(cfg, d.p)
    plan = make_cv_plan(d, **_given(cfg, _integer, n_folds="folds"))
    result = cross_validate(d, spec, plan, RngSpec(_value(cfg, "seed", _integer)))
    name = Path(cfg["data"]).stem
    rows = [
        (name, cfg["model"], i, rmse) for i, rmse in enumerate(result.fold_rmse)
    ]
    out = cfg["out"] or "cv_results.csv"
    write_cv_csv(out, rows)
    log.info(
        "cv rmse mean %.6g std %.6g -> %s", result.mean, result.std, out
    )
    return 0


def _cmd_biasvar(cfg) -> int:
    d = _load_dataset(cfg)
    model = cfg["model"]
    # the swept knob: the leaf cap of a single tree, else the tree count
    key, default = ("max_leaves", [2, 4, 8, 16]) if model == "tree" else ("trees", [1, 10, 50])
    knobs = _value(cfg, key, _int_list) if cfg[key] is not None else default
    rng = RngSpec(_value(cfg, "seed", _integer))
    rows = []
    for knob in knobs:
        spec = _spec({**cfg, key: knob}, d.p)
        report = bias_variance(d, spec, _value(cfg, "trials", _integer), rng)
        log.info(
            "%s knob=%d bias_sq=%.6g variance=%.6g mse=%.6g",
            model, knob, report.bias_sq, report.variance, report.mse,
        )
        rows.append((model, knob, report.bias_sq, report.variance, report.mse))
    out = cfg["out"] or "biasvar_results.csv"
    write_biasvar_csv(out, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each taking only the flags it reads: the
    shared ones, the learner's (all but predict) and its own."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--data", help="input CSV path")
    shared.add_argument("--target", help="target column name (default: y)")
    shared.add_argument("--out", help="output path")
    shared.add_argument("--config", help="JSON config file (flags override it)")
    shared.add_argument("--verbose", action="store_true")
    learner = argparse.ArgumentParser(add_help=False)
    learner.add_argument("--model", choices=["tree", "rf", "gbt", "pbart"])
    learner.add_argument("--seed", type=int)
    learner.add_argument("--trees", help="tree count (comma list for biasvar sweeps)")
    learner.add_argument("--shrinkage", type=float)
    learner.add_argument("--iters", type=int, help="sampler iterations")
    learner.add_argument("--burn", type=int, help="burn-in iterations")
    learner.add_argument("--alpha", type=float, help="depth prior base")
    learner.add_argument("--beta", type=float, help="depth prior decay")
    learner.add_argument("--nu", type=float, help="noise prior degrees of freedom")
    learner.add_argument("--min-leaf", type=float, help="min leaf fraction")
    learner.add_argument("--max-leaves", help="leaf cap (comma list for sweeps)")
    learner.add_argument("--sigma", help="noise scale: one value or p comma-separated")
    parser = argparse.ArgumentParser(
        prog="prtree", description="Probabilistic regression trees: fit, predict, and benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, helptext, *parents):
        # no abbreviations: predict would read --model as --model-file
        return sub.add_parser(name, help=helptext, parents=[shared, *parents], allow_abbrev=False)
    command("fit", "fit a model and write it as JSON", learner)
    command("predict", "predict with a fitted model JSON").add_argument(
        "--model-file", help="fitted model JSON")
    command("cv", "stratified cross-validation RMSE", learner).add_argument("--folds", type=int)
    command("biasvar", "bias-variance decomposition sweep", learner).add_argument(
        "--trials", type=int, help="bias-variance subsample count")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s %(message)s",
    )
    try:
        cfg = _merge_config(args)
        handler = {
            "fit": _cmd_fit,
            "predict": _cmd_predict,
            "cv": _cmd_cv,
            "biasvar": _cmd_biasvar,
        }[args.command]
        return handler(cfg)
    except (ConfigError, CsvFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

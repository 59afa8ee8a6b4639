import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import prtree
from prtree import evaluate
from prtree.cli import DEFAULTS, _spec, build_parser, main
from prtree.data import RngSpec, load_csv
from prtree.ensemble import BoostedEnsemble, Forest
from prtree.evaluate import LearnerSpec, fit_model, tune_on_holdout
from prtree.pbart import PBartChain, PBartHyper
from prtree.tree import SCHEMA, FlatTree, Model, PRTree

# A tree file in the layout before model files carried a schema: nested node
# records, each leaf storing its region with non-standard infinite bounds.
UNVERSIONED_TREE = (
    '{"feature_names": ["a", "b"], "sigma": [0.0, 0.0], "nodes": ['
    '{"kind": "split", "j": 0, "s": 0.5, "left": 1, "right": 2}, '
    '{"kind": "leaf", "gamma": 1.0, "lower": [-Infinity, -Infinity], "upper": [0.5, Infinity]}, '
    '{"kind": "leaf", "gamma": 2.0, "lower": [0.5, -Infinity], "upper": [Infinity, Infinity]}]}'
)


# A P-BART file in the prtree/2 layout: each snapshot tree stored as its
# leaves' weights and region bounds, with non-standard infinite bounds.
PRTREE2_PBART = (
    '{"schema": "prtree/2", "kind": "pbart", "feature_names": ["a", "b"], '
    '"hyper": {"m": 1, "alpha": 0.95, "beta": 2.0, "nu": 3.0, "lam": 1.0, "sigma_gamma": 0.25, '
    '"it_burn": 0, "it_max": 1, "move_probs": [0.25, 0.25, 0.25, 0.25]}, '
    '"sigma": [0.0, 0.0], "y_offset": 0.0, "y_scale": 1.0, "sigma_trace": [1.0], '
    '"acceptance_log": {}, "snapshots": [[{"gammas": [1.0, 2.0], '
    '"lower": [[-Infinity, -Infinity], [0.5, -Infinity]], '
    '"upper": [[0.5, Infinity], [Infinity, Infinity]]}]]}'
)

# A P-BART file in the prtree/3 layout: each snapshot tree stored as its full
# node arrays, weights included.
PRTREE3_PBART = (
    '{"schema": "prtree/3", "kind": "pbart", "feature_names": ["a", "b"], '
    '"hyper": {"m": 1, "alpha": 0.95, "beta": 2.0, "nu": 3.0, "lam": 1.0, "sigma_gamma": 0.25, '
    '"it_burn": 0, "it_max": 1, "move_probs": [0.25, 0.25, 0.25, 0.25]}, '
    '"sigma": [0.0, 0.0], "y_offset": 0.0, "y_scale": 1.0, "sigma_trace": [1.0], '
    '"acceptance_log": {}, "snapshots": [[{"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], '
    '"left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, 1.0, 2.0]}]]}'
)

# Node arrays of a split at 0.5 on feature 0 into leaves of weight 1 and 2.
STUMP = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
         "right": [2, -1, -1], "value": [0.0, 1.0, 2.0]}


def _standard_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _model_flags(model, trees, iters, burn):
    """Of --trees, --iters and --burn, the flags that `model` reads."""
    flags = [] if model == "tree" else ["--trees", str(trees)]
    return flags + (["--iters", str(iters), "--burn", str(burn)] if model == "pbart" else [])


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 2))
    y = 2.0 * X[:, 0] - X[:, 1] + 0.3 * rng.normal(size=80)
    path = tmp_path / "train.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b", "y"])
        for row, t in zip(X, y):
            w.writerow([repr(float(row[0])), repr(float(row[1])), repr(float(t))])
    return path


def test_fit_writes_model(tmp_path, data_csv):
    out = tmp_path / "model.json"
    rc = main(["fit", "--model", "tree", "--data", str(data_csv), "--target", "y",
               "--sigma", "0", "--out", str(out)])
    assert rc == 0
    obj = _standard_json(out.read_text())
    assert obj["schema"] == SCHEMA
    arrays = [obj[k] for k in ("feature", "threshold", "left", "right", "value")]
    assert len(arrays[0]) > 1 and {len(a) for a in arrays} == {len(arrays[0])}


def test_fit_predict_roundtrip(tmp_path, data_csv):
    model_path = tmp_path / "model.json"
    pred_path = tmp_path / "preds.csv"
    assert main(["fit", "--data", str(data_csv), "--target", "y", "--seed", "3",
                 "--out", str(model_path)]) == 0
    assert main(["predict", "--model-file", str(model_path), "--data", str(data_csv),
                 "--target", "y", "--out", str(pred_path)]) == 0
    d = load_csv(data_csv, "y")
    model = PRTree.from_json(model_path.read_text())
    expected = model.predict(d.features)
    rows = list(csv.reader(open(pred_path)))
    assert rows[0] == ["row", "prediction"]
    got = np.array([float(r[1]) for r in rows[1:]])
    assert np.array_equal(got, expected)  # repr round-trips float64 exactly
    # without the target column every column is a feature
    feats = tmp_path / "features.csv"
    feats.write_text("a,b\n" + "".join(f"{a!r},{b!r}\n" for a, b in d.features.tolist()))
    assert main(["predict", "--model-file", str(model_path), "--data", str(feats),
                 "--target", "y", "--out", str(pred_path)]) == 0
    rows = list(csv.reader(open(pred_path)))
    assert np.array_equal([float(r[1]) for r in rows[1:]], expected)


@pytest.mark.parametrize(
    "body,fragment",
    [("0.5\n", "row 3: expected 2 cells"), ("0.5,nan\n", "row 3, column 'b': non-finite")],
)
def test_predict_without_target_rejects_bad_rows(tmp_path, data_csv, capsys, body, fragment):
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_csv), "--target", "y", "--sigma", "0",
                 "--out", str(model_path)]) == 0
    feats = tmp_path / "features.csv"
    feats.write_text("a,b\n0.1,0.2\n" + body)
    assert main(["predict", "--model-file", str(model_path), "--data", str(feats),
                 "--target", "y", "--out", str(tmp_path / "p.csv")]) == 1
    assert fragment in capsys.readouterr().err


def test_cv_writes_ten_rows(tmp_path, data_csv):
    out = tmp_path / "cv.csv"
    rc = main(["cv", "--model", "tree", "--data", str(data_csv), "--target", "y",
               "--seed", "7", "--sigma", "0", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(open(out)))
    assert len(rows) == 11  # header + one row per fold
    assert {r[1] for r in rows[1:]} == {"tree"}


def test_biasvar_sweep(tmp_path, data_csv):
    out = tmp_path / "bv.csv"
    rc = main(["biasvar", "--model", "rf", "--data", str(data_csv), "--target", "y",
               "--trees", "1,5", "--trials", "3", "--sigma", "0", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(open(out)))
    assert len(rows) == 3
    assert [r[1] for r in rows[1:]] == ["1", "5"]


def test_byte_identical_reruns(tmp_path, data_csv):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["cv", "--model", "tree", "--data", str(data_csv), "--target", "y",
                     "--seed", "5", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_config_file_and_flag_precedence(tmp_path, data_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "gbt", "trees": 2, "sigma": "0", "seed": 4}))
    out = tmp_path / "model.json"
    rc = main(["fit", "--data", str(data_csv), "--target", "y", "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["kind"] == "gbt"
    # flag overrides config
    rc = main(["fit", "--data", str(data_csv), "--target", "y", "--config", str(cfg),
               "--model", "rf", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["kind"] == "forest"


def test_validation_errors_exit_1(tmp_path, data_csv):
    assert main(["fit", "--data", str(tmp_path / "missing.csv"), "--target", "y"]) == 1
    assert main(["fit", "--data", str(data_csv), "--target", "nope"]) == 1
    assert main(["cv", "--data", str(data_csv), "--target", "y", "--model", "tree",
                 "--sigma", "-1"]) == 1
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{not json")
    assert main(["fit", "--data", str(data_csv), "--target", "y",
                 "--config", str(bad_cfg)]) == 1
    bad_cfg.write_text(json.dumps({"mystery_knob": 1}))
    assert main(["fit", "--data", str(data_csv), "--target", "y",
                 "--config", str(bad_cfg)]) == 1


@pytest.mark.parametrize("command,config,fragment", [
    ("fit", {"target": None}, "config key 'target' may not be null"),
    ("cv", {"target": None}, "config key 'target' may not be null"),
    ("fit", {"seed": None}, "config key 'seed' may not be null"),
    ("biasvar", {"trials": None}, "config key 'trials' may not be null"),
    ("biasvar", {"trials": "many"}, "config key 'trials'"),
    ("fit", {"model": "rf", "trees": [1]}, "config key 'trees'"),
    ("fit", {"seed": "one"}, "config key 'seed'"),
    ("fit", {"model": "pbart", "alpha": [0.9]}, "config key 'alpha'"),
    ("fit", {"out": 7}, "config key 'out' must be text"),
    ("cv", {"data": 1}, "config key 'data' must be text"),
], ids=["fit null target", "cv null target", "null seed", "null trials", "text trials",
        "list trees", "text seed", "list alpha", "numeric out", "numeric data"])
def test_config_values_of_the_wrong_type_exit_1(tmp_path, data_csv, capsys, command, config,
                                                fragment):
    # each crashed with a traceback: in load_csv's matrix mode, in int() or,
    # after the fit, in Path(7)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data_csv), "out": str(tmp_path / "out.csv"),
                               **config}))
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--sigma", "0"]) == 1
    assert f"error: {fragment}" in capsys.readouterr().err


@pytest.mark.parametrize("command,model,flags,named", [
    ("fit", "tree", ["--sigma", "0.2", "--shrinkage", "0.1", "--iters", "5", "--trees", "7"],
     "trees, shrinkage, iters"),
    ("fit", "tree", ["--trees", "1"], "trees"),
    ("fit", "rf", ["--burn", "3"], "burn"),
    ("fit", "gbt", ["--alpha", "0.9", "--beta", "1.5"], "alpha, beta"),
    ("fit", "pbart", ["--shrinkage", "0.5"], "shrinkage"),
    ("cv", "rf", ["--shrinkage", "0.5"], "shrinkage"),
    ("cv", "tree", ["--nu", "4"], "nu"),
    ("biasvar", "tree", ["--trees", "1,5"], "trees"),
    ("biasvar", "gbt", ["--iters", "9"], "iters"),
])
def test_a_model_flag_the_model_does_not_read_exits_1(tmp_path, data_csv, capsys, command,
                                                      model, flags, named):
    # fit --model tree wrote the same bytes with --shrinkage 0.1 --iters 5 --trees 7 as without
    out = tmp_path / "out"
    assert main([command, "--model", model, *flags, "--data", str(data_csv), "--target", "y",
                 "--out", str(out)]) == 1
    assert f"error: model {model!r} does not read {named}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,config", [
    ("fit", {"seed": 3}), ("fit", {"seed": "3"}), ("fit", {"model": "rf", "trees": 2}),
    ("fit", {"max_leaves": 4}), ("fit", {"model": "pbart", "trees": 2, "iters": 4, "burn": 1}),
    ("cv", {"folds": 5}), ("biasvar", {"model": "rf", "trees": 2, "trials": 2}),
])
def test_integer_config_keys_take_an_integer_or_its_text(tmp_path, data_csv, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data_csv), "out": str(tmp_path / "out"), **config}))
    assert main([command, "--config", str(cfg), "--sigma", "0"]) == 0


INTEGER_KEYS = {"seed": ("fit", {}), "trees": ("fit", {"model": "rf"}),
                "max_leaves": ("fit", {}), "iters": ("fit", {"model": "pbart"}),
                "burn": ("fit", {"model": "pbart"}), "folds": ("cv", {}),
                "trials": ("biasvar", {}), "biasvar trees": ("biasvar", {"model": "rf"}),
                "biasvar max_leaves": ("biasvar", {})}


@pytest.mark.parametrize("value", [True, 2.7, 3.0])
@pytest.mark.parametrize("case", sorted(INTEGER_KEYS))
def test_integer_config_keys_reject_a_bool_or_a_float(tmp_path, data_csv, capsys, case, value):
    # "trees": 2.7 fitted 2 trees and "trees": true one, each with exit 0
    command, config = INTEGER_KEYS[case]
    key = case.split()[-1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data_csv), "out": str(tmp_path / "out"), **config,
                               key: value}))
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--sigma", "0"]) == 1
    assert f"error: config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,model", [("shrinkage", "gbt"), ("min_leaf", "tree"),
                                       ("alpha", "pbart"), ("beta", "pbart"), ("nu", "pbart")])
def test_number_config_keys_reject_a_bool(tmp_path, data_csv, capsys, key, model):
    # "nu": true read as 1.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data_csv), "out": str(tmp_path / "out"),
                               "model": model, key: True}))
    capsys.readouterr()
    assert main(["fit", "--config", str(cfg), "--sigma", "0"]) == 1
    err = capsys.readouterr().err
    assert f"error: config key {key!r}: cannot read True: expected a number" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model,fragment", [(["tree"], "config key 'model' must be text"),
                                            ("mystery", "unknown learner kind 'mystery'")])
def test_a_model_that_is_no_kind_exits_1(tmp_path, data_csv, capsys, model, fragment):
    # a list crashed with a traceback: the dict of tree counts could not hash it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data_csv), "model": model, "trees": 2}))
    assert main(["fit", "--config", str(cfg), "--sigma", "0", "--out", str(tmp_path / "o")]) == 1
    assert f"error: {fragment}" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["tree", "pbart"])
@pytest.mark.parametrize("sigma", ["nan", "inf", "0.1,-inf"])
def test_non_finite_sigma_exits_1(tmp_path, data_csv, capsys, model, sigma):
    out = tmp_path / "m.json"
    assert main(["fit", "--model", model, *_model_flags(model, 2, 3, 1),
                 "--data", str(data_csv), "--target", "y", "--sigma", sigma,
                 "--out", str(out)]) == 1
    assert "sigma must be 2 finite non-negative numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--nu", "0", "nu"), ("--nu", "nan", "nu"), ("--nu", "-1", "nu"),
    ("--beta", "nan", "beta"), ("--beta", "-1", "beta"), ("--burn", "-1", "it_burn"),
])
def test_pbart_hyper_that_breaks_the_chain_exits_1(tmp_path, data_csv, capsys, flag, value, field):
    # --nu 0 or nan used to write a model that predict rejects, and --beta nan
    # a chain that rejects every move
    out = tmp_path / "m.json"
    assert main(["fit", "--model", "pbart", "--trees", "2", "--iters", "3", "--burn", "1",
                 "--data", str(data_csv), "--target", "y", "--sigma", "0.5", flag, value,
                 "--out", str(out)]) == 1
    assert f"{field} must be finite and" in capsys.readouterr().err
    assert not out.exists()


def test_cv_whose_worker_dies_exits_1(tmp_path, data_csv, capsys, monkeypatch):
    # a worker killed from outside (say, for memory) sends nothing back
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(evaluate, "_cv_round", lambda *args: os._exit(9))
    out = tmp_path / "cv.csv"
    assert main(["cv", "--model", "tree", "--data", str(data_csv), "--target", "y",
                 "--sigma", "0", "--out", str(out)]) == 1
    assert "error: a worker process ended without sending its results" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("folds", ["1", "2"])
def test_cv_with_too_few_folds_says_why(tmp_path, data_csv, capsys, folds):
    assert main(["cv", "--model", "tree", "--data", str(data_csv), "--target", "y",
                 "--folds", folds, "--out", str(tmp_path / "cv.csv")]) == 1
    assert "n_folds must be at least 3" in capsys.readouterr().err


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats alone took more than half of the import time of the CLI
    code = "import sys, prtree.cli; print('scipy.stats' in sys.modules)"
    source_root = str(Path(prtree.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_missing_data_flag():
    assert main(["fit", "--target", "y"]) == 1


# Each command's flags, each with a value that reads back as itself: the
# shared ones, the learner's (all but predict) and the command's own.
SHARED_FLAGS = {"--data": "d.csv", "--target": "y", "--out": "o.csv", "--config": "c.json"}
LEARNER_FLAGS = {"--model": "gbt", "--seed": "1", "--trees": "2", "--shrinkage": "0.5",
                 "--iters": "9", "--burn": "3", "--alpha": "0.9", "--beta": "1.5", "--nu": "4.5",
                 "--min-leaf": "0.1", "--max-leaves": "4", "--sigma": "0.2"}
FLAGS = {"fit": {**SHARED_FLAGS, **LEARNER_FLAGS},
         "predict": {**SHARED_FLAGS, "--model-file": "m.json"},
         "cv": {**SHARED_FLAGS, **LEARNER_FLAGS, "--folds": "5"},
         "biasvar": {**SHARED_FLAGS, **LEARNER_FLAGS, "--trials": "3"}}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_command_takes_the_flags_it_reads(command):
    argv = [command, "--verbose", *(item for pair in FLAGS[command].items() for item in pair)]
    args = vars(build_parser().parse_args(argv))
    # and no other: argparse sets every flag a command takes
    assert {key: str(value) for key, value in args.items()} == {
        "command": command, "verbose": "True",
        **{flag[2:].replace("-", "_"): value for flag, value in FLAGS[command].items()}}


EVERY_FLAG = {flag: value for flags in FLAGS.values() for flag, value in flags.items()}


@pytest.mark.parametrize("command,flag", [(command, flag) for command in sorted(FLAGS)
                                          for flag in sorted(EVERY_FLAG.keys() - FLAGS[command])])
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, data_csv, capsys, command,
                                                          flag):
    # all but --model-file were accepted and ignored: predict --sigma 5 predicted as without it
    model_path = tmp_path / "model.json"
    model_path.write_text(_model_file("tree"))
    out = tmp_path / "out.csv"
    model_file = ["--model-file", str(model_path)] if command == "predict" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *model_file, "--data", str(data_csv), "--target", "y",
              flag, EVERY_FLAG[flag], "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {EVERY_FLAG[flag]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "cv"])
def test_pbart_leaf_cap_is_rejected_before_tuning(tmp_path, data_csv, capsys, monkeypatch,
                                                  command):
    # without --sigma, both commands tune sigma on single-tree fits first
    fits, fit_prtree = [], evaluate.fit_prtree

    def counting(*args, **kwargs):
        fits.append(1)
        return fit_prtree(*args, **kwargs)

    monkeypatch.setattr(evaluate, "fit_prtree", counting)
    # a fit in a forked worker would not reach `fits`, so no worker may start either
    forked, map_forked = [], evaluate._map_forked
    monkeypatch.setattr(evaluate, "_map_forked",
                        lambda task, n: forked.append(n) or map_forked(task, n))
    out = tmp_path / "out"
    assert main([command, "--model", "pbart", "--trees", "2", "--iters", "3", "--burn", "1",
                 "--data", str(data_csv), "--target", "y", "--max-leaves", "4",
                 "--out", str(out)]) == 1
    assert "max_leaves" in capsys.readouterr().err
    assert not fits and not forked and not out.exists()


def test_pbart_with_a_leaf_cap_exits_1(tmp_path, data_csv, capsys):
    out = tmp_path / "m.json"
    assert main(["fit", "--model", "pbart", "--trees", "2", "--iters", "3", "--burn", "1",
                 "--data", str(data_csv), "--target", "y", "--sigma", "0.5", "--max-leaves", "4",
                 "--out", str(out)]) == 1
    assert "max_leaves" in capsys.readouterr().err
    assert not out.exists()


def test_pbart_cli_fit(tmp_path, data_csv):
    out = tmp_path / "chain.json"
    rc = main(["fit", "--model", "pbart", "--data", str(data_csv), "--target", "y",
               "--trees", "2", "--iters", "6", "--burn", "2", "--sigma", "0.5",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["kind"] == "pbart"
    assert len(obj["snapshots"]) == 4


@pytest.mark.parametrize("model", ["tree", "rf", "gbt", "pbart"])
def test_fit_tunes_and_fits_like_the_harness(tmp_path, data_csv, model):
    # one dispatch and one tuning rule: gbt tunes sigma with gbt itself
    out = tmp_path / "model.json"
    assert main(["fit", "--model", model, *_model_flags(model, 3, 6, 2),
                 "--data", str(data_csv), "--target", "y", "--seed", "4",
                 "--out", str(out)]) == 0
    d = load_csv(data_csv, "y")
    hyper = PBartHyper(m=3, it_burn=2, it_max=6) if model == "pbart" else None
    spec = LearnerSpec(kind=model, n_trees=None if model == "tree" else 3, hyper=hyper)
    cut = min(max(1, round(0.8125 * d.n)), d.n - 1)
    sigma = tune_on_holdout(d, spec, RngSpec(4).stream(999), cut)
    assert out.read_text() == fit_model(spec, d, sigma, RngSpec(4)).to_json() + "\n"


@pytest.mark.parametrize("model", ["tree", "rf", "gbt", "pbart"])
def test_cli_and_library_default_to_the_same_tree_count(model):
    cli_spec, spec = _spec({**DEFAULTS, "model": model}, 2), LearnerSpec(kind=model)
    assert cli_spec.n_trees == spec.n_trees == {"tree": 1, "rf": 100, "gbt": 50, "pbart": 50}[model]
    if model == "pbart":
        assert cli_spec.hyper.m == spec.hyper.m == PBartHyper().m
    # and every other knob no flag sets: shrinkage, the sampler's iters, burn,
    # alpha, beta and nu, and min_leaf (folds: test_cv_writes_ten_rows)
    assert cli_spec == spec
    assert cli_spec.hyper == (PBartHyper() if model == "pbart" else None)


def _write_features(path, header, X):
    path.write_text(",".join(header) + "\n" + "".join(
        ",".join(repr(v) for v in row) + "\n" for row in X.tolist()))


@pytest.mark.parametrize("model", ["tree", "rf", "gbt", "pbart"])
def test_predict_matches_columns_by_name(tmp_path, data_csv, capsys, model):
    model_path = tmp_path / "model.json"
    assert main(["fit", "--model", model, *_model_flags(model, 2, 4, 1),
                 "--sigma", "0.3", "--data", str(data_csv), "--target", "y",
                 "--out", str(model_path)]) == 0
    assert json.loads(model_path.read_text())["feature_names"] == ["a", "b"]
    X = load_csv(data_csv, "y").features
    outs = {}
    for name, header, cols in [("ab", ["a", "b"], [0, 1]), ("ba", ["b", "a"], [1, 0]),
                               ("bya", ["b", "y", "a"], [1, 0, 0])]:
        feats = tmp_path / f"{name}.csv"
        _write_features(feats, header, X[:, cols])
        pred = tmp_path / f"{name}.pred"
        assert main(["predict", "--model-file", str(model_path), "--data", str(feats),
                     "--target", "y", "--out", str(pred)]) == 0
        outs[name] = pred.read_bytes()
    assert outs["ba"] == outs["ab"] and outs["bya"] == outs["ab"]
    # a renamed column is rejected, naming what is missing and what is extra
    feats = tmp_path / "renamed.csv"
    _write_features(feats, ["a", "c"], X)
    capsys.readouterr()
    assert main(["predict", "--model-file", str(model_path), "--data", str(feats),
                 "--out", str(tmp_path / "p.csv")]) == 1
    err = capsys.readouterr().err
    assert "missing ['b']" in err and "extra ['c']" in err


def test_model_file_without_names_predicts_by_position(tmp_path, data_csv):
    model_path = tmp_path / "model.json"
    assert main(["fit", "--sigma", "0.3", "--data", str(data_csv), "--target", "y",
                 "--out", str(model_path)]) == 0
    obj = json.loads(model_path.read_text())
    del obj["feature_names"]
    model_path.write_text(json.dumps(obj))
    X = load_csv(data_csv, "y").features
    feats = tmp_path / "feats.csv"
    _write_features(feats, ["u", "v"], X)
    pred = tmp_path / "p.csv"
    assert main(["predict", "--model-file", str(model_path), "--data", str(feats),
                 "--out", str(pred)]) == 0
    got = [float(r[1]) for r in list(csv.reader(open(pred)))[1:]]
    assert np.array_equal(got, PRTree.from_json(model_path.read_text()).predict(X))


@pytest.mark.parametrize("model,cls", [("tree", PRTree), ("rf", Forest), ("gbt", BoostedEnsemble),
                                       ("pbart", PBartChain)])
def test_model_file_of_another_schema_is_rejected(tmp_path, data_csv, capsys, model, cls):
    model_path = tmp_path / "model.json"
    assert main(["fit", "--model", model, *_model_flags(model, 2, 4, 1),
                 "--sigma", "0.3", "--data", str(data_csv), "--target", "y",
                 "--out", str(model_path)]) == 0
    text = model_path.read_text()
    obj = _standard_json(text)
    assert obj["schema"] == SCHEMA
    cls.from_json(text)
    for found in (None, "prtree/1"):
        if found is None:
            del obj["schema"]
        else:
            obj["schema"] = found
        message = f"schema {found!r}, expected {SCHEMA!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            cls.from_json(json.dumps(obj))
        model_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["predict", "--model-file", str(model_path), "--data", str(data_csv),
                     "--target", "y", "--out", str(tmp_path / "p.csv")]) == 1
        assert message in capsys.readouterr().err


def test_unversioned_tree_file_is_rejected(tmp_path, data_csv, capsys):
    message = f"schema None, expected {SCHEMA!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        PRTree.from_json(UNVERSIONED_TREE)
    model_path = tmp_path / "old.json"
    model_path.write_text(UNVERSIONED_TREE)
    assert main(["predict", "--model-file", str(model_path), "--data", str(data_csv),
                 "--target", "y", "--out", str(tmp_path / "p.csv")]) == 1
    assert message in capsys.readouterr().err


def _old_pbart_file_is_rejected(tmp_path, data_csv, capsys, text, schema):
    message = f"schema {schema!r}, expected {SCHEMA!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        PBartChain.from_json(text)
    model_path = tmp_path / "old.json"
    model_path.write_text(text)
    assert main(["predict", "--model-file", str(model_path), "--data", str(data_csv),
                 "--target", "y", "--out", str(tmp_path / "p.csv")]) == 1
    assert message in capsys.readouterr().err


def test_prtree2_pbart_file_is_rejected(tmp_path, data_csv, capsys):
    _old_pbart_file_is_rejected(tmp_path, data_csv, capsys, PRTREE2_PBART, "prtree/2")


def test_prtree3_pbart_file_is_rejected(tmp_path, data_csv, capsys):
    _old_pbart_file_is_rejected(tmp_path, data_csv, capsys, PRTREE3_PBART, "prtree/3")


def _stump_file(kind, **change):
    """A tree or a one-snapshot P-BART file over features a and b whose
    (first) tree is STUMP with the arrays in `change` replaced. A P-BART
    file's change applies to its first structure, and a changed `value` to
    the weights of the first snapshot tree, its leaves' entries in node order."""
    nodes = FlatTree(**STUMP)
    if kind == "tree":
        text = PRTree(nodes, np.zeros(2), ("a", "b")).to_json()
    else:
        text = PBartChain(trees=[[nodes]], sigma_trace=np.ones(1), acceptance_log={},
                          sigma=np.zeros(2), y_offset=0.0, y_scale=1.0,
                          hyper=PBartHyper(m=1, lam=1.0, sigma_gamma=0.25),
                          feature_names=("a", "b")).to_json()
    obj = json.loads(text)
    tree = obj if kind == "tree" else obj["structures"][0]
    tree.update(change)
    for key in [k for k, v in change.items() if v is None]:
        del tree[key]
    if kind == "pbart" and "value" in tree:
        obj["snapshots"][0][0][1] = [v for v, j in zip(tree.pop("value"), tree["feature"])
                                     if j == -1]
    return json.dumps(obj)


ONCE = "every node but the root must be a child exactly once"
BAD_TREES = {
    "both children are node 1": ({"left": [1, -1, -1], "right": [1, -1, -1]}, ONCE),
    "child out of range": ({"right": [3, -1, -1]}, ONCE),
    "child is the root": ({"right": [0, -1, -1]}, "node 0 has feature 0 and children [1, 0]"),
    "missing threshold": ({"threshold": None}, "model file key 'threshold' missing or malformed"),
    "unequal lengths": ({"threshold": [0.5, 0.0]}, "non-empty and of equal length"),
    "leaf with a child": ({"left": [1, 2, -1]}, "node 1 has feature -1 and children [2, -1]"),
    "feature out of range": ({"feature": [2, -1, -1]}, "node 0 has feature 2 and children"),
    "fractional feature": ({"feature": [0.5, -1, -1]},
                           "model file key 'feature' missing or malformed"),
    # JSON values of the wrong type, which would load as a split on feature 1
    # at 0.5 with leaf weights 1 and 2
    "bool feature": ({"feature": [True, -1, -1]}, "expected an integer, got True"),
    "string threshold": ({"threshold": ["0.5", 0, 0]}, "expected a number, got '0.5'"),
    "string weight": ({"value": [0, "1", 2]}, "expected a number, got '1'"),
    # nodes 3 and 4 are each other's child, unreachable from the root
    "unreachable loop": (
        {"feature": [0, -1, -1, 0, 1, -1, -1], "threshold": [0.5, 0, 0, 0.1, 0.2, 0, 0],
         "left": [1, -1, -1, 4, 3, -1, -1], "right": [2, -1, -1, 5, 6, -1, -1],
         "value": [0, 1, 2, 0, 0, 3, 4]},
        "node 4 has feature 1 and children [3, 6]",
    ),
    "threshold outside the region": (
        {"feature": [0, 0, -1, -1, -1], "threshold": [0.5, 0.7, 0, 0, 0],
         "left": [1, 3, -1, -1, -1], "right": [2, 4, -1, -1, -1], "value": [0, 0, 1, 2, 3]},
        "split value 0.7 outside open interval (-inf, 0.5)",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_TREES))
@pytest.mark.parametrize("kind,cls", [("tree", PRTree), ("pbart", PBartChain)])
def test_malformed_node_arrays_are_rejected(tmp_path, data_csv, capsys, kind, cls, case):
    cls.from_json(_stump_file(kind))
    change, message = BAD_TREES[case]
    text = _stump_file(kind, **change)
    with pytest.raises(ValueError, match=re.escape(message)):
        cls.from_json(text)
    model_path = tmp_path / "bad.json"
    model_path.write_text(text)
    capsys.readouterr()
    assert main(["predict", "--model-file", str(model_path), "--data", str(data_csv),
                 "--target", "y", "--out", str(tmp_path / "p.csv")]) == 1
    assert message in capsys.readouterr().err


def test_model_file_that_is_not_an_object_is_rejected(tmp_path, data_csv, capsys):
    for cls in (PRTree, PBartChain):
        with pytest.raises(ValueError, match="a model file holds a JSON object"):
            cls.from_json("[1, 2]")
    model_path = tmp_path / "array.json"
    model_path.write_text("[1, 2]")
    assert main(["predict", "--model-file", str(model_path), "--data", str(data_csv),
                 "--target", "y", "--out", str(tmp_path / "p.csv")]) == 1
    assert "a model file holds a JSON object" in capsys.readouterr().err


def test_predict_without_data_says_so(tmp_path, capsys):
    model_path = tmp_path / "tree.json"
    model_path.write_text(_stump_file("tree"))
    out = tmp_path / "p.csv"
    assert main(["predict", "--model-file", str(model_path), "--out", str(out)]) == 1
    assert "error: --data is required" in capsys.readouterr().err
    assert not out.exists()


def _model_file(kind):
    """A tree, forest, gbt or one-snapshot P-BART file over features a and b
    whose trees are STUMP."""
    if kind in ("tree", "pbart"):
        return _stump_file(kind)
    trees = [PRTree(FlatTree(**STUMP), np.zeros(2), ("a", "b"))]
    if kind == "forest":
        return Forest(trees, feature_subsets=[(0, 1)], feature_names=("a", "b")).to_json()
    return BoostedEnsemble(trees, 0.5, ("a", "b")).to_json()


def _set(key, value):
    def change(obj):
        obj[key] = value
    return change


def _tree_entry(i, value):
    """Set item i of the first snapshot tree's [structure index, leaf weights] pair."""
    def change(obj):
        obj["snapshots"][0][0][i] = value
    return change


BAD_KEYS = {
    "tree without sigma": ("tree", lambda obj: obj.pop("sigma"), "sigma"),
    "tree with a text sigma": ("tree", _set("sigma", "wide"), "sigma"),
    "tree with numeric names": ("tree", _set("feature_names", 7), "feature_names"),
    "forest tree as an array": ("forest", lambda obj: obj["trees"].__setitem__(0, [1, 2]),
                                "trees"),
    "forest without bootstrap": ("forest", lambda obj: obj.pop("bootstrap"), "bootstrap"),
    "gbt with a list shrinkage": ("gbt", _set("shrinkage", [0.5]), "shrinkage"),
    "pbart without hyper": ("pbart", lambda obj: obj.pop("hyper"), "hyper"),
    "pbart without move_probs": ("pbart", lambda obj: obj["hyper"].pop("move_probs"), "hyper"),
    "pbart without sigma_trace": ("pbart", lambda obj: obj.pop("sigma_trace"), "sigma_trace"),
    "pbart with a nested sigma": ("pbart", _set("sigma", [[0.0, 0.0]]), "sigma"),
    # a negative or NaN sigma would load and predict wrong numbers
    "tree with a negative sigma": ("tree", _set("sigma", [-0.2, 0.0]), "sigma"),
    "pbart with a NaN sigma_trace": ("pbart", _set("sigma_trace", [float("nan")]), "sigma_trace"),
    "pbart with a zero nu": ("pbart", lambda obj: obj["hyper"].__setitem__("nu", 0.0), "hyper"),
    "pbart with a negative sigma_gamma": (
        "pbart", lambda obj: obj["hyper"].__setitem__("sigma_gamma", -0.5), "hyper"),
    # a fitted chain writes every prior calibrated, as a number
    "pbart with a bool beta": ("pbart", lambda obj: obj["hyper"].__setitem__("beta", True),
                               "hyper"),
    "pbart with a null lam": ("pbart", lambda obj: obj["hyper"].__setitem__("lam", None), "hyper"),
    # values no fitter writes, which would load and predict nan, inf, scaled
    # or constant values, or fail inside numpy
    "gbt with a NaN shrinkage": ("gbt", _set("shrinkage", float("nan")), "shrinkage"),
    "gbt with an infinite shrinkage": ("gbt", _set("shrinkage", float("inf")), "shrinkage"),
    "gbt with a negative shrinkage": ("gbt", _set("shrinkage", -3.0), "shrinkage"),
    "gbt with a zero shrinkage": ("gbt", _set("shrinkage", 0.0), "shrinkage"),
    "gbt with a shrinkage above 1": ("gbt", _set("shrinkage", 7.0), "shrinkage"),
    "gbt without trees": ("gbt", _set("trees", []), "trees"),
    "forest without trees": ("forest", _set("trees", []), "trees"),
    "pbart with a NaN y_offset": ("pbart", _set("y_offset", float("nan")), "y_offset"),
    "pbart with an infinite y_scale": ("pbart", _set("y_scale", float("inf")), "y_scale"),
    "pbart with a negative y_scale": ("pbart", _set("y_scale", -1.0), "y_scale"),
    "pbart with a zero y_scale": ("pbart", _set("y_scale", 0.0), "y_scale"),
    "pbart without snapshots": ("pbart", _set("snapshots", []), "snapshots"),
    "pbart with an empty snapshot": ("pbart", _set("snapshots", [[]]), "snapshots"),
    # files that contradict themselves, which would load and predict wrong
    # numbers or fail only when they predict
    "pbart with fewer trees than hyper.m": (
        "pbart", lambda obj: obj["hyper"].__setitem__("m", 2), "snapshots"),
    "pbart with more trees than hyper.m": (
        "pbart", lambda obj: obj["snapshots"][0].append(obj["snapshots"][0][0]), "snapshots"),
    # P-BART snapshot trees that name no structure or do not fit theirs
    "pbart without structures": ("pbart", lambda obj: obj.pop("structures"), "structures"),
    "pbart with a structure index out of range": ("pbart", _tree_entry(0, 1), "snapshots"),
    "pbart with a negative structure index": ("pbart", _tree_entry(0, -1), "snapshots"),
    "pbart with a bool structure index": ("pbart", _tree_entry(0, False), "snapshots"),
    "pbart with a float structure index": ("pbart", _tree_entry(0, 0.0), "snapshots"),
    "pbart with too few leaf weights": ("pbart", _tree_entry(1, [1.0]), "snapshots"),
    "pbart with too many leaf weights": ("pbart", _tree_entry(1, [1.0, 2.0, 3.0]), "snapshots"),
    "pbart snapshot tree that is no pair": (
        "pbart", lambda obj: obj["snapshots"][0].__setitem__(0, [0]), "snapshots"),
    "pbart snapshot tree as node arrays": (
        "pbart", lambda obj: obj["snapshots"][0].__setitem__(0, dict(STUMP)), "snapshots"),
    # non-finite leaf weights would load and predict nan for every row
    "tree with a NaN leaf weight": (
        "tree", lambda obj: obj["value"].__setitem__(1, float("nan")), "value"),
    "tree with an infinite leaf weight": (
        "tree", lambda obj: obj["value"].__setitem__(2, float("inf")), "value"),
    "pbart with a NaN leaf weight": ("pbart", _tree_entry(1, [float("nan"), 2.0]), "snapshots"),
    "pbart with an infinite leaf weight": (
        "pbart", _tree_entry(1, [1.0, float("inf")]), "snapshots"),
    "pbart with three move_probs": (
        "pbart", lambda obj: obj["hyper"].__setitem__("move_probs", [0.4, 0.3, 0.3]), "hyper"),
    "tree with three names over two features": (
        "tree", _set("feature_names", ["a", "b", "c"]), "feature_names"),
    "forest with one name over two features": ("forest", _set("feature_names", ["a"]),
                                               "feature_names"),
    "pbart with three names over two features": (
        "pbart", _set("feature_names", ["a", "b", "c"]), "feature_names"),
    "forest whose second tree has three sigmas": (
        "forest", lambda obj: obj["trees"].append({**obj["trees"][0], "sigma": [0.0] * 3}),
        "trees"),
    # JSON values of the wrong type, each of which would load as the number,
    # bool or list it spells
    "tree with a bool feature": ("tree", _set("feature", [True, -1, -1]), "feature"),
    "tree with a text threshold": ("tree", _set("threshold", ["0.5", 0, 0]), "threshold"),
    "tree with a text leaf weight": ("tree", _set("value", [0, "1", 2]), "value"),
    "tree with a text and a bool sigma": ("tree", _set("sigma", ["0.5", True]), "sigma"),
    # an integer beyond the float range, which would fail inside the loader
    "tree with a threshold beyond the floats": ("tree", _set("threshold", [10**400, 0, 0]),
                                                 "threshold"),
    "pbart with a text and a bool sigma": ("pbart", _set("sigma", ["0.5", True]), "sigma"),
    "pbart with a text sigma_trace": ("pbart", _set("sigma_trace", ["1.0"]), "sigma_trace"),
    "tree with names as one text": ("tree", _set("feature_names", "ab"), "feature_names"),
    "tree with names that are numbers": ("tree", _set("feature_names", [1, 2]), "feature_names"),
    "gbt with a text shrinkage": ("gbt", _set("shrinkage", "0.5"), "shrinkage"),
    "forest with a text bootstrap": ("forest", _set("bootstrap", "no"), "bootstrap"),
    "forest with a subset of no features": (
        "forest", _set("feature_subsets", [["x", None]]), "feature_subsets"),
    "forest with a subset out of range": ("forest", _set("feature_subsets", [[0, 2]]),
                                          "feature_subsets"),
    "forest with a repeated subset feature": ("forest", _set("feature_subsets", [[1, 1]]),
                                              "feature_subsets"),
    "forest with a bool subset feature": ("forest", _set("feature_subsets", [[False, True]]),
                                          "feature_subsets"),
    "forest of two trees and one subset": (
        "forest", lambda obj: obj["trees"].append(obj["trees"][0]), "feature_subsets"),
    "pbart with a float m": ("pbart", lambda obj: obj["hyper"].__setitem__("m", 1.0), "hyper"),
    "pbart with a bool it_burn": (
        "pbart", lambda obj: obj["hyper"].__setitem__("it_burn", True), "hyper"),
    "pbart with a float it_max": (
        "pbart", lambda obj: obj["hyper"].__setitem__("it_max", 1000.0), "hyper"),
    "pbart with bool move_probs": (
        "pbart", lambda obj: obj["hyper"].__setitem__("move_probs", [True, False, False, False]),
        "hyper"),
    "pbart with a text y_offset": ("pbart", _set("y_offset", "1.5"), "y_offset"),
    "pbart with a bool y_scale": ("pbart", _set("y_scale", True), "y_scale"),
    "pbart with a bool leaf weight": ("pbart", _tree_entry(1, [True, 2.0]), "snapshots"),
    "pbart with an acceptance log as a list": ("pbart", _set("acceptance_log", []),
                                                "acceptance_log"),
    "pbart with counts of an unknown move": (
        "pbart", _set("acceptance_log", {"jump": {"accepted": 1, "rejected": 0}}),
        "acceptance_log"),
    "pbart with a negative count": (
        "pbart", _set("acceptance_log", {"grow": {"accepted": -1, "rejected": 0}}),
        "acceptance_log"),
    "pbart with a text count": (
        "pbart", _set("acceptance_log", {"grow": {"accepted": "1", "rejected": 0}}),
        "acceptance_log"),
    "pbart with a count missing": (
        "pbart", _set("acceptance_log", {"grow": {"accepted": 1}}), "acceptance_log"),
}
LOADERS = {"tree": PRTree, "forest": Forest, "gbt": BoostedEnsemble, "pbart": PBartChain}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_predict_decodes_the_model_file_once(tmp_path, data_csv, monkeypatch, kind):
    model_path = tmp_path / "model.json"
    model_path.write_text(_model_file(kind))
    decoded = []

    def loads(text, **kwargs):
        decoded.append(text)
        return json.loads(text, **kwargs)

    monkeypatch.setattr(prtree.tree, "json", SimpleNamespace(loads=loads, dumps=json.dumps))
    assert main(["predict", "--model-file", str(model_path), "--data", str(data_csv),
                 "--target", "y", "--out", str(tmp_path / "p.csv")]) == 0
    assert decoded == [model_path.read_text()]


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_model_loads_a_file_of_any_kind_and_a_kind_only_its_own(kind):
    text = _model_file(kind)
    assert Model.from_json(text) == LOADERS[kind].from_json(text)
    for other in sorted(LOADERS.keys() - {kind}):
        with pytest.raises(ValueError, match=f"model file of kind '{kind}', expected '{other}'"):
            LOADERS[other].from_json(text)


@pytest.mark.parametrize("kind", ["bogus", ["tree"]])
def test_predict_names_a_kind_it_does_not_know(tmp_path, data_csv, capsys, kind):
    obj = {**json.loads(_model_file("forest")), "kind": kind}
    message = f"model file of kind {kind!r}, expected 'tree' or 'forest' or 'gbt' or 'pbart'"
    with pytest.raises(ValueError, match=re.escape(message)):
        Model.from_json(json.dumps(obj))
    model_path = tmp_path / "bogus.json"
    model_path.write_text(json.dumps(obj))
    out = tmp_path / "p.csv"
    assert main(["predict", "--model-file", str(model_path), "--data", str(data_csv),
                 "--target", "y", "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", ["tree", "rf", "gbt", "pbart"])
def test_model_equals_its_reloaded_copy_only(data_csv, model):
    d = load_csv(data_csv, "y")
    hyper = PBartHyper(m=3, it_burn=2, it_max=6) if model == "pbart" else None
    fitted = fit_model(LearnerSpec(kind=model, n_trees=None if model == "tree" else 3,
                                   hyper=hyper), d,
                       np.full(d.p, 0.3), RngSpec(4))
    obj = json.loads(fitted.to_json())
    reloaded = type(fitted).from_json(json.dumps(obj))
    if model == "pbart":
        obj["snapshots"][0][0][1][0] += 1.0
    else:
        tree = obj if model == "tree" else obj["trees"][0]
        tree["value"][tree["feature"].index(-1)] += 1.0
    changed = type(fitted).from_json(json.dumps(obj))
    assert fitted == reloaded and not fitted != reloaded
    assert fitted != changed and not fitted == changed


@pytest.mark.parametrize("case", sorted(BAD_KEYS))
def test_missing_or_mistyped_model_keys_are_rejected(tmp_path, data_csv, capsys, case):
    kind, change, key = BAD_KEYS[case]
    cls = LOADERS[kind]
    obj = json.loads(_model_file(kind))
    cls.from_json(json.dumps(obj))
    change(obj)
    text = json.dumps(obj)
    message = f"model file key {key!r} missing or malformed"
    with pytest.raises(ValueError, match=re.escape(message)):
        cls.from_json(text)
    model_path = tmp_path / "bad.json"
    model_path.write_text(text)
    capsys.readouterr()
    assert main(["predict", "--model-file", str(model_path), "--data", str(data_csv),
                 "--target", "y", "--out", str(tmp_path / "p.csv")]) == 1
    assert message in capsys.readouterr().err

"""End-to-end CLI checks: every subcommand through main(argv)."""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import signal
import stat
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import survbench
from survbench import deepsurv, ksvm, rsf, workers
from survbench.bench import MODELS, model_options, write_csv
from survbench.cli import main
from survbench.data import (Cohort, Column, CovariateSchema, cohort_table, encode, encode_like,
                            ingest_csv, split)
from survbench.datagen import DEFAULT_SCHEMA, GeneratorConfig, generate
from survbench.metrics import concordance_index

from conftest import (cohorts_equal, forest_fields, forest_lists, forked_shards_killed,
                      shard_failing_at)


def make_cohort_csv(tmp_path, n=150, seed=2, name="cohort.csv"):
    path = tmp_path / name
    rc = main(["datagen", "--n", str(n), "--seed", str(seed), "--out", str(path)])
    assert rc == 0
    return path


def assert_one_line_error(capsys, text):
    err = capsys.readouterr().err
    assert err.startswith("survbench: error: ") and text in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_datagen_writes_cohort_and_truth(tmp_path, capsys):
    path = tmp_path / "sub" / "c.csv"
    rc = main(["datagen", "--n", "80", "--seed", "3", "--out", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n=80" in out
    cohort = ingest_csv(str(path))
    reference, _ = generate(GeneratorConfig(n=80, seed=3))
    assert cohorts_equal(cohort, reference)
    truth_path = tmp_path / "sub" / "c_truth.csv"
    with open(truth_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["record_id", "true_time", "true_risk"]
    assert len(rows) == 81


def test_datagen_proportional_beta(tmp_path):
    path = tmp_path / "c.csv"
    rc = main(
        [
            "datagen", "--n", "60", "--seed", "1", "--hazard", "proportional",
            "--beta", "0.5,-0.5", "--out", str(path),
        ]
    )
    assert rc == 0
    assert ingest_csv(str(path)).n == 60


def test_datagen_target_censoring(tmp_path, capsys):
    path = tmp_path / "c.csv"
    rc = main(
        [
            "datagen", "--n", "2000", "--seed", "0",
            "--target-censoring", "0.3", "--out", str(path),
        ]
    )
    assert rc == 0
    cohort = ingest_csv(str(path))
    assert abs(cohort.censoring_rate - 0.3) < 0.04
    # the calibrated horizon of seed 0 (pinned in test_datagen), at 6 digits
    assert capsys.readouterr().out.rstrip().endswith(", horizon=18.4342")


@pytest.mark.parametrize(
    "flags, text",
    [
        (["--baseline-rate", "inf"], "baseline_rate must be a finite number, not inf"),
        (["--baseline-rate=-inf"], "baseline_rate must be a finite number, not -inf"),
        (["--censor-horizon", "inf"], "censor_horizon must be a finite number, not inf"),
        (["--censor-rate", "nan"], "censor_rate must be a finite number, not nan"),
        (["--hazard", "proportional", "--beta", "inf,1"],
         "hazard beta must be finite numbers, not [inf, 1.0]"),
        (["--hazard", "proportional", "--beta", "nan,1"],
         "hazard beta must be finite numbers, not [nan, 1.0]"),
    ],
    ids=["baseline-rate-infinite", "baseline-rate-minus-infinite", "censor-horizon-infinite",
         "censor-rate-nan", "beta-infinite", "beta-nan"],
)
@pytest.mark.filterwarnings("error")  # a warning would print more than the one line
def test_datagen_flag_that_is_not_a_finite_number_is_one_line_error(tmp_path, capsys, flags,
                                                                    text):
    out = tmp_path / "c.csv"
    assert main(["datagen", "--n", "50", *flags, "--out", str(out)]) == 2
    assert_one_line_error(capsys, text)
    assert not out.exists()


def test_datagen_prints_the_default_horizon(tmp_path, capsys):
    assert main(["datagen", "--n", "20", "--out", str(tmp_path / "c.csv")]) == 0
    assert capsys.readouterr().out.rstrip().endswith(", horizon=6.2")


def test_fit_then_eval_round_trip(tmp_path, capsys):
    cohort_csv = make_cohort_csv(tmp_path)
    model_path = tmp_path / "cox.json"
    rc = main(
        ["fit", "--model", "cox", "--input", str(cohort_csv), "--out", str(model_path)]
    )
    assert rc == 0
    with open(model_path) as fh:
        doc = json.load(fh)
    assert doc["model"] == "cox"
    assert doc["standardization"]["means"] is not None

    capsys.readouterr()
    rc = main(["eval", "--model-file", str(model_path), "--input", str(cohort_csv)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("cox C-index: ")
    assert "comparable pairs" in line

    # replaying the stored standardization on the training CSV reproduces
    # the training design, so the printed value must equal a direct refit
    spec = MODELS["cox"]
    cohort = ingest_csv(str(cohort_csv))
    design = encode(cohort, standardize=spec.standardize)
    model = spec.fit(design, model_options("cox", {}), 0)
    expected = concordance_index(design.times, design.events, spec.risk(model, design)).cindex
    assert f"C-index: {format(expected, '.6g')}" in line


def with_cell(src, dst, column="Income", value="1e200"):
    """A copy of cohort CSV `src` at `dst` whose first `column` cell is `value`."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index(column)] = value
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return dst


NORMS_REFUSED = "scored rows have squared norms too large to be finite"


@pytest.mark.parametrize("kind, income, error", [
    ("rbf", "1e200", NORMS_REFUSED),
    ("polynomial", "1e200", NORMS_REFUSED),
    ("linear", "1e200", None),
    # finite squared norms, but their dot products cubed overflow: the scores are refused
    ("polynomial", "1e120", "scores must be finite"),
], ids=["rbf", "polynomial", "linear", "polynomial-power-overflows"])
@pytest.mark.filterwarnings("error")  # a warning would print more than the one line
def test_eval_refuses_rows_that_overflow_the_kernel(tmp_path, capsys, kind, income, error):
    # a cell of 1e200 standardizes to a row whose squared norm overflows: the RBF kernel
    # adds that norm and the polynomial kernel cubes the row's dot products, so both
    # refuse the rows; the linear kernel's dot products stay finite, and it scores them
    cohort_csv = make_cohort_csv(tmp_path)
    config, model_path = tmp_path / "cfg.json", tmp_path / "ksvm.json"
    config.write_text(json.dumps({"model_options": {"ksvm": {"kind": kind, "max_iter": 5}}}))
    assert main(["fit", "--model", "ksvm", "--input", str(cohort_csv), "--config", str(config),
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    huge_csv = with_cell(cohort_csv, tmp_path / "huge.csv", value=income)
    rc = main(["eval", "--model-file", str(model_path), "--input", str(huge_csv)])
    if error is None:
        assert rc == 0 and capsys.readouterr().out.startswith("ksvm C-index: ")
    else:
        assert rc == 2
        assert_one_line_error(capsys, error)


@pytest.mark.parametrize("name", [name for name, spec in MODELS.items() if spec.standardize])
@pytest.mark.filterwarnings("error")  # a warning would print more than the one line
def test_fit_refuses_a_column_whose_sd_overflows(tmp_path, capsys, name):
    # an Income cell of 1e200 overflows the column's sd: the standardized models refuse
    # the column by name and write no file, where a fit on an infinite sd would map every
    # other row's Income to 0 and write sds that no load accepts
    huge_csv = with_cell(make_cohort_csv(tmp_path), tmp_path / "huge.csv")
    capsys.readouterr()
    model_path = tmp_path / f"{name}.json"
    assert main(["fit", "--model", name, "--input", str(huge_csv), "--out", str(model_path)]) == 2
    assert_one_line_error(
        capsys, "design column(s) whose sd is not finite cannot be standardized: ['Income']")
    assert not model_path.exists()


@pytest.mark.filterwarnings("error")  # a warning would print more than the one line
def test_cox_fit_that_diverges_on_a_wide_design_ends_in_one_line(tmp_path, capsys):
    # Income written with a currency sign is categorical, one level per row, and
    # Cox's Newton trial steps on that wide design overflow before it is refused
    with open(make_cohort_csv(tmp_path), newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index("Income")
    wide_csv = tmp_path / "wide.csv"
    with open(wide_csv, "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0], *([*r[:j], f"${r[j]}", *r[j + 1:]] for r in rows[1:])])
    capsys.readouterr()
    model_path = tmp_path / "cox.json"
    assert main(["fit", "--model", "cox", "--input", str(wide_csv), "--out", str(model_path)]) == 2
    assert_one_line_error(capsys, "refit with ridge > 0")
    assert not model_path.exists()


@pytest.mark.filterwarnings("error")
def test_a_blank_cell_in_a_numeric_column_ends_in_one_line(tmp_path, capsys):
    # a blank Income cell keeps Income numeric and is refused by its row
    blank_csv = with_cell(make_cohort_csv(tmp_path), tmp_path / "blank.csv", value="")
    capsys.readouterr()
    model_path = tmp_path / "cox.json"
    assert main(["fit", "--model", "cox", "--input", str(blank_csv), "--out", str(model_path)]) == 2
    assert_one_line_error(capsys, "row 1: empty cell in numeric column 'Income'")
    assert not model_path.exists()


@pytest.mark.parametrize("word", ["NA", "N/A", "null", " None ", "unknown", "?", "-"])
@pytest.mark.filterwarnings("error")
def test_a_word_in_a_numeric_column_ends_in_one_line(tmp_path, capsys, word):
    # a word such as NA keeps Income numeric, not one level per value, and is
    # refused by its row before any model file is written
    na_csv = with_cell(make_cohort_csv(tmp_path), tmp_path / "na.csv", value=word)
    capsys.readouterr()
    model_path = tmp_path / "mtlr.json"
    assert main(["fit", "--model", "mtlr", "--input", str(na_csv), "--out", str(model_path)]) == 2
    assert_one_line_error(capsys, f"row 1: non-numeric value {word!r} in 'Income'")
    assert not model_path.exists()


@pytest.mark.filterwarnings("error")
def test_bench_reports_a_column_whose_sd_overflows_as_each_standardized_models_error(tmp_path):
    huge_csv = with_cell(make_cohort_csv(tmp_path), tmp_path / "huge.csv")
    train, _ = split(ingest_csv(str(huge_csv)), 0.3, 0)
    assert 1e200 in train.covariates["Income"]  # the training split holds the huge cell
    config, out = tmp_path / "cfg.json", tmp_path / "out"
    config.write_text(json.dumps({"model_options": {"rsf": {"b": 5}}, "km_groups": []}))
    assert main(["bench", "--input", str(huge_csv), "--config", str(config),
                 "--out", str(out)]) == 1
    with open(out / "report.csv", newline="") as fh:
        status = {row["model"]: row["status"] for row in csv.DictReader(fh)}
    error = "error: design column(s) whose sd is not finite cannot be standardized: ['Income']"
    assert status == {name: "ok" if name == "rsf" else error for name in MODELS}


def test_eval_on_held_out_cohort(tmp_path, capsys):
    train_csv = make_cohort_csv(tmp_path, seed=2, name="train.csv")
    test_csv = make_cohort_csv(tmp_path, n=100, seed=9, name="test.csv")
    model_path = tmp_path / "m.json"
    assert main(["fit", "--model", "cox", "--input", str(train_csv), "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["eval", "--model-file", str(model_path), "--input", str(test_csv)]) == 0
    line = capsys.readouterr().out
    assert "cox C-index:" in line


TINY_OPTIONS = {
    "rsf": {"b": 5},
    "deepsurv": {"epochs": 5},
    "mtlr": {"max_iter": 50},
    "ksvm": {"max_iter": 5},
}


@pytest.mark.parametrize("name", list(MODELS))
def test_every_model_file_reloads_and_scores(tmp_path, capsys, name):
    cohort_csv = make_cohort_csv(tmp_path, n=120)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model_options": TINY_OPTIONS}))
    model_path = tmp_path / f"{name}.json"
    assert main(["fit", "--model", name, "--input", str(cohort_csv), "--seed", "3",
                 "--config", str(config), "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["eval", "--model-file", str(model_path), "--input", str(cohort_csv)]) == 0
    line = capsys.readouterr().out.strip()

    spec = MODELS[name]
    design = encode(ingest_csv(str(cohort_csv)), standardize=spec.standardize)
    model = spec.fit(design, model_options(name, TINY_OPTIONS.get(name, {})), 3)
    res = concordance_index(design.times, design.events, spec.risk(model, design))
    assert line == f"{name} C-index: {format(res.cindex, '.6g')} ({res.comparable} comparable pairs)"


@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.filterwarnings("error")  # a warning would print more than the one line
def test_eval_refuses_rows_that_overflow_when_standardized(tmp_path, capsys, name):
    # a PurchaseHistory cell of -1.79e308 over its training sd, 0.98 on this cohort, overflows
    # the standardization map, which refuses the rows; the forest splits raw values and scores them
    cohort_csv = make_cohort_csv(tmp_path)
    config, model_path = tmp_path / "cfg.json", tmp_path / f"{name}.json"
    config.write_text(json.dumps({"model_options": TINY_OPTIONS}))
    assert main(["fit", "--model", name, "--input", str(cohort_csv), "--seed", "3",
                 "--config", str(config), "--out", str(model_path)]) == 0
    capsys.readouterr()
    huge_csv = with_cell(cohort_csv, tmp_path / "huge.csv", "PurchaseHistory", "-1.79e308")
    rc = main(["eval", "--model-file", str(model_path), "--input", str(huge_csv)])
    if name == "rsf":
        assert rc == 0 and capsys.readouterr().out.startswith("rsf C-index: ")
    else:
        assert rc == 2
        assert_one_line_error(capsys, "scored rows are not finite after standardization")


def rewrite_rows(src, dst, keep):
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(dst, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(r for r in rows if keep(r))


@pytest.mark.parametrize(
    "keep",
    [
        pytest.param(lambda r: r["MaritalStatus"] != "Widowed", id="level-absent"),
        pytest.param(lambda r: r["Gender"] == "Female", id="single-level"),
    ],
)
def test_eval_uses_the_stored_schema(tmp_path, capsys, keep):
    # held-out rows may lack a training level; eval must encode them with
    # the training columns instead of re-inferring a schema from the file
    train_csv = make_cohort_csv(tmp_path, n=300, seed=3)
    held_out = tmp_path / "held_out.csv"
    rewrite_rows(train_csv, held_out, keep)
    model_path = tmp_path / "cox.json"
    assert main(["fit", "--model", "cox", "--input", str(train_csv), "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["eval", "--model-file", str(model_path), "--input", str(held_out)]) == 0
    line = capsys.readouterr().out.strip()

    with open(model_path) as fh:
        schema = json.load(fh)["schema"]
    assert [c["name"] for c in schema] == ingest_csv(str(train_csv)).schema.names
    spec = MODELS["cox"]
    train = encode(ingest_csv(str(train_csv)), standardize=True)
    design = encode_like(ingest_csv(str(held_out), schema=train.schema), train)
    model = spec.fit(train, model_options("cox", {}), 0)
    expected = concordance_index(design.times, design.events, spec.risk(model, design)).cindex
    assert line.startswith(f"cox C-index: {format(expected, '.6g')} ")


def negated(values):
    return [-v for v in values]


GRID_REFUSED = "malformed rsf model file: event_grid must be finite numbers of shape (g)"
TREES_REFUSED = ("malformed rsf model file: trees must be a JSON list of objects with an "
                 "integer seed")
SEED_REFUSED = "malformed rsf model file: seed must be a JSON integer"


@pytest.mark.parametrize(
    "name, edit, text",
    [
        ("cox", lambda doc: doc.pop("schema"), "no covariate schema"),
        ("cox", lambda doc: doc.update(model="gbm"), "unknown model 'gbm'"),
        ("cox", lambda doc: doc.pop("beta"), "no 'beta' in the cox model file"),
        ("cox", lambda doc: doc["schema"][0].pop("levels"), "no 'levels' in the cox model file"),
        ("cox", lambda doc: doc.update(schema=3), "malformed cox model file"),
        ("ksvm", lambda doc: doc.update(coefficients=doc["coefficients"][:3]),
         "malformed ksvm model file: coefficients must be finite numbers of shape (s), s = "),
        ("mtlr", lambda doc: doc.update(weights=[[1.0]]),
         "malformed mtlr model file: weights must be finite numbers of shape (k, p)"),
        ("ksvm", lambda doc: doc.update(raw_support_rows=5),
         "malformed ksvm model file: raw_support_rows must be finite numbers of shape (s, p)"),
        ("cox", lambda doc: doc.update(beta=[math.nan] * len(doc["beta"])),
         "malformed cox model file: beta must be finite numbers"),
        ("cox", lambda doc: doc.pop("standardization"), "no 'standardization' in the cox model file"),
        ("cox", lambda doc: doc.update(standardization={"means": None, "sds": None}),
         "malformed cox model file: standardization means must be finite numbers of shape (p)"),
        ("cox", lambda doc: doc["standardization"].update(sds=negated(doc["standardization"]["sds"])),
         "malformed cox model file: standardization sds must be at least 1e-12"),
        ("cox", lambda doc: doc["standardization"].update(sds=[0.0] * len(doc["beta"])),
         "malformed cox model file: standardization sds must be at least 1e-12"),
        ("cox", lambda doc: doc["standardization"]["means"].pop(),
         "malformed cox model file: standardization means must be finite numbers"),
        ("rsf", lambda doc: doc.update(standardization={"means": [0.0] * len(doc["column_names"]),
                                                         "sds": [1.0] * len(doc["column_names"])}),
         "malformed rsf model file: standardization means and sds must be null"),
        ("deepsurv", lambda doc: doc["weights"].pop(0),
         "malformed deepsurv model file: weights must be a JSON list of 2 layers"),
        ("deepsurv", lambda doc: doc["biases"].pop(),
         "malformed deepsurv model file: biases must be a JSON list of 2 layers"),
        ("ksvm", lambda doc: doc["kernel"].update(gamma=math.nan),
         "malformed ksvm model file: kernel gamma must be a finite number, not NaN"),
        ("ksvm", lambda doc: doc["kernel"].update(gamma=math.inf),
         "malformed ksvm model file: kernel gamma must be a finite number, not Infinity"),
        ("ksvm", lambda doc: doc["kernel"].update(kind="polynomial", coef0=math.nan),
         "malformed ksvm model file: kernel coef0 must be a finite number, not NaN"),
        ("ksvm", lambda doc: doc["kernel"].update(degree=0),
         "malformed ksvm model file: kernel degree must be >= 1"),
        ("ksvm", lambda doc: doc["kernel"].update(gama=1.0),
         "malformed ksvm model file: unknown kernel keys: ['gama']"),
        ("ksvm", lambda doc: doc["kernel"].update(gamma=-1),
         "malformed ksvm model file: kernel gamma must be positive"),
        ("cox", lambda doc: doc["convergence"].update(gradient_norm=math.nan),
         "malformed cox model file: convergence gradient_norm must be a finite number, not NaN"),
        ("cox", lambda doc: doc["beta"].pop(),  # the cohort's design has 15 columns
         "malformed cox model file: beta must be finite numbers of shape (p), "
         "p = 15 from column_names"),
        ("mtlr", lambda doc: doc.update(boundaries=doc["boundaries"][::-1]),
         "malformed mtlr model file: boundaries must be strictly increasing"),
        ("rsf", lambda doc: doc["event_grid"].__setitem__(1, True), GRID_REFUSED),
        ("rsf", lambda doc: doc["event_grid"].__setitem__(1, "x"), GRID_REFUSED),
        ("rsf", lambda doc: doc["event_grid"].__setitem__(1, [doc["event_grid"][1]]),
         GRID_REFUSED),
        ("rsf", lambda doc: doc.update(event_grid=5), GRID_REFUSED),
        ("rsf", lambda doc: doc.update(event_grid=doc["event_grid"][::-1]),
         "malformed rsf model file: event_grid must be strictly increasing"),
        ("rsf", lambda doc: doc.update(seed="5"), SEED_REFUSED),
        ("rsf", lambda doc: doc.update(seed=2.7), SEED_REFUSED),
        ("rsf", lambda doc: doc["trees"][0].update(seed="7"), TREES_REFUSED),
        ("rsf", lambda doc: doc["trees"][0].update(seed=True), TREES_REFUSED),
        ("rsf", lambda doc: doc.update(trees=5), TREES_REFUSED),
        ("cox", lambda doc: doc["schema"][0].update(name=5),
         "malformed cox model file: schema must be a JSON list of objects with a string name, "
         "a string kind and a list of strings levels"),
        ("ksvm", lambda doc: doc.update(support_rows=doc.pop("raw_support_rows")),
         "malformed ksvm model file: support_rows is an older file format; refit the model"),
        ("ksvm", lambda doc: doc.update(support_rows=doc["raw_support_rows"]),
         "malformed ksvm model file: support_rows is an older file format; refit the model"),
        # finite raw rows and means whose difference overflows; NumPy's RuntimeWarning
        # is an error under the suite's filterwarnings, so none may come first
        ("ksvm", lambda doc: (doc["raw_support_rows"][0].__setitem__(0, 1.7e308),
                              doc["standardization"]["means"].__setitem__(0, -1.7e308)),
         "malformed ksvm model file: raw_support_rows are not finite after standardization"),
        # standardized rows that are finite but whose squared norms overflow in the RBF kernel
        ("ksvm", lambda doc: doc["raw_support_rows"][0].__setitem__(0, 1e200),
         "malformed ksvm model file: raw_support_rows have squared norms too large to be finite"),
    ],
    ids=["no-schema", "unknown-model", "no-beta", "no-levels", "schema-not-a-list",
         "ksvm-coefficients-cut", "mtlr-weights-one-number", "ksvm-support-rows-a-number",
         "cox-beta-nan", "no-standardization", "null-standardization", "negative-sds", "zero-sds",
         "short-means", "forest-standardized", "deepsurv-weights-layer-dropped",
         "deepsurv-biases-layer-dropped", "ksvm-gamma-nan", "ksvm-gamma-infinite",
         "ksvm-polynomial-coef0-nan", "ksvm-degree-zero", "ksvm-kernel-unknown-key",
         "ksvm-gamma-negative",
         "cox-gradient-norm-nan", "cox-beta-cut", "mtlr-boundaries-reversed",
         "rsf-event-grid-item-true", "rsf-event-grid-item-string", "rsf-event-grid-item-nested",
         "rsf-event-grid-number", "rsf-event-grid-reversed", "rsf-seed-string",
         "rsf-seed-fraction", "rsf-tree-seed-string", "rsf-tree-seed-true", "rsf-trees-number",
         "schema-name-number", "ksvm-standardized-rows", "ksvm-standardized-rows-beside-raw",
         "ksvm-rows-overflow-when-standardized", "ksvm-row-norms-overflow"],
)
def test_eval_rejects_bad_model_file(tmp_path, capsys, name, edit, text):
    cohort_csv = make_cohort_csv(tmp_path)
    model_path = tmp_path / f"{name}.json"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model_options": TINY_OPTIONS}))
    assert main(["fit", "--model", name, "--input", str(cohort_csv), "--config", str(config),
                 "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    edit(doc)
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["eval", "--model-file", str(model_path), "--input", str(cohort_csv)])
    assert rc == 2
    assert_one_line_error(capsys, text)


# the fields of numbers in each model file, and the standardization of each standardized
# model; the forest's event_grid is left out, since a grid point no knot reaches can be dropped
EDITABLE = {
    "cox": ["beta", "standardization"],
    "mtlr": ["boundaries", "weights", "biases", "l2", "standardization"],
    "rsf": ["mtry", "min_leaf", "max_depth", "seed", "n"],
    "deepsurv": ["weights", "biases", "standardization"],
    "ksvm": ["raw_support_rows", "coefficients", "c", "standardization"],
}


@pytest.fixture(scope="module")
def fitted_files(tmp_path_factory):
    """The cohort and each model's file of EDITABLE, fitted with TINY_OPTIONS."""
    root = tmp_path_factory.mktemp("fitted")
    cohort_csv = make_cohort_csv(root, n=120)
    config = root / "cfg.json"
    config.write_text(json.dumps({"model_options": TINY_OPTIONS}))
    for name in EDITABLE:
        assert main(["fit", "--model", name, "--input", str(cohort_csv), "--config", str(config),
                     "--out", str(root / f"{name}.json")]) == 0
    return root, cohort_csv


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_eval_names_the_field_an_edit_breaks(fitted_files, data):
    # one edit at any depth of one field: drop an item, add a nesting level, or
    # put NaN, a string or true in its place
    root, cohort_csv = fitted_files
    name = data.draw(st.sampled_from(sorted(EDITABLE)), label="model")
    key = data.draw(st.sampled_from(EDITABLE[name]), label="field")
    edit = data.draw(st.sampled_from(["drop", "nest", math.nan, "x", True]), label="edit")
    doc = json.loads((root / f"{name}.json").read_text())
    holder, slot = doc, key
    if key == "standardization":
        holder, slot = doc[key], data.draw(st.sampled_from(["means", "sds"]))
    inside = edit == "drop"  # an item is dropped from within the field
    while isinstance(holder[slot], list) and holder[slot] and (
            inside or data.draw(st.booleans(), label="deeper")):
        holder, slot = holder[slot], data.draw(st.integers(0, len(holder[slot]) - 1))
        inside = False
    if edit == "drop":
        del holder[slot]
    else:
        holder[slot] = [holder[slot]] if edit == "nest" else edit
    path = root / "edited.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["eval", "--model-file", str(path), "--input", str(cohort_csv)])
    assert rc == 2
    text = err.getvalue()
    assert text.startswith(f"survbench: error: {path}: ") and text.count("\n") == 1
    assert name in text and key in text, text


def run_main(argv):
    """(exit code, stdout, stderr) of `main(argv)`, with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def eval_edited(root, cohort_csv, name, edit):
    """(exit code, stdout, stderr) of `eval` on the fitted file of `name` after
    `edit`, with every warning an error."""
    doc = json.loads((root / f"{name}.json").read_text())
    edit(doc)
    path = root / "edited.json"
    path.write_text(json.dumps(doc))
    return run_main(["eval", "--model-file", str(path), "--input", str(cohort_csv)])


@pytest.mark.parametrize("sds, text", [
    (lambda p: [0.0] * p, "standardization sds must be at least 1e-12"),
    (lambda p: [1.0] * (p - 1), "standardization sds must be finite numbers of shape (p), "
                                "p = "),
], ids=["zero", "short"])
def test_eval_refuses_ksvm_sds_before_standardizing_its_rows(fitted_files, sds, text):
    # the raw support rows are divided by the file's sds only once they are checked,
    # so no inf or NaN row and no NumPy warning comes before the refusal
    root, cohort_csv = fitted_files
    rc, _, err = eval_edited(root, cohort_csv, "ksvm", lambda doc: doc["standardization"].update(
        sds=sds(len(doc["column_names"]))))
    assert rc == 2 and err.count("\n") == 1
    assert f"malformed ksvm model file: {text}" in err


@pytest.mark.parametrize("name, keys", [
    *((name, {"note": "refit in May"}) for name in EDITABLE),
    # a Cox file as written when a fit also saved its Breslow baseline hazard
    ("cox", {"baseline_times": [0.5, 1.25, 3.0], "baseline_values": [0.01, 0.025, 0.06]}),
], ids=[*EDITABLE, "cox-breslow-baseline"])
def test_eval_ignores_top_level_keys_the_file_table_does_not_name(fitted_files, name, keys):
    # only keys inside a record (kernel, spec, convergence) are refused when unknown,
    # and the file scores the same line as without them
    root, cohort_csv = fitted_files
    rc, out, err = eval_edited(root, cohort_csv, name, lambda doc: doc.update(keys))
    assert rc == 0 and err == ""
    assert out == eval_edited(root, cohort_csv, name, lambda doc: None)[1]


@pytest.mark.parametrize("name, edit, text", [
    ("mtlr", lambda doc: doc.update(boundaries=doc["boundaries"][::-1], schema=3),
     "schema must be a JSON list"),
    ("mtlr", lambda doc: (doc.update(boundaries=doc["boundaries"][::-1]),
                          doc["standardization"].update(sds=[0.0] * len(doc["column_names"]))),
     "standardization sds must be at least 1e-12"),
    ("rsf", lambda doc: (doc.update(trees=[{"seed": 1}]),
                         doc["standardization"].update(means=[0.0] * len(doc["column_names"]))),
     "standardization means and sds must be null"),
], ids=["mtlr-schema", "mtlr-sds", "rsf-standardization"])
def test_schema_and_standardization_are_checked_before_the_model_is_built(
        fitted_files, name, edit, text):
    # a file that fails both a check of the model's own and the schema or
    # standardization check is refused for the latter, which a build may read
    root, cohort_csv = fitted_files
    rc, _, err = eval_edited(root, cohort_csv, name, edit)
    assert rc == 2 and f"malformed {name} model file: {text}" in err


# cells a hand-edited or exported cohort may hold: a blank, a missing-value marker, the
# extremes of float64, a number too long to be finite, spaces around a number, a new level
HOSTILE_CELLS = ["", "NA", "inf", "nan", "1e308", "-1e308", "5e-324", "-0.0", "1" * 400,
                 " 42.5 ", "Unseen"]


@given(st.lists(st.tuples(st.integers(0, 119), st.sampled_from([*DEFAULT_SCHEMA.names, "time",
                                                                  "event"]),
                          st.sampled_from(HOSTILE_CELLS)), min_size=1, max_size=3))
@example([(0, "Income", "NA")])
@example([(0, "Income", "")])
@example([(1, "Gender", "NA"), (73, "OnlineBehavior", "NA")])  # an MTLR tail underflows
@example([(0, "PurchaseHistory", "1e308"), (0, "CustomerExperience", "1e308")])  # MTLR scores
@settings(max_examples=25, deadline=None)
def test_a_hostile_cohort_ends_in_exit_0_or_one_line(fitted_files, edits):
    # `fit` on a cohort with one to three cells edited, and `eval` of a clean fit on
    # it, for every model: exit 0 with a finite C-index, or exit 2 with one short line,
    # never a warning or a traceback
    root, cohort_csv = fitted_files
    with open(cohort_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    for i, column, value in edits:
        rows[1 + i % (len(rows) - 1)][rows[0].index(column)] = value
    edited = root / "hostile.csv"
    with open(edited, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    for name in EDITABLE:
        for argv in (["fit", "--model", name, "--input", str(edited),
                      "--config", str(root / "cfg.json"), "--out", str(root / "hostile.json")],
                     ["eval", "--model-file", str(root / f"{name}.json"), "--input", str(edited)]):
            rc, out, err = run_main(argv)
            if rc == 0:
                assert err == ""
                assert argv[0] == "fit" or math.isfinite(float(out.split()[2])), (argv, out)
            else:
                assert rc == 2 and err.startswith("survbench: error: "), (argv, err)
                assert err.count("\n") == 1 and len(err) < 1000, (argv, err)


def test_bench_prints_not_converged_only_beside_a_fitted_model(tmp_path, capsys):
    # an error row says why the fit failed and no more; report.csv keeps its
    # converged column of False for it
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"input": {"generator": {"n": 24}}, "models": ["cox", "mtlr"],
                                  "model_options": {"cox": {"max_iter": 1}}}))
    assert main(["bench", "--seed", "0", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("cox ") and lines[1].endswith("[ok, not converged]")
    assert lines[2].startswith("mtlr ") and lines[2].endswith(
        "[error: only 8 distinct event times; use a smaller k]")
    rows = list(csv.reader((tmp_path / "out" / "report.csv").read_text().splitlines()))
    assert [r[4] for r in rows] == ["converged", "False", "False"]


def test_eval_names_a_model_file_that_is_not_json(tmp_path, capsys):
    cohort_csv = make_cohort_csv(tmp_path)
    model_path = tmp_path / "cox.json"
    assert main(["fit", "--model", "cox", "--input", str(cohort_csv), "--out", str(model_path)]) == 0
    model_path.write_text(model_path.read_text()[:40])  # a file cut short
    capsys.readouterr()
    assert main(["eval", "--model-file", str(model_path), "--input", str(cohort_csv)]) == 2
    assert_one_line_error(capsys, f"{model_path}: not valid JSON: ")


def fit_small_forest(tmp_path):
    """A 3-tree forest file fitted on a 120-row cohort, and the cohort."""
    cohort_csv = make_cohort_csv(tmp_path, n=120)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model_options": {"rsf": {"b": 3}}}))
    model_path = tmp_path / "rsf.json"
    assert main(["fit", "--model", "rsf", "--input", str(cohort_csv),
                 "--config", str(config), "--out", str(model_path)]) == 0
    return model_path, cohort_csv


def test_eval_asks_to_refit_an_old_forest_file(tmp_path, capsys):
    # trees nested node in node, with leaves held as counts and, before
    # that, as curves
    model_path, cohort_csv = fit_small_forest(tmp_path)
    doc = json.loads(model_path.read_text())
    leaf = {"knots": [0], "events": [1], "at_risk": [2]}
    for root in ({"column": 0, "threshold": 0.5, "left": leaf, "right": leaf},
                 {"chf_times": doc["event_grid"][:1], "chf_values": [0.5]}):
        doc["trees"] = [{"seed": 1, "root": root}]
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["eval", "--model-file", str(model_path), "--input", str(cohort_csv)])
        assert rc == 2
        assert_one_line_error(capsys, f"{model_path}: malformed rsf model file: the forest's "
                                      "trees are nested, an older file format; refit the model")


def test_eval_asks_to_refit_a_forest_file_of_lists(tmp_path, capsys):
    # each field of a tree a JSON list, with the right children listed too
    model_path, cohort_csv = fit_small_forest(tmp_path)
    doc = json.loads(model_path.read_text())
    for tree in doc["trees"]:
        tree.update(forest_lists(tree))
        tree["right"] = [c + 1 if c >= 0 else -1 for c in tree["left"]]
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["eval", "--model-file", str(model_path), "--input", str(cohort_csv)])
    assert rc == 2
    assert_one_line_error(capsys, f"{model_path}: malformed rsf model file: a tree's column "
                                  "is a list, an older file format; refit the model")


def test_eval_asks_to_refit_a_forest_file_of_decimals(tmp_path, capsys):
    # each field of a tree one string of decimals one space apart, a leaf's
    # column -1, as forest files were written before their integers were digits
    model_path, cohort_csv = fit_small_forest(tmp_path)
    doc = json.loads(model_path.read_text())
    for tree in doc["trees"]:
        tree.update({key: " ".join(map(str, values)) for key, values in forest_lists(tree).items()})
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["eval", "--model-file", str(model_path), "--input", str(cohort_csv)])
    assert rc == 2
    assert_one_line_error(capsys, f"{model_path}: malformed rsf model file: a tree's column "
                                  "holds -1, an older file format; refit the model")


def test_eval_refuses_a_forest_split_on_no_column(tmp_path, capsys):
    # column -1 marks a leaf; on a split it once scored the last column
    model_path, cohort_csv = fit_small_forest(tmp_path)
    doc = json.loads(model_path.read_text())
    tree = forest_lists(doc["trees"][0])
    assert tree["column"][0] >= 0  # the root splits; make it a leaf without knots
    doc["trees"][0].update(forest_fields(
        column=[-1, *tree["column"][1:]], threshold=tree["threshold"][1:], left=tree["left"][1:],
        knot_counts=[0, *tree["knot_counts"]]))
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["eval", "--model-file", str(model_path), "--input", str(cohort_csv)])
    assert rc == 2
    assert_one_line_error(capsys, f"{model_path}: malformed rsf model file: each node but the "
                                  "root must be the child of one split before it")


def test_eval_refuses_a_forest_file_with_bad_fit_settings(tmp_path, capsys):
    # the settings do not score, but a file that fit could not have written
    # is refused with fit's message (a setting of the wrong JSON type is the
    # codec's refusal, before fit's range checks)
    model_path, cohort_csv = fit_small_forest(tmp_path)
    doc = json.loads(model_path.read_text())
    doc.update(mtry=-5, min_leaf=0, max_depth=-1)
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["eval", "--model-file", str(model_path), "--input", str(cohort_csv)])
    assert rc == 2
    assert_one_line_error(capsys, f"{model_path}: malformed rsf model file: min_leaf must be >= 1")


def test_eval_scores_a_forest_file_of_any_training_size(tmp_path, capsys):
    # a tree's bootstrap is drawn only when read, and scoring reads none, so
    # a training size far past what could be allocated scores as the fitted one
    model_path, cohort_csv = fit_small_forest(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--model-file", str(model_path), "--input", str(cohort_csv)]) == 0
    fitted = capsys.readouterr().out
    doc = json.loads(model_path.read_text())
    doc["n"] = 10**15
    model_path.write_text(json.dumps(doc))
    assert main(["eval", "--model-file", str(model_path), "--input", str(cohort_csv)]) == 0
    assert capsys.readouterr().out == fitted


def test_fit_takes_the_config_seed_unless_seed_is_given(tmp_path):
    cohort_csv = make_cohort_csv(tmp_path, n=60, seed=1)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 5, "model_options": {"rsf": {"b": 3}}}))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"model_options": {"rsf": {"b": 3}}}))
    paths = {}
    for name, argv in {
        "config": ["--config", str(config)],
        "flag": ["--config", str(plain), "--seed", "5"],
        "flag-wins": ["--config", str(config), "--seed", "0"],
        "default": ["--config", str(plain)],
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        assert main(["fit", "--model", "rsf", "--input", str(cohort_csv),
                     "--out", str(paths[name]), *argv]) == 0
    assert paths["config"].read_bytes() == paths["flag"].read_bytes()
    assert paths["flag-wins"].read_bytes() == paths["default"].read_bytes()
    assert paths["config"].read_bytes() != paths["default"].read_bytes()


def test_fit_on_malformed_csv_is_one_line_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("Age,time,event\n30,1.5,1\n41,soon,0\n")
    rc = main(["fit", "--model", "cox", "--input", str(bad), "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert_one_line_error(capsys, "row 2: non-numeric time 'soon'")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["fit", "eval", "bench", "weights"])
@pytest.mark.filterwarnings("error")  # a warning would print more than the one line
def test_a_csv_with_a_header_and_no_rows_is_one_line_error(tmp_path, capsys, command):
    cohort_csv = make_cohort_csv(tmp_path, n=60)
    empty = tmp_path / "empty.csv"
    empty.write_text(cohort_csv.read_text().splitlines()[0] + "\n")
    model = tmp_path / "cox.json"
    assert main(["fit", "--model", "cox", "--input", str(cohort_csv), "--out", str(model)]) == 0
    out = tmp_path / "out"
    args = {"fit": ["--model", "cox", "--out", str(out)], "eval": ["--model-file", str(model)],
            "bench": ["--out", str(out)], "weights": ["--out", str(out)]}[command]
    capsys.readouterr()
    assert main([command, "--input", str(empty), *args]) == 2
    assert_one_line_error(capsys, f"{empty}: a header but no data rows")
    assert not out.exists()


def test_bench_on_malformed_csv_leaves_no_output_dir(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("Age,time,event\n30,1.5,1\n41,soon,0\n")
    assert main(["bench", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert_one_line_error(capsys, "row 2: non-numeric time 'soon'")
    assert not (tmp_path / "o").exists()


def test_bench_without_the_default_km_columns_leaves_no_output_dir(tmp_path, capsys):
    # the default km_groups name OnlineBehavior and Gender, which this CSV lacks
    path = tmp_path / "c.csv"
    path.write_text("x,time,event\n" + "".join(
        f"{i},{i + 1}.0,{i % 3 > 0:d}\n" for i in range(10)))
    assert main(["bench", "--input", str(path), "--models", "cox",
                 "--out", str(tmp_path / "o")]) == 2
    assert_one_line_error(capsys, "unknown covariate: 'OnlineBehavior'")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["a/b", "..", ".", "overall"])
def test_km_file_names_must_be_plain_column_names(tmp_path, capsys, name):
    # KM files are named after their column; such a name would nest files,
    # escape the output directory or overwrite the overall curve, so it is
    # refused before any write
    path = tmp_path / "c.csv"
    path.write_text(f"x,{name},time,event\n" + "".join(
        f"{i},{'pq'[i % 2]},{i + 1}.0,{i % 3 > 0:d}\n" for i in range(12)))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"km_groups": [name]}))
    for argv in (["km", "--input", str(path), "--by", name],
                 ["bench", "--input", str(path), "--models", "cox", "--config", str(config)]):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys, f"cannot name a KM file after column {name!r}")
        assert not (tmp_path / "o").exists()


def test_artifacts_get_the_mode_open_gives(tmp_path):
    # written files follow the umask like open(path, "w"), not a
    # temporary file's private 0600
    old = os.umask(0o027)
    try:
        cohort_csv = make_cohort_csv(tmp_path / "d", n=80)
        model = tmp_path / "m" / "cox.json"
        assert main(["fit", "--model", "cox", "--input", str(cohort_csv),
                     "--out", str(model)]) == 0
        report = tmp_path / "b" / "report.csv"
        assert main(["bench", "--input", str(cohort_csv), "--models", "cox",
                     "--out", str(report.parent)]) == 0
        for artifact in (cohort_csv, model, report):
            reference = artifact.parent / "made_with_open"
            with open(reference, "w"):
                pass
            assert (stat.S_IMODE(artifact.stat().st_mode)
                    == stat.S_IMODE(reference.stat().st_mode) == 0o640)
    finally:
        os.umask(old)


def test_fit_rejects_unknown_option(tmp_path, capsys):
    cohort_csv = make_cohort_csv(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model_options": {"cox": {"step_size": 2}}}))
    rc = main(
        [
            "fit", "--model", "cox", "--input", str(cohort_csv),
            "--config", str(config), "--out", str(tmp_path / "m.json"),
        ]
    )
    assert rc == 2
    assert_one_line_error(capsys, "unknown cox option keys: ['step_size']")


@pytest.mark.parametrize(
    "command, config, text",
    [
        ("fit", [1], "the config must be a JSON object"),
        ("fit", {"model_options": {"cox": 3}},
         "config model_options cox must be a JSON object, not 3"),
        ("bench", {"model_options": {"cox": 3}},
         "config model_options cox must be a JSON object, not 3"),
        ("fit", {"modles": {}}, "unknown config keys: ['modles']"),
        ("fit", {"model_options": {"rsff": {}}}, "unknown config model_options keys: ['rsff']"),
        ("bench", {"model_options": {"rsff": {}}}, "unknown config model_options keys: ['rsff']"),
        ("bench", {"input": 5}, "config input must be a JSON object, not 5"),
        ("bench", {"input": {"generator": {"nn": 5}}},
         "unknown config input generator keys: ['nn']"),
        ("bench", {"input": {"generator": {"schema": []}}},
         "unknown config input generator keys: ['schema']"),
        ("bench", {"km_groups": [1]}, "config km_groups must be a JSON list of strings, not [1]"),
        ("bench", {"km_groups": "Gender"}, "config km_groups must be a JSON list"),
        ("bench", {"models": 5}, "config models must be a JSON list"),
        ("bench", {"models": []}, "models must name at least one model, each once"),
        ("bench", {"models": ["cox", "rsf", "cox"]},
         "models must name at least one model, each once"),
        ("bench", {"models": [["cox"]]},
         'config models must be a JSON list of strings, not [["cox"]]'),
        ("bench", {"seed": "3"}, 'config seed must be a JSON integer, not "3"'),
        ("bench", {"seed": True}, "config seed must be a JSON integer, not true"),
        ("bench", {"test_fraction": "0.3"},
         'config test_fraction must be a JSON number, not "0.3"'),
        ("bench", {"input": {"csv": 5}}, "config input csv must be a JSON string, not 5"),
        ("bench", {"input": {"generator": {"n": "100"}}},
         'config input generator n must be a JSON integer, not "100"'),
        ("bench", {"input": {"generator": {"hazard": "x"}}},
         'config input generator hazard must be a JSON object, not "x"'),
        ("bench", {"input": {"generator": {"hazard": {"kind": "proportional", "beta": "ab"}}}},
         'config input generator hazard beta must be a JSON list of numbers, not "ab"'),
        ("bench", {"test_fraction": math.nan}, "config test_fraction must be a finite number, not NaN"),
        ("bench", {"input": {"generator": {"censor_rate": math.nan}}},
         "config input generator censor_rate must be a finite number, not NaN"),
        ("bench", {"input": {"generator": {"hazard": {"kind": "proportional",
                                                      "beta": [1.0, math.inf]}}}},
         "config input generator hazard beta must be a finite number, not Infinity"),
        ("fit", "{\n", "cfg.json: not valid JSON: Expecting property name enclosed in double "
         "quotes: line 2 column 1 (char 2)"),
        ("bench", '{"seed": 1,}', "cfg.json: not valid JSON: Expecting property name"),
    ],
    ids=["not-an-object", "fit-options-not-objects", "bench-options-not-objects",
         "fit-unknown-key", "fit-options-unknown-model", "bench-options-unknown-model",
         "input-not-an-object", "unknown-generator-key", "generator-schema-key",
         "km-group-not-a-name", "km-groups-not-a-list", "models-not-a-list",
         "models-empty", "models-repeated", "models-not-names",
         "seed-string", "seed-boolean", "test-fraction-string", "csv-number",
         "generator-n-string", "hazard-string", "beta-string", "test-fraction-nan", "censor-rate-nan", "beta-infinite", "fit-not-json",
         "bench-not-json"],
)
def test_malformed_config_is_one_line_error(tmp_path, capsys, command, config, text):
    cohort_csv = make_cohort_csv(tmp_path, n=60)
    path = tmp_path / "cfg.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))  # str: raw text
    capsys.readouterr()
    args = ["--config", str(path), "--out", str(tmp_path / "out")]
    if command == "fit":
        args += ["--model", "cox", "--input", str(cohort_csv)]
    assert main([command, *args]) == 2
    assert_one_line_error(capsys, text)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "model, options, text",
    [
        ("rsf", {"b": "x"}, 'rsf option b must be a JSON integer, not "x"'),
        ("cox", {"max_iter": "5"}, 'cox option max_iter must be a JSON integer, not "5"'),
        ("cox", {"tol": True}, "cox option tol must be a JSON number, not true"),
        ("rsf", {"mtry": "2"}, 'rsf option mtry must be a JSON number or null, not "2"'),
        ("rsf", {"mtry": 2.5}, "mtry must be a whole number"),
        ("rsf", {"mtry": 0}, "mtry must be >= 1"),
        ("ksvm", {"gamma": "a"}, 'ksvm option gamma must be a JSON number or null, not "a"'),
        ("deepsurv", {"hidden": 5}, "deepsurv option hidden must be a JSON list of integers"),
        ("deepsurv", {"hidden": [8, 2.5]}, "hidden must be a JSON list of integers"),
        ("mtlr", {"k": 2.5}, "mtlr option k must be a JSON integer, not 2.5"),
        ("deepsurv", {"epochs": -1}, "epochs must be >= 1"),
        ("deepsurv", {"batch_size": 0}, "batch_size must be >= 1"),
        ("deepsurv", {"learning_rate": 1000.0, "epochs": 3}, "loss diverged"),
        ("ksvm", {"c": -1}, "c must be > 0"),
        ("cox", {"max_iter": -1}, "max_iter must be >= 0"),
        ("cox", {"ridge": -1.0}, "ridge must be >= 0"),
        ("mtlr", {"max_iter": -1}, "max_iter must be >= 0"),
        ("rsf", {"min_leaf": 0}, "min_leaf must be >= 1"),
        ("rsf", {"max_depth": -3}, "max_depth must be null or >= 0"),
        ("deepsurv", {"learning_rate": -0.1}, "learning_rate must be > 0"),
        ("deepsurv", {"l2": -1.0}, "l2 must be >= 0"),
        ("cox", {"ridge": math.nan}, "cox option ridge must be a finite number, not NaN"),
        ("cox", {"tol": math.nan}, "cox option tol must be a finite number, not NaN"),
        ("ksvm", {"c": math.nan}, "ksvm option c must be a finite number, not NaN"),
        ("ksvm", {"gamma": math.nan}, "ksvm option gamma must be a finite number, not NaN"),
        ("mtlr", {"l2": math.inf}, "mtlr option l2 must be a finite number, not Infinity"),
        ("deepsurv", {"learning_rate": math.nan},
         "deepsurv option learning_rate must be a finite number, not NaN"),
        ("rsf", {"mtry": -math.inf}, "rsf option mtry must be a finite number, not -Infinity"),
    ],
    ids=["rsf-b-string", "cox-max-iter-string", "cox-tol-boolean", "rsf-mtry-string",
         "rsf-mtry-fraction", "rsf-mtry-zero", "ksvm-gamma-string", "deepsurv-hidden-number",
         "deepsurv-hidden-fraction", "mtlr-k-fraction", "deepsurv-no-epochs",
         "deepsurv-empty-batches", "deepsurv-diverges", "ksvm-c-negative",
         "cox-max-iter-negative", "cox-ridge-negative", "mtlr-max-iter-negative",
         "rsf-min-leaf-zero", "rsf-max-depth-negative", "deepsurv-learning-rate-negative",
         "deepsurv-l2-negative", "cox-ridge-nan", "cox-tol-nan", "ksvm-c-nan", "ksvm-gamma-nan",
         "mtlr-l2-infinite", "deepsurv-learning-rate-nan", "rsf-mtry-minus-infinite"],
)
@pytest.mark.filterwarnings("error")  # a warning would print more than the one line
def test_fit_option_of_wrong_type_or_value_is_one_line_error(tmp_path, capsys, model,
                                                              options, text):
    cohort_csv = make_cohort_csv(tmp_path, n=60)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model_options": {model: options}}))
    capsys.readouterr()
    rc = main(["fit", "--model", model, "--input", str(cohort_csv), "--config", str(config),
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert_one_line_error(capsys, text)
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "command, flag",
    [("datagen", "--config"), ("eval", "--seed"), ("eval", "--out"), ("eval", "--config"),
     ("km", "--seed"), ("km", "--config"), ("weights", "--seed"), ("weights", "--config")],
)
def test_subcommand_refuses_flags_it_does_not_read(capsys, command, flag):
    required = {
        "datagen": [],
        "eval": ["--model-file", "m.json", "--input", "c.csv"],
        "km": ["--input", "c.csv"],
        "weights": ["--input", "c.csv"],
    }
    with pytest.raises(SystemExit) as exc:
        main([command, *required[command], flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_fit_deepsurv_writes_training_log(tmp_path):
    cohort_csv = make_cohort_csv(tmp_path, n=80)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model_options": {"deepsurv": {"epochs": 5}}}))
    model_path = tmp_path / "net.json"
    rc = main(
        [
            "fit", "--model", "deepsurv", "--input", str(cohort_csv),
            "--config", str(config), "--out", str(model_path), "--seed", "4",
        ]
    )
    assert rc == 0
    with open(tmp_path / "net_training_log.csv", newline="") as fh:
        text = fh.read()
    assert text.endswith("\r\n") and text.count("\n") == text.count("\r\n")  # write_csv's rows
    lines = text.splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 6
    losses = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(np.isfinite(losses))


def test_bench_cli(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "input": {"generator": {"n": 120}},
                "model_options": {"rsf": {"b": 10}},
            }
        )
    )
    out_dir = tmp_path / "out"
    rc = main(
        [
            "bench", "--models", "cox,rsf", "--seed", "5",
            "--config", str(config), "--out", str(out_dir),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "n=120" in printed and "seed=5" in printed
    assert "cox" in printed and "rsf" in printed
    assert "report written to" in printed
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "report.json").exists()
    assert (out_dir / "report.svg").exists()


def fresh_bench_files(out, models, env, preexec_fn=None):
    """Every file but report.json that `bench --seed 0 --models <models>`
    writes from a fresh interpreter, as a user runs it, with `env`."""
    src = str(pathlib.Path(survbench.__file__).resolve().parent.parent)
    env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "survbench.cli", "bench", "--seed", "0", "--models", models,
         "--out", str(out)],
        env=env, preexec_fn=preexec_fn, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "report.json"}


def test_bench_files_do_not_depend_on_the_blas_thread_variables(tmp_path):
    # one run leaves the BLAS thread count to survbench, one sets it; the
    # BLAS-heavy models at n=1000
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    unset = fresh_bench_files(tmp_path / "unset", "cox,mtlr,ksvm", env)
    pinned = fresh_bench_files(tmp_path / "pinned", "cox,mtlr,ksvm",
                               {**env, "OPENBLAS_NUM_THREADS": "1"})
    assert "scores_ksvm.csv" in {p.name for p in unset}
    assert unset == pinned


def test_bench_files_do_not_depend_on_the_cpu_count(tmp_path):
    # one run is pinned to a single CPU, so it fits every model in this
    # process and its forest in one shard; the other forks DeepSurv and
    # KSVM and grows its forest in one shard per usable CPU
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("one usable CPU: both runs would grow the forest in one shard")
    models = ",".join(MODELS)
    every = fresh_bench_files(tmp_path / "every", models, dict(os.environ))
    one = fresh_bench_files(tmp_path / "one", models, dict(os.environ),
                            preexec_fn=lambda: os.sched_setaffinity(0, {min(cpus)}))
    assert {f"scores_{name}.csv" for name in MODELS} <= {p.name for p in every}
    assert every == one


def test_a_failing_forest_shard_is_one_line_error(tmp_path, capsys, monkeypatch):
    cohort_csv = make_cohort_csv(tmp_path, n=60)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model_options": {"rsf": {"b": 9, "min_leaf": 5}}}))
    shard_failing_at(0, monkeypatch)  # the first of three shards, a forked one
    capsys.readouterr()
    assert main(["fit", "--model", "rsf", "--input", str(cohort_csv), "--config", str(config),
                 "--seed", "0", "--out", str(tmp_path / "rsf.json")]) == 2
    assert capsys.readouterr().err == "survbench: error: boom\n"
    assert not (tmp_path / "rsf.json").exists()
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_killed_forest_shard_is_one_line_error(tmp_path, capsys, monkeypatch):
    cohort_csv = make_cohort_csv(tmp_path, n=60)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model_options": {"rsf": {"b": 9, "min_leaf": 5}}}))
    forked_shards_killed(monkeypatch)
    capsys.readouterr()
    assert main(["fit", "--model", "rsf", "--input", str(cohort_csv), "--config", str(config),
                 "--seed", "0", "--out", str(tmp_path / "rsf.json")]) == 2
    assert capsys.readouterr().err == (
        f"survbench: error: a worker process was killed by signal 9 "
        f"({signal.strsignal(signal.SIGKILL)})\n")
    assert not (tmp_path / "rsf.json").exists()


def test_a_killed_forest_shard_in_bench_is_the_forest_row(tmp_path, capsys, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"input": {"generator": {"n": 60}},
                                  "model_options": {"rsf": {"b": 9, "min_leaf": 5}}}))
    forked_shards_killed(monkeypatch)
    assert main(["bench", "--config", str(config), "--models", "cox,rsf,ksvm", "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 1
    with open(tmp_path / "out" / "report.csv", newline="") as fh:
        status = {row[0]: row[3] for row in csv.reader(fh)}
    assert status["cox"] == status["ksvm"] == "ok"
    assert status["rsf"].startswith("error: a worker process was killed by signal 9")


def report_lines(out_dir):
    """report.csv's lines by model, line ends included."""
    with open(out_dir / "report.csv", newline="") as fh:
        return {line.split(",")[0]: line for line in fh}


@pytest.mark.parametrize("killed", ["deepsurv", "ksvm"])
def test_a_killed_bench_worker_is_its_models_row(tmp_path, monkeypatch, killed):
    # each forked fit in turn: its worker is killed, and the run writes the
    # other rows and every figure as a run without the kill does
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"input": {"generator": {"n": 60}},
                                  "model_options": TINY_OPTIONS}))
    argv = ["bench", "--config", str(config), "--models", "cox,deepsurv,ksvm", "--seed", "0"]
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    assert main([*argv, "--out", str(tmp_path / "whole")]) == 0
    here, module = os.getpid(), {"deepsurv": deepsurv, "ksvm": ksvm}[killed]

    def fit(*args, **kwargs):
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError(f"{killed} was fitted in this process")

    monkeypatch.setattr(module, f"fit_{killed}", fit)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    rows, whole = report_lines(tmp_path / "out"), report_lines(tmp_path / "whole")
    assert rows.pop(killed) == (f"{killed},nan,nan,error: a worker process was killed by "
                                f"signal 9 ({signal.strsignal(signal.SIGKILL)}),False\r\n")
    assert rows == {name: line for name, line in whole.items() if name != killed}
    assert sorted(os.listdir(tmp_path / "out")) == sorted(
        set(os.listdir(tmp_path / "whole")) - {f"scores_{killed}.csv"})


def test_bench_prints_each_line_once_with_forked_shards(tmp_path, capsys, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"input": {"generator": {"n": 100}},
                                  "model_options": {"rsf": {"b": 6}}}))
    monkeypatch.setattr(rsf, "_SHARD_ROWS", 1)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
    assert main(["bench", "--config", str(config), "--models", "rsf", "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["n=100", "rsf", "report"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_bench_with_a_repeated_model_is_one_line_error(tmp_path, capsys):
    assert main(["bench", "--models", "cox,cox", "--out", str(tmp_path / "out")]) == 2
    assert_one_line_error(capsys, "models must name at least one model, each once")
    assert not (tmp_path / "out").exists()


def test_bench_cli_csv_input(tmp_path, capsys):
    cohort_csv = make_cohort_csv(tmp_path, n=100, seed=7)
    out_dir = tmp_path / "out"
    rc = main(
        [
            "bench", "--input", str(cohort_csv), "--models", "cox",
            "--seed", "7", "--out", str(out_dir), "--test-fraction", "0.4",
        ]
    )
    assert rc == 0
    assert "split=60/40" in capsys.readouterr().out


def test_bench_cli_error_exit_code(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "input": {"generator": {"n": 100}},
                "model_options": {"mtlr": {"l2": 0.0}},
            }
        )
    )
    rc = main(
        [
            "bench", "--models", "cox,mtlr", "--seed", "0",
            "--config", str(config), "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().out


def test_one_level_category_runs_km_fit_and_bench(tmp_path, capsys):
    # on the Gender == Female rows Gender has one level: it encodes to no
    # design column and groups into one curve
    cohort_csv = make_cohort_csv(tmp_path, n=300, seed=3)
    female = tmp_path / "female.csv"
    rewrite_rows(cohort_csv, female, lambda r: r["Gender"] == "Female")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model_options": TINY_OPTIONS}))
    assert main(["km", "--input", str(female), "--by", "Gender", "--out",
                 str(tmp_path / "km")]) == 0
    with open(tmp_path / "km" / "km_Gender.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["group", "time", "value"]
    assert {r[0] for r in rows[1:]} == {"Female"}
    assert main(["fit", "--model", "cox", "--input", str(female), "--out",
                 str(tmp_path / "cox.json")]) == 0
    schema = json.loads((tmp_path / "cox.json").read_text())["schema"]
    assert {"name": "Gender", "kind": "categorical", "levels": ["Female"]} in schema
    assert main(["bench", "--input", str(female), "--config", str(config), "--out",
                 str(tmp_path / "bench")]) == 0
    out = capsys.readouterr().out
    for name in MODELS:
        assert f"{name} " in out
    assert "error" not in out


def test_km_cli(tmp_path, capsys):
    cohort_csv = make_cohort_csv(tmp_path)
    out_dir = tmp_path / "km"
    capsys.readouterr()
    rc = main(
        ["km", "--input", str(cohort_csv), "--by", "Gender", "--by", "Age",
         "--out", str(out_dir)]
    )
    assert rc == 0
    for name in ("km_overall", "km_Gender", "km_Age"):
        assert (out_dir / f"{name}.csv").exists()
        assert (out_dir / f"{name}.svg").exists()
    assert capsys.readouterr().out.count("wrote") == 6


def test_every_written_svg_parses(tmp_path):
    cohort_csv = make_cohort_csv(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model_options": {"rsf": {"b": 5}}}))
    for argv in (
        ["bench", "--input", str(cohort_csv), "--models", "cox,mtlr,rsf",
         "--config", str(config), "--out", str(tmp_path / "bench")],
        ["km", "--input", str(cohort_csv), "--by", "Age", "--out", str(tmp_path / "km")],
        ["weights", "--input", str(cohort_csv), "--k", "3", "--out", str(tmp_path / "w")],
    ):
        assert main(argv) == 0
    svgs = sorted(tmp_path.rglob("*.svg"))
    names = {p.relative_to(tmp_path).as_posix() for p in svgs}
    assert {"bench/report.svg", "bench/weights.svg", "km/km_Age.svg", "w/weights.svg"} <= names
    for path in svgs:
        ET.parse(path)  # raises ParseError on malformed XML


def test_km_cli_unknown_covariate(tmp_path, capsys):
    cohort_csv = make_cohort_csv(tmp_path)
    rc = main(["km", "--input", str(cohort_csv), "--by", "Blood",
               "--out", str(tmp_path / "km")])
    assert rc == 2
    assert_one_line_error(capsys, "unknown covariate")
    assert not (tmp_path / "km").exists()


def test_weights_cli(tmp_path, capsys):
    cohort_csv = make_cohort_csv(tmp_path)
    out_dir = tmp_path / "w"
    rc = main(
        ["weights", "--input", str(cohort_csv), "--k", "3", "--l2", "1.0",
         "--out", str(out_dir)]
    )
    assert rc == 0
    assert (out_dir / "weights.csv").exists()
    assert (out_dir / "weights.svg").exists()


def test_unknown_model_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["fit", "--model", "gbm", "--input", "x.csv"])


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@settings(max_examples=8, deadline=None)
@given(
    levels=st.lists(st.text(alphabet='ab ,"', min_size=1, max_size=5).filter(
        lambda t: not _is_number(t)), min_size=2, max_size=3, unique=True),
    seed=st.integers(0, 2**16),
)
@example(levels=["a,b", 'say "b"', " a "], seed=0)
def test_every_written_csv_parses_with_constant_width(tmp_path_factory, levels, seed):
    # category levels with commas, quotes and spaces must survive every
    # CSV the CLI writes: one column count per file, labels read back as-is
    rng = np.random.default_rng(seed)
    n = 40
    schema = CovariateSchema((Column("x", "numeric"),
                              Column("g", "categorical", tuple(sorted(levels)))))
    g = np.array([levels[i % len(levels)] for i in range(n)], dtype=object)
    cohort = Cohort(schema, {"x": rng.normal(size=n), "g": g},
                    rng.exponential(size=n), (rng.uniform(size=n) < 0.7).astype(int))
    root = tmp_path_factory.mktemp("csv")
    cohort_csv = root / "in" / "cohort.csv"
    write_csv(str(cohort_csv), *cohort_table(cohort))
    config = root / "cfg.json"
    config.write_text(json.dumps({"km_groups": ["g", "x"]}))
    for argv in (
        ["datagen", "--n", "30", "--seed", str(seed), "--out", str(root / "dg" / "c.csv")],
        ["bench", "--input", str(cohort_csv), "--models", "cox,mtlr",
         "--config", str(config), "--out", str(root / "bench")],
        ["km", "--input", str(cohort_csv), "--by", "g", "--by", "x", "--out", str(root / "km")],
        ["weights", "--input", str(cohort_csv), "--k", "3", "--out", str(root / "w")],
    ):
        assert main(argv) == 0
    tables = {}
    for path in sorted(root.rglob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len({len(r) for r in rows}) == 1, path
        tables[path.relative_to(root).as_posix()] = rows
    # the input cohort, datagen's two files, seven from bench, three km, one weights
    assert len(tables) == 14
    assert cohorts_equal(ingest_csv(str(cohort_csv)), cohort)
    assert tables["dg/c.csv"][0] == [*ingest_csv(str(root / "dg" / "c.csv")).schema.names,
                                     "time", "event"]
    assert [r[0] for r in tables["bench/report.csv"][1:]] == ["cox", "mtlr"]
    for km in ("km/km_g.csv", "bench/km_g.csv"):
        assert {r[0] for r in tables[km][1:]} == set(levels)
    for weights in ("w/weights.csv", "bench/weights.csv"):
        assert {r[0] for r in tables[weights][1:]} == set(encode(cohort).names)

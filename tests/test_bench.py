"""Benchmark harness: config parsing, report emission, determinism, audit
of the score dumps, figure files."""

import csv
import dataclasses
import hashlib
import inspect
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survbench import cox, deepsurv, ksvm, mtlr, rsf, workers
from survbench.bench import (
    MODELS,
    BenchConfig,
    bench_config_from_dict,
    emit_km_figures,
    emit_weight_figure,
    model_from_dict,
    model_options,
    model_to_dict,
    run_benchmark,
    write_csv,
    write_text_atomic,
)
from survbench.cli import main
from survbench.data import Cohort, Column, CovariateSchema, cohort_table, encode
from survbench.datagen import GeneratorConfig, HazardSpec, generate
from survbench.metrics import concordance_index
from survbench.mtlr import fit_mtlr, make_grid
from survbench.nonparametric import kaplan_meier

from conftest import numeric_design


def small_config(out_dir, models=("cox", "rsf"), **kw):
    opts = {"rsf": {"b": 10, "min_leaf": 10}}
    opts.update(kw.pop("model_options", {}))
    return BenchConfig(
        generator=GeneratorConfig(n=120, seed=5),
        models=tuple(models),
        model_options=opts,
        out_dir=str(out_dir),
        seed=5,
        **kw,
    )


def read_report(out_dir):
    with open(os.path.join(str(out_dir), "report.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "train_cindex", "test_cindex", "status", "converged"]
    return {r[0]: r for r in rows[1:]}


def test_config_requires_exactly_one_source(tmp_path):
    with pytest.raises(ValueError, match="exactly one"):
        BenchConfig()
    with pytest.raises(ValueError, match="exactly one"):
        BenchConfig(csv_path="x.csv", generator=GeneratorConfig())


def test_config_validation():
    with pytest.raises(ValueError, match="test_fraction"):
        BenchConfig(generator=GeneratorConfig(), test_fraction=1.0)
    with pytest.raises(ValueError, match="unknown models"):
        BenchConfig(generator=GeneratorConfig(), models=("cox", "gbm"))


def test_config_from_dict_with_generator():
    doc = {
        "input": {
            "generator": {
                "n": 50,
                "hazard": {"kind": "proportional", "beta": [0.5, -0.5]},
                "baseline_rate": 0.1,
            }
        },
        "seed": 9,
        "models": ["cox", "mtlr"],
        "test_fraction": 0.25,
    }
    config = bench_config_from_dict(doc)
    assert config.csv_path is None
    assert config.generator.n == 50
    assert config.generator.seed == 9  # inherited from the top-level seed
    assert config.generator.hazard == HazardSpec("proportional", (0.5, -0.5))
    assert config.models == ("cox", "mtlr")
    assert config.test_fraction == 0.25


def test_config_from_dict_with_csv():
    config = bench_config_from_dict({"input": {"csv": "cohort.csv"}})
    assert config.csv_path == "cohort.csv"
    assert config.generator is None
    assert config.models == tuple(MODELS)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        bench_config_from_dict({"input": {"csv": "x.csv"}, "bootstraps": 10})


def test_config_values_must_have_the_json_type_of_their_default():
    with pytest.raises(ValueError, match=r"^config out_dir must be a JSON string, not 5$"):
        bench_config_from_dict({"input": {"csv": "x.csv"}, "out_dir": 5})
    with pytest.raises(ValueError, match=r"^config input generator censor_rate must be a JSON "
                                         r"number, not \[0\.1\]$"):
        bench_config_from_dict({"input": {"generator": {"censor_rate": [0.1]}}})
    with pytest.raises(ValueError,
                       match=r"^unknown config input generator hazard keys: \['betas'\]$"):
        bench_config_from_dict({"input": {"generator": {"hazard": {"betas": [1.0]}}}})
    # a float takes an integer
    config = bench_config_from_dict({"input": {"generator": {"censor_horizon": 5}},
                                     "test_fraction": 0.5})
    assert config.generator.censor_horizon == 5


_TEXT = st.text(max_size=6)
_POSITIVE = st.one_of(st.integers(1, 100), st.floats(1e-3, 100.0))
_HAZARDS = st.one_of(
    st.fixed_dictionaries({}, optional={"kind": st.just("nonlinear"), "beta": st.just([])}),
    st.fixed_dictionaries({"kind": st.just("proportional"), "beta": st.lists(
        st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0)), min_size=1, max_size=5)}))
_GENERATORS = st.fixed_dictionaries({}, optional={
    "n": st.integers(1, 10**6), "seed": st.integers(0, 2**32 - 1), "hazard": _HAZARDS,
    "baseline_rate": _POSITIVE, "censor_rate": _POSITIVE, "censor_horizon": _POSITIVE})
# configs of valid values, each key optional but the input
CONFIGS = st.fixed_dictionaries(
    {"input": st.one_of(st.fixed_dictionaries({"csv": _TEXT}),
                        st.fixed_dictionaries({"generator": _GENERATORS}))},
    optional={
        "seed": st.integers(0, 2**32 - 1),
        "test_fraction": st.floats(0.01, 0.99),
        "out_dir": _TEXT,
        "models": st.permutations(list(MODELS)).flatmap(
            lambda names: st.integers(1, len(names)).map(lambda k: names[:k])),
        "km_groups": st.lists(_TEXT, max_size=3),
        "model_options": st.dictionaries(st.sampled_from(list(MODELS)),
                                         st.dictionaries(_TEXT, st.integers(), max_size=2),
                                         max_size=3),
    })


def expected_config(doc: dict) -> BenchConfig:
    """The BenchConfig a valid config declares, field by field, with each default spelled out."""
    source, generator = doc["input"], None
    if "generator" in source:
        g, hazard = source["generator"], source["generator"].get("hazard", {})
        generator = GeneratorConfig(
            n=g.get("n", 1000), seed=g.get("seed", doc.get("seed", 0)),
            hazard=HazardSpec(hazard.get("kind", "nonlinear"), tuple(hazard.get("beta", []))),
            baseline_rate=g.get("baseline_rate", 0.05), censor_rate=g.get("censor_rate", 0.01),
            censor_horizon=g.get("censor_horizon", 6.2))
    return BenchConfig(
        csv_path=source.get("csv"), generator=generator,
        test_fraction=doc.get("test_fraction", 0.3), seed=doc.get("seed", 0),
        out_dir=doc.get("out_dir", "bench_out"),
        models=tuple(doc.get("models", ["cox", "mtlr", "rsf", "deepsurv", "ksvm"])),
        model_options=doc.get("model_options", {}),
        km_groups=tuple(doc.get("km_groups", ["OnlineBehavior", "Gender"])))


# the JSON kind each config key takes, by its path; a number takes an integer too
_CONFIG_KINDS = {
    "config seed": "integer", "config test_fraction": "number", "config out_dir": "string",
    "config models": "strings", "config km_groups": "strings", "config model_options": "object",
    **{f"config model_options {name}": "options" for name in MODELS},  # checked at its fit
    "config input": "object", "config input csv": "string", "config input generator": "object",
    "config input generator n": "integer", "config input generator seed": "integer",
    "config input generator baseline_rate": "number",
    "config input generator censor_rate": "number",
    "config input generator censor_horizon": "number",
    "config input generator hazard": "object", "config input generator hazard kind": "string",
    "config input generator hazard beta": "numbers",
}
_FINITE = lambda v: type(v) in (int, float) and math.isfinite(v)
_TAKES = {
    "integer": lambda v: type(v) is int, "number": _FINITE,
    "string": lambda v: type(v) is str, "object": lambda v: type(v) is dict,
    "options": lambda v: type(v) is dict,
    "strings": lambda v: type(v) is list and all(type(x) is str for x in v),
    "numbers": lambda v: type(v) is list and all(_FINITE(x) for x in v),
}
_REPLACEMENTS = [None, True, False, 7, 2.5, "x", ["x"], [2.5], [True], {}, [],
                 math.nan, math.inf, -math.inf, [math.nan], [1.0, math.inf]]


def _objects(doc: dict, path: str = "config"):
    """(path, object) of `doc` and of every object in it that the config declares."""
    yield path, doc
    for key, value in doc.items():
        if _CONFIG_KINDS.get(f"{path} {key}") == "object":
            yield from _objects(value, f"{path} {key}")


@given(CONFIGS)
@settings(max_examples=200, deadline=None)
def test_valid_config_builds_the_bench_config_it_declares(doc):
    before = json.dumps(doc)
    config = bench_config_from_dict(doc)
    assert repr(config) == repr(expected_config(doc))  # repr: an integer stays one
    assert json.dumps(doc) == before  # the document is not changed


@given(CONFIGS, st.data())
@settings(max_examples=200, deadline=None)
def test_config_value_of_another_kind_or_unknown_key_is_refused_naming_its_path(doc, data):
    # one edit at any depth: a value of another JSON kind in a key's place, NaN
    # or Infinity in a number's, or a key the object does not declare
    edit = data.draw(st.sampled_from(["kind", "non-finite", "unknown key"]), label="edit")
    slots = [(path, holder, key) for path, holder in _objects(doc) for key in holder
             if edit == "kind" or _CONFIG_KINDS[f"{path} {key}"] in ("number", "numbers")]
    if edit == "unknown key" or not slots:
        path, holder = data.draw(st.sampled_from(list(_objects(doc))), label="object")
        key = data.draw(_TEXT.filter(lambda k: f"{path} {k}" not in _CONFIG_KINDS), label="key")
        holder[key] = 1
        text = f"unknown {path} keys: {[key]}"
    else:
        path, holder, key = data.draw(st.sampled_from(slots), label="slot")
        kind = _CONFIG_KINDS[f"{path} {key}"]
        values = [v for v in _REPLACEMENTS if not _TAKES[kind](v)]
        if edit == "non-finite":
            values = [math.nan, math.inf, -math.inf] if kind == "number" else [
                [math.nan], [1.0, math.inf], [-math.inf]]
        holder[key] = data.draw(st.sampled_from(values), label="value")
        text = f"{path} {key} must be a "
    with pytest.raises(ValueError) as refused:
        bench_config_from_dict(doc)
    assert text in str(refused.value)


def test_registry_defaults_match_signature_defaults():
    # each registry default is the default of the function or record the
    # option is passed to, so a direct call fits the model `bench` fits
    targets = {
        "cox": [cox.fit_cox],
        "mtlr": [mtlr.fit_mtlr, mtlr.make_grid],
        "rsf": [rsf.fit_forest],
        "deepsurv": [deepsurv.fit_deepsurv, deepsurv.MlpSpec],
        "ksvm": [ksvm.fit_ksvm, ksvm.KernelSpec],
    }
    for name, spec in MODELS.items():
        for option, value in spec.defaults.items():
            params = [inspect.signature(fn).parameters.get(option) for fn in targets[name]]
            params = [p for p in params if p is not None]
            if option == "hidden":  # becomes MlpSpec.layer_widths, which has no default
                assert params == []
            elif option == "k":  # make_grid's k is required
                assert [p.default for p in params] == [inspect.Parameter.empty]
            else:
                assert [p.default for p in params] == [value], (name, option)


def test_model_option_keys_are_pinned():
    # the defaults are read off the takers' signatures, so a defaulted keyword added to
    # one would become a config key; each model's keys, in order, are its config surface
    assert {name: list(spec.defaults) for name, spec in MODELS.items()} == {
        "cox": ["max_iter", "tol", "ridge"],
        "mtlr": ["k", "l2", "max_iter", "tol"],
        "rsf": ["b", "mtry", "min_leaf", "max_depth"],
        "deepsurv": ["hidden", "activation", "dropout_rate", "epochs", "batch_size",
                     "learning_rate", "l2"],
        "ksvm": ["kind", "gamma", "degree", "coef0", "c", "max_iter", "tol"],
    }


@given(st.integers(0, 2**32 - 1), st.integers(30, 60), st.integers(1, 3))
@settings(max_examples=8, deadline=None)
def test_model_dicts_survive_json_with_identical_scores(seed, n, p):
    # model_to_dict -> model_from_dict, in memory and through JSON text, must score
    # every row bit for bit
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    t = np.round(rng.exponential(np.exp(-X[:, 0])), 2) + 0.01
    e = (rng.uniform(size=n) < 0.7).astype(int)
    e[:5] = 1
    tiny = {"mtlr": {"k": 3}, "rsf": {"b": 3, "min_leaf": 5},
            "deepsurv": {"epochs": 3}, "ksvm": {"max_iter": 5}}
    for name, spec in MODELS.items():
        design = numeric_design(X, t, e, standardize=spec.standardize)  # as `fit` encodes
        model = spec.fit(design, model_options(name, tiny.get(name, {})), seed)
        doc = model_to_dict(name, model, design, numeric_design(X, t, e).X)
        for read in (doc, json.loads(json.dumps(doc))):
            _, back, _ = model_from_dict(read, f"{name}.json")
            assert np.array_equal(spec.risk(back, design), spec.risk(model, design)), name


@pytest.mark.parametrize("name", MODELS)
def test_each_risk_refuses_a_design_with_other_columns(name):
    # the same rows under names the model was not fitted on are refused, not scored
    rng = np.random.default_rng(4)
    X, t, e = rng.normal(size=(40, 2)), rng.integers(1, 9, 40) + 0.5, np.arange(40) % 3 > 0
    spec = MODELS[name]
    design = numeric_design(X, t, e.astype(int), standardize=spec.standardize)
    tiny = {"mtlr": {"k": 3}, "rsf": {"b": 2}, "deepsurv": {"epochs": 2}, "ksvm": {"max_iter": 3}}
    model = spec.fit(design, model_options(name, tiny.get(name, {})), 0)
    with pytest.raises(ValueError, match="design columns do not match"):
        spec.risk(model, dataclasses.replace(design, names=design.names[::-1]))


def test_run_benchmark_small(tmp_path):
    config = small_config(tmp_path / "out")
    report = run_benchmark(config)
    assert [r.name for r in report.rows] == ["cox", "rsf"]
    assert report.all_ok
    assert report.train_n + report.test_n == report.n == 120
    for r in report.rows:
        assert 0.0 <= r.train_cindex <= 1.0
        assert 0.0 <= r.test_cindex <= 1.0
        assert r.wall_time_ms > 0
    rows = read_report(tmp_path / "out")
    assert set(rows) == {"cox", "rsf"}
    assert rows["cox"][3] == "ok"


def test_model_order_is_fixed_regardless_of_request_order(tmp_path):
    config = small_config(tmp_path / "out", models=("rsf", "cox"))
    report = run_benchmark(config)
    assert [r.name for r in report.rows] == ["cox", "rsf"]


def test_scores_csv_audit(tmp_path):
    # the dumped per-record scores must reproduce the reported C-indexes
    out = tmp_path / "out"
    report = run_benchmark(small_config(out))
    reported = {r.name: r for r in report.rows}
    for name in ("cox", "rsf"):
        with open(out / f"scores_{name}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["split", "index", "time", "event", "score"]
        for split_name, attr in (("train", "train_cindex"), ("test", "test_cindex")):
            sub = [r for r in rows[1:] if r[0] == split_name]
            times = np.array([float(r[2]) for r in sub])
            events = np.array([int(r[3]) for r in sub])
            scores = np.array([float(r[4]) for r in sub])
            recomputed = concordance_index(times, events, scores).cindex
            assert abs(recomputed - getattr(reported[name], attr)) < 1e-12


def test_reruns_are_byte_identical_except_timings(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_benchmark(small_config(out_a))
    run_benchmark(small_config(out_b))
    names_a = sorted(os.listdir(out_a))
    assert names_a == sorted(os.listdir(out_b))
    for name in names_a:
        with open(out_a / name, "rb") as fh:
            blob_a = fh.read()
        with open(out_b / name, "rb") as fh:
            blob_b = fh.read()
        if name == "report.json":
            doc_a, doc_b = json.loads(blob_a), json.loads(blob_b)
            for doc in (doc_a, doc_b):
                for row in doc["rows"]:
                    row.pop("wall_time_ms")
            assert doc_a == doc_b
        else:
            assert blob_a == blob_b, f"{name} differs between reruns"


def test_default_report_csv_is_pinned(tmp_path):
    # the headline run's report, byte for byte: a change that moves a
    # C-index or a convergence flag of `bench --seed 0` must re-pin it
    assert main(["bench", "--seed", "0", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
    assert digest == "a8dcb897c9dad9b788eca91f911ab75a2524749fdfd748a2e5af796f7e635ed1"


def test_error_row_is_isolated(tmp_path):
    # a bad option for one model must not take down the others
    out = tmp_path / "out"
    config = small_config(
        out, models=("cox", "mtlr"), model_options={"mtlr": {"l2": 0.0}}
    )
    report = run_benchmark(config)
    by_name = {r.name: r for r in report.rows}
    assert by_name["cox"].status == "ok"
    assert by_name["mtlr"].status.startswith("error:")
    assert not by_name["mtlr"].converged
    assert np.isnan(by_name["mtlr"].test_cindex)
    assert not report.all_ok
    rows = read_report(out)
    assert rows["mtlr"][1] == rows["mtlr"][2] == "nan"
    assert os.path.exists(out / "scores_cox.csv")
    assert not os.path.exists(out / "scores_mtlr.csv")


def forked_and_not(tmp_path, monkeypatch, options):
    """report.csv and the warnings (category, message, file, line) of a
    DeepSurv-only bench run with `options`, with DeepSurv fitted here (one
    usable CPU) and in a forked worker (two)."""
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(workers, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_benchmark(small_config(out, models=("deepsurv",),
                                       model_options={"deepsurv": options}))
        runs.append(((out / "report.csv").read_bytes(),
                     [(w.category, str(w.message), w.filename, w.lineno) for w in caught]))
    return runs


def test_a_forked_fit_gives_the_warnings_of_a_fit_here(tmp_path, monkeypatch):
    here, forked = forked_and_not(tmp_path, monkeypatch, {"batch_size": 2, "epochs": 3})
    assert forked == here
    assert read_report(tmp_path / "cpus2")["deepsurv"][3] == "ok"
    assert here[1] and all(w[0] is UserWarning and w[2] == deepsurv.__file__ for w in here[1])
    assert "skipping event-free batch at epoch 0" in {w[1] for w in here[1]}


def test_a_forked_fit_that_fails_is_its_row(tmp_path, monkeypatch):
    here, forked = forked_and_not(tmp_path, monkeypatch, {"learning_rate": 1000.0, "epochs": 3})
    assert forked == here
    assert read_report(tmp_path / "cpus2")["deepsurv"][3].startswith("error: loss diverged at")


def test_an_encoding_error_is_its_models_row_on_one_cpu_or_two(tmp_path, monkeypatch):
    # standardized models cannot encode a constant column; with two CPUs
    # DeepSurv and KSVM meet it in their forked workers
    header, rows = cohort_table(generate(GeneratorConfig(n=120, seed=5))[0])
    write_csv(tmp_path / "flat.csv", [*header, "flat"], [[*r, "1"] for r in rows])
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(workers, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        run_benchmark(BenchConfig(csv_path=str(tmp_path / "flat.csv"), out_dir=str(out),
                                  km_groups=(), model_options={"rsf": {"b": 10}}))
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]
    error = "error: constant design column(s) cannot be standardized: ['flat']"
    assert {name: row[3] for name, row in read_report(tmp_path / "cpus2").items()} == {
        "cox": error, "mtlr": error, "rsf": "ok", "deepsurv": error, "ksvm": error}


def test_unknown_model_option_is_reported_per_model(tmp_path):
    config = small_config(
        tmp_path / "out", models=("cox",), model_options={"cox": {"step": 2}}
    )
    report = run_benchmark(config)
    assert report.rows[0].status == "error: unknown cox option keys: ['step']"


def test_option_of_wrong_json_type_is_reported_per_model(tmp_path):
    config = small_config(
        tmp_path / "out", models=("cox", "rsf"), model_options={"rsf": {"b": "x"}}
    )
    status = {r.name: r.status for r in run_benchmark(config).rows}
    assert status == {"cox": "ok", "rsf": 'error: rsf option b must be a JSON integer, not "x"'}


def test_non_finite_option_is_reported_per_model(tmp_path):
    # json reads NaN, and a NaN ridge passes the ridge >= 0 check
    config = small_config(
        tmp_path / "out", models=("cox", "rsf"), model_options={"cox": {"ridge": math.nan}}
    )
    status = {r.name: r.status for r in run_benchmark(config).rows}
    assert status == {"cox": "error: cox option ridge must be a finite number, not NaN",
                      "rsf": "ok"}


def test_option_values_must_have_the_json_type_of_their_default():
    # a float or null default takes any number, a null default null too
    assert model_options("ksvm", {"gamma": 1, "c": 5})["c"] == 5
    assert model_options("ksvm", {"gamma": None})["gamma"] is None
    assert model_options("rsf", {"mtry": 2, "max_depth": 3.0})["mtry"] == 2
    assert model_options("deepsurv", {"hidden": [4, 4]})["hidden"] == [4, 4]
    for name, overrides in [("cox", {"max_iter": 5.0}), ("cox", {"ridge": None}),
                            ("mtlr", {"l2": False}), ("ksvm", {"kind": 1}),
                            ("rsf", {"max_depth": "3"}), ("deepsurv", {"hidden": [4.0]}),
                            ("deepsurv", {"activation": ["relu"]})]:
        with pytest.raises(ValueError, match=f"{name} option .* must be a JSON"):
            model_options(name, overrides)


def test_report_json_environment(tmp_path):
    out = tmp_path / "out"
    run_benchmark(small_config(out))
    with open(out / "report.json") as fh:
        doc = json.load(fh)
    env = doc["environment"]
    assert list(env) == ["seed", "n", "n_events", "censoring_rate", "train_n", "test_n"]
    assert env["seed"] == 5
    assert env["n"] == 120
    assert env["train_n"] + env["test_n"] == 120
    assert 0.0 <= env["censoring_rate"] <= 1.0
    assert {row["model"] for row in doc["rows"]} == {"cox", "rsf"}
    assert all(row["wall_time_ms"] >= 0 for row in doc["rows"])


def test_km_figures_match_library_fits(tmp_path):
    out = tmp_path / "out"
    run_benchmark(small_config(out))
    cohort, _ = generate(GeneratorConfig(n=120, seed=5))
    km = kaplan_meier(cohort.time, cohort.event)
    with open(out / "km_overall.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "value"]
    times = np.array([float(r[0]) for r in rows[1:]])
    values = np.array([float(r[1]) for r in rows[1:]])
    assert np.array_equal(times, km.times)
    assert np.array_equal(values, km.values)
    # default grouping covariates
    for name in ("OnlineBehavior", "Gender"):
        assert os.path.exists(out / f"km_{name}.csv")
        assert os.path.exists(out / f"km_{name}.svg")


def test_km_grouped_csv_lists_levels(tmp_path):
    cohort, _ = generate(GeneratorConfig(n=150, seed=2))
    emit_km_figures(cohort, ["Gender"], str(tmp_path))
    with open(tmp_path / "km_Gender.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["group", "time", "value"]
    assert {r[0] for r in rows[1:]} == {"Female", "Male"}


def read_km_groups(path):
    """A grouped KM CSV as {group: (times, values)}."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {g: (np.array([float(r[1]) for r in rows if r[0] == g]),
                np.array([float(r[2]) for r in rows if r[0] == g])) for g in {r[0] for r in rows}}


def test_km_group_csv_values_equal_each_level_fit(tmp_path):
    cohort = Cohort(
        schema=CovariateSchema(columns=(Column("arm", "categorical", levels=("ctrl", "treat")),)),
        covariates={"arm": np.array(["ctrl", "treat"] * 3, dtype=object)},
        time=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        event=np.array([1, 1, 0, 1, 1, 0]),
    )
    emit_km_figures(cohort, ["arm"], str(tmp_path))
    groups = read_km_groups(tmp_path / "km_arm.csv")
    assert set(groups) == {"ctrl", "treat"}
    arm = cohort.covariates["arm"]
    for level, (times, values) in groups.items():
        ref = kaplan_meier(cohort.time[arm == level], cohort.event[arm == level])
        assert np.array_equal(times, ref.times) and np.array_equal(values, ref.values)


def test_km_level_without_rows_writes_no_rows(tmp_path):
    cohort = Cohort(
        schema=CovariateSchema(columns=(Column("arm", "categorical", levels=("a", "b", "c")),)),
        covariates={"arm": np.array(["a", "a", "b"], dtype=object)},
        time=np.array([1.0, 2.0, 3.0]),
        event=np.array([1, 0, 1]),
    )
    emit_km_figures(cohort, ["arm"], str(tmp_path))
    assert set(read_km_groups(tmp_path / "km_arm.csv")) == {"a", "b"}


def test_km_numeric_group_uses_median_split(tmp_path):
    cohort, _ = generate(GeneratorConfig(n=150, seed=2))
    emit_km_figures(cohort, ["Age"], str(tmp_path))
    with open(tmp_path / "km_Age.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    labels = {r[0] for r in rows[1:]}
    assert len(labels) == 2
    assert all("Age" in lab and ("<=" in lab or ">" in lab) for lab in labels)


def test_km_figures_unknown_column(tmp_path):
    cohort, _ = generate(GeneratorConfig(n=50, seed=1))
    with pytest.raises(KeyError):
        emit_km_figures(cohort, ["Blood"], str(tmp_path))


def test_weight_figure_lists_every_encoded_column(tmp_path):
    cohort, _ = generate(GeneratorConfig(n=100, seed=4))
    design = encode(cohort, standardize=True)
    model = fit_mtlr(design, make_grid(design, 3), l2=1.0, max_iter=50)
    paths = emit_weight_figure(model, str(tmp_path))
    assert sorted(os.path.basename(p) for p in paths) == ["weights.csv", "weights.svg"]
    with open(tmp_path / "weights.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["variable", "aggregate_weight", "w1", "w2", "w3"]
    assert {r[0] for r in rows[1:]} == set(design.names)
    mags = [abs(float(r[1])) for r in rows[1:]]
    assert mags == sorted(mags, reverse=True)


def test_weights_emitted_only_when_mtlr_runs(tmp_path):
    out = tmp_path / "cox_only"
    run_benchmark(small_config(out, models=("cox",)))
    assert not os.path.exists(out / "weights.csv")
    out2 = tmp_path / "with_mtlr"
    run_benchmark(
        small_config(out2, models=("mtlr",), model_options={"mtlr": {"max_iter": 60}})
    )
    assert os.path.exists(out2 / "weights.csv")
    assert os.path.exists(out2 / "weights.svg")


def test_write_text_atomic_overwrites(tmp_path):
    path = tmp_path / "x.txt"
    write_text_atomic(str(path), "one")
    write_text_atomic(str(path), "two")
    with open(path) as fh:
        assert fh.read() == "two"
    assert os.listdir(tmp_path) == ["x.txt"]


def test_write_text_atomic_failure_leaves_no_temporary_file(tmp_path):
    (tmp_path / "x").mkdir()  # no file can be renamed over a directory
    with pytest.raises(OSError):
        write_text_atomic(str(tmp_path / "x"), "text")
    assert os.listdir(tmp_path) == ["x"]
    assert os.listdir(tmp_path / "x") == []


def test_csv_input_round_trip(tmp_path):
    cohort, _ = generate(GeneratorConfig(n=90, seed=8))
    csv_path = tmp_path / "cohort.csv"
    write_csv(str(csv_path), *cohort_table(cohort))
    config = BenchConfig(
        csv_path=str(csv_path),
        models=("cox",),
        out_dir=str(tmp_path / "out"),
        seed=8,
    )
    report = run_benchmark(config)
    assert report.all_ok
    assert report.n == 90

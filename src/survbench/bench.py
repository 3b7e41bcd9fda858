"""Benchmark harness: fit the five models on one cohort, score a held-out
split, emit the comparison report and the survival-curve/weight figures.

Determinism contract: report.csv and every data CSV depend only on the
config (seed included); wall-clock timings are confined to report.json.

`write_text_atomic` is the only code in the package that creates files,
and every CSV is the text of `csv_text`.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import cox, deepsurv, ksvm, mtlr, rsf, workers
from .common import Convergence, fmt6, has_json_kind, json_kind
from .data import (SD_FLOOR, Cohort, Column, CovariateSchema, DesignMatrix, column_list, cut,
                   design_names, encode, encode_like, ingest_csv, quoted, split, standardize_rows)
from .datagen import GeneratorConfig, HazardSpec, generate
from .metrics import concordance_index
from .nonparametric import kaplan_meier
from .rng import derive_seed
from .svg import bar_chart, step_chart


@dataclass(frozen=True)
class ModelSpec:
    """How the harness drives one model. `fit` and `risk` look up their
    module function at call time, so a tracer that rebinds module
    attributes sees calls made through the registry. Gradient-trained
    models get standardized designs; trees split raw values. A model file
    holds the `file_fields` rows (key, kind, shape, read) in order: a kind is
    an example value, and a shape is in the file's sizes (p = the schema's design columns,
    other letters bound by the first field with them) or per-layer lengths from the
    fields before; a read takes the model and its design's raw rows. `build` makes the
    model from the checked fields, `column_names` and standardization `means`/`sds`."""

    standardize: bool
    defaults: dict
    fit: Callable
    risk: Callable
    file_fields: tuple
    build: Callable


def _defaults(*takers, **unsigned) -> dict:
    """Each option's one default: `unsigned`, which no signature holds, then each taker's
    defaulted parameters in order, but the seeds a run derives and record-valued ones."""
    return {**unsigned, **{p.name: p.default for taker in takers
                           for p in inspect.signature(taker).parameters.values()
                           if p.default is not p.empty and not is_dataclass(p.default)
                           and p.name not in ("seed", "weight_init_seed")}}


def _record(cls, opts: dict, **given):
    """A `cls` record of `given` and the options that name its fields, popped from `opts`."""
    return cls(**{f.name: opts.pop(f.name) for f in fields(cls) if f.name in opts}, **given)


def _fit_mtlr(design, opts: dict, seed: int):
    opts = dict(opts)
    return mtlr.fit_mtlr(design, mtlr.make_grid(design, opts.pop("k")), **opts)


def _fit_deepsurv(design, opts: dict, seed: int):
    opts = dict(opts)
    net = _record(deepsurv.MlpSpec, opts, layer_widths=(design.p, *opts.pop("hidden"), 1),
                  weight_init_seed=derive_seed(seed, 1))
    return deepsurv.fit_deepsurv(design, net, seed=seed, **opts)


def _fit_ksvm(design, opts: dict, seed: int):
    opts = dict(opts)
    kernel = _record(ksvm.KernelSpec, opts)
    return ksvm.fit_ksvm(design, kernel, **opts)


def _mlp_layers(f: dict) -> list[tuple[int, int]]:
    """(fan-in, fan-out) of each layer of a DeepSurv file's spec, whose input is the p columns."""
    widths, p = f["spec"].layer_widths, len(f["column_names"])
    if widths[0] != p:
        raise TypeError(f"spec layer_widths must start with p = {p} from schema, not {widths[0]}")
    return list(zip(widths[:-1], widths[1:]))


def _json(record) -> dict:
    """The fields of dataclass `record` as a model file holds them, a tuple as a list."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(record).items()}


_CONVERGENCE = ("convergence", Convergence(True, 0, 0.0), None, lambda m, _: _json(m.convergence))

# in report order; a model's position also derives its seed in a bench run
MODELS: dict[str, ModelSpec] = {
    "cox": ModelSpec(
        standardize=True,
        defaults=_defaults(cox.fit_cox),
        fit=lambda design, opts, seed: cox.fit_cox(design, **opts),
        risk=lambda model, design: cox.predict_risk(model, design),
        file_fields=(
            ("beta", 0.0, ("p",), lambda m, _: m.beta.tolist()),
            _CONVERGENCE,
        ),
        build=lambda f: cox.CoxModel(f["beta"], f["column_names"], f["convergence"]),
    ),
    "mtlr": ModelSpec(
        standardize=True,
        defaults=_defaults(mtlr.fit_mtlr, k=10),  # make_grid requires k
        fit=_fit_mtlr,
        risk=lambda model, design: mtlr.mtlr_risk(model, design),
        file_fields=(
            ("boundaries", 0.0, ("k",), lambda m, _: m.grid.boundaries.tolist()),
            ("weights", 0.0, ("k", "p"), lambda m, _: m.weights.tolist()),
            ("biases", 0.0, ("k",), lambda m, _: m.biases.tolist()),
            ("l2", 0.0, (), lambda m, _: m.l2),
            _CONVERGENCE,
        ),
        build=lambda f: mtlr.MtlrModel(f["weights"], f["biases"], mtlr.TimeGrid(f["boundaries"]),
                                       f["l2"], f["column_names"], f["convergence"]),
    ),
    "rsf": ModelSpec(
        standardize=False,
        defaults=_defaults(rsf.fit_forest),
        fit=lambda design, opts, seed: rsf.fit_forest(design, seed=seed, **opts),
        risk=lambda model, design: rsf.rsf_risk(model, design),
        file_fields=(
            ("mtry", 0, None, lambda m, _: m.mtry),
            ("min_leaf", 0, None, lambda m, _: m.min_leaf),
            ("max_depth", None, None, lambda m, _: m.max_depth),
            ("seed", 0, None, lambda m, _: m.seed),
            ("event_grid", 0.0, ("g",), lambda m, _: m.event_grid.tolist()),
            ("n", 0, None, lambda m, _: m.n),
            ("trees", dict.fromkeys(rsf.FILE_FIELDS, ""), None,
             lambda m, _: rsf.trees_to_dict(m.nodes, m.tree_sizes)),
        ),
        build=lambda f: rsf.Forest(*rsf.trees_from_dict(f), f["n"], f["mtry"], f["min_leaf"],
                                   f["max_depth"], f["seed"], f["event_grid"], f["column_names"]),
    ),
    "deepsurv": ModelSpec(
        standardize=True,
        defaults=_defaults(deepsurv.MlpSpec, deepsurv.fit_deepsurv, hidden=[32]),  # layer_widths
        fit=_fit_deepsurv,
        risk=lambda model, design: deepsurv.predict_log_risk(model, design),
        file_fields=(
            ("spec", deepsurv.MlpSpec((1, 1)), None, lambda m, _: _json(m.spec)),
            ("weights", 0.0, lambda f: [i * o for i, o in _mlp_layers(f)],
             lambda m, _: [W.ravel().tolist() for W in m.weights]),  # each layer flat
            ("biases", 0.0, lambda f: [o for _, o in _mlp_layers(f)],
             lambda m, _: [b.tolist() for b in m.biases]),
        ),
        build=lambda f: deepsurv.DeepSurvModel(
            f["spec"], [W.reshape(io) for W, io in zip(f["weights"], _mlp_layers(f))],
            f["biases"], f["column_names"]),
    ),
    "ksvm": ModelSpec(
        standardize=True,
        defaults=_defaults(ksvm.KernelSpec, ksvm.fit_ksvm),
        fit=_fit_ksvm,
        risk=lambda model, design: ksvm.ksvm_risk(model, design),
        file_fields=(
            ("kernel", ksvm.KernelSpec(), None, lambda m, _: _json(m.kernel)),
            ("raw_support_rows", 0.0, ("s", "p"), lambda m, raw: raw[m.support].tolist()),
            ("coefficients", 0.0, ("s",), lambda m, _: m.coefficients.tolist()),
            ("c", 0.0, (), lambda m, _: m.c),
            _CONVERGENCE,
        ),
        build=lambda f: ksvm.KsvmModel(f["kernel"], ksvm.kernel_rows(standardize_rows(
            f["raw_support_rows"], f["means"], f["sds"], "raw_support_rows"), "raw_support_rows"),
            f["coefficients"], f["c"], f["column_names"], f["convergence"]),
    ),
}
_SCHEMA = [{"name": "", "kind": "", "levels": [""]}]


def _checked(what: str, example: dict, doc) -> dict:
    """`doc`, a JSON object of keys of `example`, each value of its example's JSON type
    and finite (json reads NaN, which a range check lets through), and an object checked
    the same way where its example has keys; a refusal is a ValueError naming the path."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {cut(json.dumps(doc))}")
    unknown = set(doc) - set(example)
    if unknown:
        raise ValueError(f"unknown {what} keys: {column_list(sorted(unknown))}")
    for key, value in doc.items():
        at, kind = f"{what} {key}", example[key]
        if isinstance(kind, dict) and kind:
            _checked(at, kind, value)
        elif not has_json_kind(kind, value):
            raise ValueError(
                f"{at} must be a JSON {json_kind(kind)}, not {cut(json.dumps(value))}")
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{at} must be a finite number, not {cut(json.dumps(v))}")
    return doc


def _field(key: str, kind, shape, value, checked: dict, sizes: dict):
    """Field `key` checked against its row, `checked` holding the fields
    before it. Numbers, of a float kind, come back as float64 of `shape`,
    whose letters take their (size, field) from `sizes` or bind it there;
    `[]` is zero rows. Their types are checked in one pass, since NumPy
    would read a boolean as 0 or 1."""
    if callable(shape):  # a list of numbers per layer
        lengths = shape(checked)
        if not (isinstance(value, list) and len(value) == len(lengths)):
            raise TypeError(f"{key} must be a JSON list of {len(lengths)} layers")
        return [_field(f"{key}[{i}]", 0.0, ("n",), v, {}, {"n": (n, "spec")})
                for i, (v, n) in enumerate(zip(value, lengths))]
    if is_dataclass(kind):  # a record, checked before its own range checks run
        example = asdict(kind)
        _checked(key, example, value)
        try:
            return type(kind)(**{k: value[k] for k in example})
        except ValueError as exc:  # the record's own check names the field, not the record
            raise TypeError(f"{key} {exc}") from None
    if not isinstance(kind, float):
        if not has_json_kind(kind, value):
            raise TypeError(f"{key} must be a JSON {json_kind(kind)}")
        return value
    items = np.asarray(value, dtype=object)
    if items.shape == (0,) and len(shape) > 1:
        items = items.reshape(0, *(sizes[d][0] for d in shape[1:]))
    want = tuple(sizes[d][0] if d in sizes else n for d, n in zip(shape, items.shape))
    if items.ndim == len(shape) and items.shape == want and (
            set(map(type, items.ravel().tolist())) <= {int, float}):
        a = items.astype(np.float64)  # an integer past the largest float is an OverflowError
        if np.all(np.isfinite(a)):
            sizes.update((d, (n, key)) for d, n in zip(shape, want) if d not in sizes)
            return a if shape else float(a)
    bound = "".join(f", {d} = {sizes[d][0]} from {sizes[d][1]}" for d in shape if d in sizes)
    raise TypeError(f"{key} must be finite numbers of shape ({', '.join(shape)}){bound}")


def model_to_dict(name: str, model, design: DesignMatrix, raw: np.ndarray) -> dict:
    """The file of model `name` fitted on `design`, `raw` being its rows unstandardized:
    its fields, then the schema and (if standardized) standardization that encode new rows."""
    body = {key: read(model, raw) for key, _, _, read in MODELS[name].file_fields}
    doc = {"model": name, **body, "schema": [_json(c) for c in design.schema.columns]}
    if MODELS[name].standardize:
        doc["standardization"] = {"means": design.means.tolist(), "sds": design.sds.tolist()}
    return doc


def model_from_dict(doc, path: str):
    """(name, model, template) from the model file read from `path`; the
    template has no rows, as `encode_like` reads only its schema and affine map.
    The schema's p design columns are `build`'s `column_names`; a standardized model needs
    p finite means and sds >= SD_FLOOR, as `encode` allows, checked before `build` reads
    them. Extra top-level keys are ignored, a record's (`kernel`, `spec`, `convergence`)
    are refused; a malformed file is one ValueError naming `path`, the model and the field."""
    name = doc.get("model") if isinstance(doc, dict) else None
    if name not in MODELS:
        raise ValueError(f"{path}: unknown model {cut(repr(name))}")
    if "schema" not in doc:
        raise ValueError(f"{path}: no covariate schema; refit the model")
    spec = MODELS[name]
    try:  # the checks name the field; the model is named here
        columns = _field("schema", _SCHEMA, None, doc["schema"], {}, {})
        schema = CovariateSchema(tuple(Column(c["name"], c["kind"], tuple(c["levels"]))
                                       for c in columns))
        names = design_names(schema)
        checked, sizes = {"column_names": names}, {"p": (len(names), "schema")}
        means = sds = None
        if spec.standardize:
            std = _field("standardization", {}, None, doc["standardization"], {}, {})
            means, sds = (_field(f"standardization {k}", 0.0, ("p",), std[k], {}, sizes)
                          for k in ("means", "sds"))
            if not np.all(sds >= SD_FLOOR):
                raise TypeError(f"standardization sds must be at least {SD_FLOOR}")
        if name == "ksvm" and "support_rows" in doc:  # rows standardized, not raw
            raise TypeError("support_rows is an older file format; refit the model")
        if name == "rsf" and isinstance(doc.get("trees"), list):  # as every older layout
            raise TypeError("trees is a list, an older file format; refit the model")
        for key, kind, shape, _ in spec.file_fields:
            checked[key] = _field(key, kind, shape, doc[key], checked, sizes)
        model = spec.build({**checked, "means": means, "sds": sds})
    except KeyError as exc:
        raise ValueError(f"{path}: no {exc} in the {name} model file") from None
    except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed {name} model file: {exc}") from None
    template = DesignMatrix(np.empty((0, 0)), [], np.empty(0), np.empty(0), schema, means, sds)
    return name, model, template


def model_options(name: str, overrides: dict) -> dict:
    """The model's default options with `overrides` merged in, each a key
    of the defaults with a finite value of its default's JSON type."""
    defaults = MODELS[name].defaults
    return {**defaults, **_checked(f"{name} option", defaults, overrides)}


def check_km_groups(cohort: Cohort, names) -> None:
    """Refuse KM grouping names that are not columns of the cohort, or
    that cannot name a KM file of their own."""
    for name in names:
        if name not in cohort.schema.names:
            raise ValueError(f"unknown covariate: {quoted(name)}")
        if name in (".", "..", "overall") or any(sep and sep in name for sep in (os.sep, os.altsep)):
            raise ValueError(f"cannot name a KM file after column {quoted(name)}")


@dataclass(frozen=True)
class BenchConfig:
    csv_path: str | None = None
    generator: GeneratorConfig | None = None
    test_fraction: float = 0.3
    seed: int = 0
    out_dir: str = "bench_out"
    models: tuple[str, ...] = tuple(MODELS)
    model_options: dict = field(default_factory=dict)
    km_groups: tuple[str, ...] = ("OnlineBehavior", "Gender")

    def __post_init__(self):
        if (self.csv_path is None) == (self.generator is None):
            raise ValueError("exactly one of csv_path / generator is required")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        unknown = set(self.models) - set(MODELS)
        if unknown:
            raise ValueError(f"unknown models: {sorted(unknown)}")
        if not self.models or len(set(self.models)) < len(self.models):
            raise ValueError("models must name at least one model, each once")


@dataclass
class ModelRow:
    name: str
    train_cindex: float
    test_cindex: float
    wall_time_ms: float
    status: str  # "ok" or "error: ..."
    converged: bool


@dataclass
class BenchReport:
    rows: list[ModelRow]
    seed: int
    n: int
    n_events: int
    censoring_rate: float
    train_n: int
    test_n: int

    @property
    def all_ok(self) -> bool:
        return all(r.status == "ok" for r in self.rows)


# each config key with an example of its JSON type; a model's options are checked at its fit
_CONFIG = {
    **{k: v for k, v in asdict(BenchConfig(csv_path="")).items()
       if k not in ("csv_path", "generator")},
    "model_options": {name: {} for name in MODELS},
    "input": {"csv": "", "generator": {**asdict(GeneratorConfig()),
                                       "hazard": {"kind": "", "beta": [0.0]}}},
}


def bench_config_from_dict(doc: dict) -> BenchConfig:
    """The config of JSON object `doc`, whose keys and values `_CONFIG` declares."""
    doc = _checked("config", _CONFIG, doc)
    doc = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
    source, gen = doc.pop("input", {}), None
    if "generator" in source:
        g = {"seed": doc.get("seed", BenchConfig.seed), **source["generator"]}
        hz = g.pop("hazard", {})
        gen = GeneratorConfig(**g, hazard=HazardSpec(**{**hz, "beta": tuple(hz.get("beta", ()))}))
    return BenchConfig(csv_path=source.get("csv"), generator=gen, **doc)


def write_text_atomic(path: str, text: str) -> None:
    """Write to a temporary file beside `path`, then rename it over `path`.
    Makes missing parent directories; the file gets the mode that
    `open(path, "w")` would give it under the current umask."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp_{os.urandom(8).hex()}_{os.path.basename(path)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header, rows) -> str:
    """One CSV artifact in `csv.writer`'s default dialect (CRLF rows)."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def write_csv(path: str, header, rows) -> None:
    """The `csv_text` of `header` and `rows`, written atomically to `path`."""
    write_text_atomic(path, csv_text(header, rows))


def fit_model(name: str, cohort: Cohort, overrides: dict, seed: int):
    """Model `name` fitted on `cohort` with `model_options(name, overrides)`,
    and the design it was fitted on, encoded as the model's spec says."""
    spec = MODELS[name]
    opts = model_options(name, overrides)
    design = encode(cohort, standardize=spec.standardize)
    return spec.fit(design, opts, seed), design


def _failed(name: str, exc: Exception, wall_time_ms: float):
    """`evaluate`'s outcome for a model that failed with `exc`: no scores, no model."""
    return ModelRow(name, math.nan, math.nan, wall_time_ms, f"error: {exc}", False), None, None


def evaluate(name: str, train: Cohort, test: Cohort, config: BenchConfig):
    """Model `name`'s row, the text of its scores CSV and the model, all made in
    this process: its options merged, fitted on `train` by `fit_model`, both splits
    scored and C-indexed, the row's time counting all of that. If a step raises,
    the row is that error, with no scores and no model."""
    started = time.perf_counter()
    try:
        model, train_design = fit_model(name, train, config.model_options.get(name, {}),
                                        derive_seed(config.seed, list(MODELS).index(name)))
        parts = [(part, d, MODELS[name].risk(model, d)) for part, d in (
            ("train", train_design), ("test", encode_like(test, train_design)))]
        cindexes = [concordance_index(d.times, d.events, risk).cindex for _, d, risk in parts]
    except Exception as exc:
        return _failed(name, exc, (time.perf_counter() - started) * 1000.0)
    conv = getattr(model, "convergence", None)  # the forest has none
    row = ModelRow(name, *cindexes, (time.perf_counter() - started) * 1000.0, "ok",
                   conv is None or conv.converged)
    scores = csv_text(["split", "index", "time", "event", "score"], [
        [part, i, repr(t), e, repr(float(r))] for part, d, risk in parts
        for i, (t, e, r) in enumerate(zip(d.times.tolist(), d.events.tolist(), risk))])
    return row, scores, model


def run_benchmark(config: BenchConfig) -> BenchReport:
    if config.csv_path is not None:
        cohort = ingest_csv(config.csv_path)
    else:
        cohort, _ = generate(config.generator)
    check_km_groups(cohort, config.km_groups)
    train, test = split(cohort, config.test_fraction, config.seed)
    names = [name for name in MODELS if name in config.models]
    # DeepSurv and KSVM run in forked workers beside the rest if there is more than one CPU
    forked = [name for name in names if name in ("deepsurv", "ksvm") and workers.usable_cpus() > 1]
    here = [name for name in names if name not in forked]
    outcomes = workers.run([*(partial(evaluate, name, train, test, config) for name in forked),
                            lambda: [evaluate(name, train, test, config) for name in here]])
    outcomes = dict(zip(forked + here, outcomes[:-1] + outcomes[-1]))
    rows = []
    for name in names:  # each model's scores and model freed once its files are written
        out = outcomes.pop(name)  # a dead worker's error is its row, with no time
        row, scores, model = _failed(name, out, 0.0) if isinstance(out, Exception) else out
        rows.append(row)
        if scores is not None:
            write_text_atomic(os.path.join(config.out_dir, f"scores_{name}.csv"), scores)
        if name == "mtlr" and model is not None:  # the weight figure's source
            emit_weight_figure(model, config.out_dir)
    report = BenchReport(rows, config.seed, cohort.n, cohort.n_events, cohort.censoring_rate,
                         train.n, test.n)
    _write_report(config, report)
    emit_km_figures(cohort, list(config.km_groups), config.out_dir)
    return report


def _write_report(config: BenchConfig, report: BenchReport) -> None:
    write_csv(
        os.path.join(config.out_dir, "report.csv"),
        ["model", "train_cindex", "test_cindex", "status", "converged"],
        [[r.name, fmt6(r.train_cindex), fmt6(r.test_cindex), r.status, r.converged]
         for r in report.rows],
    )
    doc = {
        "environment": {**{k: v for k, v in asdict(report).items() if k != "rows"},  # field order
                        "censoring_rate": float(fmt6(report.censoring_rate))},  # in its place
        "rows": [
            {
                "model": r.name,
                "train_cindex": float(fmt6(r.train_cindex)) if np.isfinite(r.train_cindex) else None,
                "test_cindex": float(fmt6(r.test_cindex)) if np.isfinite(r.test_cindex) else None,
                "wall_time_ms": round(r.wall_time_ms, 3),
                "status": r.status,
                "converged": r.converged,
            }
            for r in report.rows
        ],
    }
    write_text_atomic(
        os.path.join(config.out_dir, "report.json"), json.dumps(doc, indent=2) + "\n"
    )
    ranked = sorted(
        (r for r in report.rows if np.isfinite(r.test_cindex)),
        key=lambda r: (-r.test_cindex, r.name),
    )
    svg = bar_chart(
        [(r.name, float(fmt6(r.test_cindex))) for r in ranked],
        title="Test C-index by model",
        xlabel="C-index",
    )
    write_text_atomic(os.path.join(config.out_dir, "report.svg"), svg)


def emit_km_figures(cohort: Cohort, group_specs: list[str], out_dir: str) -> list[str]:
    """One CSV + SVG pair overall and per grouping covariate. A group is a
    mask over the cohort, a categorical level or a half of a numeric
    covariate split at the cohort median, and each group with rows gets a
    curve; the labels carry the binning rule so the output is
    self-describing. The names must pass `check_km_groups`."""
    paths = []
    km = kaplan_meier(cohort.time, cohort.event)
    specs = [("overall", [("all", km)], "Kaplan-Meier survival")]
    for name in group_specs:
        col, vals = cohort.schema.column(name), cohort.covariates[name]
        if col.kind == "categorical":
            groups = [(level, vals == level) for level in col.levels]
            title = f"Survival by {name}"
        else:
            med = float(np.median(vals))
            groups = [(f"{name} <= {fmt6(med)}", vals <= med),
                      (f"{name} > {fmt6(med)}", vals > med)]
            title = f"Survival by {name} (median split)"
        curves = [(label, kaplan_meier(cohort.time[mask], cohort.event[mask]))
                  for label, mask in groups if mask.any()]
        specs.append((name, curves, title))
    for i, (name, curves, title) in enumerate(specs):
        csv_path = os.path.join(out_dir, f"km_{name}.csv")
        svg_path = os.path.join(out_dir, f"km_{name}.svg")
        header = ["group", "time", "value"]
        rows = [[label, repr(t), repr(v)] for label, f in curves
                for t, v in zip(f.times.tolist(), f.values.tolist())]
        if i == 0:  # the overall file holds one curve and no group column
            header, rows = header[1:], [r[1:] for r in rows]
        write_csv(csv_path, header, rows)
        write_text_atomic(svg_path, step_chart(curves, title=title))
        paths.extend([csv_path, svg_path])
    return paths


def emit_weight_figure(model, out_dir: str) -> list[str]:
    """Per-variable weight chart for a fitted sequence model, largest
    magnitude first."""
    rows = mtlr.feature_weights(model)
    csv_path = os.path.join(out_dir, "weights.csv")
    svg_path = os.path.join(out_dir, "weights.svg")
    write_csv(
        csv_path,
        ["variable", "aggregate_weight"] + [f"w{i + 1}" for i in range(model.grid.k)],
        [[r["variable"], repr(r["aggregate_weight"])] + [repr(v) for v in r["per_interval"]]
         for r in rows],
    )
    write_text_atomic(
        svg_path,
        bar_chart(
            [(r["variable"], r["aggregate_weight"]) for r in rows],
            title="MTLR variable weights",
            xlabel="mean weight across intervals",
        ),
    )
    return [csv_path, svg_path]

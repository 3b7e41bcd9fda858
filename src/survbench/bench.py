"""Benchmark harness: fit the five models on one cohort, score a held-out
split, emit the comparison report and the survival-curve/weight figures.

Determinism contract: report.csv and every data CSV depend only on the
config (seed included); wall-clock timings are confined to report.json.
All files are written atomically (temp then rename).
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import cox, deepsurv, ksvm, mtlr, rsf
from .common import fmt6
from .data import Cohort, encode, encode_like, ingest_csv, split
from .datagen import GeneratorConfig, HazardSpec, generate
from .metrics import concordance_index
from .nonparametric import fit_km_grouped, kaplan_meier
from .rng import derive_seed
from .svg import bar_chart, step_chart


@dataclass(frozen=True)
class ModelSpec:
    """How the harness drives one model. `fit` and `risk` look up their
    module function at call time, so a tracer that rebinds module
    attributes sees calls made through the registry. Gradient-trained
    models get standardized designs; trees split raw values."""

    standardize: bool
    defaults: dict
    fit: Callable
    risk: Callable
    to_dict: Callable
    from_dict: Callable


def _fit_mtlr(design, opts: dict, seed: int):
    opts = dict(opts)
    return mtlr.fit_mtlr(design, mtlr.make_grid(design, opts.pop("k")), **opts)


def _fit_deepsurv(design, opts: dict, seed: int):
    opts = dict(opts)
    net = deepsurv.MlpSpec(
        layer_widths=(design.p, *opts.pop("hidden"), 1),
        activation=opts.pop("activation"),
        dropout_rate=opts.pop("dropout_rate"),
        weight_init_seed=derive_seed(seed, 1),
    )
    return deepsurv.fit_deepsurv(design, net, seed=seed, **opts)


def _fit_ksvm(design, opts: dict, seed: int):
    opts = dict(opts)
    kernel = ksvm.KernelSpec(**{k: opts.pop(k) for k in ("kind", "gamma", "degree", "coef0")})
    return ksvm.fit_ksvm(design, kernel, **opts)


# in report order; a model's position also derives its seed in a bench run
MODELS: dict[str, ModelSpec] = {
    "cox": ModelSpec(
        standardize=True,
        defaults={"max_iter": 100, "tol": 1e-8, "ridge": 0.0},
        fit=lambda design, opts, seed: cox.fit_cox(design, **opts),
        risk=lambda model, design: cox.predict_risk(model, design),
        to_dict=cox.cox_to_dict,
        from_dict=cox.cox_from_dict,
    ),
    "mtlr": ModelSpec(
        standardize=True,
        defaults={"k": 10, "l2": 1.0, "max_iter": 100, "tol": 1e-3},
        fit=_fit_mtlr,
        risk=lambda model, design: mtlr.mtlr_risk(model, design),
        to_dict=mtlr.mtlr_to_dict,
        from_dict=mtlr.mtlr_from_dict,
    ),
    "rsf": ModelSpec(
        standardize=False,
        defaults={"b": 200, "mtry": None, "min_leaf": 15, "max_depth": None},
        fit=lambda design, opts, seed: rsf.fit_forest(design, seed=seed, **opts),
        risk=lambda model, design: rsf.rsf_risk(model, design),
        to_dict=rsf.forest_to_dict,
        from_dict=rsf.forest_from_dict,
    ),
    "deepsurv": ModelSpec(
        standardize=True,
        defaults={
            "hidden": [32],
            "activation": "relu",
            "dropout_rate": 0.0,
            "epochs": 300,
            "batch_size": 64,
            "learning_rate": 1e-3,
            "l2": 1e-4,
        },
        fit=_fit_deepsurv,
        risk=lambda model, design: deepsurv.predict_log_risk(model, design),
        to_dict=deepsurv.deepsurv_to_dict,
        from_dict=deepsurv.deepsurv_from_dict,
    ),
    "ksvm": ModelSpec(
        standardize=True,
        defaults={
            "kind": "rbf",
            "gamma": None,
            "degree": 3,
            "coef0": 1.0,
            "c": 10_000.0,
            "max_iter": 30,
            "tol": 1e-3,
        },
        fit=_fit_ksvm,
        risk=lambda model, design: ksvm.ksvm_risk(model, design),
        to_dict=ksvm.ksvm_to_dict,
        from_dict=ksvm.ksvm_from_dict,
    ),
}


def model_options(name: str, overrides: dict) -> dict:
    """The model's default options with `overrides` merged in; a key the
    model does not have is an error."""
    merged = dict(MODELS[name].defaults)
    unknown = set(overrides) - set(merged)
    if unknown:
        raise ValueError(f"unknown {name} options: {sorted(unknown)}")
    merged.update(overrides)
    return merged


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


def bench_config_from_dict(doc: dict) -> BenchConfig:
    doc = dict(doc)
    source = doc.pop("input", {})
    g = source.get("generator") if isinstance(source, dict) else None
    if not isinstance(source, dict) or not isinstance(g, (dict, type(None))):
        raise ValueError("config input and its generator must be JSON objects")
    gen = None
    if g is not None:
        unknown = set(g) - {f.name for f in fields(GeneratorConfig)}
        if unknown:
            raise ValueError(f"unknown generator keys: {sorted(unknown)}")
        g = dict(g)
        hz = g.pop("hazard", None)
        if hz is not None:
            g["hazard"] = HazardSpec(kind=hz.get("kind", "nonlinear"),
                                     beta=tuple(hz.get("beta", ())))
        g.setdefault("seed", doc.get("seed", 0))
        gen = GeneratorConfig(**g)
    allowed = {f.name for f in fields(BenchConfig)} - {"csv_path", "generator"}
    extra = set(doc) - allowed
    if extra:
        raise ValueError(f"unknown config keys: {sorted(extra)}")
    for key in ("models", "km_groups"):
        if key in doc:
            doc[key] = tuple(doc[key])
    return BenchConfig(csv_path=source.get("csv"), generator=gen, **doc)


def write_text_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def model_converged(model) -> bool:
    conv = getattr(model, "convergence", None)
    return True if conv is None else conv.converged


def _scores_csv(train_design, test_design, risk_train, risk_test) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["split", "index", "time", "event", "score"])
    for split_name, design, scores in (
        ("train", train_design, risk_train),
        ("test", test_design, risk_test),
    ):
        for i in range(design.n):
            w.writerow(
                [
                    split_name,
                    i,
                    repr(float(design.times[i])),
                    int(design.events[i]),
                    repr(float(scores[i])),
                ]
            )
    return buf.getvalue()


def load_cohort(config: BenchConfig) -> Cohort:
    if config.csv_path is not None:
        return ingest_csv(config.csv_path)
    cohort, _ = generate(config.generator)
    return cohort


def run_benchmark(config: BenchConfig) -> BenchReport:
    os.makedirs(config.out_dir, exist_ok=True)
    cohort = load_cohort(config)
    train, test = split(cohort, config.test_fraction, config.seed)
    rows = []
    mtlr_model = None  # the weight figure's source
    for position, (name, spec) in enumerate(MODELS.items()):
        if name not in config.models:
            continue
        model_seed = derive_seed(config.seed, position)
        started = time.perf_counter()
        try:
            opts = model_options(name, config.model_options.get(name, {}))
            train_design = encode(train, standardize=spec.standardize)
            test_design = encode_like(test, train_design)
            model = spec.fit(train_design, opts, model_seed)
            risk_train = spec.risk(model, train_design)
            risk_test = spec.risk(model, test_design)
            converged = model_converged(model)
            elapsed = (time.perf_counter() - started) * 1000.0
            row = ModelRow(
                name=name,
                train_cindex=concordance_index(
                    train_design.times, train_design.events, risk_train
                ).cindex,
                test_cindex=concordance_index(
                    test_design.times, test_design.events, risk_test
                ).cindex,
                wall_time_ms=elapsed,
                status="ok",
                converged=converged,
            )
            if name == "mtlr":
                mtlr_model = model
            write_text_atomic(
                os.path.join(config.out_dir, f"scores_{name}.csv"),
                _scores_csv(train_design, test_design, risk_train, risk_test),
            )
        except Exception as exc:
            elapsed = (time.perf_counter() - started) * 1000.0
            row = ModelRow(
                name=name,
                train_cindex=float("nan"),
                test_cindex=float("nan"),
                wall_time_ms=elapsed,
                status=f"error: {exc}",
                converged=False,
            )
        rows.append(row)
        model = None  # free this fit before the next model's
    report = BenchReport(
        rows=rows,
        seed=config.seed,
        n=cohort.n,
        n_events=cohort.n_events,
        censoring_rate=cohort.censoring_rate,
        train_n=train.n,
        test_n=test.n,
    )
    _write_report(config, report)
    emit_km_figures(cohort, list(config.km_groups), config.out_dir)
    if mtlr_model is not None:
        emit_weight_figure(mtlr_model, config.out_dir)
    return report


def _write_report(config: BenchConfig, report: BenchReport) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["model", "train_cindex", "test_cindex", "status", "converged"])
    for r in report.rows:
        w.writerow(
            [r.name, fmt6(r.train_cindex), fmt6(r.test_cindex), r.status, r.converged]
        )
    write_text_atomic(os.path.join(config.out_dir, "report.csv"), buf.getvalue())
    doc = {
        "environment": {
            "seed": report.seed,
            "n": report.n,
            "n_events": report.n_events,
            "censoring_rate": float(fmt6(report.censoring_rate)),
            "train_n": report.train_n,
            "test_n": report.test_n,
        },
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


def _curve_csv(curves: list[tuple[str, object]], grouped: bool) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    if not grouped:
        w.writerow(["time", "value"])
        _, f = curves[0]
        for t, v in zip(f.times, f.values):
            w.writerow([repr(float(t)), repr(float(v))])
    else:
        w.writerow(["group", "time", "value"])
        for label, f in curves:
            for t, v in zip(f.times, f.values):
                w.writerow([label, repr(float(t)), repr(float(v))])
    return buf.getvalue()


def emit_km_figures(cohort: Cohort, group_specs: list[str], out_dir: str) -> list[str]:
    """One CSV + SVG pair overall and per grouping covariate. Numeric
    covariates are split at the cohort median; the group labels carry the
    binning rule so the output is self-describing."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    km = kaplan_meier(cohort.time, cohort.event)
    specs = [("overall", [("all", km)], "Kaplan-Meier survival")]
    for name in group_specs:
        col = cohort.schema.column(name)  # raises KeyError on unknown names
        if col.kind == "categorical":
            curves = list(fit_km_grouped(cohort, name).items())
            title = f"Survival by {name}"
        else:
            vals = cohort.covariates[name]
            med = float(np.median(vals))
            curves = []
            for label, mask in (
                (f"{name} <= {fmt6(med)}", vals <= med),
                (f"{name} > {fmt6(med)}", vals > med),
            ):
                if mask.any():
                    curves.append(
                        (label, kaplan_meier(cohort.time[mask], cohort.event[mask]))
                    )
            title = f"Survival by {name} (median split)"
        specs.append((name, curves, title))
    for i, (name, curves, title) in enumerate(specs):
        csv_path = os.path.join(out_dir, f"km_{name}.csv")
        svg_path = os.path.join(out_dir, f"km_{name}.svg")
        write_text_atomic(csv_path, _curve_csv(curves, grouped=i > 0))
        write_text_atomic(svg_path, step_chart(curves, title=title))
        paths.extend([csv_path, svg_path])
    return paths


def emit_weight_figure(model, out_dir: str) -> list[str]:
    """Per-variable weight chart for a fitted sequence model, largest
    magnitude first."""
    os.makedirs(out_dir, exist_ok=True)
    rows = mtlr.feature_weights(model)
    buf = io.StringIO()
    w = csv.writer(buf)
    k = model.grid.k
    w.writerow(["variable", "aggregate_weight"] + [f"w{i + 1}" for i in range(k)])
    for r in rows:
        w.writerow(
            [r["variable"], repr(r["aggregate_weight"])]
            + [repr(float(v)) for v in r["per_interval"]]
        )
    csv_path = os.path.join(out_dir, "weights.csv")
    svg_path = os.path.join(out_dir, "weights.svg")
    write_text_atomic(csv_path, buf.getvalue())
    write_text_atomic(
        svg_path,
        bar_chart(
            [(r["variable"], r["aggregate_weight"]) for r in rows],
            title="MTLR variable weights",
            xlabel="mean weight across intervals",
        ),
    )
    return [csv_path, svg_path]

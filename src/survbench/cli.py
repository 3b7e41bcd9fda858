"""Command-line interface.

Subcommands: datagen, fit, eval, bench, km, weights. Each takes only the
flags it reads; the --config file of fit and bench is a JSON document
mirroring the benchmark configuration. All printed numbers use 6
significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .bench import (
    MODELS,
    bench_config_from_dict,
    check_km_groups,
    emit_km_figures,
    emit_weight_figure,
    fit_model,
    model_from_dict,
    model_to_dict,
    run_benchmark,
    write_csv,
    write_text_atomic,
)
from .common import fmt6
from .data import cohort_table, encode, encode_like, ingest_csv
from .datagen import (
    HAZARD_KINDS,
    GeneratorConfig,
    HazardSpec,
    calibrate_censoring,
    generate,
    ground_truth_table,
)
from .metrics import concordance_index


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or bytes that are not text
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the config must be a JSON object")
    return doc


_SHARED_FLAGS = {
    "--seed": {"type": int, "default": None, "help": "random seed"},
    "--out": {"default": None, "help": "output file or directory"},
    "--config": {"default": None, "help": "JSON config file"},
}


def _add_shared(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def _cmd_datagen(args) -> int:
    hazard = HazardSpec(
        kind=args.hazard,
        beta=tuple(float(b) for b in args.beta.split(",")) if args.beta else (),
    )
    cfg = GeneratorConfig(
        n=args.n,
        seed=args.seed,
        hazard=hazard,
        baseline_rate=args.baseline_rate,
        censor_rate=args.censor_rate,
        censor_horizon=args.censor_horizon,
    )
    if args.target_censoring is not None:
        cfg = calibrate_censoring(cfg, args.target_censoring)
    cohort, truth = generate(cfg)
    out = args.out or "cohort.csv"
    write_csv(out, *cohort_table(cohort))
    stem, ext = os.path.splitext(out)
    write_csv(f"{stem}_truth{ext or '.csv'}", *ground_truth_table(truth))
    print(
        f"wrote {out}: n={cohort.n}, events={cohort.n_events}, "
        f"censoring={fmt6(cohort.censoring_rate)}, horizon={fmt6(cfg.censor_horizon)}"
    )
    return 0


def _cmd_fit(args) -> int:
    config = bench_config_from_dict({**_load_config(args.config), "input": {"csv": args.input}})
    cohort = ingest_csv(args.input)
    model, design = fit_model(args.model, cohort, config.model_options.get(args.model, {}),
                              args.seed if args.seed is not None else config.seed)
    out, raw = args.out or f"{args.model}.json", encode(cohort).X  # KSVM files hold raw rows
    write_text_atomic(out, json.dumps(model_to_dict(args.model, model, design, raw)) + "\n")
    if getattr(model, "training_log", None):
        write_csv(f"{os.path.splitext(out)[0]}_training_log.csv", ["epoch", "loss"],
                  [[i, repr(v)] for i, v in enumerate(model.training_log)])
    print(f"wrote {out}")
    return 0


def _cmd_eval(args) -> int:
    name, model, template = model_from_dict(_read_json(args.model_file), args.model_file)
    design = encode_like(ingest_csv(args.input, schema=template.schema), template)
    res = concordance_index(design.times, design.events, MODELS[name].risk(model, design))
    print(f"{name} C-index: {fmt6(res.cindex)} ({res.comparable} comparable pairs)")
    return 0


def _cmd_bench(args) -> int:
    doc = _load_config(args.config)
    flags = {"input": None if args.input is None else {"csv": args.input}, "seed": args.seed,
             "out_dir": args.out, "test_fraction": args.test_fraction,
             "models": None if args.models is None else args.models.split(",")}
    doc.update((key, value) for key, value in flags.items() if value is not None)
    doc.setdefault("input", {"generator": {}})
    config = bench_config_from_dict(doc)
    report = run_benchmark(config)
    width = max(len(r.name) for r in report.rows)
    print(f"n={report.n} events={report.n_events} "
          f"censoring={fmt6(report.censoring_rate)} "
          f"split={report.train_n}/{report.test_n} seed={report.seed}")
    for r in report.rows:
        print(
            f"{r.name:<{width}}  train={fmt6(r.train_cindex):<9} "
            f"test={fmt6(r.test_cindex):<9} "
            f"[{r.status}{', not converged' if r.status == 'ok' and not r.converged else ''}]"
        )
    print(f"report written to {config.out_dir}/")
    return 0 if report.all_ok else 1


def _cmd_km(args) -> int:
    cohort = ingest_csv(args.input)
    check_km_groups(cohort, args.by or [])
    for p in emit_km_figures(cohort, args.by or [], args.out or "km_out"):
        print(f"wrote {p}")
    return 0


def _cmd_weights(args) -> int:
    model, _ = fit_model("mtlr", ingest_csv(args.input), {"k": args.k, "l2": args.l2}, 0)
    paths = emit_weight_figure(model, args.out or "weights_out")
    for p in paths:
        print(f"wrote {p}")
    return 0


@cache  # built once per process: main runs many times in one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survbench",
        description="Survival-model benchmark harness for right-censored cohorts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic cohort CSV")
    _add_shared(p, "--seed", "--out")
    gen = GeneratorConfig()
    p.add_argument("--n", type=int, default=gen.n)
    p.add_argument("--hazard", choices=HAZARD_KINDS, default=gen.hazard.kind)
    p.add_argument("--beta", default=None, help="comma-separated proportional betas")
    p.add_argument("--baseline-rate", type=float, default=gen.baseline_rate)
    p.add_argument("--censor-rate", type=float, default=gen.censor_rate)
    p.add_argument("--censor-horizon", type=float, default=gen.censor_horizon)
    p.add_argument("--target-censoring", type=float, default=None,
                   help="calibrate the horizon to this censored fraction first")
    p.set_defaults(func=_cmd_datagen, seed=gen.seed)

    p = sub.add_parser("fit", help="fit one model on a cohort CSV")
    _add_shared(p, "--seed", "--out", "--config")
    p.add_argument("--model", choices=tuple(MODELS), required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="C-index of a saved model on a cohort CSV")
    p.add_argument("--model-file", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="fit and compare models on one cohort")
    _add_shared(p, "--seed", "--out", "--config")
    p.add_argument("--input", default=None, help="cohort CSV (default: generator)")
    p.add_argument("--models", default=None, help="comma-separated subset")
    p.add_argument("--test-fraction", type=float, default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("km", help="Kaplan-Meier curves (overall and grouped)")
    _add_shared(p, "--out")
    p.add_argument("--input", required=True)
    p.add_argument("--by", action="append", default=None,
                   help="grouping covariate (repeatable; numeric split at median)")
    p.set_defaults(func=_cmd_km)

    p = sub.add_parser("weights", help="MTLR variable-weight report")
    _add_shared(p, "--out")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=MODELS["mtlr"].defaults["k"])
    p.add_argument("--l2", type=float, default=MODELS["mtlr"].defaults["l2"])
    p.set_defaults(func=_cmd_weights)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # user errors, and fits that other options fix
        print(f"survbench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

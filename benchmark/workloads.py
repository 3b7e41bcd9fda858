"""The three benchmark workloads and the checks on each op's output.

Every op goes through `survbench.cli.main` with the argv a user would
type. A workload's `prepare()` is its set-up; `op()` is one measured
operation and returns the reasons it failed (empty when it passed)
together with the values the end-to-end metrics read.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import shutil
import traceback
from dataclasses import dataclass, field

MODELS = ("cox", "mtlr", "rsf", "deepsurv", "ksvm")
SOLVER_MODELS = ("cox", "mtlr", "deepsurv", "ksvm")


@dataclass(frozen=True)
class Profile:
    """Input sizes. FULL is what the benchmark measures; the self-test
    uses a tiny profile, which passes `model_options` through --config."""

    n: int = 1000
    solver_n: int = 5000
    model_options: dict = field(default_factory=dict)


FULL = Profile()


@dataclass
class OpResult:
    reasons: list[str]
    cindex: dict[str, float] = field(default_factory=dict)
    unconverged: int = 0
    output_bytes: int = 0


def run_cli(argv: list[str], tracer=None, **span_extra) -> tuple[int, str, str]:
    """One in-process CLI call: (exit code, stdout, error text)."""
    from survbench.cli import main

    out = io.StringIO()
    span = (tracer.span(f"cli.{argv[0]}", **span_extra) if tracer is not None
            else contextlib.nullcontext())
    err = ""
    with span, contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
            err = "" if isinstance(exc.code, int) else str(exc.code)
        except Exception:
            code = 1
            err = traceback.format_exc(limit=3)
    return code, out.getvalue(), err


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _unit_interval(text: str) -> float | None:
    try:
        v = float(text)
    except ValueError:
        return None
    return v if 0.0 <= v <= 1.0 else None


class Workload:
    name = ""
    # set-up is timed this many times per run and setup_s is the median
    setup_repeats = 5

    def __init__(self, workdir: str, seed: int, profile: Profile):
        self.workdir = workdir
        self.seed = seed
        self.profile = profile
        self.tracer = None  # set for the traced part of a --trace 1 run
        self.n_ops = 0

    def _write_config(self, doc: dict) -> str:
        path = os.path.join(self.workdir, "config.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def prepare(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)

    def op(self) -> OpResult:
        raise NotImplementedError


class _BenchWorkload(Workload):
    """One op = one `survbench bench` run; report.csv must match the
    first op's byte for byte."""

    models: tuple[str, ...] = MODELS

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._first_report: bytes | None = None

    def argv(self) -> list[str]:
        raise NotImplementedError

    def op(self) -> OpResult:
        out_dir = os.path.join(self.workdir, f"op{self.n_ops}")
        self.n_ops += 1
        code, _, err = run_cli(self.argv() + ["--out", out_dir], self.tracer)
        result = OpResult(reasons=[])
        if code != 0:
            result.reasons.append(f"exit code {code} {err}".strip())
        try:
            with open(os.path.join(out_dir, "report.csv"), "rb") as fh:
                report = fh.read()
        except OSError as exc:
            result.reasons.append(f"no report.csv: {exc}")
            return result
        if self._first_report is None:
            self._first_report = report
        elif report != self._first_report:
            result.reasons.append("report.csv differs from the first op's")
        rows = list(csv.DictReader(io.StringIO(report.decode("utf-8"))))
        if tuple(r["model"] for r in rows) != self.models:
            result.reasons.append(f"report.csv models {[r['model'] for r in rows]}")
        for r in rows:
            if r["status"] != "ok":
                result.reasons.append(f"{r['model']}: {r['status']}")
                continue
            for col in ("train_cindex", "test_cindex"):
                if _unit_interval(r[col]) is None:
                    result.reasons.append(f"{r['model']} {col} {r[col]!r} outside [0, 1]")
            result.cindex[r["model"]] = float(r["test_cindex"])
            result.unconverged += r["converged"] != "True"
        result.output_bytes = _dir_bytes(out_dir)
        if self.n_ops > 1:
            shutil.rmtree(out_dir)
        return result


class BenchDefault(_BenchWorkload):
    name = "bench_default"

    def prepare(self) -> None:
        super().prepare()
        self._config = None
        if self.profile.model_options or self.profile.n != FULL.n:
            self._config = self._write_config({
                "input": {"generator": {"n": self.profile.n}},
                "model_options": self.profile.model_options,
            })

    def argv(self) -> list[str]:
        extra = [] if self._config is None else ["--config", self._config]
        return ["bench", "--seed", str(self.seed), *extra]


class SolversN5000(_BenchWorkload):
    """Not in BENCHMARK.json: the Cox fit fails to converge on about one
    n=5000 cohort in five and then takes 2-20 s instead of 0.3 s, so run_s
    is bimodal across seeds."""

    name = "solvers_n5000"
    models = SOLVER_MODELS

    def prepare(self) -> None:
        super().prepare()
        self._config = self._write_config({
            "input": {"generator": {"n": self.profile.solver_n}},
            "models": list(SOLVER_MODELS),
            "model_options": self.profile.model_options,
        })

    def argv(self) -> list[str]:
        return ["bench", "--config", self._config, "--seed", str(self.seed)]


class ModelFiles(Workload):
    """Set-up writes a train and a held-out cohort CSV and fits the five
    models to files; one op evaluates every saved model on the held-out
    CSV. Each eval line must repeat exactly across ops."""

    name = "model_files"
    # each set-up fits all five models, 10-15 s; two fit the run-time budget
    setup_repeats = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._first_lines: dict[str, str] = {}

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        super().prepare()
        n = str(self.profile.n)
        steps = [
            ["datagen", "--n", n, "--seed", str(self.seed), "--out", self._path("train.csv")],
            ["datagen", "--n", n, "--seed", str(self.seed + 1),
             "--out", self._path("heldout.csv")],
        ]
        config = []
        if self.profile.model_options:
            config = ["--config", self._write_config(
                {"model_options": self.profile.model_options})]
        for m in MODELS:
            steps.append(["fit", "--model", m, "--input", self._path("train.csv"),
                          "--seed", str(self.seed), "--out", self._path(f"{m}.json"),
                          *config])
        for argv in steps:
            code, _, err = run_cli(argv, self.tracer)
            if code != 0:
                raise RuntimeError(f"set-up step {' '.join(argv[:3])} failed: {err}")
        self._unconverged = 0
        self._model_bytes = 0
        for m in MODELS:
            path = self._path(f"{m}.json")
            with open(path) as fh:
                conv = json.load(fh).get("convergence")
            self._unconverged += conv is not None and not conv["converged"]
            self._model_bytes += os.path.getsize(path)

    _LINE = re.compile(r"^(\w+) C-index: (\S+) \((\d+) comparable pairs\)$")

    def op(self) -> OpResult:
        self.n_ops += 1
        result = OpResult(reasons=[], unconverged=self._unconverged,
                          output_bytes=self._model_bytes)
        for m in MODELS:
            code, out, err = run_cli(
                ["eval", "--model-file", self._path(f"{m}.json"),
                 "--input", self._path("heldout.csv")],
                self.tracer, model=m,
            )
            line = out.strip()
            if code != 0:
                result.reasons.append(f"{m}: exit code {code} {err}".strip())
                continue
            match = self._LINE.match(line)
            if match is None or match.group(1) != m:
                result.reasons.append(f"{m}: unexpected eval output {line!r}")
                continue
            first = self._first_lines.setdefault(m, line)
            if line != first:
                result.reasons.append(f"{m}: eval line {line!r} differs from {first!r}")
            cindex = _unit_interval(match.group(2))
            if cindex is None:
                result.reasons.append(f"{m}: C-index {match.group(2)} outside [0, 1]")
                continue
            result.cindex[m] = cindex
        return result


WORKLOADS = {w.name: w for w in (BenchDefault, SolversN5000, ModelFiles)}

"""Spans for the traced benchmark run.

`Tracer.install()` swaps every public module-level function of the
survbench layers for a wrapper that records one span per call: name
(``<module>.<function>``), start, end, parent span and op id. The swap
rebinds each reference the package holds, including names imported
from another module and the per-model dispatch dicts, so calls made
inside the program are traced too. `uninstall()` restores the originals.
Nothing inside ``src/survbench`` changes.

Spans stay in memory; `write()` stores them as JSON lines when the run
ends, and `layer_metrics()` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import threading
import time
import types
from contextlib import contextmanager

LAYERS = ("data", "datagen", "stepfun", "nonparametric", "metrics", "cox", "mtlr",
          "rsf", "deepsurv", "ksvm", "svg", "bench")
MODELS = ("cox", "mtlr", "rsf", "deepsurv", "ksvm")
FIT = {"cox": "cox.fit_cox", "mtlr": "mtlr.fit_mtlr", "rsf": "rsf.fit_forest",
       "deepsurv": "deepsurv.fit_deepsurv", "ksvm": "ksvm.fit_ksvm"}
PREDICT = {"cox": "cox.predict_risk", "mtlr": "mtlr.mtlr_risk", "rsf": "rsf.rsf_risk",
           "deepsurv": "deepsurv.predict_log_risk", "ksvm": "ksvm.ksvm_risk"}
# Model (de)serialization stays unwrapped, so that it counts as the eval
# span's self time together with the JSON parse.
_UNWRAPPED_SUFFIXES = ("_to_dict", "_from_dict")

# busy-time metrics: seconds in the outermost calls of the named functions
_BUSY = {
    "rsf.fit_s": ("rsf.fit_forest",),
    "rsf.predict_s": ("rsf.rsf_risk",),
    "stepfun.average_s": ("stepfun.average_step_functions",),
    **{f"{m}.fit_s": (FIT[m],) for m in MODELS if m != "rsf"},
    **{f"{m}.predict_s": (PREDICT[m],) for m in MODELS if m != "rsf"},
    "metrics.cindex_s": ("metrics.concordance_index",),
    "data.ingest_csv_s": ("data.ingest_csv",),
    "data.encode_s": ("data.encode", "data.encode_like"),
    "data.split_s": ("data.split",),
    "datagen.generate_s": ("datagen.generate",),
    "bench.write_s": ("bench.write_text_atomic",),
    "bench.figures_s": ("bench.emit_km_figures", "bench.emit_weight_figure"),
    "svg.chart_s": ("svg.step_chart", "svg.bar_chart"),
}
_CALLS = {
    "nonparametric.nelson_aalen_calls": "nonparametric.nelson_aalen",
    "stepfun.average_calls": "stepfun.average_step_functions",
    "metrics.cindex_calls": "metrics.concordance_index",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "extra")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, index: int) -> dict:
        doc = {"id": index, "name": self.name, "start": self.start, "end": self.end,
               "parent": self.parent, "op": self.op}
        if self.extra:
            doc.update(self.extra)
        return doc


def _rss_bytes() -> int:
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


class RssPeak:
    """Peak growth of the resident set over a `with` block, sampled every
    `interval` seconds by one helper thread. Used instead of tracemalloc,
    which slows the RSF and KSVM fits five- to tenfold."""

    def __init__(self, interval: float = 0.002):
        self.interval = interval
        self.mb = 0.0

    def _sample(self) -> None:
        while not self._stop.wait(self.interval):
            self._peak = max(self._peak, _rss_bytes())

    def __enter__(self):
        self._base = self._peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._peak = max(self._peak, _rss_bytes())
        self.mb = (self._peak - self._base) / 2**20
        return False


def _note(name: str, args, kwargs, result) -> dict | None:
    """Counts recorded at the call boundary, outside the span's interval."""
    if name == "bench.write_text_atomic":
        text = args[1] if len(args) > 1 else kwargs["text"]
        return {"bytes": len(text.encode("utf-8"))}
    if name in _PREDICT_NAMES:
        design = args[1] if len(args) > 1 else kwargs["design"]
        return {"rows": design.n}
    if name in _FIT_NAMES:
        conv = getattr(result, "convergence", None)
        return None if conv is None else {"iterations": conv.iterations}
    return None


_FIT_NAMES = frozenset(FIT.values())
_PREDICT_NAMES = frozenset(PREDICT.values())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str, **extra):
        """A span opened by the benchmark itself, e.g. around one CLI call."""
        span = self._open(name)
        span.extra = extra or None
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        is_fit = name in _FIT_NAMES

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                if is_fit:
                    with RssPeak() as rss:
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.extra = _note(name, args, kwargs, result)
            if is_fit:
                span.extra = {**(span.extra or {}), "rss_peak_mb": rss.mb}
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"survbench.{layer}")
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__
                        and not attr.endswith(_UNWRAPPED_SUFFIXES)):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("survbench."):
                continue
            for attr, value in list(vars(mod).items()):
                new = swap(value)
                if new is not None:
                    setattr(mod, attr, new)
                    self._undo.append((vars(mod), attr, value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        new = swap(item)
                        if new is not None:
                            value[key] = new
                            self._undo.append((value, key, item))

    def uninstall(self) -> None:
        for mapping, key, original in reversed(self._undo):
            mapping[key] = original
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_dict(i)) + "\n")


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit), per measured op: totals over all
    spans (traced set-up included) divided by `n_ops`."""
    names = [s.name for s in spans]

    def outermost(i: int, group) -> bool:
        p = spans[i].parent
        while p is not None:
            if names[p] in group:
                return False
            p = spans[p].parent
        return True

    out = {}
    for metric, group in _BUSY.items():
        out[metric] = (sum(s.duration for i, s in enumerate(spans)
                           if s.name in group and outermost(i, group)) / n_ops, "s")
    for metric, name in _CALLS.items():
        out[metric] = (names.count(name) / n_ops, "count")

    rows = sum((s.extra or {}).get("rows", 0) for s in spans if s.name == PREDICT["rsf"])
    busy = out["rsf.predict_s"][0] * n_ops
    out["rsf.predict_rows_per_s"] = (rows / busy if rows else 0.0, "1/s")
    for model in ("cox", "mtlr", "ksvm"):
        its = [s.extra["iterations"] for s in spans
               if s.name == FIT[model] and s.extra and "iterations" in s.extra]
        out[f"{model}.iterations"] = (statistics.median(its) if its else 0.0, "count")
    for model in MODELS:
        peaks = [s.extra["rss_peak_mb"] for s in spans if s.name == FIT[model]]
        out[f"{model}.fit_peak_mb"] = (max(peaks, default=0.0), "MB")
    out["bench.bytes_written"] = (sum(
        (s.extra or {}).get("bytes", 0) for s in spans if s.name == "bench.write_text_atomic"
    ) / n_ops, "B")

    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    for model in MODELS:
        selfs = [s.duration - child_time[i] for i, s in enumerate(spans)
                 if s.name == "cli.eval" and (s.extra or {}).get("model") == model]
        out[f"cli.eval_self_s.{model}"] = (sum(selfs) / n_ops, "s")
    return out

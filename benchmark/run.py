"""survbench benchmark: one workload, closed loop with one client.

    python3 benchmark/run.py --workload bench_default --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. The program is imported from the
checkout's ``src`` directory; without it the benchmark exits with code 2.
Ops run back to back through `survbench.cli.main` until `--seconds` have
passed (at least one op); times are in reference seconds (see
`ReferenceClock`). With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` an untraced pass is followed by a
traced one, and the line holds the per-layer metrics plus the tracing
overhead. The lines before it give each op's times and the environment.
Working files go to ``.bench_out/`` in the checkout and are removed at
exit; traces and run records stay there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# One BLAS thread on every commit: on a 2-core machine OpenBLAS's own
# threads contend with the benchmark and make run_s slower and noisier.
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    pass


def prepare_interpreter() -> None:
    """Pin BLAS threads and import survbench from this checkout only.
    Must run before numpy is imported."""
    if not os.path.isfile(os.path.join(SRC, "survbench", "cli.py")):
        raise MissingProgram(f"no survbench sources under {SRC}")
    for var in _BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import survbench

    if not os.path.abspath(survbench.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"survbench imported from {survbench.__file__}, not {SRC}")


def _blas_info() -> dict:
    import numpy as np

    info = {"threads_env": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _source_revision() -> dict:
    """Git revision when the checkout is a repository, and always a digest
    of the program's sources."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "survbench")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git": rev, "src_sha256": digest.hexdigest()[:16]}


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "revision": _source_revision(),
        "seed": seed,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def cold_import() -> None:
    """Import the CLI in a fresh interpreter: what every `survbench`
    command pays before it does any work."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import survbench.cli"], env=env, check=True,
                   timeout=120)


# Nominal seconds of the reference kernel, about its time on the 2-core
# Xeon VM the baseline was measured on. Times are reported at that speed.
REFERENCE_KERNEL_S = 0.5


def reference_kernel_s() -> float:
    """Seconds for a fixed mix of Python loops and small NumPy calls, the
    kind of work the program's hot paths do."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 4096)
    started = time.perf_counter()
    acc = 0.0
    for i in range(25_000):
        lo = (i * 37) % 3800
        a = x[lo:lo + 256]
        order = np.argsort(a[::-1], kind="stable")
        acc += float(np.cumsum(a[order])[-1]) + math.fsum(a[:32].tolist())
        acc += sum(j * 0.5 for j in range(64))
    return time.perf_counter() - started


class ReferenceClock:
    """Times an interval in reference seconds: wall seconds scaled by
    REFERENCE_KERNEL_S over the mean of the reference kernel's times just
    before and just after it.

    Other tenants of a shared machine slow every process on it, by up to
    2x over minutes; the kernel slows with the program and so cancels
    most of that drift. The raw wall seconds are kept as well."""

    def __init__(self):
        self._before = reference_kernel_s()

    def time(self, fn):
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
        after = reference_kernel_s()
        scale = REFERENCE_KERNEL_S / ((self._before + after) / 2)
        self._before = after
        return result, {"wall_s": wall, "ref_s": wall * scale, "slowdown": 1 / scale}


def setup(workload, clock: ReferenceClock) -> dict:
    def once():
        cold_import()
        workload.prepare()

    return clock.time(once)[1]


def measure(workload, seconds: float, clock: ReferenceClock, tracer=None) -> list[dict]:
    """Closed loop: the next op starts when the previous one ends."""
    ops = []
    started = time.perf_counter()
    while not ops or time.perf_counter() - started < seconds:
        if tracer is not None:
            tracer.op = len(ops)
        res, times = clock.time(workload.op)
        ops.append({**times, "result": res})
    if tracer is not None:
        tracer.op = None
    return ops


def _first_passed(ops: list[dict]):
    return next((o["result"] for o in ops if not o["result"].reasons), None)


def end_to_end(ops: list[dict], setups: list[dict]) -> dict:
    first = _first_passed(ops)
    cindex = list(first.cindex.values()) if first else []
    return {
        "run_s": (statistics.median(o["ref_s"] for o in ops), "s"),
        "setup_s": (statistics.median(s["ref_s"] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "output_mb": (first.output_bytes / 2**20 if first else None, "MB"),
        "test_cindex_mean": (statistics.fmean(cindex) if cindex else None, "1"),
    }


def traced_run(workload, seconds: float, record: dict) -> tuple[dict, list[dict]]:
    """Untraced ops, then a traced set-up and traced ops; returns the
    per-layer metrics and all ops."""
    from tracing import MODELS, Tracer, layer_metrics

    clock = ReferenceClock()
    setup(workload, clock)
    untraced = measure(workload, seconds, clock)
    tracer = Tracer()
    tracer.install()
    try:
        workload.tracer = tracer
        with tracer.span("setup"):
            workload.prepare()
        traced = measure(workload, seconds, clock, tracer)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(OUT, f"trace_{workload.name}_seed{workload.seed}.jsonl"))
    layers = layer_metrics(tracer.spans, len(traced))
    first = _first_passed(traced)
    for m in MODELS:
        layers[f"{m}.test_cindex"] = (first.cindex.get(m, 0.0) if first else None, "1")
    layers["unconverged_models"] = (first.unconverged if first else None, "count")
    layers["trace.overhead_s"] = (statistics.median(o["ref_s"] for o in traced)
                                  - statistics.median(o["ref_s"] for o in untraced), "s")
    record["spans"] = len(tracer.spans)
    return layers, untraced + traced


def run_workload(name: str, seed: int, seconds: float, trace: bool, profile=None) -> dict:
    """Set up and measure one workload; returns the run record and the result."""
    from workloads import FULL, WORKLOADS

    env = environment(seed)
    record = {"workload": name, "seconds": seconds, "trace": int(trace), "environment": env}
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    try:
        workload = WORKLOADS[name](workdir, seed, profile or FULL)
        if trace:
            metrics, ops = traced_run(workload, seconds, record)
        else:
            clock = ReferenceClock()
            setups = [setup(workload, clock) for _ in range(workload.setup_repeats)]
            ops = measure(workload, seconds, clock)
            metrics = end_to_end(ops, setups)
            record["setups"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    failed = sum(1 for o in ops if o["result"].reasons)
    record["ops"] = [{**{k: v for k, v in o.items() if k != "result"},
                      "failures": o["result"].reasons} for o in ops]
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    with open(os.path.join(OUT, f"run_{name}_seed{seed}_trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return {"record": record, "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        prepare_interpreter()
    except (MissingProgram, ImportError) as exc:
        print(f"benchmark: cannot load the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for i, op in enumerate(out["record"]["ops"]):
        status = "ok" if not op["failures"] else "FAILED: " + "; ".join(op["failures"])
        print(f"op {i}: {op['wall_s']:.3f} s wall, {op['ref_s']:.3f} s at reference speed, "
              f"{status}")
    print(json.dumps({"environment": out["record"]["environment"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

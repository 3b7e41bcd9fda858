"""Fast self-test of the benchmark, on tiny inputs (n=150, five RSF trees).

    python3 benchmark/selftest.py

Checks, for every workload, that a run emits exactly the metrics named
in BENCHMARK.json with their units (end-to-end untraced, per-layer
traced) and that every op passes; then that a forced model error is
counted as a failed op. Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import sys

import run

TINY_OPTIONS = {
    "rsf": {"b": 5},
    "deepsurv": {"epochs": 5},
    "mtlr": {"max_iter": 50},
    "ksvm": {"max_iter": 5, "max_pairs": 2000},
}


def _expected(kind: str) -> dict[str, str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc[kind]}


def _check(label: str, result: dict, expected: dict[str, str] | None,
           problems: list[str]) -> None:
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
    if expected is None:
        return
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        problems.append(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    absent = [k for k, v in result["metrics"].items() if not isinstance(v["value"], (int, float))]
    if absent:
        problems.append(f"{label}: no value for {absent}")


def main() -> int:
    run.prepare_interpreter()
    from workloads import WORKLOADS, Profile

    tiny = Profile(n=150, solver_n=300, model_options=TINY_OPTIONS)
    problems: list[str] = []
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_workload(name, seed=3, seconds=0, trace=trace, profile=tiny)["result"]
            _check(f"{name} trace={int(trace)}", result, _expected(kind), problems)
            print(f"{name} trace={int(trace)}: {result['attempted']} ops checked", flush=True)

    broken = Profile(n=150, model_options={**TINY_OPTIONS, "ksvm": {"kind": "unknown"}})
    result = run.run_workload("bench_default", seed=3, seconds=0, trace=False,
                              profile=broken)["result"]
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append(f"forced ksvm error not counted as failed: {result}")
    print(f"forced error: {result['failed']} of {result['attempted']} ops failed, as required")

    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

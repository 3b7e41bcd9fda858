"""Stability of the model ranking across generator seeds: run the
benchmark on several fresh cohorts and tabulate test C-index mean +- sd
per model.

    python3 scripts/seed_sweep.py --seeds 5
    python3 scripts/seed_sweep.py --seeds 10 --n 500 --models cox,rsf
"""

import argparse
import os
import sys

# survbench first: importing it pins BLAS to one thread before NumPy loads
from survbench.bench import BenchConfig, run_benchmark, write_csv
from survbench.datagen import GeneratorConfig

import numpy as np


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5, help="number of seeds, 0..seeds-1")
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--models", default=None, help="comma-separated subset")
    ap.add_argument("--out", default="sweep_out")
    args = ap.parse_args(argv)

    scores: dict[str, list[float]] = {}
    for seed in range(args.seeds):
        config = BenchConfig(
            generator=GeneratorConfig(n=args.n, seed=seed),
            seed=seed,
            out_dir=os.path.join(args.out, f"seed_{seed}"),
            **({"models": tuple(args.models.split(","))} if args.models else {}),
        )
        report = run_benchmark(config)
        for r in report.rows:
            if r.status == "ok":
                scores.setdefault(r.name, []).append(r.test_cindex)
        done = ", ".join(f"{r.name}={r.test_cindex:.3f}" for r in report.rows)
        print(f"seed {seed}: {done}")

    print(f"\ntest C-index over {args.seeds} seeds (n={args.n}):")
    rows = []
    for name, vals in scores.items():
        mean, sd = float(np.mean(vals)), float(np.std(vals))
        print(f"{name:<8} {mean:.4f} +- {sd:.4f}  ({len(vals)} runs)")
        rows.append([name, f"{mean:.6g}", f"{sd:.6g}", len(vals)])
    summary_path = os.path.join(args.out, "sweep.csv")
    write_csv(summary_path, ["model", "mean_test_cindex", "sd_test_cindex", "runs"], rows)
    print(f"summary written to {summary_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

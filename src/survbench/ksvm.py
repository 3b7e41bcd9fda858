"""Kernel survival SVM in the pairwise ranking formulation.

For every comparable pair (i, j) — subject i purchased strictly earlier
than j was observed — the score function should satisfy f(x_i) > f(x_j)
with margin 1: minimize 0.5*||f||^2 + C * sum hinge(1 - (f(x_i) - f(x_j))).
The dual is a box-constrained QP with one coefficient per pair, solved by
projected coordinate ascent; each update is an exact 1-d maximization, so
the dual objective never decreases across sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .common import Convergence
from .data import DesignMatrix
from .rng import CounterRng


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "rbf"
    gamma: float | None = None  # rbf; None means 1/p, resolved at fit
    degree: int = 3
    coef0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "rbf", "polynomial"):
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if spec.kind == "linear":
        return a @ b.T
    if spec.kind == "polynomial":
        return (a @ b.T + spec.coef0) ** spec.degree
    gamma = spec.gamma if spec.gamma is not None else 1.0 / a.shape[1]
    sq = (
        (a * a).sum(axis=1)[:, None]
        - 2.0 * (a @ b.T)
        + (b * b).sum(axis=1)[None, :]
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


def comparable_pairs(times, events) -> np.ndarray:
    """Ordered pairs (i, j) with T_i < T_j and subject i an event, as an
    array of shape (P, 2) sorted by (i, j)."""
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=np.int64)
    mask = (t[:, None] < t[None, :]) & (e[:, None] == 1)
    return np.argwhere(mask)


@dataclass
class KsvmModel:
    kernel: KernelSpec
    support_rows: np.ndarray
    coefficients: np.ndarray  # one per support row (collapsed duals)
    c: float
    column_names: list[str]
    convergence: Convergence
    pairs: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    alphas: np.ndarray = field(default_factory=lambda: np.empty(0))
    objective_history: list[float] = field(default_factory=list)


def fit_ksvm(
    design: DesignMatrix,
    kernel: KernelSpec | None = None,
    c: float = 1.0,
    max_iter: int = 30,
    tol: float = 1e-3,
    max_pairs: int = 10_000,
    seed: int = 0,
) -> KsvmModel:
    """Projected coordinate ascent on the dual. When there are more than
    max_pairs comparable pairs, a seeded uniform subsample is used."""
    if kernel is None:
        kernel = KernelSpec(kind="rbf", gamma=1.0 / max(design.p, 1))
    pairs = comparable_pairs(design.times, design.events)
    if pairs.shape[0] == 0:
        raise ValueError("no comparable pairs; cannot fit a ranking model")
    if pairs.shape[0] > max_pairs:
        keys = CounterRng(seed).uniform(pairs.shape[0])
        pick = np.sort(np.argsort(keys, kind="stable")[:max_pairs])
        pairs = pairs[pick]
    gram = kernel_matrix(kernel, design.X, design.X)
    ii, jj = pairs[:, 0], pairs[:, 1]
    q_diag = gram[ii, ii] - 2.0 * gram[ii, jj] + gram[jj, jj]
    alphas = np.zeros(pairs.shape[0])
    scores = np.zeros(design.n)
    history = []
    converged, sweeps = False, 0
    worst = np.inf
    for sweeps in range(1, max_iter + 1):
        worst = 0.0
        for p in range(pairs.shape[0]):
            i, j = ii[p], jj[p]
            g = 1.0 - (scores[i] - scores[j])
            a = alphas[p]
            if a <= 0.0:
                pg = max(g, 0.0)
            elif a >= c:
                pg = min(g, 0.0)
            else:
                pg = g
            worst = max(worst, abs(pg))
            if q_diag[p] <= 0.0 or pg == 0.0:
                continue
            new = min(max(a + g / q_diag[p], 0.0), c)
            delta = new - a
            if delta != 0.0:
                scores += delta * (gram[:, i] - gram[:, j])
                alphas[p] = new
        history.append(float(alphas.sum() - 0.5 * (alphas * (scores[ii] - scores[jj])).sum()))
        if worst <= tol:
            converged = True
            break
    row_w = np.bincount(ii, weights=alphas, minlength=design.n) - np.bincount(
        jj, weights=alphas, minlength=design.n
    )
    support = np.nonzero(row_w != 0.0)[0]
    return KsvmModel(
        kernel=kernel,
        support_rows=design.X[support].copy(),
        coefficients=row_w[support],
        c=c,
        column_names=list(design.names),
        convergence=Convergence(converged, sweeps, float(worst)),
        pairs=pairs,
        alphas=alphas,
        objective_history=history,
    )


def predict_rank_score(model: KsvmModel, x) -> float:
    """f(x) = sum of coefficients * kernel(support row, x); higher means
    earlier predicted purchase."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    if model.support_rows.shape[0] == 0:
        return 0.0
    k = kernel_matrix(model.kernel, model.support_rows, x)[:, 0]
    return float(model.coefficients @ k)


def ksvm_risk(model: KsvmModel, design: DesignMatrix) -> np.ndarray:
    if design.names != model.column_names:
        raise ValueError("design columns do not match the fitted model")
    if model.support_rows.shape[0] == 0:
        return np.zeros(design.n)
    k = kernel_matrix(model.kernel, model.support_rows, design.X)
    return model.coefficients @ k


def ksvm_to_dict(model: KsvmModel) -> dict:
    return {
        "model": "ksvm",
        "kernel": {
            "kind": model.kernel.kind,
            "gamma": model.kernel.gamma,
            "degree": model.kernel.degree,
            "coef0": model.kernel.coef0,
        },
        "support_rows": model.support_rows.tolist(),
        "coefficients": model.coefficients.tolist(),
        "c": model.c,
        "column_names": model.column_names,
        "convergence": model.convergence.to_dict(),
    }


def ksvm_from_dict(doc: dict) -> KsvmModel:
    k = doc["kernel"]
    rows = doc["support_rows"]
    support = np.asarray(rows, dtype=np.float64) if rows else np.empty((0, 0))
    return KsvmModel(
        kernel=KernelSpec(
            kind=k["kind"], gamma=k["gamma"], degree=int(k["degree"]), coef0=float(k["coef0"])
        ),
        support_rows=support,
        coefficients=np.asarray(doc["coefficients"], dtype=np.float64),
        c=float(doc["c"]),
        column_names=list(doc["column_names"]),
        convergence=Convergence.from_dict(doc["convergence"]),
    )

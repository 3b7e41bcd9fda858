"""Multi-task logistic regression on a discretized time grid.

Boundaries t_1 < ... < t_K cut time into K+1 intervals (the last is
open-ended). A record's outcome is the interval holding its event time;
each candidate interval m has pattern score G_m = sum of the first m task
scores s_k = w_k.x + b_k, with G_0 = 0, and P(interval m | x) =
softmax(G)_m. A censored record contributes the total mass of intervals
at or after the one containing its censoring time.

Sign convention: a positive task-k score raises the probability of every
interval at or after boundary k, i.e. pushes mass toward later events.

The penalized log-likelihood (L2 on weights only, biases free) is
maximized by Newton steps with the analytic Hessian. It is not concave
in general: a censored record's term, a log-sum-exp over its outcome
set minus one over all intervals, can curve upward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import Convergence, newton_maximize
from .data import DesignMatrix


@dataclass(frozen=True)
class TimeGrid:
    boundaries: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=np.float64)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("need at least 2 boundaries")
        if not np.all(np.diff(b) > 0):
            raise ValueError("boundaries must be strictly increasing")
        object.__setattr__(self, "boundaries", b)

    @property
    def k(self) -> int:
        return self.boundaries.size

    def interval_of(self, t) -> np.ndarray:
        """0-based interval index; boundary times belong to the interval
        they open."""
        return np.searchsorted(self.boundaries, np.asarray(t, dtype=np.float64), side="right")


def make_grid(design: DesignMatrix, k: int) -> TimeGrid:
    """Boundaries at the k equally spaced empirical quantiles (1/k ... 1)
    of the observed event times."""
    if k < 2:
        raise ValueError("k must be >= 2")
    etimes = design.times[design.events == 1]
    if np.unique(etimes).size < k:
        raise ValueError(
            f"only {np.unique(etimes).size} distinct event times; use a smaller k"
        )
    bounds = np.quantile(etimes, np.arange(1, k + 1) / k)
    if not np.all(np.diff(bounds) > 0):
        raise ValueError("duplicate quantile boundaries; use a smaller k")
    return TimeGrid(boundaries=bounds)


@dataclass(frozen=True)
class MtlrModel:
    weights: np.ndarray
    biases: np.ndarray
    grid: TimeGrid
    l2: float
    column_names: list[str]
    convergence: Convergence


def _pattern_scores(X, weights, biases):
    """G: n x (K+1) pattern scores, column m = sum of first m task scores."""
    s = X @ weights.T + biases
    return np.concatenate([np.zeros((X.shape[0], 1)), np.cumsum(s, axis=1)], axis=1)


def _tails(X, interval, is_event, weights, biases):
    """Per-record log-likelihood, and for each task k = 1..K the model
    tail mass P(interval >= k) and the same tail of the softmax restricted
    to the record's outcome set (its interval for an event, that interval
    and every later one for a censored record)."""
    G = _pattern_scores(X, weights, biases)
    shifted = G - G.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    # tail[:, m] = P(interval >= m); column 0 is 1 by construction
    tail = np.cumsum(np.exp(logp)[:, ::-1], axis=1)[:, ::-1]
    rows = np.arange(X.shape[0])
    cut = np.maximum(interval[:, None], np.arange(1, weights.shape[0] + 1))
    # a tail can underflow to 0: an event's quotient is unused, and a censored record's
    # log-likelihood is then -inf, a value newton_maximize never accepts
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.where(is_event, logp[rows, interval], np.log(tail[rows, interval]))
        censored = tail[rows[:, None], cut] / tail[rows, interval][:, None]
    return ll, tail[:, 1:], np.where(is_event[:, None], cut == interval[:, None], censored)


def _objective_and_grad(X, interval, is_event, weights, biases, l2):
    """Penalized log-likelihood and its gradient in (weights, biases).

    The per-record gradient in task score k is [tail indicator or
    censoring-renormalized tail] minus the model tail mass past k.
    """
    ll, model_tail, outcome_tail = _tails(X, interval, is_event, weights, biases)
    dscore = outcome_tail - model_tail
    grad_w = dscore.T @ X - l2 * weights
    grad_b = dscore.sum(axis=0)
    objective = float(ll.sum()) - 0.5 * l2 * float((weights * weights).sum())
    return objective, grad_w, grad_b


def _hessian(X, interval, is_event, weights, biases, l2):
    """Hessian of the penalized log-likelihood in theta = (W | b), its K
    rows (w_k, b_k) flattened. A record with model tail P and outcome-set
    tail Q has H_s[k,l] = Q[max(k,l)] - Q[k]Q[l] - P[max(k,l)] + P[k]P[l]
    in the task scores; theta's Hessian sums H_s (x) z z^T, z = (x, 1),
    as one (n x K^2)^T (n x (p+1)^2) product."""
    n, (k, p) = X.shape[0], weights.shape
    _, P, Q = _tails(X, interval, is_event, weights, biases)
    last = np.maximum.outer(np.arange(k), np.arange(k))
    hs = Q[:, last] - Q[:, :, None] * Q[:, None, :] - P[:, last] + P[:, :, None] * P[:, None, :]
    z = np.hstack([X, np.ones((n, 1))])
    zz = (z[:, :, None] * z[:, None, :]).reshape(n, -1)
    hess = (hs.reshape(n, -1).T @ zz).reshape(k, k, p + 1, p + 1).transpose(0, 2, 1, 3)
    return hess.reshape(k * (p + 1), -1) - l2 * np.diag(np.tile(np.append(np.ones(p), 0.0), k))


def fit_mtlr(
    design: DesignMatrix,
    grid: TimeGrid,
    l2: float = 1.0,
    max_iter: int = 100,
    tol: float = 1e-3,
) -> MtlrModel:
    """Maximize the penalized log-likelihood from the zero model with
    `common.newton_maximize` and the analytic Hessian."""
    if l2 <= 0.0:
        raise ValueError("l2 must be positive (identifiability)")
    if design.events.sum() < 1:
        raise ValueError("need at least one event to fit")
    data = (design.X, grid.interval_of(design.times), design.events == 1)
    shape = (grid.k, design.p + 1)

    def terms(theta):
        w, b = theta.reshape(shape)[:, :-1], theta.reshape(shape)[:, -1]
        obj, gw, gb = _objective_and_grad(*data, w, b, l2)
        g = np.column_stack([gw, gb]).ravel()
        return obj, g, lambda: np.linalg.solve(-_hessian(*data, w, b, l2), g)

    theta, convergence = newton_maximize(terms, np.zeros(grid.k * shape[1]), max_iter, tol)
    theta = theta.reshape(shape)
    return MtlrModel(
        weights=theta[:, :-1],
        biases=theta[:, -1],
        grid=grid,
        l2=l2,
        column_names=list(design.names),
        convergence=convergence,
    )


def predict_pmf(model: MtlrModel, X) -> np.ndarray:
    """Interval PMF per row, shape (n, K+1).

    Softmax is taken directly (shift, exponentiate, normalize) so the
    all-zero model returns exactly 1/(K+1) per interval.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    G = _pattern_scores(X, model.weights, model.biases)
    e = np.exp(G - G.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@np.errstate(over="ignore", invalid="ignore")  # huge scored rows can overflow; C-index refuses
def mtlr_risk(model: MtlrModel, design: DesignMatrix) -> np.ndarray:
    """Risk score for ranking: negative expected event-interval index."""
    if design.names != model.column_names:
        raise ValueError("design columns do not match the fitted model")
    p = predict_pmf(model, design.X)
    return -(p @ np.arange(model.grid.k + 1, dtype=np.float64))


def feature_weights(model: MtlrModel) -> list[dict]:
    """Per design column: per-interval weights and their mean, sorted by
    absolute mean, largest first."""
    rows = []
    for j, name in enumerate(model.column_names):
        per_interval = model.weights[:, j]
        rows.append(
            {
                "variable": name,
                "aggregate_weight": float(per_interval.mean()),
                "per_interval": per_interval.tolist(),
            }
        )
    rows.sort(key=lambda r: (-abs(r["aggregate_weight"]), r["variable"]))
    return rows

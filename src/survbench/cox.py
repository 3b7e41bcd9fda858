"""Cox proportional hazards: Breslow-tie partial likelihood, Newton
fitting (the shared maximizer in `common`).

The model is h(t|x) = h0(t) * exp(beta.x). Fitting maximizes the Breslow
log partial likelihood, optionally ridge-penalized; the reported gradient
norm is for the penalized objective (they coincide at ridge = 0).

With eta = X beta, the likelihood and its eta-gradient come from
`riskset.breslow_loglik`, and the beta-gradient is X^T of the latter.
The Hessian is

    sum_g d_g xbar_g xbar_g^T - X^T diag(w * c) X,

where d_g is the number of events at distinct time g, xbar_g the
w-weighted covariate mean over its risk set, w_j = exp(eta_j), and c_j
the sum of d_g / W_g over every risk set holding row j (W_g the sum of w
over risk set g). Since dl/deta_j = delta_j - w_j c_j, w * c is read off
the eta-gradient. Only p x p sums are formed, never a p x p block per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import Convergence, newton_maximize
from .data import DesignMatrix, column_list
from .riskset import breslow_loglik, risk_set_sums, risk_sets

_BETA_BOUND = 50.0


class MonotoneLikelihoodError(ValueError):
    """The likelihood keeps improving as some coefficient diverges
    (separation). Refit with ridge > 0: a ValueError, since an option
    fixes it."""


@dataclass(frozen=True)
class CoxModel:
    beta: np.ndarray
    column_names: list[str]
    convergence: Convergence


def cox_loglik_grad_hess(design: DesignMatrix, beta) -> tuple[float, np.ndarray, np.ndarray]:
    """Breslow partial log-likelihood and its exact first two derivatives
    (the Hessian in the form the module docstring gives)."""
    beta = np.asarray(beta, dtype=np.float64)
    X = design.X
    rs = risk_sets(design.times, design.events)
    eta = X @ beta
    loglik, dl_deta = breslow_loglik(rs, eta)
    sorted_eta = eta[rs.order]
    w = np.exp(sorted_eta - sorted_eta.max())
    has = rs.n_events > 0
    sums = risk_set_sums(rs, np.vstack([w, X[rs.order].T * w]))[:, has]
    xbar = sums[1:] / sums[0]
    wc = (design.events == 1) - dl_deta
    hess = (xbar * rs.n_events[has]) @ xbar.T - (X.T * wc) @ X
    return loglik, X.T @ dl_deta, hess


# a rejected Newton trial step can overflow; newton_maximize never accepts a non-finite one
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def fit_cox(
    design: DesignMatrix,
    max_iter: int = 100,
    tol: float = 1e-8,
    ridge: float = 0.0,
) -> CoxModel:
    """Maximize the penalized log partial likelihood from beta = 0 with
    `common.newton_maximize`; a coefficient past _BETA_BOUND is separation."""
    if design.events.sum() < 1:
        raise ValueError("need at least one event to fit")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    spans = design.X.max(axis=0) - design.X.min(axis=0) if design.n else np.array([])
    flat = np.nonzero(spans <= 0)[0]
    if flat.size:
        raise ValueError(f"constant design column(s): {column_list(design.names[j] for j in flat)}")

    def penalized(beta):
        ll, g, H = cox_loglik_grad_hess(design, beta)
        g, H = g - ridge * beta, H - ridge * np.eye(design.p)
        return ll - 0.5 * ridge * float(beta @ beta), g, lambda: np.linalg.solve(-H, g)

    beta, convergence = newton_maximize(penalized, np.zeros(design.p), max_iter, tol)
    if np.abs(beta).max() > _BETA_BOUND:
        raise MonotoneLikelihoodError(
            "coefficients diverging (monotone likelihood); refit with ridge > 0"
        )
    return CoxModel(beta=beta, column_names=list(design.names), convergence=convergence)


def predict_risk(model: CoxModel, design: DesignMatrix) -> np.ndarray:
    """Per-row log-risk beta.x."""
    if design.p != model.beta.size or design.names != model.column_names:
        raise ValueError("design columns do not match the fitted model")
    return design.X @ model.beta

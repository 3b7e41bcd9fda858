"""Proportional-hazards fitter checked against independent oracles: a
dense grid search on a tiny penalized problem, central finite differences
for the derivatives, and closed forms at beta = 0."""

import numpy as np
import pytest

from survbench.cox import (
    MonotoneLikelihoodError,
    cox_loglik_grad_hess,
    fit_cox,
    predict_risk,
)
from survbench.common import SingularHessianError
from survbench.data import encode, split
from survbench.datagen import GeneratorConfig, generate
from survbench.nonparametric import nelson_aalen

from conftest import numeric_design, reloaded


def small_design(seed=0, n=50, p=4, censor=0.3, standardize=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    t = rng.exponential(1.0, n)
    e = (rng.uniform(size=n) > censor).astype(int)
    if e.sum() == 0:
        e[0] = 1
    return numeric_design(X, t, e, standardize=standardize)


def penalized_loglik(design, beta, ridge):
    ll, _, _ = cox_loglik_grad_hess(design, np.atleast_1d(beta))
    return ll - 0.5 * ridge * float(np.sum(np.atleast_1d(beta) ** 2))


def test_two_subject_grid_search_oracle():
    # one covariate, two events: the ridge-penalized optimum is found by
    # brute force over a dense grid and must match the Newton fit
    design = numeric_design([[1.0], [-1.0]], [1.0, 2.0], [1, 1])
    ridge = 1e-4
    grid = np.linspace(-10, 10, 2_000_001)
    # closed form of the two-subject partial likelihood, vectorized: the
    # last event's term is identically zero, leaving b - log(e^b + e^-b)
    ll = grid - np.logaddexp(grid, -grid)
    obj = ll - 0.5 * ridge * grid**2
    beta_grid = grid[np.argmax(obj)]
    model = fit_cox(design, ridge=ridge)
    assert model.beta[0] == pytest.approx(beta_grid, abs=1e-4)
    assert model.convergence.converged


def test_grid_search_oracle_three_subjects():
    design = numeric_design([[0.5], [-0.3], [1.2]], [3.0, 1.0, 2.0], [1, 1, 1])
    ridge = 0.05
    grid = np.linspace(-10, 10, 400_001)
    obj = np.array([penalized_loglik(design, b, ridge) for b in grid[::400]])
    coarse = grid[::400][np.argmax(obj)]
    fine = np.linspace(coarse - 0.1, coarse + 0.1, 20001)
    objf = np.array([penalized_loglik(design, b, ridge) for b in fine])
    beta_grid = fine[np.argmax(objf)]
    model = fit_cox(design, ridge=ridge)
    assert model.beta[0] == pytest.approx(beta_grid, abs=1e-4)


def test_gradient_matches_finite_differences():
    design = small_design(seed=1)
    rng = np.random.default_rng(2)
    beta = rng.normal(scale=0.5, size=design.p)
    _, grad, _ = cox_loglik_grad_hess(design, beta)
    h = 1e-6
    for j in range(design.p):
        ej = np.zeros(design.p)
        ej[j] = h
        lp, _, _ = cox_loglik_grad_hess(design, beta + ej)
        lm, _, _ = cox_loglik_grad_hess(design, beta - ej)
        fd = (lp - lm) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_hessian_matches_finite_differences():
    design = small_design(seed=3, n=30, p=3)
    beta = np.array([0.2, -0.4, 0.1])
    _, _, hess = cox_loglik_grad_hess(design, beta)
    h = 1e-5
    for j in range(design.p):
        ej = np.zeros(design.p)
        ej[j] = h
        _, gp, _ = cox_loglik_grad_hess(design, beta + ej)
        _, gm, _ = cox_loglik_grad_hess(design, beta - ej)
        fd_col = (gp - gm) / (2 * h)
        np.testing.assert_allclose(hess[:, j], fd_col, rtol=1e-4, atol=1e-6)


def test_hessian_negative_semidefinite():
    design = small_design(seed=4)
    rng = np.random.default_rng(5)
    for _ in range(5):
        beta = rng.normal(scale=1.0, size=design.p)
        _, _, hess = cox_loglik_grad_hess(design, beta)
        eigs = np.linalg.eigvalsh(hess)
        assert np.all(eigs <= 1e-8)


def test_loglik_at_zero_closed_form():
    # Breslow likelihood at beta = 0 collapses to -sum_g d_g log(n_g)
    design = small_design(seed=6, n=40, p=2)
    ll, grad, _ = cox_loglik_grad_hess(design, np.zeros(2))
    t, e = design.times, design.events
    order = np.argsort(t, kind="stable")
    ts, es = t[order], e[order]
    expected = 0.0
    for ut in np.unique(ts[es == 1]):
        d = int(((ts == ut) & (es == 1)).sum())
        at_risk = int((ts >= ut).sum())
        expected -= d * np.log(at_risk)
    assert ll == pytest.approx(expected, rel=1e-12)


def test_monotone_likelihood_detected():
    # separated covariate at small scale: the likelihood keeps rising along
    # beta -> +inf slowly enough that the iterates blow past the bound
    design = numeric_design(
        [[0.1], [0.1], [0.0], [0.0]], [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1]
    )
    with pytest.raises(MonotoneLikelihoodError):
        fit_cox(design)


def test_identical_columns_raise_singular_hessian():
    # two copies of one covariate make the Newton system exactly singular
    x = np.random.default_rng(13).normal(size=20)
    design = numeric_design(np.column_stack([x, x]), np.arange(1.0, 21.0), np.ones(20, int))
    with pytest.raises(SingularHessianError, match="ridge"):
        fit_cox(design)


def test_ridge_restores_finite_optimum():
    design = numeric_design(
        [[0.1], [0.1], [0.0], [0.0]], [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1]
    )
    model = fit_cox(design, ridge=1.0)
    assert np.isfinite(model.beta[0])
    assert model.convergence.converged


def test_constant_columns_rejected():
    d0 = numeric_design(np.zeros((10, 2)), np.arange(1.0, 11.0), np.ones(10, int))
    with pytest.raises(ValueError, match="constant"):
        fit_cox(d0)


def test_baseline_at_zero_beta_is_nelson_aalen():
    # an overwhelming ridge pins beta at ~0, where the Breslow baseline
    # must collapse to the Nelson-Aalen estimator
    design = small_design(seed=7, n=60, p=2)
    model = fit_cox(design, ridge=1e12)
    np.testing.assert_allclose(model.beta, 0.0, atol=1e-9)
    ref = nelson_aalen(design.times, design.events)
    np.testing.assert_allclose(model.baseline_cum_hazard.times, ref.times)
    np.testing.assert_allclose(model.baseline_cum_hazard.values, ref.values,
                               atol=1e-8)


def test_breslow_baseline_hand_fixture():
    # two events, distinct times, known eta
    design = numeric_design([[1.0], [0.0], [-1.0]], [1.0, 2.0, 3.0], [1, 1, 0])
    model = fit_cox(design, ridge=10.0)  # strong ridge: beta small but nonzero
    b = float(model.beta[0])
    eta = design.X[:, 0] * b
    w = np.exp(eta)
    jumps = [1.0 / (w[0] + w[1] + w[2]), 1.0 / (w[1] + w[2])]
    np.testing.assert_allclose(model.baseline_cum_hazard.values,
                               np.cumsum(jumps), rtol=1e-10)


def test_recovers_planted_coefficients():
    rng = np.random.default_rng(12)
    n = 2000
    X = rng.normal(size=(n, 2))
    beta_true = np.array([0.5, -0.5])
    t_true = rng.exponential(1.0 / np.exp(X @ beta_true))
    c = rng.exponential(1.9, n)
    t = np.minimum(t_true, c)
    e = (t_true <= c).astype(int)
    assert 0.2 < 1 - e.mean() < 0.4  # roughly 30% censoring
    model = fit_cox(numeric_design(X, t, e))
    np.testing.assert_allclose(model.beta, beta_true, atol=0.1)


def test_predict_risk_is_linear_predictor():
    design = small_design(seed=8)
    model = fit_cox(design, ridge=0.5)
    np.testing.assert_allclose(predict_risk(model, design), design.X @ model.beta)


def test_predict_risk_validates_columns():
    design = small_design(seed=9, p=3)
    model = fit_cox(design, ridge=0.5)
    other = small_design(seed=9, p=2)
    with pytest.raises(ValueError):
        predict_risk(model, other)


def test_serialization_round_trip():
    design = small_design(seed=11, standardize=True)  # as `fit` encodes for Cox
    model = fit_cox(design, ridge=0.1)
    back = reloaded("cox", model, design)
    np.testing.assert_array_equal(back.beta, model.beta)
    np.testing.assert_array_equal(back.baseline_cum_hazard.times,
                                  model.baseline_cum_hazard.times)
    np.testing.assert_allclose(predict_risk(back, design),
                               predict_risk(model, design))
    assert back.convergence.converged == model.convergence.converged


def test_tied_event_times_accepted():
    design = numeric_design(
        [[0.3], [-0.2], [0.8], [0.1]], [1.0, 1.0, 2.0, 2.0], [1, 1, 1, 0]
    )
    model = fit_cox(design, ridge=0.2)
    assert model.convergence.converged


@pytest.mark.parametrize("seed", [2, 24])
def test_cox_converges_on_default_cohort(seed):
    # the log-likelihood is flat within rounding near the optimum of these
    # cohorts; a step that lowers the gradient there must still be taken
    cohort, _ = generate(GeneratorConfig(seed=seed))
    train, _ = split(cohort, 0.3, seed)
    model = fit_cox(encode(train, standardize=True))
    assert model.convergence.converged
    assert model.convergence.gradient_norm <= 1e-8

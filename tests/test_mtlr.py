"""Discrete-time sequence model: the vectorized objective/gradient is
checked against a naive loop re-derivation plus central finite
differences, and the probability outputs against simplex facts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survbench.bench import MODELS, model_options
from survbench.data import encode, split
from survbench.datagen import GeneratorConfig, generate
from survbench.metrics import concordance_index
from survbench.mtlr import (
    MtlrModel,
    TimeGrid,
    _hessian,
    _objective_and_grad,
    feature_weights,
    fit_mtlr,
    make_grid,
    mtlr_risk,
    predict_pmf,
)
from survbench.common import Convergence

from conftest import numeric_design, reloaded


def naive_objective(X, times, events, boundaries, W, b, l2):
    """Straight-from-the-definition objective with explicit loops."""
    n, K = X.shape[0], W.shape[0]
    total = 0.0
    for i in range(n):
        s = [float(W[k] @ X[i] + b[k]) for k in range(K)]
        G = [0.0]
        for v in s:
            G.append(G[-1] + v)
        mx = max(G)
        logZ = mx + math.log(sum(math.exp(g - mx) for g in G))
        j = int(np.searchsorted(boundaries, times[i], side="right"))
        if events[i] == 1:
            total += G[j] - logZ
        else:
            total += math.log(sum(math.exp(G[m] - logZ) for m in range(j, K + 1)))
    return total - 0.5 * l2 * float((W * W).sum())


def censored_design(seed=0, n=30, p=3, standardize=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    t = rng.exponential(2.0, n)
    e = (rng.uniform(size=n) < 0.6).astype(int)
    e[:4] = 1  # guarantee enough distinct event times for the grid
    return numeric_design(X, t, e, standardize=standardize)


def random_params(rng, k, p, scale=0.4):
    return rng.normal(scale=scale, size=(k, p)), rng.normal(scale=scale, size=k)


def test_objective_matches_naive_loops():
    design = censored_design(seed=1)
    grid = make_grid(design, 4)
    rng = np.random.default_rng(2)
    for _ in range(5):
        W, b = random_params(rng, 4, design.p)
        interval = grid.interval_of(design.times)
        obj, _, _ = _objective_and_grad(design.X, interval, design.events == 1,
                                        W, b, l2=0.7)
        ref = naive_objective(design.X, design.times, design.events,
                              grid.boundaries, W, b, l2=0.7)
        assert obj == pytest.approx(ref, rel=1e-12)


def test_gradient_matches_finite_differences_of_naive_objective():
    design = censored_design(seed=3, n=30, p=3)
    grid = make_grid(design, 4)
    rng = np.random.default_rng(4)
    W, b = random_params(rng, 4, design.p)
    interval = grid.interval_of(design.times)
    _, gw, gb = _objective_and_grad(design.X, interval, design.events == 1,
                                    W, b, l2=0.5)
    h = 1e-6
    for k in range(4):
        for j in range(design.p):
            Wp, Wm = W.copy(), W.copy()
            Wp[k, j] += h
            Wm[k, j] -= h
            fd = (
                naive_objective(design.X, design.times, design.events,
                                grid.boundaries, Wp, b, 0.5)
                - naive_objective(design.X, design.times, design.events,
                                  grid.boundaries, Wm, b, 0.5)
            ) / (2 * h)
            assert gw[k, j] == pytest.approx(fd, abs=1e-5)
        bp, bm = b.copy(), b.copy()
        bp[k] += h
        bm[k] -= h
        fd = (
            naive_objective(design.X, design.times, design.events,
                            grid.boundaries, W, bp, 0.5)
            - naive_objective(design.X, design.times, design.events,
                              grid.boundaries, W, bm, 0.5)
        ) / (2 * h)
        assert gb[k] == pytest.approx(fd, abs=1e-5)


def test_hessian_matches_finite_differences():
    design = censored_design(seed=3, n=30, p=3)
    assert (design.events == 0).any()
    grid = make_grid(design, 4)
    interval = grid.interval_of(design.times)
    is_event = design.events == 1
    W, b = random_params(np.random.default_rng(4), 4, design.p)
    theta = np.column_stack([W, b]).ravel()

    def grad(t):
        t = t.reshape(4, design.p + 1)
        _, gw, gb = _objective_and_grad(design.X, interval, is_event, t[:, :-1], t[:, -1], 0.5)
        return np.column_stack([gw, gb]).ravel()

    hess = _hessian(design.X, interval, is_event, W, b, 0.5)
    h = 1e-5
    for j in range(theta.size):
        ej = np.zeros(theta.size)
        ej[j] = h
        fd_col = (grad(theta + ej) - grad(theta - ej)) / (2 * h)
        np.testing.assert_allclose(hess[:, j], fd_col, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("seed", range(6))
def test_mtlr_converges_on_default_cohort(seed):
    cohort, _ = generate(GeneratorConfig(seed=seed))
    train, _ = split(cohort, 0.3, seed)
    model = MODELS["mtlr"].fit(encode(train, standardize=True), model_options("mtlr", {}), 0)
    assert model.convergence.converged
    assert model.convergence.iterations <= 10


def zero_model(k, p, boundaries=None):
    if boundaries is None:
        boundaries = np.arange(1.0, k + 1.0)
    return MtlrModel(
        weights=np.zeros((k, p)),
        biases=np.zeros(k),
        grid=TimeGrid(boundaries=boundaries),
        l2=1.0,
        column_names=[f"x{j}" for j in range(p)],
        convergence=Convergence(True, 0, 0.0),
    )


def test_pmf_rows_are_simplex():
    rng = np.random.default_rng(5)
    model = MtlrModel(
        weights=rng.normal(size=(6, 4)),
        biases=rng.normal(size=6),
        grid=TimeGrid(boundaries=np.linspace(1, 6, 6)),
        l2=1.0,
        column_names=[f"x{j}" for j in range(4)],
        convergence=Convergence(True, 0, 0.0),
    )
    X = rng.normal(size=(500, 4)) * 3
    p = predict_pmf(model, X)
    assert p.shape == (500, 7)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_zero_model_is_exactly_uniform():
    model = zero_model(k=5, p=3)
    p = predict_pmf(model, np.random.default_rng(0).normal(size=(20, 3)))
    assert np.all(p == 1.0 / 6.0)


@given(st.integers(2, 8), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_zero_model_uniform_for_any_shape(k, p):
    model = zero_model(k=k, p=p)
    pm = predict_pmf(model, np.ones((3, p)))
    assert np.all(pm == 1.0 / (k + 1))


def test_grid_quantile_oracle():
    design = censored_design(seed=6, n=80)
    grid = make_grid(design, 2)
    etimes = design.times[design.events == 1]
    assert grid.boundaries[0] == pytest.approx(np.median(etimes))
    assert grid.boundaries[1] == etimes.max()


def test_grid_from_cohort_or_design_identical():
    from conftest import numeric_cohort

    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 2))
    t = rng.exponential(1, 50)
    e = np.ones(50, dtype=int)
    c = numeric_cohort(X, t, e)
    d = numeric_design(X, t, e)
    # the grid reads only the outcomes, so the cohort's encoding is irrelevant
    np.testing.assert_array_equal(make_grid(encode(c, standardize=True), 5).boundaries,
                                  make_grid(d, 5).boundaries)


def test_grid_errors():
    design = numeric_design([[0.0]] * 4, [1.0, 1.0, 2.0, 3.0], [1, 1, 1, 0])
    with pytest.raises(ValueError, match="smaller k"):
        make_grid(design, 4)  # only 3 distinct event times
    with pytest.raises(ValueError, match=">= 2"):
        make_grid(design, 1)


def test_interval_of_boundary_opens_interval():
    grid = TimeGrid(boundaries=np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(
        grid.interval_of([0.5, 1.0, 1.5, 3.0, 99.0]), [0, 1, 1, 3, 3]
    )


def test_fit_improves_on_zero_model():
    design = censored_design(seed=8, n=60)
    grid = make_grid(design, 4)
    model = fit_mtlr(design, grid, l2=1.0, max_iter=500)
    interval = grid.interval_of(design.times)
    obj_zero, _, _ = _objective_and_grad(
        design.X, interval, design.events == 1,
        np.zeros((4, design.p)), np.zeros(4), 1.0
    )
    obj_fit, _, _ = _objective_and_grad(
        design.X, interval, design.events == 1,
        model.weights, model.biases, 1.0
    )
    assert obj_fit > obj_zero


def test_l2_ladder_shrinks_weights():
    design = censored_design(seed=9, n=80)
    grid = make_grid(design, 4)
    norms = []
    for l2 in (0.1, 1.0, 10.0, 100.0):
        m = fit_mtlr(design, grid, l2=l2, max_iter=800)
        norms.append(float(np.linalg.norm(m.weights)))
    assert norms == sorted(norms, reverse=True)


def test_recovers_planted_ranking():
    rng = np.random.default_rng(10)
    n = 400
    x = rng.normal(size=(n, 1))
    t = rng.exponential(1.0 / np.exp(1.2 * x[:, 0]))
    e = np.ones(n, dtype=int)
    design = numeric_design(x, t, e, standardize=True)
    model = fit_mtlr(design, make_grid(design, 5), l2=1.0)
    r = mtlr_risk(model, design)
    assert concordance_index(t, e, r).cindex > 0.65
    # higher covariate = higher hazard = higher risk score
    assert np.corrcoef(x[:, 0], r)[0, 1] > 0.5


def test_risk_is_negative_expected_interval():
    design = censored_design(seed=11)
    model = fit_mtlr(design, make_grid(design, 3), l2=1.0, max_iter=50)
    p = predict_pmf(model, design.X)
    expected = -(p * np.arange(4)).sum(axis=1)
    np.testing.assert_allclose(mtlr_risk(model, design), expected, rtol=1e-12)


def test_survival_curve_tail_sums():
    model = zero_model(k=4, p=2)
    p = predict_pmf(model, np.zeros((1, 2)))[0]
    tail = np.cumsum(p[::-1])[::-1]  # S before boundary 1, then at boundaries 1..4
    # uniform over 5 intervals: tail past boundary k is (4-k)/5
    np.testing.assert_allclose(tail[1:], [4 / 5, 3 / 5, 2 / 5, 1 / 5])
    assert tail[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(tail) < 0)


def test_l2_zero_rejected():
    design = censored_design(seed=12)
    with pytest.raises(ValueError, match="l2"):
        fit_mtlr(design, make_grid(design, 3), l2=0.0)


def test_serialization_round_trip():
    design = censored_design(seed=13, standardize=True)  # as `fit` encodes for MTLR
    model = fit_mtlr(design, make_grid(design, 3), l2=1.0, max_iter=100)
    back = reloaded("mtlr", model, design)
    np.testing.assert_array_equal(back.weights, model.weights)
    np.testing.assert_allclose(mtlr_risk(back, design), mtlr_risk(model, design))


def test_feature_weights_sorted_and_complete():
    design = censored_design(seed=14, p=4)
    model = fit_mtlr(design, make_grid(design, 3), l2=1.0, max_iter=200)
    rows = feature_weights(model)
    assert [r["variable"] for r in rows] != []
    assert {r["variable"] for r in rows} == set(design.names)
    mags = [abs(r["aggregate_weight"]) for r in rows]
    assert mags == sorted(mags, reverse=True)
    assert all(len(r["per_interval"]) == 3 for r in rows)

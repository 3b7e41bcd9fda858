"""Ranking SVM: the primal objective against a pair-by-pair sum, kernel
algebra, the Newton-CG system against finite differences, the gradient
at convergence, and the linear-kernel fit against a dense all-pairs
reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survbench.bench import MODELS, model_options
from survbench.data import encode, split
from survbench.datagen import GeneratorConfig, generate
from survbench.ksvm import (
    KernelSpec,
    _laplacian,
    _primal,
    fit_ksvm,
    kernel_matrix,
    ksvm_from_dict,
    ksvm_risk,
    ksvm_to_dict,
)
from survbench.metrics import concordance_index
from survbench.riskset import comparable_blocks

from conftest import numeric_design


def brute_pairs(times, events):
    out = []
    n = len(times)
    for i in range(n):
        for j in range(n):
            if times[i] < times[j] and events[i] == 1:
                out.append((i, j))
    return out


def brute_pair_loss(f, times, events, c):
    """c/(2|P|) * sum of squared hinges at scores f, and its f-gradient,
    summed pair by pair."""
    pairs = brute_pairs(times, events)
    g = np.zeros(len(f))
    loss = 0.0
    for i, j in pairs:
        r = max(0.0, 1.0 - (f[i] - f[j]))
        loss += r * r
        g[i] -= r
        g[j] += r
    s = c / len(pairs)
    return 0.5 * s * loss, s * g


def model_objective(model, d, c):
    """J at a fitted model, from its support rows and coefficients."""
    ks = kernel_matrix(model.kernel, model.support_rows, model.support_rows)
    quad = model.coefficients @ ks @ model.coefficients if model.coefficients.size else 0.0
    return 0.5 * quad + brute_pair_loss(ksvm_risk(model, d), d.times, d.events, c)[0]


@given(
    st.lists(st.integers(1, 6), min_size=2, max_size=25),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_objective_matches_brute_force_pair_sum(times, data):
    # integer times tie often; censored rows only ever rank second
    n = len(times)
    events = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    d = numeric_design(rng.normal(size=(n, 2)), np.asarray(times, float), events)
    spec, c = KernelSpec("rbf", gamma=0.5), 7.0
    if not brute_pairs(times, events):
        with pytest.raises(ValueError, match="comparable"):
            _primal(d, spec, c)
        return
    beta = rng.normal(size=n)
    value, grad, _ = _primal(d, spec, c)(beta)
    K = kernel_matrix(spec, d.X, d.X)
    loss, g = brute_pair_loss(K @ beta, times, events, c)
    assert -value == pytest.approx(0.5 * beta @ K @ beta + loss, rel=1e-12)
    np.testing.assert_allclose(-grad, K @ (beta + g), rtol=1e-10, atol=1e-12)


# --- kernels ---------------------------------------------------------------


def test_linear_kernel_is_gram():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
    np.testing.assert_allclose(kernel_matrix(KernelSpec("linear"), a, b), a @ b.T)


def test_polynomial_kernel_matches_direct_loop():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
    spec = KernelSpec("polynomial", degree=3, coef0=1.5)
    K = kernel_matrix(spec, a, b)
    for i in range(4):
        for j in range(3):
            assert K[i, j] == pytest.approx((a[i] @ b[j] + 1.5) ** 3, rel=1e-12)


def test_rbf_kernel_properties():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(30, 4))
    K = kernel_matrix(KernelSpec("rbf", gamma=0.7), a, a)
    np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-14)
    np.testing.assert_allclose(K, K.T, atol=1e-14)
    assert np.all(K > 0) and np.all(K <= 1.0 + 1e-14)
    # positive semidefinite
    assert np.linalg.eigvalsh(K).min() > -1e-10


@pytest.mark.parametrize("m", [6, 4], ids=["square", "rectangular"])
def test_rbf_kernel_matches_direct_formula(m):
    # kernel_matrix builds the result in one buffer; the arithmetic is the
    # direct formula's, so the values are bit-identical
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 3))
    b = a if m == 6 else rng.normal(size=(m, 3))
    sq = (a * a).sum(axis=1)[:, None] - 2.0 * (a @ b.T) + (b * b).sum(axis=1)[None, :]
    want = np.exp(-0.7 * np.maximum(sq, 0.0))
    assert np.array_equal(kernel_matrix(KernelSpec("rbf", gamma=0.7), a, b), want)


def test_rbf_default_gamma_is_reciprocal_width():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 5))
    got = kernel_matrix(KernelSpec("rbf", gamma=None), a, a)
    want = kernel_matrix(KernelSpec("rbf", gamma=1.0 / 5.0), a, a)
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("sigmoid")
    with pytest.raises(ValueError):
        KernelSpec("rbf", gamma=0.0)
    with pytest.raises(ValueError):
        KernelSpec("polynomial", degree=0)
    with pytest.raises(ValueError, match="coef0"):
        KernelSpec("polynomial", coef0=-0.5)


# --- fitting ---------------------------------------------------------------


def ordered_design(seed=0, n=30, noise=0.0):
    """Times inversely ordered in x: higher x should score higher."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.normal(size=n))
    t = np.argsort(-x).argsort() + 1.0  # rank order: biggest x = time 1
    if noise:
        t = t + rng.normal(scale=noise, size=n)
    return numeric_design(x[:, None], t, np.ones(n, dtype=int))


def test_separable_one_dimensional_fixture():
    d = ordered_design(seed=1, n=25)
    model = fit_ksvm(d, KernelSpec("linear"), c=1.0, max_iter=200, tol=1e-4)
    r = ksvm_risk(model, d)
    assert concordance_index(d.times, d.events, r).cindex == 1.0
    assert model.convergence.converged


def test_hessian_vector_product_matches_finite_differences():
    # the Newton-CG system's operator K + s K L K against central
    # differences of the gradient along v
    rng = np.random.default_rng(2)
    d = numeric_design(rng.normal(size=(20, 2)), rng.integers(1, 8, 20).astype(float),
                       rng.integers(0, 2, 20))
    spec, c = KernelSpec("rbf", gamma=0.5), 30.0
    K = kernel_matrix(spec, d.X, d.X)
    s = c / len(brute_pairs(d.times, d.events))
    objective = _primal(d, spec, c)
    beta, v = rng.normal(size=d.n), rng.normal(size=d.n)
    lap = _laplacian(list(comparable_blocks(d.times, d.events)), K @ beta)
    hv = K @ v + s * K @ lap(K @ v)
    eps = 1e-6
    fd = (objective(beta - eps * v)[1] - objective(beta + eps * v)[1]) / (2 * eps)
    np.testing.assert_allclose(hv, fd, rtol=1e-6, atol=1e-8)


def test_objective_monotone_across_newton_steps():
    d = ordered_design(seed=3, n=25, noise=2.0)
    spec, c = KernelSpec("rbf", gamma=1.0), 50.0
    h = [model_objective(fit_ksvm(d, spec, c=c, max_iter=k, tol=1e-12), d, c)
         for k in range(6)]
    assert h[0] == pytest.approx(c / 2)  # beta = 0: every margin is 1
    assert all(b <= a * (1 + 1e-12) for a, b in zip(h, h[1:]))
    assert h[-1] < h[0]


@pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.5)],
                         ids=["linear", "rbf"])
def test_gradient_vanishes_at_convergence(spec):
    d = ordered_design(seed=4, n=22, noise=1.0)
    tol, c = 1e-4, 20.0
    model = fit_ksvm(d, spec, c=c, max_iter=100, tol=tol)
    assert model.convergence.converged
    assert model.convergence.gradient_norm <= tol
    # the gradient K beta + K g = f + K g, recomputed pair by pair from the scores
    f = ksvm_risk(model, d)
    grad = f + kernel_matrix(spec, d.X, d.X) @ brute_pair_loss(f, d.times, d.events, c)[1]
    assert np.abs(grad).max() <= tol + 1e-9


def test_linear_kernel_matches_all_pairs_reference():
    # with K = X X', J is 0.5|w|^2 + s/2 sum max(0, 1 - (x_i - x_j).w)^2 in
    # w = X' beta; solve that by dense Newton over an explicit pair list
    rng = np.random.default_rng(5)
    X = rng.normal(size=(18, 2))
    t = np.exp(-X @ [1.0, -0.5] + rng.normal(scale=1.0, size=18))
    d = numeric_design(X, t, rng.integers(0, 2, 18) | (np.arange(18) < 6))
    c = 40.0
    pairs = brute_pairs(d.times, d.events)
    D = np.array([d.X[i] - d.X[j] for i, j in pairs])
    s = c / len(pairs)
    w = np.zeros(d.p)
    for _ in range(50):
        m = D @ w
        act = m < 1.0
        grad = w - s * D[act].T @ (1.0 - m[act])
        if np.abs(grad).max() < 1e-13:
            break
        w = w - np.linalg.solve(np.eye(d.p) + s * D[act].T @ D[act], grad)
    assert np.abs(grad).max() < 1e-13
    model = fit_ksvm(d, KernelSpec("linear"), c=c, max_iter=100, tol=1e-10)
    assert model.convergence.converged
    np.testing.assert_allclose(ksvm_risk(model, d), d.X @ w, rtol=1e-7, atol=1e-9)


def test_vanishing_c_kills_scores():
    d = ordered_design(seed=6, n=20)
    model = fit_ksvm(d, KernelSpec("linear"), c=1e-9, max_iter=30)
    assert np.max(np.abs(ksvm_risk(model, d))) < 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_ksvm_converges_on_default_cohort(seed):
    cohort, _ = generate(GeneratorConfig(seed=seed))
    train, _ = split(cohort, 0.3, seed)
    model = MODELS["ksvm"].fit(encode(train, standardize=True), model_options("ksvm", {}), 0)
    assert model.convergence.converged
    assert model.convergence.iterations <= 20


def test_no_comparable_pairs_raises():
    d = numeric_design([[1.0], [2.0]], [5.0, 5.0], [1, 1])
    with pytest.raises(ValueError, match="comparable"):
        fit_ksvm(d, KernelSpec("linear"))
    d2 = numeric_design([[1.0], [2.0]], [1.0, 2.0], [0, 0])
    with pytest.raises(ValueError, match="comparable"):
        fit_ksvm(d2, KernelSpec("linear"))


def test_risk_equals_per_row_score():
    d = ordered_design(seed=8, n=15, noise=1.0)
    model = fit_ksvm(d, KernelSpec("rbf", gamma=0.8), max_iter=20)
    r = ksvm_risk(model, d)
    for i in (0, 4, 14):
        row = numeric_design(d.X[i:i + 1], d.times[i:i + 1], d.events[i:i + 1])
        assert r[i] == pytest.approx(ksvm_risk(model, row)[0], rel=1e-12)


def test_risk_validates_columns():
    d = ordered_design(seed=9)
    model = fit_ksvm(d, KernelSpec("linear"), max_iter=5)
    other = numeric_design(np.zeros((2, 2)), [1.0, 2.0], [1, 1])
    with pytest.raises(ValueError):
        ksvm_risk(model, other)


def test_learns_planted_nonlinear_signal():
    rng = np.random.default_rng(10)
    n = 150
    X = rng.normal(size=(n, 2))
    risk = X[:, 0] ** 2  # symmetric in x0: linear model can't rank this
    t = rng.exponential(1.0 / np.exp(risk))
    d = numeric_design(X, t, np.ones(n, dtype=int), standardize=True)
    model = fit_ksvm(d, KernelSpec("rbf", gamma=1.0), max_iter=40)
    c_rbf = concordance_index(d.times, d.events, ksvm_risk(model, d)).cindex
    assert c_rbf > 0.65


def test_serialization_round_trip_all_kernels():
    d = ordered_design(seed=11, n=16, noise=1.0)
    for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.5),
                 KernelSpec("polynomial", degree=2, coef0=1.0)):
        model = fit_ksvm(d, spec, max_iter=15)
        back = ksvm_from_dict(ksvm_to_dict(model))
        np.testing.assert_allclose(ksvm_risk(back, d), ksvm_risk(model, d),
                                   rtol=1e-15)


def test_serialization_with_empty_support():
    d = ordered_design(seed=12, n=10)
    model = fit_ksvm(d, KernelSpec("linear"), c=1e-12, max_iter=2)
    if model.support_rows.shape[0] == 0:
        back = ksvm_from_dict(ksvm_to_dict(model))
        np.testing.assert_array_equal(ksvm_risk(back, d), np.zeros(d.n))

"""Ranking SVM: the primal objective against a pair-by-pair sum, the pair
terms read from sorted scores against a dense mask, kernel algebra, the
Newton-CG system against finite differences, the gradient at convergence,
the linear-kernel fit against a dense all-pairs reference, and the fit's
memory beside the Gram matrix."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from survbench import riskset
from survbench.bench import MODELS, model_from_dict, model_options, model_to_dict
from survbench.data import Cohort, Column, CovariateSchema, encode, encode_like, split
from survbench.datagen import GeneratorConfig, generate
from survbench.ksvm import (
    KernelSpec,
    _pair_terms,
    _primal,
    fit_ksvm,
    kernel_matrix,
    ksvm_risk,
)
from survbench.metrics import concordance_index
from survbench.riskset import pair_blocks

from conftest import numeric_design, reloaded


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


def dense_pair_terms(times, events, f):
    """The squared-hinge sum, half its f-gradient and the Laplacian at scores f,
    from the dense mask of the active pairs (event i, T_i < T_j, f_i - f_j < 1.0)."""
    active = (events[:, None] == 1) & (times[:, None] < times) & (f[:, None] - f < 1.0)
    r = np.where(active, 1.0 - f[:, None] + f, 0.0)
    laplacian = np.diag(active.sum(axis=1) + active.sum(axis=0)) - active - active.T
    return float(np.vdot(r, r)), r.sum(axis=0) - r.sum(axis=1), laplacian


@st.composite
def boundary_scores(draw, n):
    """n scores drawn from x, x + 1 and their nextafter neighbours: many pairs
    sit at f_i - f_j == 1.0 or one rounding step either side of it."""
    x = draw(st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0, 3.0]),
                       st.floats(-4.0, 4.0, allow_nan=False)))
    pool = [v for base in (x, x + 1.0) for v in (np.nextafter(base, -np.inf), base,
                                                 np.nextafter(base, np.inf))]
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


@given(st.lists(st.integers(1, 6), min_size=2, max_size=40), st.integers(1, 7), st.data())
@settings(max_examples=200, deadline=None)
def test_pair_terms_match_a_dense_mask(times, block, data):
    # tied times, censored rows, and blocks of a few event rows, so that most
    # pairs go through the sorted rows after a block; the active set is compared
    # bit for bit through the Laplacian's entries, each a count of pairs
    n = len(times)
    times = np.asarray(times, dtype=float)
    events = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    f = data.draw(boundary_scores(n))
    v = np.asarray(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    with mock.patch.object(riskset, "BLOCK", block):
        loss, g, laplacian = _pair_terms(list(pair_blocks(times, events)), f)
    want_loss, want_g, want_laplacian = dense_pair_terms(times, events, f)
    assert np.array_equal(np.column_stack([laplacian(e) for e in np.eye(n)]), want_laplacian)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(g, want_g, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(laplacian(v), want_laplacian @ v, rtol=1e-12, atol=1e-12)


def test_fit_holds_little_beside_the_gram_matrix():
    # the pair work keeps no (event rows x n) array: the traced peak of a fit on
    # the default generated cohort is the Gram matrix's bytes and at most 1.5 MB more
    cohort, _ = generate(GeneratorConfig(n=1000))
    design = encode(cohort, standardize=True)
    tracemalloc.start()
    try:
        fit_ksvm(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= design.n**2 * 8 + 1_500_000


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


def ordered_design(seed=0, n=30, noise=0.0, standardize=False):
    """Times inversely ordered in x: higher x should score higher."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.normal(size=n))
    t = np.argsort(-x).argsort() + 1.0  # rank order: biggest x = time 1
    if noise:
        t = t + rng.normal(scale=noise, size=n)
    return numeric_design(x[:, None], t, np.ones(n, dtype=int), standardize=standardize)


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
    lap = _pair_terms(list(pair_blocks(d.times, d.events)), K @ beta)[2]
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
    d = ordered_design(seed=11, n=16, noise=1.0, standardize=True)  # as `fit` encodes for KSVM
    raw = ordered_design(seed=11, n=16, noise=1.0).X
    for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.5),
                 KernelSpec("polynomial", degree=2, coef0=1.0)):
        model = fit_ksvm(d, spec, max_iter=15)
        back = reloaded("ksvm", model, d, raw)
        np.testing.assert_array_equal(ksvm_risk(back, d), ksvm_risk(model, d))


def test_serialization_with_empty_support():
    d = ordered_design(seed=12, n=10, standardize=True)
    model = fit_ksvm(d, KernelSpec("linear"), c=1e-12, max_iter=2)
    assert model.support_rows.shape == (0, 1)  # written as "raw_support_rows": []
    back = reloaded("ksvm", model, d, ordered_design(seed=12, n=10).X)
    assert back.support_rows.shape == (0, 1)
    np.testing.assert_array_equal(ksvm_risk(back, d), np.zeros(d.n))


LEVELS = ("a", "b", "c")
# whole numbers, both zeros and fractions, as a CSV's numeric cells hold them
CELLS = st.one_of(st.integers(-3, 3).map(float), st.just(-0.0),
                  st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False))


@st.composite
def mixed_cohorts(draw, n):
    """A cohort of `n` rows with two numeric columns and one categorical."""
    schema = CovariateSchema((Column("x", "numeric"), Column("g", "categorical", LEVELS),
                              Column("z", "numeric")))
    cells = {"x": draw(st.lists(CELLS, min_size=n, max_size=n)),
             "g": draw(st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n)),
             "z": draw(st.lists(CELLS, min_size=n, max_size=n))}
    times = draw(st.lists(st.integers(1, 20).map(float), min_size=n, max_size=n))
    events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return Cohort(schema, cells, times, events)


@given(mixed_cohorts(12), mixed_cohorts(6),
       st.sampled_from([KernelSpec("linear"), KernelSpec("rbf"), KernelSpec("rbf", gamma=0.5),
                        KernelSpec("polynomial", degree=2, coef0=1.0)]),
       st.integers(0, 3), st.sampled_from([1e-12, 10.0, 10_000.0]))
@settings(max_examples=60, deadline=None)
def test_ksvm_file_standardizes_its_raw_rows_to_the_fitted_bits(cohort, held_out, kernel,
                                                                max_iter, c):
    # the file holds the support rows raw and a load standardizes them with the
    # file's means and sds: the reloaded model scores the training rows and a
    # held-out cohort bit for bit as the fitted one does, with no support row too
    try:
        design = encode(cohort, standardize=True)
        model = fit_ksvm(design, kernel, c=c, max_iter=max_iter)
    except ValueError:  # a constant design column, or no comparable pair
        assume(False)
    raw = encode(cohort).X
    doc = json.loads(json.dumps(model_to_dict("ksvm", model, design, raw)))
    written = np.array(doc["raw_support_rows"], dtype=float).reshape(-1, design.p)
    assert written.tobytes() == raw[model.support].tobytes()  # -0.0 included
    _, back, template = model_from_dict(doc, "ksvm.json")
    assert back.support_rows.shape == model.support_rows.shape
    assert back.support_rows.tobytes() == model.support_rows.tobytes()
    for part in (cohort, held_out):
        fitted, loaded = encode_like(part, design), encode_like(part, template)
        assert ksvm_risk(back, loaded).tobytes() == ksvm_risk(model, fitted).tobytes()

"""The shared risk-set record and Breslow likelihood: counts against brute
force on tied, censored samples, the sorted-rows constructor against the
sorting one, invariance of every consumer under row permutation, Cox
and DeepSurv tied to one likelihood, and the comparable-pair blocks on
cohorts that span more than one block."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survbench.cox import cox_loglik_grad_hess
from survbench.deepsurv import cox_nll_loss
from survbench.metrics import concordance_brute, concordance_index
from survbench.nonparametric import kaplan_meier, nelson_aalen
from survbench.riskset import (BLOCK, RiskSets, comparable_blocks, risk_set_sums, risk_sets,
                               sorted_risk_sets)

from conftest import numeric_design


@st.composite
def tied_sample(draw):
    """Times drawn from a few values, so ties are common, with censoring
    and at least one event; two covariates per row."""
    n = draw(st.integers(2, 40))
    pool = draw(st.lists(st.floats(0.1, 20.0), min_size=1, max_size=6, unique=True))
    times = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    events[draw(st.integers(0, n - 1))] = 1
    seed = draw(st.integers(0, 2**32 - 1))
    perm_seed = draw(st.integers(0, 2**32 - 1))
    X = np.random.default_rng(seed).normal(size=(n, 2))
    return np.asarray(times), np.asarray(events), X, np.random.default_rng(perm_seed)


@given(tied_sample())
@settings(max_examples=100, deadline=None)
def test_counts_match_brute_force(sample):
    t, e, _, _ = sample
    rs = risk_sets(t, e)
    assert rs.times.tolist() == sorted(set(t.tolist()))
    for k, u in enumerate(rs.times):
        assert rs.n_at_risk[k] == int((t >= u).sum())
        assert rs.n_events[k] == int(((t == u) & (e == 1)).sum())
        assert t[rs.order][rs.starts[k]] == u
    assert np.all(np.diff(t[rs.order]) >= 0)
    assert np.array_equal(rs.is_event, e[rs.order] == 1)
    ones = np.ones(t.size)
    assert np.array_equal(risk_set_sums(rs, ones), rs.n_at_risk)


@given(tied_sample(), st.data())
@settings(max_examples=100, deadline=None)
def test_sorted_rows_give_the_risk_sets_of_their_sample(sample, data):
    # a tree node: a subset of the stably time-sorted rows, in that order
    t, e, _, _ = sample
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=t.size, max_size=t.size)))
    keep[data.draw(st.integers(0, t.size - 1))] = True
    node = np.argsort(t, kind="stable")[keep]
    got = sorted_risk_sets(t[node], e[node], node)
    sample_rows = np.sort(node)  # the same node sample in input order
    want = risk_sets(t[sample_rows], e[sample_rows])
    for f in fields(RiskSets):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "order":
            b = sample_rows[b]
        assert a.dtype == b.dtype, f.name
        assert np.array_equal(a, b), f.name


@given(tied_sample())
@settings(max_examples=100, deadline=None)
def test_consumers_invariant_under_row_permutation(sample):
    t, e, X, rng = sample
    perm = rng.permutation(t.size)
    for estimator in (kaplan_meier, nelson_aalen):
        a, b = estimator(t, e), estimator(t[perm], e[perm])
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)
    beta = np.array([0.3, -0.7])
    ll, grad, hess = cox_loglik_grad_hess(numeric_design(X, t, e), beta)
    llp, gradp, hessp = cox_loglik_grad_hess(numeric_design(X[perm], t[perm], e[perm]), beta)
    assert llp == pytest.approx(ll, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(gradp, grad, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(hessp, hess, rtol=1e-12, atol=1e-12)
    g = X @ beta
    loss, dg = cox_nll_loss(g, t, e)
    lossp, dgp = cox_nll_loss(g[perm], t[perm], e[perm])
    assert lossp == pytest.approx(loss, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(dgp, dg[perm], rtol=1e-12, atol=1e-12)


@given(tied_sample())
@settings(max_examples=100, deadline=None)
def test_cox_and_deepsurv_share_one_likelihood(sample):
    t, e, X, _ = sample
    design = numeric_design(X, t, e)
    beta = np.array([-0.4, 0.9])
    ll, grad, _ = cox_loglik_grad_hess(design, beta)
    loss, dg = cox_nll_loss(design.X @ beta, t, e)
    n_events = int(e.sum())
    assert ll == pytest.approx(-n_events * loss, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(grad, design.X.T @ (-n_events * dg), rtol=1e-12, atol=1e-12)


def test_hessian_matches_per_risk_set_form():
    # the per-row form sum_j w_j c_j x_j x_j^T equals the per-risk-set
    # form sum_g d_g (sum over R_g of w x x^T / W_g), on a tied sample
    rng = np.random.default_rng(4)
    n = 25
    X = rng.normal(size=(n, 3))
    t = rng.integers(1, 6, size=n).astype(float)
    e = (rng.uniform(size=n) < 0.6).astype(int)
    design = numeric_design(X, t, e)
    beta = np.array([0.5, -0.2, 0.3])
    _, _, hess = cox_loglik_grad_hess(design, beta)
    w = np.exp(design.X @ beta)
    ref = np.zeros((3, 3))
    for u in np.unique(t[e == 1]):
        at_risk = t >= u
        d = int(((t == u) & (e == 1)).sum())
        W = w[at_risk].sum()
        xbar = (w[at_risk] @ design.X[at_risk]) / W
        second = (design.X[at_risk].T * w[at_risk]) @ design.X[at_risk] / W
        ref -= d * (second - np.outer(xbar, xbar))
    np.testing.assert_allclose(hess, ref, rtol=1e-12, atol=1e-12)


def test_empty_sample_rejected():
    with pytest.raises(ValueError, match="empty"):
        risk_sets([], [])


@st.composite
def many_events(draw):
    """More than BLOCK events, so a partial last block, among a few
    censored rows; times and scores from a few values, so both tie often."""
    k = draw(st.integers(BLOCK + 1, 2 * BLOCK + 40).filter(lambda k: k % BLOCK))
    n = k + draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = rng.integers(1, draw(st.integers(3, 10)), size=n).astype(float)
    scores = rng.integers(0, draw(st.integers(1, 6)), size=n) / 2.0
    events = rng.permutation(np.arange(n) < k).astype(int)
    return times, events, scores


@given(many_events())
@settings(max_examples=20, deadline=None)
def test_blocks_hold_each_comparable_pair_once(cohort):
    t, e, _ = cohort
    blocks = list(comparable_blocks(t, e))
    assert [rows.size for rows, _ in blocks[:-1]] == [BLOCK] * (len(blocks) - 1)
    np.testing.assert_array_equal(np.concatenate([rows for rows, _ in blocks]),
                                  np.flatnonzero(e == 1))
    got = [(int(rows[a]), int(j)) for rows, later in blocks for a, j in np.argwhere(later)]
    want = [(i, j) for i in range(t.size) if e[i] == 1 for j in range(t.size) if t[i] < t[j]]
    assert sorted(got) == want


@given(many_events())
@settings(max_examples=20, deadline=None)
def test_cindex_over_several_blocks_equals_brute(cohort):
    got, ref = concordance_index(*cohort), concordance_brute(*cohort)
    assert (got.concordant, got.discordant, got.tied_risk, got.comparable) == (
        ref.concordant, ref.discordant, ref.tied_risk, ref.comparable)

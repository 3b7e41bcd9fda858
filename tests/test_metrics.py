"""Concordance: the fast ranked accumulation must agree exactly with the
quadratic reference on arbitrary censored data, and obey the usual
symmetries."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survbench import riskset
from survbench.metrics import (
    ConcordanceResult,
    UndefinedMetricError,
    concordance_brute,
    concordance_index,
)


def test_perfectly_ranked():
    r = concordance_index([1.0, 2.0, 3.0], [1, 1, 1], [3.0, 2.0, 1.0])
    assert r.cindex == 1.0
    assert r.comparable == 3
    assert r.concordant == 3


def test_perfectly_misranked():
    r = concordance_index([1.0, 2.0, 3.0], [1, 1, 1], [1.0, 2.0, 3.0])
    assert r.cindex == 0.0
    assert r.discordant == 3


def test_score_ties_get_half_credit():
    r = concordance_index([1.0, 2.0], [1, 1], [5.0, 5.0])
    assert r.comparable == 1
    assert r.tied_risk == 1
    assert r.cindex == 0.5


def test_censored_earlier_subject_not_comparable():
    # the earlier subject is censored, so we never learn who "won"
    with pytest.raises(UndefinedMetricError):
        concordance_index([1.0, 2.0], [0, 1], [1.0, 0.0])


def test_tied_times_not_comparable():
    with pytest.raises(UndefinedMetricError):
        concordance_index([2.0, 2.0], [1, 1], [1.0, 0.0])


def test_comparable_count_without_censoring():
    n = 17
    rng = np.random.default_rng(0)
    t = rng.permutation(n) + 1.0
    r = concordance_index(t, np.ones(n, dtype=int), rng.normal(size=n))
    assert r.comparable == n * (n - 1) // 2


def test_censored_after_event_is_comparable():
    # event at 1 vs censored at 3: the event subject demonstrably failed first
    r = concordance_index([1.0, 3.0], [1, 0], [2.0, 1.0])
    assert r.comparable == 1
    assert r.cindex == 1.0


def test_bookkeeping_adds_up():
    rng = np.random.default_rng(3)
    t = rng.exponential(1, 60)
    e = (rng.uniform(size=60) < 0.6).astype(int)
    s = rng.normal(size=60)
    r = concordance_index(t, e, s)
    assert r.concordant + r.discordant + r.tied_risk == r.comparable


@st.composite
def scored_cohort(draw):
    n = draw(st.integers(2, 40))
    # integer grids force plenty of ties in both time and score
    times = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    scores = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return (
        np.asarray(times, dtype=float),
        np.asarray(events),
        np.asarray(scores, dtype=float),
    )


@given(scored_cohort(), st.integers(1, 7))
@settings(max_examples=300, deadline=None)
def test_fast_equals_brute(cohort, block):
    # blocks of a few event rows, so that most pairs go through the sorted scores after a block
    t, e, s = cohort
    try:
        ref = concordance_brute(t, e, s)
    except UndefinedMetricError:
        with pytest.raises(UndefinedMetricError):
            concordance_index(t, e, s)
        return
    with mock.patch.object(riskset, "BLOCK", block):
        got = concordance_index(t, e, s)
    assert got.concordant == ref.concordant
    assert got.discordant == ref.discordant
    assert got.tied_risk == ref.tied_risk
    assert got.comparable == ref.comparable
    assert got.cindex == ref.cindex


@given(scored_cohort(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_invariant_under_row_permutation(cohort, random):
    t, e, s = cohort
    perm = np.array(random.sample(range(t.size), t.size))
    try:
        ref = concordance_index(t, e, s)
    except UndefinedMetricError:
        with pytest.raises(UndefinedMetricError):
            concordance_index(t[perm], e[perm], s[perm])
        return
    got = concordance_index(t[perm], e[perm], s[perm])
    assert got.cindex == ref.cindex
    assert got.comparable == ref.comparable


def test_fast_equals_brute_fixed_sweep():
    rng = np.random.default_rng(123)
    for trial in range(200):
        n = int(rng.integers(2, 41))
        t = rng.choice(np.arange(1.0, 9.0), size=n)
        e = rng.integers(0, 2, size=n)
        s = np.round(rng.normal(size=n), 1)
        try:
            ref = concordance_brute(t, e, s)
        except UndefinedMetricError:
            continue
        got = concordance_index(t, e, s)
        assert (got.concordant, got.discordant, got.tied_risk, got.comparable) == (
            ref.concordant, ref.discordant, ref.tied_risk, ref.comparable
        ), f"trial {trial}"


def test_antisymmetry_under_score_negation():
    rng = np.random.default_rng(9)
    t = rng.exponential(1, 80)
    e = (rng.uniform(size=80) < 0.7).astype(int)
    s = rng.normal(size=80)  # continuous, no ties
    a = concordance_index(t, e, s)
    b = concordance_index(t, e, -s)
    assert a.cindex + b.cindex == pytest.approx(1.0, abs=1e-12)
    assert a.concordant == b.discordant


def test_monotone_transform_invariance():
    rng = np.random.default_rng(10)
    t = rng.exponential(1, 50)
    e = (rng.uniform(size=50) < 0.5).astype(int)
    s = rng.normal(size=50)
    base = concordance_index(t, e, s).cindex
    for f in (np.exp, lambda v: v**3, lambda v: 10 + 0.01 * v):
        assert concordance_index(t, e, f(s)).cindex == base


def test_random_scores_near_half():
    rng = np.random.default_rng(11)
    t = rng.exponential(1, 3000)
    e = (rng.uniform(size=3000) < 0.6).astype(int)
    s = rng.normal(size=3000)
    assert concordance_index(t, e, s).cindex == pytest.approx(0.5, abs=0.02)


def test_result_is_exact_fraction():
    r = ConcordanceResult(concordant=3, discordant=1, tied_risk=0, comparable=4)
    assert r.cindex == 0.75

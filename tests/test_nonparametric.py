"""Kaplan-Meier and Nelson-Aalen: hand-computed fixtures, the large
at-risk fixture with its known leading digits, and the structural
invariants (monotone, event-time knots only, ties resolved events-first).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survbench.nonparametric import kaplan_meier, nelson_aalen
from survbench.riskset import risk_sets

from conftest import numeric_cohort


def test_km_hand_fixture():
    # 4 subjects: events at 1, 2, 4; censored at 3
    km = kaplan_meier([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1])
    assert km.times.tolist() == [1.0, 2.0, 4.0]
    np.testing.assert_allclose(km.values, [3 / 4, 1 / 2, 0.0])
    assert km(0.5) == 1.0


def test_na_hand_fixture():
    na = nelson_aalen([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1])
    np.testing.assert_allclose(na.values, [1 / 4, 1 / 4 + 1 / 3, 1 / 4 + 1 / 3 + 1])
    assert na(0.0) == 0.0


def test_km_first_steps_of_large_cohort():
    # 395 at risk; survival after the first two distinct event times
    n = 395
    times = np.concatenate([[10.0, 20.0], np.full(n - 2, 1000.0)])
    events = np.concatenate([[1, 1], np.zeros(n - 2, dtype=int)])
    km = kaplan_meier(times, events)
    assert km(10.0) == pytest.approx(0.997468, abs=1e-5)
    assert km(20.0) == pytest.approx(0.994937, abs=1e-5)
    exact = (n - 1) / n
    assert km(10.0) == pytest.approx(exact, abs=1e-12)


def test_km_after_early_event_run():
    # 14 events spread to day 382 with everyone else still under
    # observation: the curve sits at 381/395 = 0.96456 at day 382
    n = 395
    ev_times = np.linspace(5.0, 382.0, 14)
    times = np.concatenate([ev_times, np.full(n - 14, 900.0)])
    events = np.concatenate([np.ones(14, dtype=int), np.zeros(n - 14, dtype=int)])
    km = kaplan_meier(times, events)
    assert km(382.0) == pytest.approx(0.96456, abs=5e-4)
    assert km(382.0) == pytest.approx((n - 14) / n, abs=1e-12)


def test_tied_event_and_censor_event_counts_first():
    # both see time 2.0; the censored subject is still in the risk set for
    # the event at 2.0, so the drop is 1/2, not to zero
    km = kaplan_meier([2.0, 2.0], [1, 0])
    assert km(2.0) == pytest.approx(0.5)


def test_knots_only_at_event_times():
    t = [1.0, 2.0, 3.0, 4.0, 5.0]
    e = [0, 1, 0, 1, 0]
    km = kaplan_meier(t, e)
    assert km.times.tolist() == [2.0, 4.0]
    na = nelson_aalen(t, e)
    assert na.times.tolist() == [2.0, 4.0]


def test_no_events_flat_curve():
    km = kaplan_meier([1.0, 2.0], [0, 0])
    assert km.times.size == 0
    assert km(5.0) == 1.0
    na = nelson_aalen([1.0, 2.0], [0, 0])
    assert na(5.0) == 0.0


def test_all_events_no_censoring_matches_empirical_survivor():
    rng = np.random.default_rng(2)
    t = rng.exponential(1.0, 200)
    km = kaplan_meier(t, np.ones(200, dtype=int))
    for q in np.quantile(t, [0.1, 0.5, 0.9]):
        assert km(q) == pytest.approx((t > q).mean(), abs=1e-12)


@st.composite
def survival_sample(draw):
    n = draw(st.integers(1, 60))
    times = draw(st.lists(st.floats(0.01, 50.0), min_size=n, max_size=n))
    events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.asarray(times), np.asarray(events)


@given(survival_sample())
@settings(max_examples=80)
def test_km_monotone_and_bounded(sample):
    t, e = sample
    km = kaplan_meier(t, e)
    assert np.all(km.values >= -1e-15) and np.all(km.values <= 1.0 + 1e-15)
    if km.values.size > 1:
        assert np.all(np.diff(km.values) <= 1e-15)


@given(survival_sample())
@settings(max_examples=80)
def test_na_monotone_nonnegative(sample):
    t, e = sample
    na = nelson_aalen(t, e)
    assert np.all(na.values >= 0)
    if na.values.size > 1:
        assert np.all(np.diff(na.values) >= -1e-15)


@given(survival_sample())
@settings(max_examples=80)
def test_exp_neg_na_dominates_km(sample):
    # exp(-A(t)) >= S(t) pointwise, with equality only for small hazards
    t, e = sample
    km = kaplan_meier(t, e)
    na = nelson_aalen(t, e)
    if km.times.size == 0:
        return
    vals_na = na(km.times)
    assert np.all(np.exp(-np.asarray(vals_na)) >= km.values - 1e-12)


def test_exp_neg_na_close_to_km_for_large_risk_sets():
    rng = np.random.default_rng(7)
    t = rng.exponential(2.0, 4000)
    e = (rng.uniform(size=4000) < 0.7).astype(int)
    km = kaplan_meier(t, e)
    na = nelson_aalen(t, e)
    grid = np.quantile(t, [0.2, 0.5, 0.8])
    for g in grid:
        assert np.exp(-na(g)) == pytest.approx(km(g), rel=5e-3)


def test_risk_sets_risk_table():
    c = numeric_cohort(np.zeros((5, 1)), [1.0, 2.0, 2.0, 3.0, 4.0], [1, 1, 1, 0, 1])
    rs = risk_sets(c.time, c.event)
    has = rs.n_events > 0
    assert rs.times[has].tolist() == [1.0, 2.0, 4.0]
    assert rs.n_at_risk[has].tolist() == [5, 4, 1]
    assert rs.n_events[has].tolist() == [1, 2, 1]
    km = kaplan_meier(c.time, c.event)
    assert km.times.tolist() == [1.0, 2.0, 4.0]
    np.testing.assert_allclose(km.values, [4 / 5, 4 / 5 * 2 / 4, 0.0])

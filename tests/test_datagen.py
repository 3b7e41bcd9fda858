"""Synthetic cohort generator: determinism, ground truth, marginals,
censoring calibration."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from survbench.bench import write_csv
from survbench.datagen import (
    DEFAULT_SCHEMA,
    POPULATION_MOMENTS,
    GeneratorConfig,
    HazardSpec,
    calibrate_censoring,
    generate,
    ground_truth_table,
    risk_of,
)
from survbench.nonparametric import kaplan_meier

from conftest import cohorts_equal


def test_generate_is_bit_identical():
    cfg = GeneratorConfig(n=500, seed=42)
    a_cohort, a_truth = generate(cfg)
    b_cohort, b_truth = generate(cfg)
    assert cohorts_equal(a_cohort, b_cohort)
    assert np.array_equal(a_truth.true_time, b_truth.true_time)
    assert np.array_equal(a_truth.true_risk, b_truth.true_risk)


def test_different_seeds_differ():
    a, _ = generate(GeneratorConfig(n=200, seed=1))
    b, _ = generate(GeneratorConfig(n=200, seed=2))
    assert not np.array_equal(a.time, b.time)
    assert not np.array_equal(a.covariates["Age"], b.covariates["Age"])


def test_censor_parameters_do_not_disturb_upstream_draws():
    # Covariates and event times are drawn before the censoring draws, and
    # the censor rate/horizon only parameterize those later draws, so
    # changing them must leave the covariates and ground truth untouched.
    base = GeneratorConfig(n=300, seed=7)
    a_cohort, a_truth = generate(base)
    b_cohort, b_truth = generate(replace(base, censor_rate=5.0, censor_horizon=0.5))
    assert np.array_equal(a_truth.true_time, b_truth.true_time)
    assert np.array_equal(a_truth.true_risk, b_truth.true_risk)
    for name in a_cohort.covariates:
        assert np.array_equal(a_cohort.covariates[name], b_cohort.covariates[name])
    assert not np.array_equal(a_cohort.event, b_cohort.event)


def test_observed_time_and_event_flag_are_consistent():
    cfg = GeneratorConfig(n=2000, seed=11)
    cohort, truth = generate(cfg)
    ev = cohort.event == 1
    # events observe the true time exactly; censored rows cut it short
    assert np.array_equal(cohort.time[ev], truth.true_time[ev])
    assert np.all(cohort.time[~ev] < truth.true_time[~ev])
    assert np.all(cohort.time[~ev] <= cfg.censor_horizon)
    assert np.all(cohort.time > 0)


def test_nonlinear_truth_matches_closed_form():
    cohort, truth = generate(GeneratorConfig(n=400, seed=3))
    ph = cohort.covariates["PurchaseHistory"]
    pd_ = cohort.covariates["PromotionsDiscounts"]
    ce = cohort.covariates["CustomerExperience"]
    # the three behavioral scores have population moments (0, 1), so the
    # z-standardization is the identity and the risk is the raw form
    assert np.array_equal(truth.true_risk, 2.0 * ph * pd_ + ce**2)
    assert np.array_equal(truth.true_risk, risk_of(cohort.covariates, GeneratorConfig().hazard))


def test_proportional_truth_matches_manual_recompute():
    beta = (0.5, -0.25, 1.0)
    cfg = GeneratorConfig(n=400, seed=9, hazard=HazardSpec("proportional", beta))
    cohort, truth = generate(cfg)
    expected = np.zeros(cfg.n)
    for b, name in zip(beta, ["Age", "Income", "PurchaseHistory"]):
        mean, sd = POPULATION_MOMENTS[name]
        expected = expected + b * (cohort.covariates[name] - mean) / sd
    np.testing.assert_allclose(truth.true_risk, expected, rtol=1e-12, atol=0)


def test_covariate_marginals():
    cohort, _ = generate(GeneratorConfig(n=20_000, seed=123))
    age = cohort.covariates["Age"]
    assert np.array_equal(age, np.round(age))
    assert age.min() >= 18 and age.max() <= 75
    assert abs(age.mean() - 46.5) < 0.5

    log_income = np.log(cohort.covariates["Income"])
    assert abs(log_income.mean() - 10.8) < 0.02
    assert abs(log_income.std() - 0.6) < 0.02

    for name in ("PurchaseHistory", "PromotionsDiscounts", "CustomerExperience"):
        v = cohort.covariates[name]
        assert abs(v.mean()) < 0.025
        assert abs(v.std() - 1.0) < 0.025

    for col in DEFAULT_SCHEMA.columns:
        if col.kind != "categorical":
            continue
        values, counts = np.unique(cohort.covariates[col.name], return_counts=True)
        assert set(values.tolist()) == set(col.levels)
        np.testing.assert_allclose(counts / 20_000, 1.0 / len(col.levels), atol=0.02)


def test_population_moments_match_samplers():
    # analytic moments used by the z-scoring agree with large-sample moments
    cohort, _ = generate(GeneratorConfig(n=50_000, seed=77))
    for name, (mean, sd) in POPULATION_MOMENTS.items():
        v = cohort.covariates[name]
        assert abs(v.mean() - mean) < 4.0 * sd / math.sqrt(50_000) + 1e-9
        assert abs(v.std() - sd) < 0.02 * sd + 0.02


def test_null_proportional_cohort_matches_exponential_survivor():
    # beta = (0,) gives every record the same exponential event law, and a
    # huge horizon with a tiny censor rate makes censoring negligible, so
    # the KM curve must track exp(-rate * t).
    cfg = GeneratorConfig(
        n=20_000,
        seed=20240817,
        hazard=HazardSpec("proportional", (0.0,)),
        baseline_rate=0.05,
        censor_rate=1e-12,
        censor_horizon=1e12,
    )
    cohort, _ = generate(cfg)
    assert cohort.event.sum() == cfg.n
    km = kaplan_meier(cohort.time, cohort.event)
    grid = np.array([2.0, 5.0, 10.0, 13.86, 20.0, 30.0, 46.0])
    np.testing.assert_allclose(km(grid), np.exp(-0.05 * grid), atol=0.01)


def test_default_config_censors_about_half():
    cohort, _ = generate(GeneratorConfig())
    assert abs(cohort.censoring_rate - 0.48) <= 0.03


def test_hazard_spec_validation():
    HazardSpec("proportional", (1.0,))
    HazardSpec("proportional", (1.0, 2.0, 3.0, 4.0, 5.0))
    with pytest.raises(ValueError, match="unknown hazard kind"):
        HazardSpec("linear")
    with pytest.raises(ValueError, match="beta must cover"):
        HazardSpec("proportional", ())
    with pytest.raises(ValueError, match="beta must cover"):
        HazardSpec("proportional", tuple(range(6)))
    with pytest.raises(ValueError, match="takes no beta"):
        HazardSpec("nonlinear", (1.0,))


def test_generator_config_validation():
    with pytest.raises(ValueError, match="n must be"):
        GeneratorConfig(n=0)
    with pytest.raises(ValueError, match="positive"):
        GeneratorConfig(baseline_rate=0.0)
    with pytest.raises(ValueError, match="positive"):
        GeneratorConfig(censor_rate=-1.0)
    with pytest.raises(ValueError, match="positive"):
        GeneratorConfig(censor_horizon=0.0)


def test_calibrate_censoring_hits_target():
    cal = calibrate_censoring(GeneratorConfig(), 0.30)
    assert cal.n == GeneratorConfig().n
    assert cal.seed == GeneratorConfig().seed
    # the pilot fraction is deterministic, so replaying it checks the
    # accept tolerance directly
    pilot, _ = generate(replace(cal, n=10_000))
    assert abs(pilot.censoring_rate - 0.30) <= 0.011


def test_calibrate_censoring_horizon_is_pinned():
    # the horizon found when each bisection step regenerated the pilot;
    # re-thresholding a single pilot draw lands on the same float
    cal = calibrate_censoring(GeneratorConfig(), 0.30)
    assert cal.censor_horizon == 18.434229924091103


def test_calibrate_censoring_falls_back_to_the_wider_tolerance():
    # the default pilot's random-censoring floor is 0.1647: no horizon comes within
    # 0.005 of 0.1577, so all 80 steps raise the lower end toward 1e9, and the horizon
    # there is accepted as within 0.01
    cal = calibrate_censoring(GeneratorConfig(), 0.1577)
    assert 1e8 < cal.censor_horizon <= 1e9
    pilot, _ = generate(replace(cal, n=10_000))
    assert 0.005 < abs(pilot.censoring_rate - 0.1577) <= 0.01


def test_censoring_is_monotone_in_horizon():
    base = GeneratorConfig(n=10_000)
    fracs = [
        generate(replace(base, censor_horizon=h))[0].censoring_rate
        for h in (1.0, 6.2, 40.0, 1e9)
    ]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_calibrate_censoring_rejects_unattainable_target():
    # random censoring alone floors the censored fraction near 0.16 for the
    # default configuration, so 0.02 cannot be reached by any horizon
    with pytest.raises(ValueError, match="unattainable"):
        calibrate_censoring(GeneratorConfig(), 0.02)
    with pytest.raises(ValueError, match="target must be in"):
        calibrate_censoring(GeneratorConfig(), 1.5)


def test_ground_truth_csv_round_trip(tmp_path):
    cfg = GeneratorConfig(n=50, seed=5)
    _, truth = generate(cfg)
    path = tmp_path / "truth.csv"
    write_csv(path, *ground_truth_table(truth))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["record_id", "true_time", "true_risk"]
    assert len(rows) == 51
    ids = [int(r[0]) for r in rows[1:]]
    assert ids == list(range(50))
    times = np.array([float(r[1]) for r in rows[1:]])
    risks = np.array([float(r[2]) for r in rows[1:]])
    # repr round-trips doubles exactly
    assert np.array_equal(times, truth.true_time)
    assert np.array_equal(risks, truth.true_risk)

"""Synthetic purchase-cohort generator.

Ten fixed covariates; event times are exponential with per-record rate
baseline_rate * exp(risk(x)); censoring is the minimum of an
administrative horizon and an independent exponential. Sampling draw
order is fixed (each covariate in schema order, then event times, then
censor times), one counter-based stream per cohort, so cohorts are
bit-identical across runs and platforms for a given seed.

Covariate marginals (declared conventions, not from any data source):
ages uniform integers 18-75, incomes log-normal, the three behavioral
scores standard normal, categoricals uniform over their levels. Risk
standardizes columns by these population moments, not sample moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Cohort, Column, CovariateSchema
from .rng import CounterRng

DEFAULT_SCHEMA = CovariateSchema(
    columns=(
        Column("Age", "numeric"),
        Column("Gender", "categorical", ("Female", "Male")),
        Column("Income", "numeric"),
        Column("MaritalStatus", "categorical", ("Divorced", "Married", "Single", "Widowed")),
        Column("Location", "categorical", ("Rural", "Suburban", "Urban")),
        Column("PurchaseHistory", "numeric"),
        Column("OnlineBehavior", "categorical", ("HighActivity", "LowActivity", "MediumActivity")),
        Column("Interests", "categorical", ("Electronics", "Fashion", "Sports")),
        Column("PromotionsDiscounts", "numeric"),
        Column("CustomerExperience", "numeric"),
    )
)

_AGE_LO, _AGE_HI = 18, 75
_LOG_INCOME_MEAN, _LOG_INCOME_SD = 10.8, 0.6

# analytic moments of the sampling distributions, used by the hazard's
# z-standardization; in schema order, the order of a proportional hazard's betas
POPULATION_MOMENTS = {
    "Age": (
        (_AGE_LO + _AGE_HI) / 2.0,
        math.sqrt(((_AGE_HI - _AGE_LO + 1) ** 2 - 1) / 12.0),
    ),
    "Income": (
        math.exp(_LOG_INCOME_MEAN + 0.5 * _LOG_INCOME_SD**2),
        math.exp(_LOG_INCOME_MEAN + 0.5 * _LOG_INCOME_SD**2)
        * math.sqrt(math.expm1(_LOG_INCOME_SD**2)),
    ),
    "PurchaseHistory": (0.0, 1.0),
    "PromotionsDiscounts": (0.0, 1.0),
    "CustomerExperience": (0.0, 1.0),
}


HAZARD_KINDS = ("nonlinear", "proportional")


@dataclass(frozen=True)
class HazardSpec:
    """proportional: risk = sum beta_k * z(numeric covariate k), numeric
    covariates taken in schema order. nonlinear: the benchmark form
    2*z(PurchaseHistory)*z(PromotionsDiscounts) + z(CustomerExperience)^2,
    which no linear predictor can rank well."""

    kind: str = "nonlinear"
    beta: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in HAZARD_KINDS:
            raise ValueError(f"unknown hazard kind: {self.kind!r}")
        if self.kind == "proportional":
            if not 1 <= len(self.beta) <= len(POPULATION_MOMENTS):
                raise ValueError(
                    f"proportional beta must cover 1..{len(POPULATION_MOMENTS)} numeric covariates"
                )
        elif self.beta:
            raise ValueError("nonlinear hazard takes no beta")
        if not all(math.isfinite(b) for b in self.beta):
            raise ValueError(f"hazard beta must be finite numbers, not {list(self.beta)}")


@dataclass(frozen=True)
class GeneratorConfig:
    n: int = 1000
    seed: int = 0
    hazard: HazardSpec = field(default_factory=HazardSpec)
    baseline_rate: float = 0.05
    censor_rate: float = 0.01
    # keeps the default nonlinear cohort's censored fraction at 48% +- 3%
    censor_horizon: float = 6.2

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for name in ("baseline_rate", "censor_rate", "censor_horizon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, not {getattr(self, name)}")
        if self.baseline_rate <= 0 or self.censor_rate <= 0 or self.censor_horizon <= 0:
            raise ValueError("rates and horizon must be positive")


@dataclass(frozen=True)
class GroundTruth:
    true_time: np.ndarray
    true_risk: np.ndarray


def _z(values: np.ndarray, column: str) -> np.ndarray:
    mean, sd = POPULATION_MOMENTS[column]
    return (values - mean) / sd


def risk_of(covariates: dict, hazard: HazardSpec) -> np.ndarray:
    if hazard.kind == "nonlinear":
        return 2.0 * _z(covariates["PurchaseHistory"], "PurchaseHistory") * _z(
            covariates["PromotionsDiscounts"], "PromotionsDiscounts"
        ) + _z(covariates["CustomerExperience"], "CustomerExperience") ** 2
    risk = np.zeros(len(next(iter(covariates.values()))))
    for b, name in zip(hazard.beta, POPULATION_MOMENTS):
        risk = risk + b * _z(np.asarray(covariates[name], dtype=np.float64), name)
    return risk


def _draw(config: GeneratorConfig):
    """Covariates, risk, event times and random censor times; everything
    a cohort needs except the administrative horizon."""
    rng = CounterRng(config.seed)
    n = config.n
    cov = {}
    for col in DEFAULT_SCHEMA.columns:
        if col.kind == "categorical":
            idx = rng.integers(len(col.levels), n)
            cov[col.name] = np.array([col.levels[i] for i in idx], dtype=object)
        elif col.name == "Age":
            cov[col.name] = (_AGE_LO + rng.integers(_AGE_HI - _AGE_LO + 1, n)).astype(np.float64)
        elif col.name == "Income":
            cov[col.name] = np.exp(_LOG_INCOME_MEAN + _LOG_INCOME_SD * rng.normal(n))
        else:
            cov[col.name] = rng.normal(n)
    risk = risk_of(cov, config.hazard)
    true_time = rng.exponential(config.baseline_rate * np.exp(risk))
    censor_random = rng.exponential(np.full(n, config.censor_rate))
    return cov, risk, true_time, censor_random


def generate(config: GeneratorConfig) -> tuple[Cohort, GroundTruth]:
    cov, risk, true_time, censor_random = _draw(config)
    censor_time = np.minimum(censor_random, config.censor_horizon)
    event = (true_time <= censor_time).astype(np.int64)
    observed = np.minimum(true_time, censor_time)
    cohort = Cohort(DEFAULT_SCHEMA, cov, observed, event)
    return cohort, GroundTruth(true_time=true_time, true_risk=risk)


def ground_truth_table(truth: GroundTruth) -> tuple[list[str], list[tuple]]:
    """The ground truth as CSV header and rows, floats via repr."""
    return ["record_id", "true_time", "true_risk"], list(zip(
        range(truth.true_time.size),
        map(repr, truth.true_time.tolist()),
        map(repr, truth.true_risk.tolist()),
    ))


_PILOT_N = 10_000


def calibrate_censoring(config: GeneratorConfig, target: float) -> GeneratorConfig:
    """Bisect the administrative horizon until the censored fraction of a
    pilot draw of _PILOT_N records is within 0.005 of the target (0.01 if
    80 steps do not get there).

    The pilot is drawn once; the horizon only moves the censoring
    threshold. Censoring decreases as the horizon grows; the
    random-censor component sets a floor, so too-low targets are
    unattainable and rejected.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target must be in (0, 1)")
    _, _, true_time, censor_random = _draw(replace(config, n=_PILOT_N))

    def frac(horizon: float) -> float:
        return float((true_time > np.minimum(censor_random, horizon)).sum()) / _PILOT_N

    lo, hi = 1e-6, 1e9
    if frac(hi) > target + 0.01:
        raise ValueError(
            f"target {target} unattainable: random censoring alone gives {frac(hi):.3f}"
        )
    if frac(lo) < target:
        raise ValueError(f"target {target} unattainable even with a tiny horizon")
    for _ in range(80):
        mid = math.sqrt(lo * hi)  # geometric: the horizon spans decades
        f = frac(mid)
        if abs(f - target) <= 0.005:
            return replace(config, censor_horizon=mid)
        if f > target:
            lo = mid
        else:
            hi = mid
    mid = math.sqrt(lo * hi)
    if abs(frac(mid) - target) > 0.01:
        raise ValueError("calibration failed to converge")
    return replace(config, censor_horizon=mid)

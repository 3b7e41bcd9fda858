"""Kaplan-Meier and Nelson-Aalen estimators.

Ties are handled the standard way: subjects censored at t still count as
at risk for events at t. Survival curves change only at times with at
least one event; censoring-only times shrink later risk sets but add no
knot.
"""

from __future__ import annotations

import numpy as np

from .data import Cohort
from .riskset import RiskSets, risk_sets
from .stepfun import StepFunction


def kaplan_meier(time, event) -> StepFunction:
    """Product-limit estimate of S(t), initial value 1. A sample with no
    events yields the constant function 1."""
    rs = risk_sets(time, event)
    keep = rs.n_events > 0
    hazard = rs.n_events[keep] / rs.n_at_risk[keep]
    return StepFunction(times=rs.times[keep], values=np.cumprod(1.0 - hazard), initial=1.0)


def nelson_aalen(time, event) -> StepFunction:
    """Cumulative-hazard estimate H(t) = sum d_i/n_i, initial value 0."""
    return nelson_aalen_from_risk_sets(risk_sets(time, event))


def nelson_aalen_from_risk_sets(rs: RiskSets) -> StepFunction:
    """The Nelson-Aalen estimate of the sample that `rs` describes."""
    keep = rs.n_events > 0
    hazard = rs.n_events[keep] / rs.n_at_risk[keep]
    return StepFunction(times=rs.times[keep], values=np.cumsum(hazard), initial=0.0)


def fit_km_grouped(cohort: Cohort, group_by: str) -> dict[str, StepFunction]:
    """One KM curve per nonempty level of a categorical covariate."""
    col = cohort.schema.column(group_by)
    if col.kind != "categorical":
        raise TypeError(f"grouping covariate {group_by!r} must be categorical")
    vals = cohort.covariates[group_by]
    out = {}
    for lv in col.levels:
        mask = vals == lv
        if mask.any():
            out[lv] = kaplan_meier(cohort.time[mask], cohort.event[mask])
    return out

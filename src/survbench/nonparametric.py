"""Kaplan-Meier and Nelson-Aalen estimators.

Ties are handled the standard way: subjects censored at t still count as
at risk for events at t. Survival curves change only at times with at
least one event; censoring-only times shrink later risk sets but add no
knot.
"""

from __future__ import annotations

import numpy as np

from .riskset import risk_sets
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
    rs = risk_sets(time, event)
    keep = rs.n_events > 0
    hazard = rs.n_events[keep] / rs.n_at_risk[keep]
    return StepFunction(times=rs.times[keep], values=np.cumsum(hazard), initial=0.0)

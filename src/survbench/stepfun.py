"""Right-continuous step functions on [0, inf).

Survival and cumulative-hazard curves are step functions with jumps at
observed event times. The value at t is the value of the last jump at or
before t; before the first jump the function takes `initial`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StepFunction:
    """y(t) = values[i] for the largest i with times[i] <= t, else initial.

    `times` must be strictly increasing.
    """

    times: np.ndarray
    values: np.ndarray
    initial: float = 1.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be 1-d and equal length")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t) -> np.ndarray:
        idx = np.searchsorted(self.times, np.asarray(t, dtype=np.float64), side="right")
        out = np.concatenate(([self.initial], self.values))[idx]
        return out if out.ndim else float(out)

"""Concordance index for right-censored data.

A pair (i, j) is comparable when T_i < T_j and subject i had the event:
the model should rank i as higher risk. Concordant means score_i >
score_j; equal scores count half. Pairs tied on time are not comparable.

`concordance_index` counts over the pair blocks the kernel survival SVM
fits on (`riskset.comparable_blocks`), in O(events x n) work: with 60%
events 4x faster than an O(n log n) Fenwick tree over score ranks at
n=700 and n=3,500, slower above about 12,000 rows (221 vs 165 ms at
n=20,000, one Xeon core); no survbench workload goes above n=5,000.
`concordance_brute` is the quadratic reference. Both return exact
integer counts and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .riskset import comparable_blocks


class UndefinedMetricError(ValueError):
    """No comparable pairs (e.g. all subjects censored)."""


@dataclass(frozen=True)
class ConcordanceResult:
    concordant: int
    discordant: int
    tied_risk: int
    comparable: int

    @property
    def cindex(self) -> float:
        return (self.concordant + 0.5 * self.tied_risk) / self.comparable


def _check(time, event, score):
    time = np.asarray(time, dtype=np.float64)
    event = np.asarray(event, dtype=np.int64)
    score = np.asarray(score, dtype=np.float64)
    if not (time.shape == event.shape == score.shape) or time.ndim != 1:
        raise ValueError("time, event, score must be 1-d and aligned")
    if not np.all(np.isfinite(score)):
        raise ValueError("scores must be finite")
    return time, event, score


def concordance_index(time, event, score) -> ConcordanceResult:
    """Comparable, score_i > score_j and score_i == score_j pairs, per block."""
    time, event, score = _check(time, event, score)
    concordant = tied = comparable = 0
    for rows, later in comparable_blocks(time, event):
        s = score[rows, None]
        comparable += np.count_nonzero(later)
        concordant += np.count_nonzero(later & (s > score))
        tied += np.count_nonzero(later & (s == score))
    if comparable == 0:
        raise UndefinedMetricError("no comparable pairs")
    return ConcordanceResult(
        concordant=concordant,
        discordant=comparable - concordant - tied,
        tied_risk=tied,
        comparable=comparable,
    )


def concordance_brute(time, event, score) -> ConcordanceResult:
    """Quadratic reference: examine every ordered pair directly."""
    time, event, score = _check(time, event, score)
    n = time.size
    concordant = discordant = tied = comparable = 0
    for i in range(n):
        if event[i] != 1:
            continue
        for j in range(n):
            if time[i] < time[j]:
                comparable += 1
                if score[i] > score[j]:
                    concordant += 1
                elif score[i] < score[j]:
                    discordant += 1
                else:
                    tied += 1
    if comparable == 0:
        raise UndefinedMetricError("no comparable pairs")
    return ConcordanceResult(
        concordant=concordant,
        discordant=discordant,
        tied_risk=tied,
        comparable=comparable,
    )

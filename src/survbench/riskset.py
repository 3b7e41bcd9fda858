"""Breslow risk-set bookkeeping, shared by every estimator that needs it.

Rows are sorted by time (stable, so tied rows keep their input order)
and grouped by distinct time. The risk set of a distinct time t is every
row with T >= t, which in sorted order is the suffix starting at the
first row of its group: tied rows share one risk set, and a row censored
at t still counts as at risk for events at t (Breslow 1974).

Kaplan-Meier, Nelson-Aalen, the Cox and DeepSurv partial likelihoods and
the random survival forest's log-rank splitter all read their counts
from one `RiskSets` record, built by `risk_sets` or `sorted_risk_sets`.
`comparable_blocks` lists the comparable pairs (event i, T_i < T_j) for
the C-index (`metrics.concordance_index`) and the kernel survival SVM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK = 256  # event rows per block of comparable pairs


@dataclass(frozen=True)
class RiskSets:
    """One sample's risk sets; per-time arrays run over the distinct
    times in ascending order."""

    order: np.ndarray  # row at each position of the stable ascending time sort
    is_event: np.ndarray  # event indicator of each row, in sorted order
    times: np.ndarray  # distinct times
    starts: np.ndarray  # first sorted row of each distinct time
    n_events: np.ndarray  # events at each distinct time (float)
    n_at_risk: np.ndarray  # rows with T >= each distinct time


def risk_sets(times, events) -> RiskSets:
    times = np.asarray(times, dtype=np.float64)
    order = np.argsort(times, kind="stable")
    return sorted_risk_sets(times[order], np.asarray(events)[order], order)


def sorted_risk_sets(times, events, order) -> RiskSets:
    """Risk sets of rows already in stable ascending time order, with
    `order` naming each position's row. Any subset of stably sorted rows
    is stably sorted, so a tree node needs no sort."""
    if times.size == 0:
        raise ValueError("empty sample")
    starts = np.flatnonzero(np.concatenate(([True], times[1:] != times[:-1])))
    is_event = np.asarray(events) == 1
    n_events = np.add.reduceat(is_event.astype(np.float64), starts)
    return RiskSets(order, is_event, times[starts], starts, n_events, times.size - starts)


def risk_set_sums(rs: RiskSets, values: np.ndarray) -> np.ndarray:
    """Sum of `values` over each risk set. The last axis of `values`
    holds the rows in `rs.order`; in the result it holds one entry per
    distinct time."""
    return np.cumsum(values[..., ::-1], axis=-1)[..., ::-1][..., rs.starts]


def breslow_loglik(rs: RiskSets, log_risks) -> tuple[float, np.ndarray]:
    """Breslow log partial likelihood of per-row log-risks g, and its
    gradient with respect to g in the input row order:

        l = sum over events i of [g_i - log W(T_i)],
        dl/dg_j = delta_j - w_j * c_j,

    where w = exp(g), W(t) sums w over the risk set of t, and c_j sums
    d_t / W(t) over every risk set holding row j (d_t events at t). exp
    is shifted by max(g); l and dl/dg are invariant to the shift.
    """
    g = np.asarray(log_risks, dtype=np.float64)
    gs = g[rs.order]
    m = gs.max()
    w = np.exp(gs - m)
    denom = risk_set_sums(rs, w)
    d = rs.n_events
    loglik = gs[rs.is_event].sum() - float(((m + np.log(denom)) * d).sum())
    q = np.where(d > 0, d / denom, 0.0)
    group_of = np.searchsorted(rs.starts, np.arange(g.size), side="right") - 1
    grad = np.empty_like(g)
    grad[rs.order] = rs.is_event - w * np.cumsum(q)[group_of]
    return float(loglik), grad


def comparable_blocks(times, events):
    """(rows, later) for each block of up to BLOCK event rows, in row order;
    later[a, j] is T_j > T_rows[a]. Each comparable pair is True once."""
    times = np.asarray(times, dtype=np.float64)
    event_rows = np.flatnonzero(np.asarray(events) == 1)
    for start in range(0, event_rows.size, BLOCK):
        rows = event_rows[start:start + BLOCK]
        yield rows, times[rows, None] < times

"""Breslow risk-set bookkeeping, shared by every estimator that needs it.

Rows are sorted by time (stable, so tied rows keep their input order)
and grouped by distinct time. The risk set of a distinct time t is every
row with T >= t, which in sorted order is the suffix starting at the
first row of its group: tied rows share one risk set, and a row censored
at t still counts as at risk for events at t (Breslow 1974).

Kaplan-Meier, Nelson-Aalen, the Cox partial likelihood, the random
survival forest's split search and leaf tables and DeepSurv's planned
epochs all read their counts from one `RiskSets` record, built by
`risk_sets` or `sorted_risk_sets` (the last two over runs of rows).
The Breslow likelihood is written once, in `sorted_breslow_loglik` on
time-ordered rows (DeepSurv's minibatches); `breslow_loglik` wraps it.
`pair_blocks` lists the comparable pairs (event i, T_i < T_j), BLOCK
event rows at a time in time order, for the C-index
(`metrics.concordance_index`) and the kernel survival SVM (`ksvm.py`).
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
    n_at_risk: np.ndarray  # rows with T >= each distinct time (of its run, given runs)


def risk_sets(times, events) -> RiskSets:
    times = np.asarray(times, dtype=np.float64)
    order = np.argsort(times, kind="stable")
    return sorted_risk_sets(times[order], np.asarray(events)[order], order)


def sorted_risk_sets(times, events, order, ends=None) -> RiskSets:
    """Risk sets of rows already in stable ascending time order, with
    `order` naming each position's row. Any subset of stably sorted rows
    is stably sorted, so a tree node needs no sort. Given `ends`, the rows
    are runs ending there (a step's nodes, a tree's leaves, an epoch's
    batches), each in time order and any but the last possibly empty: a
    run's first row begins a group, and a group's risk set ends with its run."""
    if times.size == 0:
        raise ValueError("empty sample")
    new = np.concatenate(([True], times[1:] != times[:-1]))  # a group's first row
    if ends is not None:
        new[ends[:-1]] = True
    starts = np.flatnonzero(new)
    is_event = np.asarray(events) == 1
    n_events = np.add.reduceat(is_event.astype(np.float64), starts)
    end = times.size if ends is None else ends[ends.searchsorted(starts, side="right")]
    return RiskSets(order, is_event, times[starts], starts, n_events, end - starts)


def risk_set_sums(rs: RiskSets, values: np.ndarray) -> np.ndarray:
    """Sum of `values` over each risk set. The last axis of `values`
    holds the rows in `rs.order`; in the result it holds one entry per
    distinct time."""
    return np.cumsum(values[..., ::-1], axis=-1)[..., ::-1][..., rs.starts]


def breslow_loglik(rs: RiskSets, log_risks) -> tuple[float, np.ndarray]:
    """`sorted_breslow_loglik` of per-row log-risks g in the input row
    order of `rs`, with the gradient in that order."""
    g = np.asarray(log_risks, dtype=np.float64)
    loglik, grad_sorted = sorted_breslow_loglik(
        g[rs.order], rs.is_event, rs.starts, np.diff(rs.starts, append=g.size), rs.n_events)
    grad = np.empty_like(g)
    grad[rs.order] = grad_sorted
    return loglik, grad


def sorted_breslow_loglik(g, is_event, starts, sizes, d) -> tuple[float, np.ndarray]:
    """Breslow log partial likelihood of log-risks g of rows in stable time
    order, given their `RiskSets` fields is_event, starts and n_events (d)
    and the row count of each distinct time, and its gradient in g's order:

        l = sum over events i of [g_i - log W(T_i)],
        dl/dg_j = delta_j - w_j * c_j,

    where w = exp(g), W(t) sums w over the risk set of t, and c_j sums
    d_t / W(t) over every risk set holding row j (d_t events at t). exp
    is shifted by max(g); l and dl/dg are invariant to the shift.
    """
    m = g.max()
    w = np.exp(g - m)
    denom = w[::-1].cumsum()[::-1][starts]
    loglik = g[is_event].sum() - float(((m + np.log(denom)) * d).sum())
    q = np.where(d > 0, d / denom, 0.0)
    return float(loglik), is_event - w * q.cumsum().repeat(sizes)


def pair_blocks(times, events):
    """(rows, span, later, after) per BLOCK event rows in time order: later[a, b] is
    T_span[b] > T_rows[a] over the rows `span` inside the block's time span, and each
    row of `after` is later than every row of `rows`. Each comparable pair is in one block."""
    order = np.argsort(times, kind="stable")
    t, at = times[order], np.flatnonzero(events[order] == 1)
    for start in range(0, at.size, BLOCK):
        pos = at[start:start + BLOCK]
        lo, hi = t.searchsorted(t[pos[[0, -1]]], "right")
        yield order[pos], order[lo:hi], t[pos, None] < t[lo:hi], order[hi:]

"""Random survival forest: log-rank splits, bootstrap ensemble, averaged
Nelson-Aalen leaf estimates.

The B trees grow in lockstep: each tree walks its nodes depth first,
left subtree first, from its own stack, and each step searches every
tree's next node that may split together, in batches of one power-of-two
size class padded to their widest node. A node holds its design rows in
stable time order (a child keeps its parent's order) and reads its draws
at its own tree's counter positions, so each tree draws what it would
draw grown alone. Log-rank terms are summed in time order and padding
adds only trailing +0.0 terms, so no split depends on which nodes share
a batch.

A leaf holds what scoring needs: its knot times (the distinct event
times of its rows) and the integer event and at-risk counts at each.
Its curve is derived from them, `np.cumsum(events / at_risk)`, when a
caller needs it, and never stored.

The ensemble cumulative hazard is the mean of the B leaf curves a row
falls into, so its mortality (that curve summed over the training
event-time grid) is the mean of one scalar per leaf. Scoring partitions
the rows down each grown tree, computes the mortality of every leaf the
tree reaches in one vectorized pass over the forest's grid, and averages
a row's B leaf mortalities with math.fsum, which keeps the score
independent of tree order. `predict_chf` descends the same way and
averages the leaf curves.

Forest files store the training size n once instead of each tree's
bootstrap rows: a tree's `inbag` is the first n draws of its own seed's
stream, so loading rebuilds it. A leaf is stored as the indices of its
knots in the event grid, which the file holds once, and its two count
lists; loading checks each tree's leaves together.

Per-tree randomness comes from a child seed mixed out of (master seed,
tree index), so any tree is reproducible in isolation. Within a node the
draw order is fixed: column subset first, then the candidate-threshold
subsamples of the wide columns as one contiguous draw, in column order,
over the counter slots one draw per column would use. Candidate
thresholds are midpoints of consecutive distinct in-node values, capped
at 32 per column; consumption depends only on counts, never on values,
which keeps tree structure invariant under monotone transforms of a
column. The first maximum score in column-then-threshold order wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DesignMatrix
from .riskset import risk_set_sums, risk_sets
from .rng import CounterRng, derive_seed, uniform_at
from .stepfun import StepFunction, average_step_functions

_MAX_THRESHOLDS = 32
_CELLS = 1 << 14  # size-class rows times drawn columns per batch of the split search


@dataclass
class TreeNode:
    """A split, or a leaf holding its knot times and the event and
    at-risk counts at each knot."""

    column: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    times: np.ndarray | None = None
    events: np.ndarray | None = None
    at_risk: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.column is None

    @property
    def chf(self) -> StepFunction:
        """The leaf's Nelson-Aalen cumulative hazard."""
        return StepFunction(self.times, np.cumsum(self.events / self.at_risk), initial=0.0)


@dataclass
class SurvivalTree:
    seed: int
    inbag: np.ndarray
    root: TreeNode


@dataclass
class Forest:
    trees: list[SurvivalTree]
    mtry: int
    min_leaf: int
    max_depth: int | None
    seed: int
    event_grid: np.ndarray
    column_names: list[str]


def _logrank(n_left, observed, n_events, n_at_risk):
    """Two-sample log-rank statistic |O-E|/sqrt(V) of each candidate, nan
    where V = 0. The last axis runs over event times in time order; E and
    V are running sums along it, so a candidate scores the same bits in
    any batch, and padding terms (no events, one at risk) add +0.0."""
    frac = n_left / n_at_risk
    expected_terms = n_events * frac
    with np.errstate(invalid="ignore", divide="ignore"):
        variance_terms = np.where(n_at_risk > 1, expected_terms * (1.0 - frac)
                                  * (n_at_risk - n_events) / (n_at_risk - 1.0), 0.0)
        expected = np.add.accumulate(expected_terms, axis=-1)[..., -1]
        variance = np.add.accumulate(variance_terms, axis=-1)[..., -1]
        return np.where(variance > 0.0, np.abs(observed - expected) / np.sqrt(variance), np.nan)


def logrank_score(times, events, column_values, threshold) -> float:
    """Absolute standardized two-sample log-rank statistic for the split
    column <= threshold vs >."""
    events = np.asarray(events, dtype=np.int64)
    x = np.asarray(column_values, dtype=np.float64)
    left = x <= threshold
    if not left.any() or left.all():
        raise ValueError("split leaves one side empty; score undefined")
    if events.sum() < 1:
        raise ValueError("no events; score undefined")
    rs = risk_sets(times, events)
    has = rs.n_events > 0
    n_left = risk_set_sums(rs, left[rs.order].astype(np.float64))[has]
    observed = np.count_nonzero(left[rs.order] & rs.is_event)
    score = _logrank(n_left, observed, rs.n_events[has], rs.n_at_risk[has])
    if np.isnan(score):
        raise ValueError("zero log-rank variance; score undefined")
    return float(score)


def _event_times(times, events, rows, ends):
    """The distinct event times of each run of `rows` (runs end at `ends`,
    each in time order): run, first position, events and rows at risk."""
    t = times[rows]
    new = np.ones(rows.size, dtype=bool)
    new[1:] = t[1:] != t[:-1]
    new[ends[:-1]] = True
    starts = np.flatnonzero(new)
    n_events = np.add.reduceat(events[rows], starts, dtype=np.int64)
    starts, n_events = starts[n_events > 0], n_events[n_events > 0]
    run = np.searchsorted(ends, starts, side="right")
    return run, starts, n_events, ends[run] - starts


def _best_splits(XT, times, events, seeds, counters, rows, sizes, mtry, min_leaf):
    """Each of K nodes' split of largest log-rank score: its column (-1
    for none), threshold, left rows as a mask over `rows`, left events,
    and slots drawn. Row k of `rows` holds node k's `sizes[k]` design rows
    in time order, then pads: row n, +inf in every column and in time and
    no event, so never a threshold, never left, never at risk. Node k
    draws from slot `counters[k]` of stream `seeds[k]` on."""
    K, w = rows.shape
    p = XT.shape[0]
    u = uniform_at(seeds[:, None], counters[:, None] + np.arange(p))
    cols = np.argsort(u, axis=1, kind="stable")[:, :mtry]
    block = XT[cols[:, :, None], rows[:, None, :]]  # (K, mtry, w), rows in time order
    xs = np.sort(block, axis=2)
    step = (xs[..., 1:] != xs[..., :-1]) & (xs[..., 1:] < np.inf)  # a distinct value ends
    wide = np.count_nonzero(step, axis=2) > _MAX_THRESHOLDS
    k, j, i = np.nonzero(step & wide[..., None])  # node by node, in column order
    drawn = np.bincount(k, minlength=K)
    if k.size:  # keep the 32 thresholds of smallest draw per wide column
        first = np.cumsum(drawn) - drawn
        u = uniform_at(seeds[k], counters[k] + p + np.arange(k.size) - first[k])
        column = k * mtry + j
        order = np.lexsort((u, column))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size) - np.searchsorted(column, column[order])
        step[k, j, i] = rank < _MAX_THRESHOLDS
    k, j, i = np.nonzero(step)
    mids = 0.5 * (xs[k, j, i] + xs[k, j, i + 1])
    masks = block[k, j] <= mids[:, None]  # each candidate's left rows
    n_left = np.count_nonzero(masks, axis=1)
    valid = (n_left >= min_leaf) & (sizes[k] - n_left >= min_leaf)
    k, j, mids, masks = k[valid], j[valid], mids[valid], masks[valid]

    ends = np.cumsum(sizes)
    node, at, d, at_risk = _event_times(times, events, rows[np.arange(w) < sizes[:, None]], ends)
    slot = np.arange(node.size) - np.searchsorted(node, node)  # each node's event times
    from_end = np.zeros((K, slot.max() + 1), dtype=np.int64)  # padding: no events, 1 at risk
    n_events, n_at_risk = np.zeros(from_end.shape), np.ones(from_end.shape)
    from_end[node, slot] = w - 1 - (at - (ends - sizes)[node])
    n_events[node, slot], n_at_risk[node, slot] = d, at_risk
    observed = np.count_nonzero(masks & events[rows][k], axis=1)
    n_left = np.take_along_axis(  # left rows at or after each event time
        np.cumsum(masks[:, ::-1], axis=1, dtype=np.int32), from_end[k], axis=1)
    scores = np.fmax(_logrank(n_left, observed, n_events[k], n_at_risk[k]), 0.0)  # nan scores 0

    best = np.zeros(K)
    np.maximum.at(best, k, scores)
    ties = np.flatnonzero((scores == best[k]) & (scores > 0.0))
    split, first = np.unique(k[ties], return_index=True)  # the first maximum
    c = ties[first]
    column, threshold, left_events = np.full(K, -1), np.zeros(K), np.zeros(K, dtype=np.int64)
    left = np.zeros((K, w), dtype=bool)
    column[split] = cols[split, j[c]]
    threshold[split], left[split], left_events[split] = mids[c], masks[c], observed[c]
    return column, threshold, left, left_events, p + drawn


def _grow_trees(design, seeds, inbags, min_leaf, max_depth, mtry) -> list[TreeNode]:
    """The roots of trees grown in lockstep on the bootstraps `inbags`;
    a step's nodes are searched in batches of one size class and at most
    _CELLS cells, and its new leaves are filled together."""
    n, p = design.X.shape
    XT = np.vstack([design.X, np.full(p, np.inf)]).T.copy()  # row n is the batches' pad
    times = np.append(design.times, np.inf)
    events = np.append(design.events == 1, False)
    roots = [TreeNode() for _ in inbags]
    stacks = [[(root, rows, 0, int(np.count_nonzero(events[rows])))] for root, rows in zip(
        roots, (inbag[np.argsort(design.times[inbag], kind="stable")] for inbag in inbags))]
    seeds = np.array(seeds, dtype=np.uint64)
    counters = np.full(len(stacks), n)  # the bootstrap drew the first n slots
    while True:
        leaves, todo = [], []
        for t, stack in enumerate(stacks):
            while stack:
                node, rows, depth, n_events = stack.pop()
                if (rows.size >= 2 * min_leaf and n_events > 0
                        and (max_depth is None or depth < max_depth)):
                    todo.append((1 << (rows.size - 1).bit_length(), t, node, rows, depth, n_events))
                    break
                leaves.append((node, rows))
        todo.sort(key=lambda entry: entry[0])
        at = 0
        while at < len(todo):
            w = todo[at][0]
            batch = [e for e in todo[at:at + max(1, _CELLS // (w * mtry))] if e[0] == w]
            at += len(batch)
            tree = np.array([e[1] for e in batch])
            sizes = np.array([e[3].size for e in batch])
            padded = np.full((len(batch), sizes.max()), n)
            padded[np.arange(sizes.max()) < sizes[:, None]] = np.concatenate([e[3] for e in batch])
            column, threshold, left, left_events, drawn = _best_splits(
                XT, times, events, seeds[tree], counters[tree], padded, sizes, mtry, min_leaf)
            counters[tree] += drawn
            for (_, t, node, rows, depth, n_events), j, thr, go_left, n_left_events in zip(
                    batch, column.tolist(), threshold.tolist(), left, left_events.tolist()):
                if j < 0:
                    leaves.append((node, rows))
                    continue
                go_left = go_left[:rows.size]
                node.column, node.threshold = j, thr
                node.left, node.right = TreeNode(), TreeNode()
                stacks[t].append((node.right, rows[~go_left], depth + 1, n_events - n_left_events))
                stacks[t].append((node.left, rows[go_left], depth + 1, n_left_events))
        if leaves:
            _fill_leaves(leaves, times, events)
        if not todo:
            return roots


def _fill_leaves(leaves, times, events) -> None:
    """Each leaf's knot times and the event and at-risk counts at each,
    for all `leaves` (node, rows in time order) in one pass."""
    rows = np.concatenate([r for _, r in leaves])
    ends = np.cumsum([r.size for _, r in leaves])
    leaf_of, starts, n_events, at_risk = _event_times(times, events, rows, ends)
    knot_times = times[rows[starts]]
    bounds = np.cumsum(np.bincount(leaf_of, minlength=len(leaves))).tolist()
    for (node, _), lo, hi in zip(leaves, [0, *bounds], bounds):
        node.times, node.events, node.at_risk = knot_times[lo:hi], n_events[lo:hi], at_risk[lo:hi]


def fit_forest(
    design: DesignMatrix,
    b: int = 200,
    mtry: int | None = None,
    min_leaf: int = 15,
    max_depth: int | None = None,
    seed: int = 0,
) -> Forest:
    if design.events.sum() < 1:
        raise ValueError("need at least one event to fit")
    if b < 1:
        raise ValueError("b must be >= 1")
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be null or >= 0")
    p = design.p
    if mtry is None:
        mtry = int(np.ceil(np.sqrt(p)))
    elif not float(mtry).is_integer():
        raise ValueError("mtry must be a whole number")
    mtry = max(1, min(int(mtry), p))
    seeds = [derive_seed(seed, i) for i in range(b)]
    inbags = [CounterRng(s).integers(design.n, design.n) for s in seeds]
    roots = _grow_trees(design, seeds, inbags, min_leaf, max_depth, mtry)
    return Forest(
        trees=[SurvivalTree(seed=s, inbag=i, root=r) for s, i, r in zip(seeds, inbags, roots)],
        mtry=mtry,
        min_leaf=min_leaf,
        max_depth=max_depth,
        seed=seed,
        event_grid=np.unique(design.times[design.events == 1]),
        column_names=list(design.names),
    )


def _leaves(root: TreeNode, X: np.ndarray, rows: np.ndarray) -> list:
    """Each leaf that some of `rows` reach, with those rows, left subtree
    first; a row goes left when X[row, column] <= threshold."""
    reached, stack = [], [(root, rows)]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            reached.append((node, rows))
        else:
            go_left = X[rows, node.column] <= node.threshold
            stack += [(child, part) for child, part in ((node.right, rows[~go_left]),
                                                        (node.left, rows[go_left])) if part.size]
    return reached


def _leaf_mortalities(leaves: list[TreeNode], grid: np.ndarray) -> np.ndarray:
    """Each leaf's curve summed over the ascending `grid`, for all leaves
    in one pass, with the bits of float(np.sum(leaf.chf(grid))).

    Row l of a zero-padded table holds 0 and then leaf l's curve. The
    curve's j-th value holds at the grid points in [t_j, t_(j+1)), so
    repeating each entry that many times rebuilds leaf l's chf(grid), and
    a row sum adds the same values in the same order as np.sum."""
    sizes = np.array([leaf.times.size for leaf in leaves])
    slot = np.arange(sizes.max()) < sizes[:, None]  # leaf l's knots fill row l's slots
    hazard = np.zeros((len(leaves), slot.shape[1] + 1))
    hazard[:, 1:][slot] = (np.concatenate([leaf.events for leaf in leaves])
                           / np.concatenate([leaf.at_risk for leaf in leaves]))
    first = np.full(hazard.shape, grid.size)  # first grid point of each value
    first[:, 0] = 0
    first[:, 1:][slot] = np.searchsorted(grid, np.concatenate([leaf.times for leaf in leaves]))
    reps = np.diff(first, axis=1, append=grid.size)
    curves = np.repeat(np.cumsum(hazard, axis=1).ravel(), reps.ravel())
    return curves.reshape(len(leaves), grid.size).sum(axis=1)


def _mortality(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Ensemble mortality of each row of X: the math.fsum of its B leaf
    mortalities over B. A leaf's mortality is its curve summed over the
    forest's event grid."""
    b = len(forest.trees)
    leaf = np.empty((X.shape[0], b))  # fsum reads a row through a memoryview, not a list
    for i, tree in enumerate(forest.trees):
        reached = _leaves(tree.root, X, np.arange(X.shape[0]))
        if reached:
            values = _leaf_mortalities([node for node, _ in reached], forest.event_grid)
            for (_, rows), value in zip(reached, values):
                leaf[rows, i] = value
    return np.array([math.fsum(memoryview(leaves)) / b for leaves in leaf])


def predict_chf(forest: Forest, x) -> StepFunction:
    """Ensemble cumulative hazard: arithmetic mean of the B leaf curves on
    the union of their knots."""
    X = np.asarray(x, dtype=np.float64)[None, :]
    leaves = [leaf.chf for t in forest.trees for leaf, _ in _leaves(t.root, X, np.arange(1))]
    return average_step_functions(leaves, initial=0.0)


def mortality_score(forest: Forest, x) -> float:
    """Sum of the ensemble CHF over the training event-time grid; higher
    means earlier predicted purchase."""
    x = np.asarray(x, dtype=np.float64)
    return float(_mortality(forest, x[None, :])[0])


def rsf_risk(forest: Forest, design: DesignMatrix) -> np.ndarray:
    if design.names != forest.column_names:
        raise ValueError("design columns do not match the fitted forest")
    return _mortality(forest, np.asarray(design.X, dtype=np.float64))


def _node_to_dict(node: TreeNode, grid: np.ndarray) -> dict:
    if node.is_leaf:
        knots = np.searchsorted(grid, node.times)
        if not np.array_equal(grid.take(knots, mode="clip"), node.times):
            raise ValueError("leaf knot times must be times of the forest's event grid")
        return {
            "knots": knots.tolist(),
            "events": node.events.tolist(),
            "at_risk": node.at_risk.tolist(),
        }
    return {
        "column": node.column,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left, grid),
        "right": _node_to_dict(node.right, grid),
    }


def _integers(values: list) -> np.ndarray:
    try:
        a = np.array(values)
    except ValueError:  # ragged nesting
        a = None
    if a is None or a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise ValueError("leaf knots and counts must be lists of integers")
    return a.astype(np.int64)


def _tree_from_dict(doc: dict, grid: np.ndarray) -> TreeNode:
    """One tree's nodes. Its leaves are checked together: knots strictly
    increasing within a leaf and inside the grid, 1 <= events <= at_risk."""
    leaves = []

    def node(d):
        if "chf_times" in d:
            raise ValueError("the forest's leaves hold curves, an older file format; "
                             "refit the model")
        if "knots" in d:
            leaves.append((TreeNode(), d))
            return leaves[-1][0]
        return TreeNode(column=int(d["column"]), threshold=float(d["threshold"]),
                        left=node(d["left"]), right=node(d["right"]))

    root = node(doc)
    sizes = [len(d["knots"]) for _, d in leaves]
    if any(len(d["events"]) != k or len(d["at_risk"]) != k for k, (_, d) in zip(sizes, leaves)):
        raise ValueError("a leaf's knots, events and at_risk differ in length")
    knots, events, at_risk = (_integers([v for _, d in leaves for v in d[key]])
                              for key in ("knots", "events", "at_risk"))
    leaf_of = np.repeat(np.arange(len(leaves)), sizes)
    if not (np.all((knots >= 0) & (knots < grid.size))
            and np.all((np.diff(knots) > 0) | (np.diff(leaf_of) > 0))):
        raise ValueError("leaf knots must be increasing indices into the event grid")
    if not np.all((events >= 1) & (events <= at_risk)):
        raise ValueError("leaf counts must satisfy 1 <= events <= at_risk")
    times, ends = grid[knots], np.cumsum(sizes).tolist()
    for (leaf, _), lo, hi in zip(leaves, [0, *ends], ends):
        leaf.times, leaf.events, leaf.at_risk = times[lo:hi], events[lo:hi], at_risk[lo:hi]
    return root


def forest_to_dict(forest: Forest) -> dict:
    return {
        "model": "rsf",
        "column_names": forest.column_names,
        "mtry": forest.mtry,
        "min_leaf": forest.min_leaf,
        "max_depth": forest.max_depth,
        "seed": forest.seed,
        "event_grid": forest.event_grid.tolist(),
        "n": int(forest.trees[0].inbag.size),
        "trees": [{"seed": t.seed, "root": _node_to_dict(t.root, forest.event_grid)}
                  for t in forest.trees],
    }


def forest_from_dict(doc: dict) -> Forest:
    n = int(doc["n"])
    grid = np.asarray(doc["event_grid"], dtype=np.float64)
    if grid.ndim != 1 or not np.all(np.diff(grid) > 0):
        raise ValueError("the event grid must be strictly increasing")
    return Forest(
        trees=[
            SurvivalTree(
                seed=int(t["seed"]),
                inbag=CounterRng(int(t["seed"])).integers(n, n),
                root=_tree_from_dict(t["root"], grid),
            )
            for t in doc["trees"]
        ],
        mtry=int(doc["mtry"]),
        min_leaf=int(doc["min_leaf"]),
        max_depth=doc["max_depth"],
        seed=int(doc["seed"]),
        event_grid=grid,
        column_names=list(doc["column_names"]),
    )

"""Random survival forest: log-rank splits, bootstrap ensemble, averaged
Nelson-Aalen leaf estimates.

A tree node carries row indices into the tree's bootstrap sample in
stable time order (a child keeps its parent's order), so its risk sets
and a leaf's Nelson-Aalen counts need no sort; it scores all its
candidate splits in one pass, summing each candidate's log-rank terms
in time order, so a candidate scores the same bits in any batch.

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
from .riskset import RiskSets, risk_set_sums, risk_sets, sorted_risk_sets
from .rng import CounterRng, derive_seed
from .stepfun import StepFunction, average_step_functions

_MAX_THRESHOLDS = 32


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


def _logrank_parts(rs: RiskSets, left_masks):
    """Vectorized two-sample log-rank over candidate left-memberships.

    rs holds the node's risk sets; the (C, n) left_masks hold its rows in
    `rs.order`. Returns the statistic |O-E|/sqrt(V) per candidate, with
    nan where V = 0. E and V are running sums over event times in time
    order, so a candidate's score does not depend on its batch.
    """
    M = left_masks.astype(np.float64)
    n_left = risk_set_sums(rs, M)
    has_event = rs.n_events > 0
    dd = rs.n_events[has_event]
    nn = rs.n_at_risk[has_event]
    frac = n_left[:, has_event] / nn
    observed = M @ rs.is_event.astype(np.float64)  # counts: exact in any order
    expected_terms = dd * frac
    with np.errstate(invalid="ignore", divide="ignore"):
        variance_terms = np.where(
            nn > 1, expected_terms * (1.0 - frac) * (nn - dd) / (nn - 1.0), 0.0
        )
    expected = np.add.accumulate(expected_terms, axis=1)[:, -1]
    variance = np.add.accumulate(variance_terms, axis=1)[:, -1]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(
            variance > 0.0, np.abs(observed - expected) / np.sqrt(variance), np.nan
        )


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
    score = _logrank_parts(rs, left[rs.order][None, :])[0]
    if np.isnan(score):
        raise ValueError("zero log-rank variance; score undefined")
    return float(score)


def _best_split(rng, Xt, rows, rs, min_leaf, mtry):
    """The node's (column, threshold) of largest log-rank score, or None
    when no candidate scores above 0."""
    cols = np.argsort(rng.uniform(Xt.shape[0]), kind="stable")[:mtry]
    block = Xt[cols[:, None], rows]  # the node's columns, rows in time order
    xs = np.sort(block, axis=1)
    step = xs[:, 1:] != xs[:, :-1]  # a distinct value ends at each step
    col_of = np.nonzero(step)[0]
    mids = (0.5 * (xs[:, :-1] + xs[:, 1:]))[step]
    n_mids = step.sum(axis=1)
    wide = (n_mids > _MAX_THRESHOLDS)[col_of]
    if wide.any():  # keep the 32 thresholds of smallest draw per column
        u = np.zeros(col_of.size)
        u[wide] = rng.uniform(int(wide.sum()))
        order = np.lexsort((u, col_of))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size) - np.searchsorted(col_of, col_of[order])
        col_of, mids = col_of[rank < _MAX_THRESHOLDS], mids[rank < _MAX_THRESHOLDS]
    masks = block[col_of] <= mids[:, None]
    sizes = masks.sum(axis=1)
    valid = (sizes >= min_leaf) & (rows.size - sizes >= min_leaf)
    if not valid.any():
        return None
    scores = np.fmax(_logrank_parts(rs, masks[valid]), 0.0)  # nan scores 0
    c = int(np.argmax(scores))  # the first maximum
    if not scores[c] > 0.0:
        return None
    return int(cols[col_of[valid][c]]), float(mids[valid][c])


def _grow_tree(rng, Xt, times, events, min_leaf, max_depth, mtry) -> TreeNode:
    """One tree on its bootstrap sample, whose columns are the rows of Xt."""

    def grow(rows, depth):
        rs = sorted_risk_sets(times[rows], events[rows], rows)
        deep = max_depth is not None and depth >= max_depth
        split = None
        if rows.size >= 2 * min_leaf and rs.is_event.any() and not deep:
            split = _best_split(rng, Xt, rows, rs, min_leaf, mtry)
        if split is None:
            keep = rs.n_events > 0
            return TreeNode(times=rs.times[keep], events=rs.n_events[keep].astype(np.int64),
                            at_risk=rs.n_at_risk[keep])
        j, thr = split
        go_left = Xt[j, rows] <= thr
        left = grow(rows[go_left], depth + 1)  # the left subtree draws first
        right = grow(rows[~go_left], depth + 1)
        return TreeNode(column=j, threshold=thr, left=left, right=right)

    return grow(np.argsort(times, kind="stable"), 0)


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
    n = design.n
    trees = []
    for i in range(b):
        tree_seed = derive_seed(seed, i)
        rng = CounterRng(tree_seed)
        inbag = rng.integers(n, n)
        root = _grow_tree(rng, design.X.T[:, inbag], design.times[inbag],
                          design.events[inbag], min_leaf, max_depth, mtry)
        trees.append(SurvivalTree(seed=tree_seed, inbag=inbag, root=root))
    return Forest(
        trees=trees,
        mtry=mtry,
        min_leaf=min_leaf,
        max_depth=max_depth,
        seed=seed,
        event_grid=np.unique(design.times[design.events == 1]),
        column_names=list(design.names),
    )


def _leaves(node: TreeNode, X: np.ndarray, rows: np.ndarray):
    """Each leaf under `node` that some of `rows` reach, with those rows;
    a row goes left when its X value in the split column is <= the
    threshold."""
    if node.is_leaf:
        yield node, rows
        return
    go_left = X[rows, node.column] <= node.threshold
    for child, part in ((node.left, rows[go_left]), (node.right, rows[~go_left])):
        if part.size:
            yield from _leaves(child, X, part)


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
    leaf = np.empty((b, X.shape[0]))
    for i, tree in enumerate(forest.trees):
        reached = list(_leaves(tree.root, X, np.arange(X.shape[0])))
        if reached:
            values = _leaf_mortalities([node for node, _ in reached], forest.event_grid)
            for (_, rows), value in zip(reached, values):
                leaf[i, rows] = value
    return np.array([math.fsum(leaves.tolist()) / b for leaves in leaf.T])


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

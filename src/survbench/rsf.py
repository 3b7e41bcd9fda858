"""Random survival forest: log-rank splits, bootstrap ensemble, averaged
Nelson-Aalen leaf estimates.

A tree node carries row indices into the tree's bootstrap sample in
stable time order (a child keeps its parent's order), so its risk sets
and a leaf's Nelson-Aalen curve need no sort; it scores all its
candidate splits in one pass.

The ensemble cumulative hazard is the mean of the B leaf curves a row
falls into, so its mortality (that curve summed over the training
event-time grid) is the mean of one scalar per leaf. Scoring therefore
flattens the trees into one node table, kept on the forest with the
leaf mortalities computed so far, routes all rows down all trees
together and averages the B leaf mortalities with math.fsum, which
keeps the score independent of tree order. `predict_chf` still builds
the averaged curve for callers who want it.

Forest files store the training size n once instead of each tree's
bootstrap rows: a tree's `inbag` is the first n draws of its own seed's
stream, so loading rebuilds it.

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
from array import array
from dataclasses import dataclass, field

import numpy as np

from .data import DesignMatrix
from .nonparametric import nelson_aalen_from_risk_sets
from .riskset import RiskSets, risk_set_sums, risk_sets, sorted_risk_sets
from .rng import CounterRng, derive_seed
from .stepfun import StepFunction, average_step_functions

_MAX_THRESHOLDS = 32
_ROW_BLOCK = 128  # rows scored together


@dataclass
class TreeNode:
    column: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    chf: StepFunction | None = None

    @property
    def is_leaf(self) -> bool:
        return self.chf is not None


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
    # (trees, node table, leaf mortalities) from the first scoring call
    _scoring: tuple | None = field(default=None, init=False, repr=False, compare=False)


def _logrank_parts(rs: RiskSets, left_masks, lone):
    """Vectorized two-sample log-rank over candidate left-memberships.

    rs holds the node's risk sets; the (C, n) left_masks hold its rows in
    `rs.order`. Returns the statistic |O-E|/sqrt(V) per candidate, with
    nan where V = 0. E and V sum over event times in time order, and
    pairwise for a candidate marked `lone` (its column's only threshold):
    the rounding of scoring each column as its own NumPy batch.
    """
    M = left_masks.astype(np.float64)
    n_left = risk_set_sums(rs, M)
    has_event = rs.n_events > 0
    dd = rs.n_events[has_event]
    nn = rs.n_at_risk[has_event]
    frac = n_left[:, has_event] / nn
    observed = M @ rs.is_event.astype(np.float64)  # counts: exact in any order
    # column-major with two or more rows, so NumPy sums each row in time order
    terms = np.empty((2, *frac.shape), order="F")
    expected_terms = np.multiply(dd, frac, out=terms[0])
    with np.errstate(invalid="ignore", divide="ignore"):
        terms[1] = np.where(
            nn > 1, expected_terms * (1.0 - frac) * (nn - dd) / (nn - 1.0), 0.0
        )
    sums = terms.sum(axis=2)
    sums[:, lone] = np.ascontiguousarray(terms[:, lone]).sum(axis=2)  # pairwise
    expected, variance = sums
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
    score = _logrank_parts(rs, left[rs.order][None, :], np.ones(1, dtype=bool))[0]
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
    lone = (n_mids == 1)[col_of]
    masks = block[col_of] <= mids[:, None]
    sizes = masks.sum(axis=1)
    valid = (sizes >= min_leaf) & (rows.size - sizes >= min_leaf)
    if not valid.any():
        return None
    scores = np.fmax(_logrank_parts(rs, masks[valid], lone[valid]), 0.0)  # nan scores 0
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
            return TreeNode(chf=nelson_aalen_from_risk_sets(rs))
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
    p = design.p
    if mtry is None:
        mtry = int(np.ceil(np.sqrt(p)))
    mtry = max(1, min(mtry, p))
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


def _leaf_of(node: TreeNode, x) -> StepFunction:
    while not node.is_leaf:
        node = node.left if x[node.column] <= node.threshold else node.right
    return node.chf


def _flatten(forest: Forest):
    """All trees as one node table: split column, threshold, left and
    right child (a leaf points at itself) and leaf curve (None at a
    split), plus each tree's root index and the depth of the deepest
    leaf."""
    column, left, right, threshold = array("q"), array("q"), array("q"), array("d")
    chf = []

    def add(node: TreeNode) -> int:
        i = len(column)
        column.append(0 if node.is_leaf else node.column)
        threshold.append(node.threshold)
        left.append(i)
        right.append(i)
        chf.append(node.chf)
        if node.is_leaf:
            return 0
        left[i] = len(column)
        depth_left = add(node.left)
        right[i] = len(column)
        return 1 + max(depth_left, add(node.right))

    roots, depth = array("q"), 0
    for tree in forest.trees:
        roots.append(len(column))
        depth = max(depth, add(tree.root))
    table = (column, threshold, left, right, roots)
    return (*(np.asarray(a) for a in table), chf, depth)


def _mortality(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Ensemble mortality of each row of X: the math.fsum of its B leaf
    mortalities over B. Each block of rows descends all trees together,
    one level per step, with <= going left; blocks keep the (B, rows)
    index arrays small. A leaf's mortality, its curve summed over the
    event grid, is computed the first time a row reaches it; the forest
    keeps table and mortalities until its `trees` list is replaced."""
    if forest._scoring is None or forest._scoring[0] is not forest.trees:
        table = _flatten(forest)
        forest._scoring = (forest.trees, table, np.full(len(table[5]), np.nan))
    _, (column, threshold, left, right, roots, chf, depth), mortality = forest._scoring
    b = len(forest.trees)
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], _ROW_BLOCK):
        rows = np.arange(start, min(start + _ROW_BLOCK, X.shape[0]))
        node = np.repeat(roots[:, None], rows.size, axis=1)
        for _ in range(depth):
            go_left = X[rows, column[node]] <= threshold[node]
            node = np.where(go_left, left[node], right[node])
        for i in np.unique(node[np.isnan(mortality[node])]):
            mortality[i] = float(np.sum(chf[i](forest.event_grid)))
        out[rows] = [math.fsum(leaves) / b for leaves in mortality[node].T]
    return out


def predict_chf(forest: Forest, x) -> StepFunction:
    """Ensemble cumulative hazard: arithmetic mean of the B leaf curves on
    the union of their knots."""
    x = np.asarray(x, dtype=np.float64)
    leaves = [_leaf_of(t.root, x) for t in forest.trees]
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


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {
            "chf_times": node.chf.times.tolist(),
            "chf_values": node.chf.values.tolist(),
        }
    return {
        "column": node.column,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(doc: dict) -> TreeNode:
    if "chf_times" in doc:
        return TreeNode(
            chf=StepFunction(
                times=np.asarray(doc["chf_times"]),
                values=np.asarray(doc["chf_values"]),
                initial=0.0,
            )
        )
    return TreeNode(
        column=int(doc["column"]),
        threshold=float(doc["threshold"]),
        left=_node_from_dict(doc["left"]),
        right=_node_from_dict(doc["right"]),
    )


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
        "trees": [{"seed": t.seed, "root": _node_to_dict(t.root)} for t in forest.trees],
    }


def forest_from_dict(doc: dict) -> Forest:
    n = int(doc["n"])
    return Forest(
        trees=[
            SurvivalTree(
                seed=int(t["seed"]),
                inbag=CounterRng(int(t["seed"])).integers(n, n),
                root=_node_from_dict(t["root"]),
            )
            for t in doc["trees"]
        ],
        mtry=int(doc["mtry"]),
        min_leaf=int(doc["min_leaf"]),
        max_depth=doc["max_depth"],
        seed=int(doc["seed"]),
        event_grid=np.asarray(doc["event_grid"]),
        column_names=list(doc["column_names"]),
    )

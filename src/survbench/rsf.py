"""Random survival forest: log-rank splits, bootstrap ensemble, averaged
Nelson-Aalen leaf estimates.

The B trees grow in lockstep: each tree walks its nodes depth first,
left subtree first, from its own stack, and each step searches every
tree's next node that may split together, in batches of one power-of-two
size class padded to their widest node, a class's nodes taken in order
of event count so that a batch's nodes have similar widths and event
times. A node holds its design rows in stable time order (a child keeps
its parent's order) and reads its draws at its own tree's counter
positions, so each tree draws what it would draw grown alone. Log-rank
terms are summed in time order and padding adds only trailing +0.0
terms, so no split depends on which nodes share a batch. A candidate's
left count is read off the sorted column, so only candidates that leave
min_leaf rows on each side get a row mask. As no tree depends on the
trees grown with it, the trees grow in k contiguous shards, one per
usable CPU but at most one per _SHARD_ROWS bootstrap rows, all but the
last in forked workers (`workers.run`), and the forest does not depend
on k.

A tree is one flat node table in growing order, node 0 its root, each
child after its parent: a node's split column (-1 at a leaf), threshold
and left child, and its leaf's knots (the distinct event times of its
rows as indices into the event grid) and integer event and at-risk
counts at each, one array per field over all leaves with each node's
start offset into them. No leaf's curve is ever built on the whole grid.

The ensemble cumulative hazard is the mean of the B leaf curves a row
falls into, so its mortality (that curve summed over the training
event-time grid) is the mean of one scalar per leaf. Scoring stacks the
B tables on each call and descends all trees together over a (rows, B)
matrix of node indices. A right child follows its left, so a level
moves an entry to left + 1 unless its value is <= the threshold: a NaN
goes right; a leaf steps to itself, so a pass compacts every _STRIDE
levels. A reached leaf's sum, each knot's value times the grid points it
holds for, is taken by knot position over all reached leaves; math.fsum
averages a row's B leaf mortalities, so tree order does not matter.
`predict_chf` reads each reached leaf's curve off its own slice of knots
in the stacked table and takes the math.fsum over B at each knot.

A tree holds its seed and the training size n, not its bootstrap rows:
its `inbag`, the first n draws of its seed's stream, is drawn when read.
A forest file holds the grid and n once, each tree's seed, and only what its
nodes hold as strings of numbers; loading rebuilds and checks all trees at once.

Per-tree randomness comes from a child seed mixed out of (master seed,
tree index), so any tree is reproducible in isolation. Within a node the
draw order is fixed: column subset first, then the candidate-threshold
subsamples of the wide columns as one contiguous draw, in column order,
over the counter slots one draw per column would use. Candidate
thresholds are midpoints of consecutive distinct in-node values, capped
at 32 per column, those of the 32 smallest draws (one partition per
column; ties at the 32nd go to the earlier thresholds). Consumption
depends only on counts, never on values, which keeps tree structure
invariant under monotone transforms of a column. The first maximum
score in column-then-threshold order wins.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import namedtuple
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import workers
from .data import DesignMatrix
from .riskset import risk_set_sums, risk_sets, sorted_risk_sets
from .rng import CounterRng, derive_seed, uniform_at
from .stepfun import StepFunction

_MAX_THRESHOLDS = 32
_CELLS = 1 << 14  # size-class rows times drawn columns per batch of the split search
_PASS_CELLS = 1 << 15  # (row, tree) pairs a pass of the descent takes
_STRIDE = 4  # levels the descent steps between compactions (3 to 8 took about as long)
_NO_ROWS = np.zeros(0, dtype=np.int64)
_SHARD_ROWS = 1 << 14  # bootstrap rows (trees times n) a shard takes at least: on 2 CPUs,
# fewer made the fork, the pipe and the child's wait for an idle CPU cost more than they saved


class NodeTable(NamedTuple):
    """A tree's nodes in growing order: node i splits on column[i] (a row
    goes left when its value is <= threshold[i]) into nodes left[i] and
    left[i] + 1, or is a leaf (column and left -1) whose knots (indices
    into the forest's event grid), event and at-risk counts run from
    offsets[i] to the next node's offset (to the end, for the last node) in
    knots, events and at_risk."""

    column: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    offsets: np.ndarray
    knots: np.ndarray
    events: np.ndarray
    at_risk: np.ndarray


FILE_FIELDS = ("column", "threshold", "left", "knot_counts", "knot_steps", "events", "censored")
Node = namedtuple("Node", "column threshold is_leaf")  # a read-only view of one node


@dataclass
class SurvivalTree:
    seed: int
    n: int  # the training size
    nodes: NodeTable

    @property
    def inbag(self) -> np.ndarray:
        """The bootstrap rows the tree grew on: the first n draws of its seed's stream."""
        return CounterRng(self.seed).integers(self.n, self.n)

    @property
    def root(self) -> Node:
        """Node 0; a leaf's column is None."""
        column = int(self.nodes.column[0])
        return Node(None if column < 0 else column, float(self.nodes.threshold[0]), column < 0)


@dataclass
class Forest:
    trees: list[SurvivalTree]
    mtry: int
    min_leaf: int
    max_depth: int | None
    seed: int
    event_grid: np.ndarray
    column_names: list[str]

    def __post_init__(self):
        _check_settings(self.mtry, self.min_leaf, self.max_depth)
        if not np.all(np.diff(self.event_grid) > 0):
            raise ValueError("event_grid must be strictly increasing")


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


def _smallest(u, m):
    """Mask of the m smallest entries in each row of u (at least m a row),
    ties to the earliest, as a stable sort orders them."""
    kth = np.partition(u, m - 1, axis=1)[:, m - 1:m]
    below, tie = u < kth, u == kth
    room = m - np.count_nonzero(below, axis=1, keepdims=True)  # places left for ties
    return below | tie & (np.cumsum(tie, axis=1) <= room)


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
        u = np.full(step.shape, np.inf)
        u[k, j, i] = uniform_at(seeds[k], counters[k] + p + np.arange(k.size) - first[k])
        step[wide] = _smallest(u[wide], _MAX_THRESHOLDS)
    k, j, i = np.nonzero(step)
    mids = 0.5 * (xs[k, j, i] + xs[k, j, i + 1])
    n_left = i + 1  # the values up to step i (pads sort last), but a midpoint
    up = np.flatnonzero(mids >= xs[k, j, i + 1])  # that rounds up takes the next value too
    n_left[up] = np.count_nonzero(xs[k[up], j[up]] <= mids[up, None], axis=1)
    valid = (n_left >= min_leaf) & (sizes[k] - n_left >= min_leaf)
    k, j, mids = k[valid], j[valid], mids[valid]
    masks = block[k, j] <= mids[:, None]  # each candidate's left rows

    ends = np.cumsum(sizes)
    live = rows[np.arange(w) < sizes[:, None]]
    rs = sorted_risk_sets(times[live], events[live], live, ends)  # the nodes are its runs
    has = rs.n_events > 0  # each node's event times
    node = np.searchsorted(ends, rs.starts[has], side="right")
    slot = np.arange(node.size) - np.searchsorted(node, node)
    from_end = np.zeros((K, slot.max() + 1), dtype=np.int64)  # padding: no events, 1 at risk
    n_events, n_at_risk = np.zeros(from_end.shape), np.ones(from_end.shape)
    from_end[node, slot] = w - 1 - (rs.starts[has] - (ends - sizes)[node])
    n_events[node, slot], n_at_risk[node, slot] = rs.n_events[has], rs.n_at_risk[has]
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


def _batch_order(entry):
    """Nodes batch by size class, then by event count."""
    return entry[0], entry[5]


def _grow_trees(design, seeds, min_leaf, max_depth, mtry, grid) -> list[NodeTable]:
    """The tables of trees grown in lockstep, each on the bootstrap its
    seed draws; a step's nodes are searched in batches of one size class
    and at most _CELLS cells."""
    n, p = design.X.shape
    XT = np.vstack([design.X, np.full(p, np.inf)]).T.copy()  # row n is the batches' pad
    times = np.append(design.times, np.inf)
    events = np.append(design.events == 1, False)
    nodes = [[None] for _ in seeds]  # (column, threshold, left, a leaf's rows)
    inbags = (CounterRng(seed).integers(n, n) for seed in seeds)
    stacks = [[(0, rows, 0, int(np.count_nonzero(events[rows])))] for rows in (
        inbag[np.argsort(design.times[inbag], kind="stable")] for inbag in inbags)]
    seeds = np.array(seeds, dtype=np.uint64)
    counters = np.full(len(stacks), n)  # the bootstrap drew the first n slots
    while True:
        todo = []
        for t, stack in enumerate(stacks):
            while stack:
                node, rows, depth, n_events = stack.pop()
                if (rows.size >= 2 * min_leaf and n_events > 0
                        and (max_depth is None or depth < max_depth)):
                    todo.append((1 << (rows.size - 1).bit_length(), t, node, rows, depth, n_events))
                    break
                nodes[t][node] = (-1, 0.0, -1, rows)
        todo.sort(key=_batch_order)
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
                    nodes[t][node] = (-1, 0.0, -1, rows)
                    continue
                go_left, child = go_left[:rows.size], len(nodes[t])
                nodes[t][node] = (j, thr, child, _NO_ROWS)
                nodes[t] += [None, None]
                stacks[t].append((child + 1, rows[~go_left], depth + 1, n_events - n_left_events))
                stacks[t].append((child, rows[go_left], depth + 1, n_left_events))
        if not todo:
            return [_table(tree, times, events, grid) for tree in nodes]


def _table(nodes: list, times: np.ndarray, events: np.ndarray, grid: np.ndarray) -> NodeTable:
    """A tree's table from its grown nodes, each leaf's knots found from
    its rows, in time order, in one pass over the tree, and in `grid`."""
    column, threshold, left, rows = zip(*nodes)
    ends = np.cumsum([r.size for r in rows])
    rows = np.concatenate(rows)
    rs = sorted_risk_sets(times[rows], events[rows], rows, ends)  # the leaves are its runs
    has = rs.n_events > 0  # a leaf's knots are the times of its events
    sizes = np.bincount(np.searchsorted(ends, rs.starts[has], side="right"), minlength=len(nodes))
    return NodeTable(*map(np.array, (column, threshold, left)), np.cumsum(sizes) - sizes,
                     np.searchsorted(grid, rs.times[has]), rs.n_events[has].astype(np.int64),
                     rs.n_at_risk[has])  # integer counts, as in the forest file


def _grow_in_shards(design, seeds, *settings) -> list[NodeTable]:
    """`_grow_trees` in k contiguous shards of the trees, all but the last forked."""
    k = max(1, min(len(seeds), workers.usable_cpus(), len(seeds) * design.n // _SHARD_ROWS))
    cuts = [len(seeds) * i // k for i in range(k + 1)]
    shards = workers.run([partial(_grow_trees, design, seeds[lo:hi], *settings)
                          for lo, hi in zip(cuts, cuts[1:])])
    for shard in shards:  # the forest needs every shard: the first error is raised
        if isinstance(shard, Exception):
            raise shard
    return [table for shard in shards for table in shard]


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
    mtry = math.ceil(math.sqrt(design.p)) if mtry is None else mtry
    _check_settings(mtry, min_leaf, max_depth)
    mtry = min(int(mtry), design.p)
    seeds = [derive_seed(seed, i) for i in range(b)]
    grid = np.unique(design.times[design.events == 1])
    tables = _grow_in_shards(design, seeds, min_leaf, max_depth, mtry, grid)
    return Forest(
        trees=[SurvivalTree(seed=s, n=design.n, nodes=t) for s, t in zip(seeds, tables)],
        mtry=mtry,
        min_leaf=int(min_leaf),
        max_depth=max_depth,
        seed=seed,
        event_grid=grid,
        column_names=list(design.names),
    )


def _check_settings(mtry, min_leaf, max_depth) -> None:
    """Refuse what no forest grows with, in `fit_forest` and any `Forest`
    alike: settings not whole numbers or out of range (None: no depth limit)."""
    for name, v, low in (("min_leaf", min_leaf, 1), ("max_depth", max_depth, 0), ("mtry", mtry, 1)):
        if v is None and name == "max_depth":
            continue
        if isinstance(v, (bool, str, type(None))) or isinstance(v, float) and not v.is_integer():
            raise ValueError(f"{name} must be a whole number")
        if v < low:
            raise ValueError(f"{name} must be {'null or ' * (not low)}>= {low}")


def _descend(trees: list[SurvivalTree], X: np.ndarray) -> tuple[NodeTable, np.ndarray]:
    """The trees' tables stacked into one, knot offsets shifted into it, and the
    (rows, B) matrix of the node each row of X reaches in each tree. A level moves
    an entry to left + 1 unless X[row, column] <= threshold (a NaN goes right), and
    a leaf to itself (column 0, threshold NaN, left its index - 1): see _STRIDE."""
    sizes = [tree.nodes.column.size for tree in trees]
    roots = np.cumsum([0, *sizes[:-1]])
    first_knot = np.repeat(np.cumsum([0, *(tree.nodes.knots.size for tree in trees[:-1])]), sizes)
    nodes = NodeTable(*map(np.concatenate, zip(*(tree.nodes for tree in trees))))
    nodes, split = nodes._replace(offsets=nodes.offsets + first_knot), nodes.column >= 0
    column, threshold = np.where(split, nodes.column, 0), np.where(split, nodes.threshold, np.nan)
    left = np.where(split, nodes.left + np.repeat(roots, sizes), np.arange(split.size) - 1)
    x = np.ascontiguousarray(X, dtype=np.float64).ravel()
    at = np.tile(roots, X.shape[0])
    for lo in range(0, at.size, _PASS_CELLS):
        live = lo + np.flatnonzero(split[at[lo:lo + _PASS_CELLS]])
        base, node = live // roots.size * X.shape[1], at[live]
        while live.size:
            for _ in range(_STRIDE):
                node = left[node] + ~(x[base + column[node]] <= threshold[node])
            at[live] = node
            keep = np.flatnonzero(split[node])
            live, base, node = live[keep], base[keep], node[keep]
    return nodes, at.reshape(X.shape[0], roots.size)


def _mortality(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Ensemble mortality of each row of X: the math.fsum of its B leaf
    mortalities over B. A leaf's mortality, its curve summed over the event
    grid, is a running sum in knot order of each value times the grid points
    it holds for; taken most knots first, the reached leaves with a knot j
    are a prefix, and knot j adds to two running vectors for them all."""
    nodes, at = _descend(forest.trees, X)
    sizes = np.diff(nodes.offsets, append=nodes.knots.size)
    reached = np.flatnonzero(np.bincount(at.ravel(), minlength=nodes.column.size))
    reached = reached[np.argsort(-sizes[reached], kind="stable")]
    count, first = sizes[reached], nodes.offsets[reached]
    knots = np.append(nodes.knots, forest.event_grid.size)  # the grid's end after the last
    hazard, mortality = np.zeros(reached.size), np.zeros(nodes.column.size)
    for j, r in enumerate(np.searchsorted(-count, -np.arange(count.max(initial=0)))):
        k = first[:r] + j  # the leaves with a knot j, and that knot
        hazard[:r] += nodes.events[k] / nodes.at_risk[k]
        end = np.where(j + 1 < count[:r], knots[k + 1], forest.event_grid.size)
        mortality[reached[:r]] += hazard[:r] * (end - knots[k])  # times the grid points held
    leaf = mortality[at]  # fsum reads a row through a memoryview, not a list
    return np.array([math.fsum(memoryview(row)) / at.shape[1] for row in leaf])


def predict_chf(forest: Forest, x) -> StepFunction:
    """Ensemble cumulative hazard: at each knot of the B leaves x reaches, the
    math.fsum over B of each leaf's value there, so tree order does not matter."""
    nodes, at = _descend(forest.trees, np.asarray(x, dtype=np.float64)[None, :])
    ends = np.append(nodes.offsets, nodes.knots.size)
    leaves = [slice(ends[leaf], ends[leaf + 1]) for leaf in at[0]]  # each leaf's own knots
    knots = np.unique(np.concatenate([nodes.knots[s] for s in leaves]))
    values = np.array([np.append(0.0, np.cumsum(nodes.events[s] / nodes.at_risk[s]))[
        np.searchsorted(nodes.knots[s], knots, "right")] for s in leaves])  # 0 before the first
    return StepFunction(forest.event_grid[knots],
                        [math.fsum(col) / at.shape[1] for col in values.T.tolist()], initial=0.0)


def mortality_score(forest: Forest, x) -> float:
    """Sum of the ensemble CHF over the training event-time grid; higher
    means earlier predicted purchase."""
    x = np.asarray(x, dtype=np.float64)
    return float(_mortality(forest, x[None, :])[0])


def rsf_risk(forest: Forest, design: DesignMatrix) -> np.ndarray:
    if design.names != forest.column_names:
        raise ValueError("design columns do not match the fitted forest")
    return _mortality(forest, np.asarray(design.X, dtype=np.float64))


def _flat(trees: list, key: str) -> tuple[np.ndarray, np.ndarray]:
    """The trees' strings `key` parsed at once (numbers for thresholds, else
    integers) and each one's count, its spaces plus one. With a 0 put last, a
    bad token or other spacing makes NumPy parse fewer; other whitespace is refused."""
    dtype, what = (np.float64, "numbers") if key == "threshold" else (np.int64, "integers")
    texts, a = [tree[key] for tree in trees], None
    if any(isinstance(text, list) for text in texts):
        raise ValueError(f"a tree's {key} is a list, an older file format; refit the model")
    texts = [text if isinstance(text, str) else "x" for text in texts]  # "x": a bad token
    text, lengths = " ".join([*texts, "0"]), np.array([t.count(" ") + 1 if t else 0 for t in texts])
    with warnings.catch_warnings(), suppress(ValueError):  # NumPy raises at a bad token,
        warnings.simplefilter("ignore", DeprecationWarning)  # an older one warns and stops
        a = np.fromstring(text, dtype=dtype, sep=" ")
    if a is None or a.size != lengths.sum() + 1 or any(c in text for c in "\t\n\v\f\r"):
        raise ValueError(f"a tree's {key} must be a list of {what}")
    return a[:-1], lengths


def tree_to_dict(tree: SurvivalTree) -> dict:
    """A tree as a forest file holds it: its seed, then each of FILE_FIELDS as one
    string of numbers one space apart; a knot holds its step from the leaf's last
    (the first from 0), its events, and the rows censored from it to the next."""
    t, split = tree.nodes, tree.nodes.column >= 0
    sizes = np.diff(t.offsets, append=t.knots.size)
    start = np.isin(np.arange(t.knots.size + 1), np.append(t.offsets, t.knots.size))  # leaf starts
    fields = (t.column, t.threshold[split], t.left[split], sizes[~split],
              np.where(start[:-1], t.knots, np.diff(t.knots, prepend=0)), t.events,
              t.at_risk - t.events - np.where(start[1:], 0, np.append(t.at_risk[1:], 0)))
    return {"seed": tree.seed, **{k: json.dumps(v.tolist(), separators=(" ", ":"))[1:-1]
                                  for k, v in zip(FILE_FIELDS, fields)}}  # no brackets


def trees_from_dict(f: dict) -> list[SurvivalTree]:
    """The trees of forest file fields `f`, their tables rebuilt and checked at once on
    their fields joined: split columns in [0, p), finite thresholds, a threshold and left
    child per split and a knot count per leaf, each node but a root the child of one split
    before it, knots rising in the grid, 1 <= events, 0 <= censored, at_risk <= n."""
    trees, grid_size, p, n = f["trees"], len(f["event_grid"]), len(f["column_names"]), f["n"]
    if n < 1:
        raise ValueError("the training size n must be an integer >= 1")
    if not trees:
        raise ValueError("a forest needs at least one tree")
    for key, what in ("root", "the forest's trees are nested"), ("offsets", "a tree has offsets"):
        if any(key in tree for tree in trees):
            raise ValueError(f"{what}, an older file format; refit the model")
    fields, lengths = zip(*(_flat(trees, key) for key in FILE_FIELDS))
    column, threshold, left, counts, steps, events, censored = fields
    if not (np.all((column >= -1) & (column < p)) and np.all(np.isfinite(threshold))):
        raise ValueError(f"split columns must be in [0, {p}) and thresholds finite")
    m, split = lengths[0], column != -1
    splits = np.bincount(np.repeat(np.arange(m.size), m)[split], minlength=m.size)
    if not (np.all(m >= 1) and np.array_equal(lengths[1:4], [splits, splits, m - splits])):
        raise ValueError("a tree's node lists must be nonempty, with a threshold and left child "
                         "per split and a knot count per leaf")
    k = np.diff(np.append(0, np.cumsum(np.clip(counts, 0, grid_size)))[np.cumsum(m - splits)],
                prepend=0)  # each tree's knots
    if not (np.all((counts >= 0) & (counts <= grid_size)) and np.array_equal(lengths[4:], [k] * 3)):
        raise ValueError(f"knot counts must be in [0, {grid_size}] and add up to the length of "
                         "a tree's knot_steps, events and censored")
    root = np.repeat(np.cumsum(m) - m, m)  # each node's tree's root
    node = np.arange(column.size) - root
    first = left + root[split]  # each split's left child in the joined tables
    if not (np.all((node[split] < left) & (left < np.repeat(m, m)[split] - 1))
            and np.array_equal(np.bincount(np.concatenate([first, first + 1]),
                                           minlength=column.size), node > 0)):
        raise ValueError("each node but the root must be the child of one split before it")
    ends = np.cumsum(counts)
    starts = np.repeat(ends - counts, counts)  # each knot's leaf's first knot
    knots = np.cumsum(np.clip(steps, 0, grid_size))  # no wrap
    knots -= np.append(0, knots)[starts]
    if not np.all((steps >= (np.arange(steps.size) != starts)) & (knots < grid_size)):
        raise ValueError("leaf knots must be increasing indices into the event grid")
    bound = min(n, 2**62 // max(1, steps.size))  # so no sum wraps
    after = np.cumsum((np.clip(events, 0, bound) + np.clip(censored, 0, bound))[::-1])[::-1]
    at_risk = after - np.append(after, 0)[np.repeat(ends, counts)]  # the sum to the leaf's end
    if not (np.all((events >= 1) & (events <= bound) & (censored >= 0) & (censored <= bound))
            and np.all(at_risk <= n)):
        raise ValueError("leaf counts must satisfy 1 <= events, 0 <= censored and at_risk <= n")
    full = np.zeros(column.size), np.full(column.size, -1), 0 * column  # threshold, left, knots
    full[0][split], full[1][split], full[2][~split] = threshold, left, counts
    offsets = np.cumsum(full[2]) - full[2] - np.repeat(np.cumsum(k) - k, m)  # in its tree
    tables = zip(*(np.split(a, np.cumsum(m)[:-1]) for a in (column, *full[:2], offsets)),
                 *(np.split(a, np.cumsum(k)[:-1]) for a in (knots, events, at_risk)))
    return [SurvivalTree(tree["seed"], n, NodeTable(*table)) for tree, table in zip(trees, tables)]

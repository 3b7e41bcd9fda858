"""Random survival forest: log-rank splits, bootstrap ensemble, averaged
Nelson-Aalen leaf estimates.

The B trees grow in lockstep: each tree walks its nodes depth first,
left subtree first, from its own stack of the nodes that may split, and
each step pops every tree's next node and searches them together, in
batches of one power-of-two size class padded to their widest node, a
class's nodes taken in order of event count so that a batch's nodes have
similar widths and event times. A tree's bootstrap rows lie in stable
time order in one row of a matrix, and a node is a range of it: a split
partitions the range in place, left rows first, so a child keeps its
parent's order. A node reads its draws at its own tree's counter
positions, so each tree draws what it would draw grown alone. A batch's
candidates run along the fast axis: row masks are (row, candidate) and
the log-rank counts (event time, candidate), so the sums over event
times run down the rows in time order, one row after another, and a lone
candidate is paired, as NumPy sums a single column pairwise. Padding
adds only trailing +0.0 terms, so no split depends on which nodes share
a batch. A candidate's left count is read off the sorted column, so only
candidates that leave min_leaf rows on each side get a row mask. As no
tree depends on the trees grown with it, the trees grow in k contiguous
shards, one per usable CPU but at most one per _SHARD_ROWS bootstrap
rows, all but the last in forked workers (`workers.run`), and the forest
does not depend on k.

A forest is one flat node table, its trees in turn, and each tree's node
count; fit, file and scoring share it. A tree's nodes are in growing
order, node 0 its root, each child after its parent: a node's split
column (-1 at a leaf), threshold and left child, and its leaf's knots
(the distinct event times of its rows as indices into the event grid)
and integer event and at-risk counts at each, one array per field over
all leaves with each node's knot count (0 at a split). No leaf's curve
is ever built on the whole grid.

The ensemble cumulative hazard is the mean of the B leaf curves a row
falls into, so its mortality (that curve summed over the training
event-time grid) is the mean of one scalar per leaf. Scoring descends
the table's trees together over a (rows, B) matrix of node indices. A
right child follows its left, so a level moves an entry to left + 1
unless its value is <= the threshold: a NaN goes right; a leaf steps to
itself, so a pass compacts every _STRIDE levels. A reached leaf's sum,
each knot's value times the grid points it holds for, is taken by knot
position over all reached leaves. A row's B leaf mortalities are averaged
exactly, as math.fsum over B, so tree order does not matter: cut at binades
26 bits apart, a cut's parts sum exactly over the trees, in blocks of
_MEAN_ROWS rows, and math.fsum adds a row's few part sums (_row_means).
`predict_chf` reads each reached leaf's curve off its own slice of knots
in the table and takes the math.fsum over B at each knot.

A forest holds the training size n, not its trees' bootstrap rows: a
tree, a view built when read, draws its `inbag`, n draws of its seed's
stream. A forest file holds the grid and n once, and each field of the
table as one string of base-32 digits over all trees, a threshold as its
two 32-bit halves; a tree's seed is derived from the forest's, as the
fit derived it. Loading rebuilds and checks the whole table at once.

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

import math
from collections import namedtuple
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
_MEAN_ROWS = 256  # rows of the (rows, B) node matrix a block of the exact mean takes
_STRIDE = 4  # levels the descent steps between compactions (3 to 8 took about as long)
_SHARD_ROWS = 1 << 14  # bootstrap rows (trees times n) a shard takes at least: on 2 CPUs,
# fewer made the fork, the pipe and the child's wait for an idle CPU cost more than they saved


class NodeTable(NamedTuple):
    """Trees' nodes in growing order: node i splits on column[i] (a row goes
    left when its value is <= threshold[i]) into its tree's nodes left[i] and
    left[i] + 1 (knot_counts[i] 0), or is a leaf (column and left -1) whose
    knot_counts[i] knots (indices into the forest's event grid), event and
    at-risk counts follow the earlier nodes' in knots, events and at_risk."""

    column: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    knot_counts: np.ndarray
    knots: np.ndarray
    events: np.ndarray
    at_risk: np.ndarray


FILE_FIELDS = ("nodes", "column", "threshold", "left", "knot_counts", "knot_steps", "events", "censored")
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
    nodes: NodeTable  # every tree's nodes, tree after tree
    tree_sizes: np.ndarray  # each tree's node count
    n: int  # the training size
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

    @property
    def trees(self) -> tuple[SurvivalTree, ...]:
        """The trees in order, built when read: tree i's seed derive_seed(seed, i), as the
        fit drew it, and its nodes views of its part of the table."""
        cuts = np.cumsum(self.tree_sizes)[:-1]
        parts = zip(*(np.split(a, cuts) for a in self.nodes[:4]), *(np.split(
            a, np.cumsum(self.nodes.knot_counts)[cuts - 1]) for a in self.nodes[4:]))
        return tuple(SurvivalTree(derive_seed(self.seed, i), self.n, NodeTable(*part))
                     for i, part in enumerate(parts))


def _logrank(n_left, observed, n_events, n_at_risk):
    """Two-sample log-rank statistic |O-E|/sqrt(V) of each candidate, nan
    where V = 0. The arrays are C-contiguous (event time, candidate):
    candidates run along the fast axis, and E and V are sums down the rows
    in time order, which NumPy's reduction over axis 0 adds row by row when
    there are two or more columns, so a candidate scores the same bits in
    any batch, and padding terms (no events, one at risk) add +0.0. A lone
    candidate is paired with itself, as NumPy sums one column pairwise."""
    lone = n_left.shape[1] == 1
    if lone:
        n_left, n_events, n_at_risk = (np.repeat(a, 2, axis=1)
                                       for a in (n_left, n_events, n_at_risk))
    frac = n_left / n_at_risk
    expected_terms = n_events * frac
    with np.errstate(invalid="ignore", divide="ignore"):
        # expected * (1 - frac) * (n - d) / (n - 1), in place: large temporaries cost page faults
        variance_terms = np.subtract(1.0, frac, out=frac)
        variance_terms *= expected_terms
        variance_terms *= n_at_risk - n_events
        variance_terms /= n_at_risk - 1.0
        np.copyto(variance_terms, 0.0, where=n_at_risk <= 1)
        expected = np.add.reduce(expected_terms, axis=0)
        variance = np.add.reduce(variance_terms, axis=0)
        score = np.where(variance > 0.0, np.abs(observed - expected) / np.sqrt(variance), np.nan)
    return score[:1] if lone else score


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
    n_left = risk_set_sums(rs, left[rs.order].astype(np.float64))[has, None]  # one candidate
    observed = np.count_nonzero(left[rs.order] & rs.is_event)
    score = _logrank(n_left, observed, rs.n_events[has, None], rs.n_at_risk[has, None])[0]
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
    wide = np.flatnonzero(np.count_nonzero(step, axis=2) > _MAX_THRESHOLDS)  # (node, column)s
    r, i = np.nonzero(step.reshape(K * mtry, w - 1)[wide])  # node by node, in column order
    k = wide[r] // mtry
    drawn = np.bincount(k, minlength=K)
    if k.size:  # keep the 32 thresholds of smallest draw per wide column
        first = np.cumsum(drawn) - drawn
        u = np.full((wide.size, w - 1), np.inf)
        u[r, i] = uniform_at(seeds[k], counters[k] + p + np.arange(k.size) - first[k])
        step.reshape(K * mtry, w - 1)[wide] = _smallest(u, _MAX_THRESHOLDS)
    k, j, i = np.nonzero(step)
    mids = 0.5 * (xs[k, j, i] + xs[k, j, i + 1])
    n_left = i + 1  # the values up to step i (pads sort last), but a midpoint
    up = np.flatnonzero(mids >= xs[k, j, i + 1])  # that rounds up takes the next value too
    n_left[up] = np.count_nonzero(xs[k[up], j[up]] <= mids[up, None], axis=1)
    valid = (n_left >= min_leaf) & (sizes[k] - n_left >= min_leaf)
    k, j, mids = k[valid], j[valid], mids[valid]
    masks = np.take(block.reshape(K * mtry, w).T, k * mtry + j, axis=1) <= mids  # (w, C) left rows

    ends = np.cumsum(sizes)
    live = rows[np.arange(w) < sizes[:, None]]
    rs = sorted_risk_sets(times[live], events[live], live, ends)  # the nodes are its runs
    has = rs.n_events > 0  # each node's event times
    node = np.searchsorted(ends, rs.starts[has], side="right")
    slot = np.arange(node.size) - np.searchsorted(node, node)
    from_end = np.zeros((slot.max() + 1, K), dtype=np.int64)  # padding: no events, 1 at risk
    n_events, n_at_risk = np.zeros(from_end.shape), np.ones(from_end.shape)
    from_end[slot, node] = w - 1 - (rs.starts[has] - (ends - sizes)[node])
    n_events[slot, node], n_at_risk[slot, node] = rs.n_events[has], rs.n_at_risk[has]
    observed = np.count_nonzero(masks & np.take(events[rows].T, k, axis=1), axis=0)
    n_left = np.take_along_axis(  # left rows at or after each event time
        np.cumsum(masks[::-1], axis=0, dtype=np.int32), np.take(from_end, k, axis=1), axis=0)
    scores = np.fmax(_logrank(n_left, observed, np.take(n_events, k, axis=1),
                              np.take(n_at_risk, k, axis=1)), 0.0)  # nan scores 0

    best = np.zeros(K)
    np.maximum.at(best, k, scores)
    ties = np.flatnonzero((scores == best[k]) & (scores > 0.0))
    split, first = np.unique(k[ties], return_index=True)  # the first maximum
    c = ties[first]
    column, threshold, left_events = np.full(K, -1), np.zeros(K), np.zeros(K, dtype=np.int64)
    left = np.zeros((K, w), dtype=bool)
    column[split] = cols[split, j[c]]
    threshold[split], left[split], left_events[split] = mids[c], masks[:, c].T, observed[c]
    return column, threshold, left, left_events, p + drawn


def _grow_trees(design, seeds, min_leaf, max_depth, mtry, grid) -> tuple[NodeTable, np.ndarray]:
    """The table and node counts of trees grown in lockstep, each on the bootstrap its
    seed draws; a step's nodes are searched in batches of one size class
    and at most _CELLS cells. Tree t's rows, in time order, fill `flat`
    from t * n on, and a node is a range of it: a split partitions its
    range in place, left rows first, each side in its order. A tree's
    stack holds only nodes that may split, so a step pops one per tree."""
    n, p = design.X.shape
    XT = np.vstack([design.X, np.full(p, np.inf)]).T.copy()  # row n is the batches' pad
    times = np.append(design.times, np.inf)
    events = np.append(design.events == 1, False)
    flat = np.concatenate([inbag[np.argsort(design.times[inbag], kind="stable")] for inbag in (
        CounterRng(seed).integers(n, n) for seed in seeds)])
    seeds = np.array(seeds, dtype=np.uint64)
    counters = np.full(seeds.size, n)  # the bootstrap drew the first n slots
    nodes, t = np.ones(seeds.size, dtype=np.int64), np.arange(seeds.size)  # node counts, trees
    stack, top = np.zeros((5, seeds.size, 8), dtype=np.int64), 0 * t  # a tree's stack, its size
    limit, splits = math.inf if max_depth is None else max_depth, []
    made = [(t, 0 * t, t * n, t * n + n,  # the roots
             np.count_nonzero(events[flat].reshape(-1, n), axis=1), 0 * t)]
    while True:
        for t, node, lo, hi, n_events, depth in made:  # of distinct trees, the left child last
            go = (hi - lo >= 2 * min_leaf) & (n_events > 0) & (depth < limit)
            stack = np.dstack([stack, stack]) if top.max() == stack.shape[2] else stack
            stack[:, t[go], top[t[go]]] = np.stack([node, lo, hi, n_events, depth])[:, go]
            top[t[go]] += 1
        if not (t := np.flatnonzero(top)).size:
            return _tables(flat, nodes, splits, times, events, grid)
        top[t] -= 1
        node, lo, hi, n_events, depth = stack[:, t, top[t]]
        size_class = np.left_shift(1, np.frexp(hi - lo - 1)[1])
        order = np.lexsort((n_events, size_class))  # nodes batch by size class, then event count
        w = size_class[order]  # size classes in batch order, and where each one ends
        w, last, at = w.tolist(), np.searchsorted(w, w, "right").tolist(), 0
        column, n_left, left_events = np.zeros((3, t.size), dtype=np.int64)
        threshold = np.zeros(t.size)
        while at < len(w):
            end = min(at + max(1, _CELLS // (w[at] * mtry)), last[at])
            b, at = order[at:end], end
            sizes = hi[b] - lo[b]
            cells = np.arange(sizes.max())
            live = cells < sizes[:, None]
            rows = np.where(live, np.take(flat, lo[b, None] + cells, mode="clip"), n)
            column[b], threshold[b], left, left_events[b], drawn = _best_splits(
                XT, times, events, seeds[t[b]], counters[t[b]], rows, sizes, mtry, min_leaf)
            counters[t[b]] += drawn
            ranks = np.cumsum(left, axis=1)  # left rows first, then the right, each in order
            n_left[b] = ranks[:, -1]
            to = np.where(left, ranks - 1, ranks[:, -1:] + cells - ranks)
            flat[(lo[b, None] + to)[live]] = rows[live]
        split = column >= 0
        t, node, column, lo, mid, hi, n_events, left_events, depth = (a[split] for a in (
            t, node, column, lo, lo + n_left, hi, n_events, left_events, depth + 1))
        child = nodes[t]
        nodes[t] += 2
        splits.append((np.stack([t, node, column, child, lo, mid, hi]), threshold[split]))
        made = [(t, child + 1, mid, hi, n_events - left_events, depth),
                (t, child, lo, mid, left_events, depth)]


def _tables(flat, nodes, splits, times, events, grid) -> tuple[NodeTable, np.ndarray]:
    """The trees' table from their splits, and their node counts: a root holds its
    tree's range of `flat`, and a split's children the two parts of the split's range."""
    fields, thresholds = zip((np.zeros((7, 0), dtype=np.int64), np.zeros(0)), *splits)
    tree, node, j, child, lo, mid, hi = np.concatenate(fields, axis=1)
    roots, n = np.cumsum(nodes) - nodes, flat.size // nodes.size
    split, kids = roots[tree] + node, roots[tree] + child
    column, left, first, last = np.full((4, nodes.sum()), -1)
    threshold = np.zeros(nodes.sum())
    column[split], threshold[split], left[split] = j, np.concatenate(thresholds), child
    first[np.r_[roots, kids, kids + 1]] = np.r_[np.arange(nodes.size) * n, lo, mid]
    last[np.r_[roots, kids, kids + 1]] = np.r_[np.arange(nodes.size) * n + n, mid, hi]
    sizes = np.where(column < 0, last - first, 0)  # a split holds no rows
    leaves = zip(*(_leaves(flat, first[lo:hi], sizes[lo:hi], times, events, grid)
                   for lo, hi in zip(roots, roots + nodes)))
    return NodeTable(column, threshold, left, *map(np.concatenate, leaves)), nodes


def _leaves(flat, first, sizes, times, events, grid) -> tuple:
    """A tree's knot counts, knots, event and at-risk counts, each leaf's knots found
    from its rows (`sizes` of them from `first` in `flat`), in time order, in one pass
    over the tree, and in `grid`. One pass over all trees' leaves raised `bench`'s peak RSS."""
    ends = np.cumsum(sizes)
    rows = flat[np.repeat(first - ends + sizes, sizes) + np.arange(ends[-1])]
    rs = sorted_risk_sets(times[rows], events[rows], rows, ends)  # the leaves are its runs
    has = rs.n_events > 0  # a leaf's knots are the times of its events
    counts = np.bincount(np.searchsorted(ends, rs.starts[has], side="right"), minlength=ends.size)
    return (counts, np.searchsorted(grid, rs.times[has]), rs.n_events[has].astype(np.int64),
            rs.n_at_risk[has])  # integer counts, as in the forest file


def _grow_in_shards(design, seeds, *settings) -> tuple[NodeTable, np.ndarray]:
    """`_grow_trees` in k contiguous shards of the trees, all but the last forked, joined."""
    k = max(1, min(len(seeds), workers.usable_cpus(), len(seeds) * design.n // _SHARD_ROWS))
    cuts = [len(seeds) * i // k for i in range(k + 1)]
    shards = workers.run([partial(_grow_trees, design, seeds[lo:hi], *settings)
                          for lo, hi in zip(cuts, cuts[1:])])
    for shard in shards:  # the forest needs every shard: the first error is raised
        if isinstance(shard, Exception):
            raise shard
    tables, sizes = zip(*shards)
    return NodeTable(*map(np.concatenate, zip(*tables))), np.concatenate(sizes)


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
    return Forest(*_grow_in_shards(design, seeds, min_leaf, max_depth, mtry, grid), design.n,
                  mtry, int(min_leaf), max_depth, seed, grid, list(design.names))


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


def _descend(forest: Forest, X: np.ndarray) -> np.ndarray:
    """The (rows, B) matrix of the node of the table each row of X reaches in each tree.
    A level moves an entry to left + 1 unless X[row, column] <= threshold (a NaN goes
    right), and a leaf to itself (column 0, threshold NaN, left its index - 1): see _STRIDE."""
    nodes, sizes = forest.nodes, forest.tree_sizes
    roots = np.cumsum(sizes) - sizes
    split = nodes.column >= 0
    column, threshold = np.where(split, nodes.column, 0), np.where(split, nodes.threshold, np.nan)
    left = np.where(split, nodes.left + np.repeat(roots, sizes), np.arange(split.size) - 1)
    x = np.ascontiguousarray(X, dtype=np.float64).ravel()
    at = np.tile(roots, X.shape[0])
    for lo in range(0, at.size, _PASS_CELLS):  # 1-D gathers by take, faster than indexing
        live = lo + np.flatnonzero(split.take(at[lo:lo + _PASS_CELLS]))
        base, node = live // roots.size * X.shape[1], at.take(live)
        while live.size:
            for _ in range(_STRIDE):
                node = left.take(node) + ~(x.take(base + column.take(node)) <= threshold.take(node))
            at[live] = node
            keep = np.flatnonzero(split.take(node))
            live, base, node = live.take(keep), base.take(keep), node.take(keep)
    return at.reshape(X.shape[0], roots.size)


def _mortality(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Ensemble mortality of each row of X, the mean of its B leaf mortalities by
    _row_means. A leaf's mortality, its curve summed over the event grid, is a
    running sum in knot order of each value times the grid points it holds
    for; taken most knots first, the reached leaves with a knot j are a
    prefix, and knot j adds to two running vectors for them all."""
    nodes, at = forest.nodes, _descend(forest, X)
    sizes = nodes.knot_counts
    reached = np.flatnonzero(np.bincount(at.ravel(), minlength=nodes.column.size))
    reached = reached[np.argsort(-sizes[reached], kind="stable")]
    count, first = sizes[reached], (np.cumsum(sizes) - sizes)[reached]  # each leaf's first knot
    knots = np.append(nodes.knots, forest.event_grid.size)  # the grid's end after the last
    hazard, mortality = np.zeros(reached.size), np.zeros(nodes.column.size)
    for j, r in enumerate(np.searchsorted(-count, -np.arange(count.max(initial=0)))):
        k = first[:r] + j  # the leaves with a knot j, and that knot
        hazard[:r] += nodes.events.take(k) / nodes.at_risk.take(k)
        end = np.where(j + 1 < count[:r], knots.take(k + 1), forest.event_grid.size)
        mortality[reached[:r]] += hazard[:r] * (end - knots.take(k))  # times the grid points held
    return _row_means(mortality, at)


def _row_means(values, at) -> np.ndarray:
    """Each row's math.fsum(values[at[row]]) / B, bit for bit (finite values, B < 2**27)."""
    e = np.frexp(values[values != 0])[1]  # |value| < 2**e, and a multiple of 2**(e - 53)
    cuts = range(int(e.max(initial=-1074)) - 26, max(int(e.min(initial=1024)) - 53, -1074), -26)
    sums = np.zeros((len(cuts) + 1, at.shape[0]))  # each cut's part sums, then the rest's
    rest, part = np.empty((2, min(at.shape[0], _MEAN_ROWS), at.shape[1]))
    for lo in range(0, at.shape[0], _MEAN_ROWS):
        s = sums[:, lo:lo + _MEAN_ROWS]
        r, p = np.take(values, at[lo:lo + _MEAN_ROWS], out=rest[:s.shape[1]]), part[:s.shape[1]]
        for i, cut in enumerate(cuts):  # the bits of r at or above 2**cut, then the rest
            r -= np.ldexp(np.trunc(np.ldexp(r, -cut, out=p), out=p), cut, out=p)
            p.sum(axis=1, out=s[i])
        r.sum(axis=1, out=s[-1])
    return np.array([math.fsum(row) / at.shape[1] for row in sums.T.tolist()])


def predict_chf(forest: Forest, x) -> StepFunction:
    """Ensemble cumulative hazard: at each knot of the B leaves x reaches, the
    math.fsum over B of each leaf's value there, so tree order does not matter."""
    nodes, at = forest.nodes, _descend(forest, np.asarray(x, dtype=np.float64)[None, :])
    ends = np.cumsum(np.append(0, nodes.knot_counts))  # each node's first knot, then the end
    leaves = [slice(ends[leaf], ends[leaf + 1]) for leaf in at[0]]  # each leaf's own knots
    knots = np.unique(np.concatenate([nodes.knots[s] for s in leaves]))
    values = np.array([np.append(0.0, np.cumsum(nodes.events[s] / nodes.at_risk[s]))[
        np.searchsorted(nodes.knots[s], knots, "right")] for s in leaves])  # 0 before the first
    return StepFunction(forest.event_grid[knots],
                        [math.fsum(col) / at.shape[1] for col in values.T.tolist()], initial=0.0)


def mortality_score(forest: Forest, x) -> float:
    """Sum of the ensemble CHF over the training event-time grid; higher
    means earlier predicted purchase."""
    return float(_mortality(forest, np.asarray(x, dtype=np.float64)[None, :])[0])


def rsf_risk(forest: Forest, design: DesignMatrix) -> np.ndarray:
    if design.names != forest.column_names:
        raise ValueError("design columns do not match the fitted forest")
    return _mortality(forest, np.asarray(design.X, dtype=np.float64))


_LAST, _MORE = "0123456789abcdefghijklmnopqrstuv", "ABCDEFGHIJKLMNOPQRSTUVWXYZwxyz+/"
_DIGITS = np.frombuffer((_LAST + _MORE).encode(), dtype=np.uint8)  # a last digit d, else 32 + d
_CODES = np.array([(_LAST + _MORE + chr(c)).index(chr(c)) for c in range(256)],
                  dtype=np.uint8)  # each byte's place in _DIGITS, 64 outside it


def _encode_digits(values) -> str:
    """Integers >= 0 as base-32 digits, most significant first, with no separator: a
    number's last digit from _LAST, each before it from _MORE."""
    values = np.asarray(values, dtype=np.int64)
    shift = 5 * np.arange(-(-int(values.max(initial=1)).bit_length() // 5))[::-1, None]  # places
    keep = (values >> shift > 0) | (shift == 0)  # a number's digits, from its first nonzero
    return _DIGITS[(values >> shift & 31) + 32 * (shift > 0)].T[keep.T].tobytes().decode()


def _decode_digits(text: str, key: str) -> np.ndarray:
    """The numbers of `text` as `_encode_digits` writes them. Refuses a character of
    neither set, a text that ends in a digit but a last one, and a number of more than
    12 digits (2**60 or more), before reading any number."""
    codes = _CODES.take(np.frombuffer(text.encode("utf-8", "replace"), np.uint8))
    ends = np.flatnonzero(codes < 32)  # each number's last digit
    size = np.diff(ends, prepend=-1)
    if np.any(codes == 64) or np.any(codes[-1:] >= 32) or np.any(size > 12):
        raise ValueError(f"trees {key} must be base-32 numbers of at most 12 digits")
    place = np.arange(size.max(initial=0))[:, None]  # each digit's place before the last
    digits = np.where(place < size, codes.take(ends - place) & 31, 0)  # < 0 only where masked
    return (digits << 5 * place).sum(0)


def trees_to_dict(t: NodeTable, sizes) -> dict:
    """Table `t` of trees of `sizes` nodes as a forest file holds it: each of FILE_FIELDS one
    string of `_encode_digits` digits over all trees in order: each tree's node count, each
    node's column plus one (a leaf 0), each split's threshold (its float64's 32-bit halves,
    low first) and left child, each leaf's knot count, and a knot's step from the leaf's last
    (the first from 0), its events, and the rows censored from it to the next."""
    split = t.column >= 0
    start = np.isin(np.arange(t.knots.size + 1), np.cumsum(np.append(0, t.knot_counts)))
    fields = (sizes, t.column + 1, t.threshold[split].astype("<f8").view("<u4"), t.left[split],
              t.knot_counts[~split],
              np.where(start[:-1], t.knots, np.diff(t.knots, prepend=0)), t.events,
              t.at_risk - t.events - np.where(start[1:], 0, np.append(t.at_risk[1:], 0)))
    return dict(zip(FILE_FIELDS, map(_encode_digits, fields)))


def trees_from_dict(f: dict) -> tuple[NodeTable, np.ndarray]:
    """The table and node counts of the trees of forest file fields `f`, checked at once: node
    counts >= 1, split columns in [0, p), finite thresholds, a threshold and left child per
    split and a knot count per leaf, each node but a root the child of one split before it in
    its tree, knots rising in the grid, 1 <= events, at_risk <= n (the digits are unsigned, so
    no lower bound needs a check)."""
    grid_size, p, n = len(f["event_grid"]), len(f["column_names"]), f["n"]
    if n < 1:
        raise ValueError("the training size n must be an integer >= 1")
    if missing := next((key for key in FILE_FIELDS if key not in f["trees"]), None):
        raise KeyError(f"trees {missing}")  # a key of `trees`, not of the file
    m, column, halves, left, counts, steps, events, censored = (
        _decode_digits(f["trees"][key], key) for key in FILE_FIELDS)
    if not m.size:
        raise ValueError("a forest needs at least one tree")
    if not (halves.size % 2 == 0 and np.all(halves < 2**32)):
        raise ValueError("trees threshold must be pairs of 32-bit halves")
    threshold, column = halves.astype("<u4").view("<f8"), column - 1  # a leaf's column is 0
    if not (np.all(column < p) and np.all(np.isfinite(threshold))):
        raise ValueError(f"split columns must be in [0, {p}) and thresholds finite")
    split = column != -1
    if not (np.all((m >= 1) & (m <= column.size)) and m.sum() == column.size
            and threshold.size == left.size == split.sum() == column.size - counts.size):
        raise ValueError("the trees' node lists must add up to their node counts, each >= 1, "
                         "with a threshold and left child per split and a knot count per leaf")
    if not (np.all(counts <= grid_size) and counts.sum() == steps.size == events.size
            == censored.size):
        raise ValueError(f"knot counts must be in [0, {grid_size}] and add up to the length of "
                         "trees knot_steps, events and censored")
    root = np.repeat(np.cumsum(m) - m, m)  # each node's tree's root
    node = np.arange(column.size) - root
    first = left + root[split]  # each split's left child in the joined tables
    if not (np.all((node[split] < left) & (left < np.repeat(m, m)[split] - 1))
            and np.array_equal(np.bincount(np.concatenate([first, first + 1]),
                                           minlength=column.size), node > 0)):
        raise ValueError("each node but the root must be the child of one split before it")
    ends = np.cumsum(counts)
    starts = np.repeat(ends - counts, counts)  # each knot's leaf's first knot
    knots = np.cumsum(np.minimum(steps, grid_size))  # no wrap
    knots -= np.append(0, knots)[starts]
    if not np.all((steps >= (np.arange(steps.size) != starts)) & (knots < grid_size)):
        raise ValueError("leaf knots must be increasing indices into the event grid")
    bound = min(n, 2**62 // max(1, steps.size))  # so no sum wraps
    after = np.cumsum((np.minimum(events, bound) + np.minimum(censored, bound))[::-1])[::-1]
    at_risk = after - np.append(after, 0)[np.repeat(ends, counts)]  # the sum to the leaf's end
    if not (np.all((events >= 1) & (events <= bound) & (censored <= bound))
            and np.all(at_risk <= n)):
        raise ValueError("leaf counts must satisfy 1 <= events, 0 <= censored and at_risk <= n")
    full = np.zeros(column.size), np.full(column.size, -1), 0 * column  # threshold, left, counts
    full[0][split], full[1][split], full[2][~split] = threshold, left, counts
    return NodeTable(column, *full, knots, events, at_risk), m

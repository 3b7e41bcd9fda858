"""Forest: split statistic against a loop-written reference and a closed
form, the chosen root split against a column-by-column search, a pinned
forest digest, single-tree degeneracies against the nonparametric
estimator, and structural invariants (seed determinism, monotone-transform
stability, leaf occupancy)."""

import functools
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from survbench import rsf, workers
from survbench.metrics import concordance_index
from survbench.nonparametric import nelson_aalen
from survbench.riskset import risk_set_sums, risk_sets
from survbench.rsf import (
    _logrank,
    fit_forest,
    logrank_score,
    mortality_score,
    predict_chf,
    rsf_risk,
)
from survbench.rng import CounterRng, derive_seed, uniform_at
from survbench.stepfun import StepFunction

from conftest import (forest_fields, forest_file, forest_lists, forest_trees, joined, load_forest,
                      numeric_design, numeric_schema, shard_failing_at, tree_file)


def naive_logrank(times, events, groups):
    """Two-sample log-rank, written as slow explicit loops. groups is a
    boolean array marking the left sample."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    groups = np.asarray(groups, dtype=bool)
    observed = expected = variance = 0.0
    for ut in sorted(set(times[events == 1])):
        at_risk = times >= ut
        n = int(at_risk.sum())
        n_left = int((at_risk & groups).sum())
        d = int(((times == ut) & (events == 1)).sum())
        d_left = int(((times == ut) & (events == 1) & groups).sum())
        f = n_left / n
        observed += d_left
        expected += d * f
        if n > 1:
            variance += d * f * (1 - f) * (n - d) / (n - 1)
    if variance <= 0:
        raise ValueError("zero variance")
    return abs(observed - expected) / math.sqrt(variance)


def test_logrank_closed_form_fixture():
    # alternating two-sample data, all events: O=2, E=4/3, V=13/18
    score = logrank_score([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1],
                          [0.0, 1.0, 0.0, 1.0], 0.5)
    assert score == pytest.approx(math.sqrt(8.0 / 13.0), abs=1e-12)


def test_logrank_twenty_record_fixture_vs_naive():
    rng = np.random.default_rng(77)
    times = np.round(rng.exponential(5.0, 20), 1) + 0.1
    events = rng.integers(0, 2, 20)
    events[:3] = 1
    x = rng.normal(size=20)
    thr = float(np.median(x))
    got = logrank_score(times, events, x, thr)
    want = naive_logrank(times, events, x <= thr)
    assert got == pytest.approx(want, abs=1e-10)


def test_logrank_ties_and_censoring_vs_naive():
    # heavy ties in time plus censored rows
    times = np.array([1, 1, 1, 2, 2, 3, 3, 3, 3, 4] * 2, dtype=float)
    events = np.array([1, 0, 1, 1, 1, 0, 1, 0, 1, 0] * 2)
    x = np.arange(20.0)
    for thr in (4.5, 9.5, 14.5):
        got = logrank_score(times, events, x, thr)
        want = naive_logrank(times, events, x <= thr)
        assert got == pytest.approx(want, abs=1e-10)


def test_logrank_refuses_empty_side():
    with pytest.raises(ValueError, match="empty"):
        logrank_score([1.0, 2.0], [1, 1], [0.0, 1.0], 5.0)


def test_logrank_refuses_no_events():
    with pytest.raises(ValueError, match="no events"):
        logrank_score([1.0, 2.0], [0, 0], [0.0, 1.0], 0.5)


def test_logrank_refuses_zero_variance():
    # the only event happens when just one subject is at risk
    with pytest.raises(ValueError, match="variance"):
        logrank_score([1.0, 2.0], [0, 1], [0.0, 1.0], 0.5)


@given(st.integers(0, 2**32 - 1), st.integers(10, 120), st.integers(2, 8), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
# pairwise and time-order sums of the same terms differ in the last bit here
@example(4082210491, 13, 3, 0)
def test_batch_scores_equal_scores_alone(data_seed, n, c, pad):
    # a candidate's score must not depend on which candidates share its
    # batch, nor on padding terms after its node's last event time
    rng = np.random.default_rng(data_seed)
    times = np.round(rng.exponential(1.0, n), 1) + 0.1  # ties in time
    events = (rng.uniform(size=n) < 0.7).astype(int)
    events[0] = 1
    x = rng.normal(size=n)
    thresholds = np.sort(x)[rng.integers(0, n - 1, c)]  # both sides nonempty
    rs = risk_sets(times, events)
    has = rs.n_events > 0
    left = x[rs.order] <= thresholds[:, None]
    n_left = np.vstack([risk_set_sums(rs, left.astype(float))[:, has].T,  # (event time, candidate)
                        rng.integers(0, n, (pad, c))])  # a pad's left count is arbitrary
    batch = _logrank(n_left, np.count_nonzero(left & rs.is_event, axis=1),
                     np.concatenate([rs.n_events[has], np.zeros(pad)])[:, None],
                     np.concatenate([rs.n_at_risk[has], np.ones(pad)])[:, None])
    for thr, score in zip(thresholds, batch):
        try:
            alone = logrank_score(times, events, x, thr)
        except ValueError:  # zero variance
            assert np.isnan(score)
            continue
        assert score == alone


def looped_logrank(n_left, observed, n_events, n_at_risk):
    """One candidate's score and E, with E and V summed over event times
    left to right in Python floats, each term as `_logrank` writes it."""
    expected = variance = 0.0
    for left, d, r in zip(n_left.tolist(), n_events.tolist(), n_at_risk.tolist()):
        frac = left / r
        expected += d * frac
        variance += d * frac * (1.0 - frac) * (r - d) / (r - 1.0) if r > 1 else 0.0
    return abs(observed - expected) / math.sqrt(variance) if variance > 0 else math.nan, expected


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from([1, 2, 3, 9]))
@settings(max_examples=80, deadline=None)
@example(0, 1, 1)  # one event time, one candidate
@example(0, 1, 2)
@example(1, 30, 1)  # NumPy sums one column of 30 pairwise
def test_logrank_sums_run_left_to_right_over_event_times(data_seed, e, c):
    # E and V are sums down the rows in time order, bit for bit, for a lone
    # candidate, two and many: each score is the loop's, and an observed count
    # of the loop's E scores exactly 0, so E itself has the loop's bits
    rng = np.random.default_rng(data_seed)
    n_at_risk = rng.integers(1, 200, (e, c)).astype(float)
    n_events, n_left = np.floor(rng.uniform(size=(2, e, c)) * (n_at_risk + 1))
    observed = rng.integers(0, 50, c)
    want, expected = np.array([looped_logrank(n_left[:, i], observed[i], n_events[:, i],
                                              n_at_risk[:, i]) for i in range(c)]).T
    got = _logrank(n_left, observed, n_events, n_at_risk)
    assert got.tobytes() == want.tobytes()
    at_expected = _logrank(n_left, expected, n_events, n_at_risk)
    assert np.all((at_expected == 0.0) | np.isnan(want))


# --- split search ------------------------------------------------------------


def reference_root_split(design, seed, min_leaf, mtry):
    """Tree 0's root split searched one column and one threshold at a
    time, with the forest's draws: bootstrap, column subset, then each
    wide column's threshold subsample in turn. A candidate must beat the
    best so far strictly, starting from 0. None means the root is a leaf.

    Every candidate is scored by `naive_logrank`, which sums over event
    times in time order, as the forest does, so near-ties break on the
    same bits."""
    rng = CounterRng(derive_seed(seed, 0))
    inbag = rng.integers(design.n, design.n)
    X, times, events = design.X[inbag], design.times[inbag], design.events[inbag]
    n = times.size
    if n < 2 * min_leaf or events.sum() < 1:
        return None
    best_score, best = 0.0, None
    for j in np.argsort(rng.uniform(design.p), kind="stable")[:mtry]:
        distinct = np.unique(X[:, j])
        mids = 0.5 * (distinct[:-1] + distinct[1:])
        if mids.size > 32:
            pick = np.argsort(rng.uniform(mids.size), kind="stable")[:32]
            mids = mids[np.sort(pick)]
        for thr in mids:
            left = X[:, j] <= thr
            if left.sum() < min_leaf or n - left.sum() < min_leaf:
                continue
            try:
                score = naive_logrank(times, events, left)
            except ValueError:  # zero variance
                continue
            if score > best_score:
                best_score, best = score, (int(j), float(thr))
    return best


def tie_prone_design(data_seed, n, p):
    """Column 0 is binary and splits rows exactly as column 1 (three
    levels) does at 0.5, so the two columns' scores of that split differ
    only by rounding; times and the other columns have ties."""
    rng = np.random.default_rng(data_seed)
    X = rng.normal(size=(n, p))
    X[:, 1] = rng.integers(0, 3, n)
    X[:, 0] = X[:, 1] > 0
    X[:, 3:] = np.round(X[:, 3:], 1)
    times = np.round(rng.exponential(1.0 / np.exp(X[:, 0] - X[:, 2])), 1) + 0.1
    events = (rng.uniform(size=n) < 0.6).astype(int)
    return numeric_design(X, times, events)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(10, 90),
    st.integers(3, 5),
    st.integers(1, 5),
    st.integers(1, 20),
)
@settings(max_examples=80, deadline=None)
# columns 0 and 1 tie but for rounding; the rounding picks column 0 in the
# first two examples and column 1 in the third
@example(3012095848, 90, 3, 4, 3)
@example(91882693, 51, 5, 2, 5)
@example(2251609711, 41, 5, 2, 6)
def test_root_split_matches_column_by_column_search(data_seed, n, p, mtry, min_leaf):
    d = tie_prone_design(data_seed, n, p)
    mtry = min(mtry, p)
    root = fit_forest(d, b=1, mtry=mtry, min_leaf=min_leaf, seed=data_seed).trees[0].root
    want = reference_root_split(d, data_seed, min_leaf, mtry)
    if want is None:
        assert root.is_leaf
    else:
        assert (root.column, root.threshold) == want


def lexsort_keep(u, m):
    """The subsample rule the per-column partition replaced, as it was:
    all draws sorted by (column, draw), stably, and each column's first m
    kept. Row c of u holds wide column c's draws, +inf off its steps."""
    column, i = np.nonzero(u < np.inf)
    order = np.lexsort((u[column, i], column))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - np.searchsorted(column, column[order])
    keep = np.zeros(u.shape, dtype=bool)
    keep[column, i] = rank < m
    return keep


@given(st.integers(0, 2**32 - 1), st.integers(80, 150), st.integers(1, 4), st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_partition_keeps_the_thresholds_the_lexsort_kept(data_seed, n, b, levels):
    # draws rounded to 1/levels tie often, at the 32nd smallest too
    rng = np.random.default_rng(data_seed)
    X = np.column_stack([rng.normal(size=n), np.round(rng.normal(size=n), 1),
                         rng.integers(0, 3, n)])
    times = np.round(rng.exponential(1.0, n), 1) + 0.1
    events = (rng.uniform(size=n) < 0.7).astype(int)
    events[0] = 1
    partition, seen = rsf._smallest, []

    def checked(u, m):
        kept = partition(u, m)
        assert np.array_equal(kept, lexsort_keep(u, m))
        seen.append(u.shape[0])
        return kept

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rsf, "uniform_at", lambda s, c: np.floor(uniform_at(s, c) * levels) / levels)
        mp.setattr(rsf, "_smallest", checked)
        fit_forest(numeric_design(X, times, events), b=b, mtry=3, min_leaf=2, seed=data_seed)
    assert seen  # column 0 is wide at every root


def test_a_midpoint_that_rounds_up_takes_the_next_value_left():
    # 0.5 * ((1 + eps) + (1 + 2 eps)) rounds to 1 + 2 eps, so the first
    # candidate's left side holds both lower values, as does the second's
    # (threshold about 1.5): the first is the one that wins
    eps = np.finfo(float).eps
    a, b = 1.0 + eps, 1.0 + 2.0 * eps
    assert 0.5 * (a + b) == b
    X = np.repeat([a, b, 2.0], [6, 14, 20])[:, None]
    times = np.concatenate([np.arange(1.0, 21.0), np.arange(21.0, 41.0)])
    d = numeric_design(X, times, np.ones(40, dtype=int))
    for min_leaf in (1, 8, 18):
        root = fit_forest(d, b=1, min_leaf=min_leaf, seed=1).trees[0].root
        assert (root.column, root.threshold) == reference_root_split(d, 1, min_leaf, 1) == (0, b)


def golden_design():
    """60 rows built from exact arithmetic: a column with 60 distinct
    values (so thresholds are subsampled), one with 12 tied levels, one
    with 4, and 16 tied integer times."""
    rng = CounterRng(2024)
    n = 60
    wide = rng.uniform(n)
    quarters = np.floor(rng.uniform(n) * 12.0) / 4.0
    coarse = np.floor(rng.uniform(n) * 4.0)
    times = np.floor(12.0 * rng.uniform(n) * (1.5 - wide)) + 1.0
    events = (rng.uniform(n) < 0.7).astype(int)
    return numeric_design(np.column_stack([wide, quarters, coarse]), times, events)


def test_forest_file_digest_is_pinned():
    # pins the forest file byte for byte; the draws, the candidate
    # thresholds, the split rule and the leaf curves all feed it
    d = golden_design()
    f = fit_forest(d, b=5, min_leaf=4, mtry=2, seed=3)
    digest = hashlib.sha256(json.dumps(forest_file(f, d)).encode()).hexdigest()
    assert digest == "29091bd8fd64f34bf4e3b134f68452049d57f8a8a7520cb910ce3ff730c2af3e"


def test_golden_scores_are_pinned():
    # pins what the forest computes, whatever the file format: the risk of
    # every golden row and the ensemble curve of three of them
    d = golden_design()
    f = fit_forest(d, b=5, min_leaf=4, mtry=2, seed=3)
    digest = hashlib.sha256(rsf_risk(f, d).tobytes()).hexdigest()
    assert digest == "1b87b1ce4721c48765d4e3517ec57a5e01f40f8d022b8fe0ae3ae296dfc57cfa"
    curves = hashlib.sha256()
    for i in (0, 29, 59):
        chf = predict_chf(f, d.X[i])
        curves.update(chf.times.tobytes())
        curves.update(chf.values.tobytes())
    assert curves.hexdigest() == "746a13e44b2f1da56f7a5d17aed855cbe54a18970c41d4749da3802972c7eed4"


class EventsFalling:
    """NumPy for rsf, except that its one lexsort (a step's nodes by size class,
    then event count) takes a size class's nodes by falling event count."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def lexsort(keys):
        n_events, size_class = keys
        return np.lexsort((-n_events, size_class))


@given(
    st.integers(0, 2**32 - 1),
    st.integers(20, 150),
    st.integers(2, 6),
    st.integers(1, 4),
    st.integers(1, 8),
    st.one_of(st.none(), st.integers(0, 6)),
)
@settings(max_examples=40, deadline=None)
def test_forest_does_not_depend_on_its_batches(data_seed, n, b, mtry, min_leaf, max_depth):
    # one node per batch must grow the forest that the default budget
    # grows, and so must small batches that take a size class's nodes by
    # falling event count; the cohort has tied times, tied values and a
    # wide column
    rng = np.random.default_rng(data_seed)
    X = np.column_stack([rng.normal(size=n), np.round(rng.normal(size=n), 1),
                         rng.integers(0, 3, n), rng.integers(0, 2, n)])
    times = np.round(rng.exponential(1.0 / np.exp(X[:, 0] - X[:, 2]), n), 1) + 0.1
    events = (rng.uniform(size=n) < 0.7).astype(int)
    events[0] = 1
    d = numeric_design(X, times, events)
    options = dict(b=b, mtry=mtry, min_leaf=min_leaf, max_depth=max_depth, seed=data_seed)
    batched = forest_file(fit_forest(d, **options), d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rsf, "_CELLS", 1)
        assert forest_file(fit_forest(d, **options), d) == batched
        mp.setattr(rsf, "_CELLS", 1 << 7)
        mp.setattr(rsf, "np", EventsFalling())
        assert forest_file(fit_forest(d, **options), d) == batched


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.integers(1, 8),
    st.one_of(st.none(), st.integers(0, 6)),
)
@settings(max_examples=25, deadline=None)
def test_forest_does_not_depend_on_the_shard_count(data_seed, b, min_leaf, max_depth):
    # one, two and three shards, forked down to a single row, with fewer
    # trees than CPUs when b < 3
    d = bigger_design(seed=data_seed % 1000, n=60)
    options = dict(b=b, min_leaf=min_leaf, max_depth=max_depth, seed=data_seed)
    forests = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rsf, "_SHARD_ROWS", 1)
        for cpus in (1, 2, 3):
            mp.setattr(workers, "usable_cpus", lambda cpus=cpus: cpus)
            forests.append(forest_file(fit_forest(d, **options), d))
    assert forests[0] == forests[1] == forests[2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("tree", [0, 4, 8], ids=["first-child", "second-child", "this-process"])
def test_a_failing_shard_raises_its_error_and_leaves_no_child(tree, monkeypatch):
    shard_failing_at(tree, monkeypatch)
    with pytest.raises(ValueError, match="^boom$"):
        fit_forest(bigger_design(n=60), b=9, min_leaf=5, seed=0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_forked_shard_neither_flushes_stdout_nor_runs_exit_handlers():
    # a fresh interpreter whose stdout is a pipe, so "before" still sits in
    # its buffer when the shards fork
    src = str(pathlib.Path(rsf.__file__).resolve().parent.parent)
    script = (
        "import atexit\n"
        "from survbench import rsf, workers\n"
        "from survbench.data import encode\n"
        "from survbench.datagen import GeneratorConfig, generate\n"
        "atexit.register(print, 'exit handler')\n"
        "print('before')\n"
        "rsf._SHARD_ROWS, workers.usable_cpus = 1, lambda: 3\n"
        "d = encode(generate(GeneratorConfig(n=60))[0], standardize=False)\n"
        "print(len(rsf.fit_forest(d, b=6, min_leaf=5).trees))\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before\n6\nexit handler\n"


def test_a_tree_does_not_depend_on_the_trees_grown_with_it():
    d = bigger_design(seed=3, n=150)
    forest = forest_file(fit_forest(d, b=5, min_leaf=5, seed=2), d)
    for i in range(5):
        fewer = forest_file(fit_forest(d, b=i + 1, min_leaf=5, seed=2), d)
        assert forest_trees(fewer)[i] == forest_trees(forest)[i]


# --- degenerate forests ----------------------------------------------------


def test_single_stump_equals_bootstrap_nelson_aalen():
    rng = np.random.default_rng(5)
    n = 40
    d = numeric_design(rng.normal(size=(n, 3)), rng.exponential(1, n),
                       (rng.uniform(size=n) < 0.7).astype(int))
    f = fit_forest(d, b=1, min_leaf=n, seed=9)  # min_leaf = n forbids splits
    tree = f.trees[0]
    assert tree.root.is_leaf
    ref = nelson_aalen(d.times[tree.inbag], d.events[tree.inbag])
    probe = np.zeros(3)
    chf = predict_chf(f, probe)
    np.testing.assert_array_equal(chf.times, ref.times)
    np.testing.assert_array_equal(chf.values, ref.values)
    # mortality is that single curve summed over the training event grid
    assert mortality_score(f, probe) == pytest.approx(
        float(np.sum(ref(f.event_grid))), rel=1e-15
    )


def test_max_depth_zero_forces_stumps():
    rng = np.random.default_rng(6)
    d = numeric_design(rng.normal(size=(60, 2)), rng.exponential(1, 60),
                       np.ones(60, dtype=int))
    f = fit_forest(d, b=3, min_leaf=5, max_depth=0, seed=1)
    assert all(t.root.is_leaf for t in f.trees)


def leaf_tree(knots, events, at_risk):
    """A one-node tree of a forest file: a leaf whose knots index the grid."""
    return tree_file(column=[-1], threshold=[0.0], left=[-1], knot_counts=[len(knots)],
                     knots=knots, events=events, at_risk=at_risk)


def forest_doc(trees, grid, columns=("x0",)):
    return {"model": "rsf", "mtry": 1, "min_leaf": 1, "max_depth": None, "seed": 0,
            "event_grid": list(map(float, grid)), "n": 10**4, "trees": joined(trees),
            "schema": numeric_schema(columns)}


def falling_counts(rng, size, most_censored):
    """A leaf's events and at-risk counts at `size` knots, as a fit could
    write them: at least one event at each, and at_risk falling by each
    knot's events and up to most_censored censored rows."""
    events = rng.integers(1, 4, size)
    return events, np.cumsum((events + rng.integers(0, most_censored + 1, size))[::-1])[::-1]


def test_two_tree_averaging_hand_fixture():
    forest = load_forest(forest_doc([
        leaf_tree([0], [1], [2]),  # 0.5 from t=1
        leaf_tree([0, 1], [1, 1], [4, 1]),  # 0.25 from t=1, 1.25 from t=2
    ], [1.0, 2.0]))
    chf = predict_chf(forest, np.zeros(1))
    np.testing.assert_array_equal(chf.times, [1.0, 2.0])
    np.testing.assert_array_equal(chf.values, [0.375, 0.875])
    assert chf(0.5) == 0.0  # before the first knot
    # mortality: 0.375 at t=1 plus 0.875 at t=2
    assert mortality_score(forest, np.zeros(1)) == 1.25


def test_predict_chf_counts_a_knotless_leaf_as_zero():
    forest = load_forest(forest_doc([
        leaf_tree([0, 1], [1, 1], [2, 1]),  # 0.5 from t=1, 1.5 from t=2
        leaf_tree([], [], []),
    ], [1.0, 2.0, 3.0]))
    chf = predict_chf(forest, np.zeros(1))
    np.testing.assert_array_equal(chf.times, [1.0, 2.0])
    np.testing.assert_array_equal(chf.values, [0.25, 0.75])
    assert chf(0.5) == 0.0 and chf(3.0) == 0.75


def random_leaves(rng, b, grid_size):
    """b leaves (knots, events, at_risk), each on a random subset of the
    grid with random counts."""
    leaves = []
    for _ in range(b):
        knots = np.flatnonzero(rng.uniform(size=grid_size) < 0.4)
        leaves.append((knots, *falling_counts(rng, knots.size, 12)))
    return leaves


def test_predict_chf_is_independent_of_tree_order():
    rng = np.random.default_rng(0)
    grid = np.sort(rng.uniform(0, 10, 30))
    leaves = random_leaves(rng, 12, grid.size)
    trees = [leaf_tree(*leaf) for leaf in leaves]
    chf = predict_chf(load_forest(forest_doc(trees, grid)), np.zeros(1))
    back = predict_chf(load_forest(forest_doc(trees[::-1], grid)), np.zeros(1))
    np.testing.assert_array_equal(back.times, chf.times)
    np.testing.assert_array_equal(back.values, chf.values)  # bit for bit, thanks to fsum
    knots = np.unique(np.concatenate([knots for knots, _, _ in leaves]))
    np.testing.assert_array_equal(chf.times, grid[knots])


def test_predict_chf_of_identical_trees_is_the_tree_curve():
    rng = np.random.default_rng(1)
    grid = np.sort(rng.uniform(0, 10, 20))
    for knots, events, at_risk in random_leaves(rng, 5, grid.size):
        tree = leaf_tree(knots, events, at_risk)
        chf = predict_chf(load_forest(forest_doc([tree] * 3, grid)), np.zeros(1))
        np.testing.assert_array_equal(chf.times, grid[knots])
        np.testing.assert_allclose(chf.values, np.cumsum(events / at_risk), rtol=1e-15)


def routing_forest():
    """Root splits x0 at 0.5; its left child is a leaf, its right child
    splits x1 at -1.0, so leaves sit at depths 1 and 2. Each leaf has one
    knot, with 1, 2 and 4 at risk."""
    return load_forest(forest_doc([tree_file(
        column=[0, -1, 1, -1, -1], threshold=[0.5, 0.0, -1.0, 0.0, 0.0],
        left=[1, -1, 3, -1, -1], knot_counts=[0, 1, 0, 1, 1],
        knots=[0, 0, 0], events=[1, 1, 1], at_risk=[1, 2, 4],
    )], [1.0], columns=("x0", "x1")))


def test_split_routing_hand_fixture():
    forest = routing_forest()
    assert mortality_score(forest, np.array([0.0, 0.0])) == 1.0
    assert mortality_score(forest, np.array([0.5, 0.0])) == 1.0  # <= goes left
    assert mortality_score(forest, np.array([0.51, -1.0])) == 0.5
    assert mortality_score(forest, np.array([0.51, -0.99])) == 0.25


def test_rows_on_a_threshold_go_left_in_batch_scoring():
    X = np.array([[0.5, 7.0], [0.5, -9.0], [0.51, -1.0], [0.51, -0.99], [0.0, 0.0]])
    d = numeric_design(X, np.arange(1.0, 6.0), np.ones(5, dtype=int))
    np.testing.assert_array_equal(rsf_risk(routing_forest(), d), [1.0, 1.0, 0.5, 0.25, 1.0])


# --- fitted forests ----------------------------------------------------------


def bigger_design(seed=0, n=150):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    t = rng.exponential(1.0 / np.exp(1.2 * X[:, 0]))
    c = rng.exponential(2.0, n)
    return numeric_design(X, np.minimum(t, c), (t <= c).astype(int))


def test_forest_deterministic_by_seed():
    d = bigger_design()
    a = fit_forest(d, b=5, min_leaf=10, seed=3)
    b = fit_forest(d, b=5, min_leaf=10, seed=3)
    assert forest_file(a, d) == forest_file(b, d)
    c = fit_forest(d, b=5, min_leaf=10, seed=4)
    assert forest_file(a, d) != forest_file(c, d)


def test_tree_seeds_derived_from_master():
    d = bigger_design()
    f = fit_forest(d, b=4, min_leaf=10, seed=11)
    assert [t.seed for t in f.trees] == [derive_seed(11, i) for i in range(4)]
    # the bootstrap is the first n draws of the tree's own stream
    for t in f.trees:
        np.testing.assert_array_equal(
            t.inbag, CounterRng(t.seed).integers(d.n, d.n)
        )


def test_event_grid_is_training_event_times():
    d = bigger_design()
    f = fit_forest(d, b=1, min_leaf=30, seed=0)
    np.testing.assert_array_equal(
        f.event_grid, np.unique(d.times[d.events == 1])
    )


def leaf_occupancy(tree, X):
    """How many rows of X reach each leaf, routed one node at a time in
    index order, which visits a parent before its children."""
    nodes, at = tree.nodes, np.zeros(X.shape[0], dtype=int)
    for i in np.flatnonzero(nodes.column >= 0):
        go_left = X[:, nodes.column[i]] <= nodes.threshold[i]
        at[(at == i) & go_left], at[(at == i) & ~go_left] = nodes.left[i], nodes.left[i] + 1
    return np.bincount(at, minlength=nodes.column.size)[nodes.column < 0]


def test_children_of_splits_respect_min_leaf():
    d = bigger_design(seed=2)
    min_leaf = 12
    f = fit_forest(d, b=6, min_leaf=min_leaf, seed=5)
    for t in f.trees:
        sizes = leaf_occupancy(t, d.X[t.inbag])
        assert sum(sizes) == d.n
        if not t.root.is_leaf:
            assert min(sizes) >= min_leaf


def test_monotone_transform_invariance_on_training_rows():
    d = bigger_design(seed=3, n=120)
    Xt = d.X.copy()
    Xt[:, 0] = np.exp(Xt[:, 0])  # strictly increasing remap of one column
    dt = numeric_design(Xt, d.times, d.events)
    a = fit_forest(d, b=4, min_leaf=10, seed=7)
    b = fit_forest(dt, b=4, min_leaf=10, seed=7)
    np.testing.assert_allclose(rsf_risk(a, d), rsf_risk(b, dt), rtol=1e-12)


def test_risk_matches_per_row_mortality():
    d = bigger_design(seed=4, n=80)
    f = fit_forest(d, b=3, min_leaf=15, seed=2)
    r = rsf_risk(f, d)
    for i in (0, 7, 33):
        assert r[i] == mortality_score(f, d.X[i])
    # a larger batch, checked at rows spread across it
    d = bigger_design(seed=4, n=300)
    f = fit_forest(d, b=3, min_leaf=15, seed=2)
    r = rsf_risk(f, d)
    for i in (127, 128, 255, 256, 299):
        assert r[i] == mortality_score(f, d.X[i])


def knot_sum(grid_size, knots, events, at_risk):
    """A leaf's curve summed over a grid of grid_size points, one knot at
    a time in knot order: its cumulative hazard at each knot times the
    grid points from that knot to the next (to the grid's end, for the
    last)."""
    total = 0.0
    for hazard, span in zip(np.cumsum(events / at_risk), np.diff(knots, append=grid_size)):
        total += hazard * span
    return float(total)


@given(st.integers(0, 2**32 - 1), st.integers(20, 80), st.integers(1, 3), st.floats(0.0, 0.6))
@settings(max_examples=30, deadline=None)
def test_rows_on_thresholds_or_holding_nan_score_as_a_node_by_node_walk(data_seed, n, b,
                                                                        nan_share):
    rng = np.random.default_rng(data_seed)
    X = np.round(rng.normal(size=(n, 3)), 1)
    times = np.round(rng.exponential(1.0, n), 1) + 0.1
    events = (rng.uniform(size=n) < 0.7).astype(int)
    events[0] = 1
    d = numeric_design(X, times, events)
    f = fit_forest(d, b=b, min_leaf=3, seed=data_seed)
    doc, grid = forest_file(f, d), f.event_grid
    for tree, tree_doc in zip(f.trees, forest_trees(doc)):
        nodes = tree.nodes
        # each cell a threshold of a split on its column, or a training value
        # where the column has none, or NaN
        rows = np.column_stack([rng.choice(nodes.threshold[nodes.column == j]
                                           if np.any(nodes.column == j) else X[:, j], 40)
                                for j in range(3)])
        rows[rng.uniform(size=rows.shape) < nan_share] = np.nan
        ends, leaves = np.cumsum(np.append(0, nodes.knot_counts)), np.flatnonzero(nodes.column < 0)
        want = []
        for x in rows:  # the one leaf a node-by-node walk takes x to (NaN fails <=, so goes right)
            leaf = leaves[np.argmax(leaf_occupancy(tree, x[None, :]))]
            span = slice(ends[leaf], ends[leaf + 1])
            want.append(knot_sum(grid.size, nodes.knots[span], nodes.events[span],
                                 nodes.at_risk[span]))
        one_tree = load_forest({**doc, "trees": tree_doc})
        design = numeric_design(np.zeros((rows.shape[0], 3)), np.ones(rows.shape[0]),
                                np.ones(rows.shape[0], dtype=int))
        design.X[:] = rows  # a cohort refuses NaN; scoring takes it
        assert rsf_risk(one_tree, design).tolist() == want


def depth(nodes) -> int:
    """The most splits on a path from the root to a leaf."""
    level = np.zeros(nodes.column.size, dtype=int)
    for i in np.flatnonzero(nodes.column >= 0):  # a parent comes before its children
        level[nodes.left[i]:nodes.left[i] + 2] = level[i] + 1
    return int(level.max())


def test_risk_does_not_depend_on_the_size_of_a_scoring_pass():
    d = bigger_design(seed=4, n=120)
    f = fit_forest(d, b=5, min_leaf=8, seed=3)
    whole = rsf_risk(f, d)
    deepest = max(depth(tree.nodes) for tree in f.trees)
    with pytest.MonkeyPatch.context() as mp:
        # a pass of one (row, tree) pair, or of 3 * grid / 5 rows of the 5
        # trees; each with compactions after every level, every second
        # level, or only once every entry is at a leaf
        for cells in (1, 3 * f.event_grid.size):
            for stride in (1, 2, deepest + 1):
                mp.setattr(rsf, "_PASS_CELLS", cells)
                mp.setattr(rsf, "_STRIDE", stride)
                np.testing.assert_array_equal(rsf_risk(f, d), whole)


def test_risk_is_independent_of_tree_order():
    # the forest's table with its trees in reverse order, through its file
    d = bigger_design(seed=4, n=80)
    f = fit_forest(d, b=7, min_leaf=10, seed=3)
    doc = forest_file(f, d)
    reversed_forest = load_forest({**doc, "trees": joined(forest_trees(doc)[::-1])})
    assert [t.nodes.column.tolist() for t in reversed_forest.trees] == [
        t.nodes.column.tolist() for t in f.trees[::-1]]
    assert not np.array_equal(reversed_forest.nodes.column, f.nodes.column)
    np.testing.assert_array_equal(rsf_risk(reversed_forest, d), rsf_risk(f, d))


@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 600),
       st.integers(-1074, 1000), st.integers(-1074, 1000), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
@example(0, 300, 600, -1074, 1000, 0.2)  # every binade, rows past two blocks
@example(0, 1, 1, -1074, -1074, 0.0)  # one subnormal
def test_the_exact_mean_is_the_fsum_of_each_row(data_seed, b, rows, lowest, highest, zeros):
    # a row's mean of its B values, cut at binades and summed over whole blocks of
    # rows, must give math.fsum's bits over B, for values of any exponent and sign,
    # zeros and rows of only zeros, and for blocks of one row, the default block and
    # one block past every row
    rng = np.random.default_rng(data_seed)
    exponents = rng.integers(min(lowest, highest), max(lowest, highest) + 1, 50)
    mantissas = rng.integers(1, 2**53, 50) * rng.choice([-1, 1], 50)
    values = np.ldexp(mantissas.astype(float), exponents - 53)  # rounds below 2**-1074
    values[rng.uniform(size=50) < zeros] = 0.0
    values[0] = 0.0
    at = rng.integers(0, 50, size=(rows, b))
    at[rng.uniform(size=rows) < zeros] = 0  # rows of only zeros
    want = [math.fsum(r) / b for r in values[at]]
    with pytest.MonkeyPatch.context() as mp:
        for block in (1, rsf._MEAN_ROWS, rows + 1):
            mp.setattr(rsf, "_MEAN_ROWS", block)
            assert rsf._row_means(values, at).tobytes() == np.array(want).tobytes()


def test_the_exact_mean_keeps_the_last_bit_past_a_tie():
    # 1 + 2**-53 is a tie between 1 and the next float; 128 values in [2**-74,
    # 2**-73) and their negatives, one an ulp (2**-126) short, push each row's
    # exact sum just past it. Summed over the trees, the low bits of 128 such
    # values need more than 53 bits, so a mean that makes one cut too few
    # rounds that last bit away
    rng = np.random.default_rng(0)
    w = np.ldexp(rng.integers(2**52, 2**53, (20, 128)).astype(float), -126)
    short = -w
    short[:, 0] += 2.0**-126
    values = np.hstack([np.ones((20, 1)), np.full((20, 1), 2.0**-53), w, short]).ravel()
    at = np.arange(values.size).reshape(20, -1)
    assert rsf._row_means(values, at).tolist() == [(1 + 2**-52) / at.shape[1]] * 20


def test_the_exact_mean_holds_no_matrix_of_leaf_values():
    # blocks of rows bound the mean's memory: its peak stays under half of one
    # (rows, B) float64 matrix of the values its 2,000 x 200 node indices reach
    rng = np.random.default_rng(0)
    values, at = rng.exponential(10.0, 5000), rng.integers(0, 5000, size=(2000, 200))
    tracemalloc.start()
    try:
        rsf._row_means(values, at)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < at.size * 8 / 2


def test_scoring_after_the_trees_change_uses_the_new_trees():
    d = bigger_design(seed=4, n=80)
    f = fit_forest(d, b=7, min_leaf=10, seed=3)
    first = rsf_risk(f, d)
    np.testing.assert_array_equal(rsf_risk(f, d), first)  # a second call agrees
    other = fit_forest(d, b=1, min_leaf=10, seed=3)  # the first tree alone
    one_tree = rsf_risk(other, d)
    assert not np.array_equal(one_tree, first)
    first_tree = replace(f, nodes=f.trees[0].nodes, tree_sizes=f.tree_sizes[:1])  # its view
    np.testing.assert_array_equal(rsf_risk(first_tree, d), one_tree)
    all_trees = f.nodes, f.tree_sizes
    f.nodes, f.tree_sizes = other.nodes, other.tree_sizes
    np.testing.assert_array_equal(rsf_risk(f, d), one_tree)
    f.nodes, f.tree_sizes = all_trees
    np.testing.assert_array_equal(rsf_risk(f, d), first)
    f.nodes.events[:] *= 2  # the same arrays, new contents: each leaf's hazard doubles
    np.testing.assert_array_equal(rsf_risk(f, d), 2 * first)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(20, 60),
    st.integers(1, 6),
    st.integers(2, 10),
)
@settings(max_examples=40, deadline=None)
def test_risk_matches_mortality_of_the_ensemble_curve(data_seed, n, b, min_leaf):
    rng = np.random.default_rng(data_seed)
    X = np.round(rng.normal(size=(n, 2)), 1)  # ties in the columns
    times = np.round(rng.exponential(1.0, n), 1) + 0.1  # ties in time
    events = (rng.uniform(size=n) < 0.7).astype(int)
    events[0] = 1
    d = numeric_design(X, times, events)
    f = fit_forest(d, b=b, min_leaf=min_leaf, seed=data_seed)
    risk = rsf_risk(f, d)
    for i in range(n):
        want = float(np.sum(predict_chf(f, d.X[i])(f.event_grid)))
        assert risk[i] == pytest.approx(want, rel=1e-12)


def test_risk_validates_columns():
    d = bigger_design(seed=5, n=60)
    f = fit_forest(d, b=2, min_leaf=15, seed=2)
    other = numeric_design(np.zeros((3, 2)), [1, 2, 3], [1, 1, 1])
    with pytest.raises(ValueError):
        rsf_risk(f, other)


def test_forest_learns_planted_signal():
    d = bigger_design(seed=6, n=300)
    f = fit_forest(d, b=30, min_leaf=15, seed=1)
    c = concordance_index(d.times, d.events, rsf_risk(f, d)).cindex
    assert c > 0.65


def test_serialization_round_trip_including_json():
    d = bigger_design(seed=7, n=80)
    f = fit_forest(d, b=3, min_leaf=15, seed=8)
    doc = json.loads(json.dumps(forest_file(f, d)))
    back = load_forest(doc)
    np.testing.assert_allclose(rsf_risk(back, d), rsf_risk(f, d), rtol=1e-15)
    assert back.mtry == f.mtry and back.min_leaf == f.min_leaf


def test_reloaded_forest_rebuilds_inbag():
    # the file holds the forest's seed, not each tree's seed or rows
    d = bigger_design(seed=7, n=80)
    f = fit_forest(d, b=3, min_leaf=15, seed=8)
    doc = json.loads(json.dumps(forest_file(f, d)))
    assert doc["n"] == d.n and doc["seed"] == 8
    assert list(doc["trees"]) == list(rsf.FILE_FIELDS)
    back = load_forest(doc)
    for fitted, reloaded in zip(f.trees, back.trees, strict=True):
        assert reloaded.seed == fitted.seed
        np.testing.assert_array_equal(reloaded.inbag, fitted.inbag)


def comb_tree(leaves):
    """A tree of a forest file whose split at node 2k sends rows with
    x0 <= k + 0.5 to leaf k, so a row with x0 = k reaches leaf k; the
    last leaf is the last split's right child. `leaves` are (knots,
    events, at_risk) integer arrays."""
    node = np.arange(2 * len(leaves) - 1)
    split = (node % 2 == 0) & (node < node[-1])
    sizes = np.zeros(node.size, dtype=int)
    sizes[~split] = [len(knots) for knots, _, _ in leaves]
    return tree_file(
        column=np.where(split, 0, -1), threshold=np.where(split, node / 2 + 0.5, 0.0),
        left=np.where(split, node + 1, -1), knot_counts=sizes,
        **{key: np.concatenate([leaf[i] for leaf in leaves])
           for i, key in enumerate(("knots", "events", "at_risk"))})


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 600))
@settings(max_examples=80, deadline=None)
def test_leaf_mortalities_equal_the_summed_curve(data_seed, n_leaves, grid_draws):
    # scoring many leaves in one pass must give each leaf's knot-by-knot
    # sum bit for bit, and that sum is np.sum(chf(grid)) up to the rounding
    # of the two summation orders; a leaf's knots are increasing indices
    # into the grid, one leaf has no knots and one has every grid point as
    # a knot
    rng = np.random.default_rng(data_seed)
    grid = np.unique(np.round(rng.exponential(2.0, grid_draws), 2))
    leaves = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0, dtype=int))]
    for density in [1.0] + [rng.uniform(0.0, 0.3) for _ in range(n_leaves)]:
        knots = np.flatnonzero(rng.uniform(size=grid.size) < density)
        leaves.append((knots, *falling_counts(rng, knots.size, 12)))
    tree = comb_tree(leaves)
    forest = load_forest(forest_doc([tree], grid))
    d = numeric_design(np.arange(len(leaves), dtype=float)[:, None], np.ones(len(leaves)),
                       np.ones(len(leaves), dtype=int))
    got = rsf_risk(forest, d)  # one tree: a row's score is its leaf's
    assert got.tolist() == [knot_sum(grid.size, *leaf) for leaf in leaves]
    for score, (knots, events, at_risk) in zip(got, leaves):
        summed = np.sum(StepFunction(grid[knots], np.cumsum(events / at_risk), initial=0.0)(grid))
        # n nonnegative terms summed in any order are within (n - 1) u of
        # their exact sum, relative (u = eps / 2); the knot sum's k terms are
        # products, each rounded once more
        bound = (knots.size + grid.size) * np.finfo(float).eps / 2 * summed
        assert abs(score - summed) <= bound


@given(st.integers(0, 2**32 - 1), st.integers(15, 60), st.integers(1, 4), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_forest_file_round_trip_scores_identically(data_seed, n, b, min_leaf):
    rng = np.random.default_rng(data_seed)
    X = np.round(rng.normal(size=(n, 2)), 1)
    times = np.round(rng.exponential(1.0, n), 1) + 0.1
    events = (rng.uniform(size=n) < 0.7).astype(int)
    events[0] = 1
    d = numeric_design(X, times, events)
    f = fit_forest(d, b=b, min_leaf=min_leaf, seed=data_seed)
    doc = forest_file(f, d)
    back = load_forest(json.loads(json.dumps(doc)))
    assert forest_file(back, d) == doc
    np.testing.assert_array_equal(rsf_risk(back, d), rsf_risk(f, d))
    for x in X[:4]:
        fitted, reloaded = predict_chf(f, x), predict_chf(back, x)
        np.testing.assert_array_equal(reloaded.times, fitted.times)
        np.testing.assert_array_equal(reloaded.values, fitted.values)


@given(st.integers(0, 2**32 - 1), st.integers(8, 50), st.integers(1, 4), st.integers(1, 6),
       st.sampled_from([0, 1, 2, None]), st.floats(0.05, 0.9))
@settings(max_examples=60, deadline=None)
def test_forest_file_rebuilds_the_fitted_tables(data_seed, n, b, min_leaf, max_depth, share):
    # the file holds only what each node holds; loading rebuilds every table
    # field bit for bit and of the same dtype kind, for root-only trees
    # (max_depth 0) and leaves whose rows hold no event (and so no knot)
    rng = np.random.default_rng(data_seed)
    X = np.round(rng.normal(size=(n, 2)), 1)
    times = np.round(rng.exponential(1.0, n), 1) + 0.1
    events = (rng.uniform(size=n) < share).astype(int)
    events[0] = 1
    d = numeric_design(X, times, events)
    f = fit_forest(d, b=b, min_leaf=min_leaf, max_depth=max_depth, seed=data_seed)
    back = load_forest(json.loads(json.dumps(forest_file(f, d))))
    for fitted, reloaded in zip(f.trees, back.trees, strict=True):
        assert reloaded.seed == fitted.seed
        np.testing.assert_array_equal(reloaded.inbag, fitted.inbag)
        for a, r in zip(fitted.nodes, reloaded.nodes, strict=True):
            assert r.dtype.kind == a.dtype.kind
            np.testing.assert_array_equal(r, a)
    np.testing.assert_array_equal(rsf_risk(back, d), rsf_risk(f, d))


@given(st.integers(0, 2**32 - 1), st.integers(8, 80), st.integers(1, 4), st.integers(1, 6),
       st.sampled_from([0, 1, 3, None]), st.floats(0.05, 0.9))
@settings(max_examples=40, deadline=None)
def test_every_tree_holds_a_knot_count_per_node(data_seed, n, b, min_leaf, max_depth, share):
    # a split holds no knots and a leaf one per event time of its rows, so a tree's
    # knot counts add up to its knots, fitted and loaded alike
    rng = np.random.default_rng(data_seed)
    X = np.round(rng.normal(size=(n, 2)), 1)
    times = np.round(rng.exponential(1.0, n), 1) + 0.1
    events = (rng.uniform(size=n) < share).astype(int)
    events[0] = 1
    d = numeric_design(X, times, events)
    f = fit_forest(d, b=b, min_leaf=min_leaf, max_depth=max_depth, seed=data_seed)
    for tree in [*f.trees, *load_forest(forest_file(f, d)).trees]:
        t = tree.nodes
        assert t.knot_counts.shape == t.column.shape
        assert np.all(t.knot_counts[t.column >= 0] == 0) and np.all(t.knot_counts >= 0)
        assert t.knot_counts.sum() == t.knots.size == t.events.size == t.at_risk.size


def tree_lists(doc):
    """The trees of a forest file, their fields as lists."""
    return forest_lists(doc["trees"])


def set_leaf(**fields):
    """An edit of the trees' first leaf: each list given replaces the
    leaf's part of that knot list, and its knot count follows knot_steps."""
    def edit(doc):
        tree = tree_lists(doc)
        size = tree["knot_counts"][0]
        for key, values in fields.items():
            tree[key][:size] = values
        tree["knot_counts"][0] = len(fields["knot_steps"])
        doc["trees"].update(forest_fields(**tree))
    return edit


def set_node(i, **fields):
    """An edit of node i of the trees, whose first root splits: its column,
    or the threshold or left child it holds as a split."""
    def edit(doc):
        tree = tree_lists(doc)
        for key, value in fields.items():
            at = i if key == "column" else sum(c >= 0 for c in tree["column"][:i])
            tree[key][at] = value
        doc["trees"].update(forest_fields(**tree))
    return edit


def set_field(key, change):
    """An edit of the trees' list `key` by change(list, doc)."""
    def edit(doc):
        doc["trees"].update(forest_fields(**{key: change(tree_lists(doc)[key], doc)}))
    return edit


def set_halves(change):
    """An edit of the trees' thresholds as their 32-bit halves, by change(halves)."""
    def edit(doc):
        halves = rsf._decode_digits(doc["trees"]["threshold"], "threshold").tolist()
        doc["trees"]["threshold"] = rsf._encode_digits(change(halves))
    return edit


KNOTS = "add up to the length of trees knot_steps, events and censored"
COUNTS = "leaf counts must satisfy 1 <= events, 0 <= censored and at_risk <= n"
DIGITS = "must be base-32 numbers of at most 12 digits"
HALVES = "trees threshold must be pairs of 32-bit halves"
FINITE = "thresholds finite"
OLDER = "trees is a list, an older file format; refit the model"
LARGEST, LONG = 2**60 - 1, 2**60  # the largest number of 12 digits, and the smallest of 13


def digits_of(number):
    """One number's digits, by the loop the file format describes: the last
    digit from 0-9a-v, each one before it from A-Z, w-z, + and /."""
    text, number = "0123456789abcdefghijklmnopqrstuv"[number % 32], number // 32
    while number:
        text, number = "ABCDEFGHIJKLMNOPQRSTUVWXYZwxyz+/"[number % 32] + text, number // 32
    return text


@given(st.lists(st.one_of(st.integers(0, 1100), st.integers(0, LARGEST)), max_size=20))
@example([0, 31, 32, 1023, 1024, 2**32 - 1, LARGEST])
@example([0])
@example([])
def test_decoding_encoded_digits_gives_them_back(numbers):
    text = rsf._encode_digits(numbers)
    assert text == "".join(map(digits_of, numbers))
    values = rsf._decode_digits(text, "field")
    assert values.dtype == np.int64 and values.tolist() == numbers


@pytest.mark.parametrize(
    "text",
    ["1 2", "1-2", "-1", "1?", "1é", "12A", "A" * 12 + "1", rsf._encode_digits([LONG])],
    ids=["space", "minus-inside", "minus-first", "outside-both-sets", "not-ascii",
         "ends-in-a-digit-before-the-last", "13-digits-of-1", "13-digits-of-2-to-the-60"],
)
def test_decoding_refuses_what_no_encoding_writes(text):
    with pytest.raises(ValueError, match=f"trees field {DIGITS}$"):
        rsf._decode_digits("1" + text, "field")


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
def test_a_threshold_reloads_bit_for_bit(value):
    # a threshold is its float64's two 32-bit halves, so every finite one,
    # the signed zero, subnormals and the largest included, reloads as it was
    trees = tree_file(column=[0, -1, -1], threshold=[value, 0.0, 0.0], left=[1, -1, -1],
                      knot_counts=[0, 1, 1], knots=[0, 0], events=[1, 1], at_risk=[1, 2])
    assert forest_lists(trees)["threshold"] == [value]
    forest = load_forest(forest_doc([trees], [1.0]))
    assert forest.trees[0].nodes.threshold[:1].view(np.uint64) == np.array([value]).view(np.uint64)
    assert rsf.trees_to_dict(forest.nodes, forest.tree_sizes) == trees
    assert mortality_score(forest, np.array([value])) == 1.0  # on the threshold goes left


@functools.cache
def small_forest_file() -> str:
    """A three-tree forest file, fitted once, for the tests to edit."""
    d = bigger_design(seed=7, n=80)
    return json.dumps(forest_file(fit_forest(d, b=3, min_leaf=15, seed=8), d))


@pytest.mark.parametrize(
    "edit, text",
    [
        (lambda doc: doc.update(trees=[{"seed": 1, "root": {"chf_times": [1.0],
                                                            "chf_values": [0.5]}}]), OLDER),
        (set_leaf(knot_steps=[1, 0], events=[1, 1], censored=[0, 3]), "increasing indices"),
        (set_leaf(knot_steps=[2, "-1"], events=[1, 1], censored=[0, 3]), DIGITS),
        (set_leaf(knot_steps=["-1"], events=[1], censored=[4]), DIGITS),
        (lambda doc: set_leaf(knot_steps=[len(doc["event_grid"])], events=[1],
                              censored=[4])(doc), "increasing indices"),
        (lambda doc: set_leaf(knot_steps=[len(doc["event_grid"]) - 1, 1], events=[1, 1],
                              censored=[0, 3])(doc), "increasing indices"),
        (set_leaf(knot_steps=[1, LONG], events=[1, 1], censored=[0, 3]), DIGITS),
        (set_leaf(knot_steps=[1, LARGEST], events=[1, 1], censored=[0, 3]), "increasing indices"),
        (set_leaf(knot_steps=[0], events=[0], censored=[5]), COUNTS),
        (set_leaf(knot_steps=[0], events=[6], censored=["-1"]), DIGITS),
        (lambda doc: set_leaf(knot_steps=[0], events=[1], censored=[doc["n"]])(doc),
         COUNTS),
        (lambda doc: set_leaf(knot_steps=[0, 1], events=[doc["n"], 1], censored=[0, 0])(doc),
         COUNTS),
        (set_leaf(knot_steps=[0], events=[1], censored=[LONG]), DIGITS),
        (set_leaf(knot_steps=[0], events=[1], censored=[LARGEST]), COUNTS),
        (set_leaf(knot_steps=[0], events=[LONG], censored=[1]), DIGITS),
        (set_leaf(knot_steps=[0], events=[LARGEST], censored=[1]), COUNTS),
        (set_leaf(knot_steps=[0, 1], events=[1, 1], censored=["-1", 3]), DIGITS),
        (set_leaf(knot_steps=[0, 1], events=[1], censored=[3, 1]), KNOTS),
        (set_leaf(knot_steps=[0, 1], events=[1, 1], censored=[3]), KNOTS),
        (set_leaf(knot_steps=[0], events=["1.5"], censored=[5]), DIGITS),
        (set_leaf(knot_steps=["[0]"], events=[1], censored=[5]), DIGITS),
        (lambda doc: doc.update(event_grid=doc["event_grid"][::-1]), "strictly increasing"),
        (lambda doc: doc.update(trees=[{"seed": 0, "root": {"knots": [0], "events": [1],
                                                            "at_risk": [1]}}]), OLDER),
        (set_node(0, column=-1), "node lists"),
        (set_node(0, column="-1"), f"trees column {DIGITS}"),  # no sign but the old one
        (set_node(0, column=99), r"split columns must be in \[0, 3\)"),
        (set_node(0, threshold=math.inf), FINITE),
        (set_node(0, threshold="a"), HALVES),  # one half more
        (set_halves(lambda halves: [2**32, *halves[1:]]), HALVES),
        (set_halves(lambda halves: halves[:-1]), HALVES),
        (set_halves(lambda halves: [0, 0x7FF80000, *halves[2:]]), FINITE),
        (set_halves(lambda halves: [0, 0x7FF00000, *halves[2:]]), FINITE),
        (set_halves(lambda halves: [0, 0xFFF00000, *halves[2:]]), FINITE),
        (set_node(0, left=0), "child of one split"),
        (set_node(1, left=2), "child of one split"),
        (set_node(0, left=LONG), DIGITS),
        (set_node(0, left=LARGEST), "child of one split"),
        (lambda doc: set_node(0, left=len(tree_lists(doc)["column"]) - 1)(doc),
         "child of one split"),
        (set_field("left", lambda left, doc: [*left, 2]), "node lists"),
        (lambda doc: doc["trees"].update(
            forest_fields(threshold=tree_lists(doc)["threshold"][:-1])), "node lists"),
        (lambda doc: doc["trees"].update(dict.fromkeys(rsf.FILE_FIELDS, ""),
                                         **forest_fields(nodes=[0])), "node lists"),
        (lambda doc: doc.update(trees=[{"seed": 0, **tree_lists(doc)}]), OLDER),
        (set_field("knot_counts", lambda counts, doc: [0, *counts]), "node lists"),
        (set_field("knot_counts", lambda counts, doc: ["-1", *counts[1:]]), DIGITS),
        (set_field("knot_counts", lambda counts, doc: [len(doc["event_grid"]) + 1, *counts[1:]]),
         KNOTS),
        (set_field("knot_counts", lambda counts, doc: [LONG, *counts[1:]]), DIGITS),
        (set_field("knot_counts", lambda counts, doc: [LARGEST, *counts[1:]]), KNOTS),
        (lambda doc: doc.update(trees=[{"seed": 0, "offsets": doc["trees"].pop("knot_counts"),
                                        **doc["trees"]}]), OLDER),
        (lambda doc: doc.update(trees={key: doc["trees"][key] for key in rsf.FILE_FIELDS[:-1]}),
         "no 'trees censored' in the rsf model file"),
        (lambda doc: doc.update(trees=dict.fromkeys(rsf.FILE_FIELDS, "")), "at least one tree"),
        (lambda doc: doc.update(n=-3), "n must be an integer >= 1"),
        (lambda doc: doc.update(n=80.5), "n must be a JSON integer"),
        (lambda doc: doc.update(mtry=-5), "mtry must be >= 1"),
        (lambda doc: doc.update(mtry=1.5), "mtry must be a JSON integer"),
        (lambda doc: doc.update(min_leaf=0), "min_leaf must be >= 1"),
        (lambda doc: doc.update(min_leaf=None), "min_leaf must be a JSON integer"),
        (lambda doc: doc.update(max_depth=-1), "max_depth must be null or >= 0"),
        (lambda doc: doc.update(max_depth="deep"), "max_depth must be a JSON number or null"),
    ],
    ids=["curve-leaves", "repeated-knot", "decreasing-knots", "negative-knot",
         "knot-past-grid", "knot-steps-past-grid", "knot-step-oversized", "knot-step-largest",
         "no-events", "events-above-at-risk", "at-risk-past-n", "at-risk-past-n-summed",
         "at-risk-oversized", "at-risk-largest", "events-oversized", "events-largest",
         "at-risk-not-falling", "length-mismatch",
         "censored-length-mismatch", "fractional-count", "nested-knot", "grid-decreasing",
         "nested-tree",
         "split-column-minus-one", "split-column-negative", "split-column-past-p",
         "threshold-infinite", "threshold-string", "threshold-half-oversized",
         "threshold-halves-odd", "threshold-halves-nan", "threshold-halves-infinite",
         "threshold-halves-minus-infinite", "child-before-parent", "child-twice",
         "child-past-the-end", "child-largest", "child-one-past-the-end",
         "leaf-with-child", "node-lists-differ", "no-nodes", "list-format",
         "knots-at-a-split", "knot-count-negative", "knot-count-past-grid",
         "knot-count-oversized", "knot-count-largest", "offsets-format", "trees-field-missing",
         "no-trees", "n-negative", "n-fraction",
         "mtry-negative", "mtry-fraction", "min-leaf-zero", "min-leaf-null", "max-depth-negative",
         "max-depth-string"],
)
def test_load_refuses_bad_leaves(edit, text):
    # each field is one string over all trees, so an edit of the trees' fields
    # is made on the first tree and again on the last, past the other trees'
    # nodes and knots; an edit that replaces the trees replaces them all
    for last in (False, True):
        doc = json.loads(small_forest_file())
        others = forest_trees(doc)
        doc["trees"] = tree = others.pop(0)
        edit(doc)
        if doc["trees"] is tree:
            doc["trees"] = joined([*others, tree] if last else [tree, *others])
        with pytest.raises(ValueError, match=text):
            load_forest(doc)


NODE_FIELDS = ("nodes", "column", "threshold", "left", "knot_counts")


def tokens_of(text):
    """A field's numbers, each as the forest file writes it."""
    return [rsf._encode_digits([v]) for v in rsf._decode_digits(text, "field")]


def mangle(key, how, tokens, i, last):
    """A tree's part of a field with one mangle at number or gap i, and the
    message that refuses it, or None where the mangle leaves a valid field;
    `last` if the part ends the field. "long" is a number of 13 digits, and
    "tail" a digit other than a last one after the part's last number. "x"
    is a digit but a last one, and each character of the other numbers a
    last one; so "x" joins the next number, and "nan" is two numbers more."""
    digits = rf"trees {key} {DIGITS}$"
    fewer_or_more = {"drop": -1, "x": -1, "nan": 2, "1e999": 4, "99999999999999999999": 19}
    if how == "tail" and not last:
        message = None  # a leading zero of the next tree's first number
    elif how == "tail" or how == "x" and last and i == len(tokens) - 1:  # ends the field
        message = digits
    elif how in fewer_or_more:
        # a column past p is refused first; an odd count of threshold
        # halves before that, and an even one adds or drops whole thresholds
        message = ("split columns must be in" if key == "column" and how != "drop"
                   else HALVES if key == "threshold" and fewer_or_more[how] % 2
                   else "node lists" if key in NODE_FIELDS else KNOTS)
    else:
        message = digits
    if how == "drop":
        return "".join(tokens[:i] + tokens[i + 1:]), message
    if how in ("  ", "\n"):
        return "".join(tokens[:i + 1]) + how + "".join(tokens[i + 1:]), message
    if how in ("leading", "trailing", "tail"):
        end = {"leading": " ", "trailing": " ", "tail": "A"}[how]
        return (end if how == "leading" else "") + "".join(tokens) + (
            "" if how == "leading" else end), message
    if how == "long":
        how = rsf._encode_digits([LONG])
    return "".join(tokens[:i] + [how] + tokens[i + 1:]), message


@given(st.sampled_from(rsf.FILE_FIELDS),
       st.sampled_from(["drop", "  ", "\n", "leading", "trailing", "x", "-", "!", "1.5", "nan",
                        "1e999", "99999999999999999999", "long", "tail"]),
       st.integers(0, 2), st.integers(-1, 10**6))
@example("knot_steps", "-", 2, -1)  # the last number of the last tree
@example("column", "-", 1, 0)
@example("events", "1.5", 2, -1)
@example("threshold", "x", 2, -1)
@example("threshold", "x", 0, 0)
@example("threshold", "nan", 1, 1)
@example("nodes", "x", 0, 0)
@example("nodes", "nan", 2, 0)
@example("censored", "long", 0, 0)
@example("knot_steps", "long", 1, 3)
@example("knot_counts", "long", 0, 0)
@example("left", "tail", 2, 0)
@example("events", "tail", 2, 0)
@example("column", "x", 0, 0)  # joins the next number, a column past p
@example("knot_counts", "x", 2, -1)  # left last
@example("left", "99999999999999999999", 0, 1)
@example("events", "nan", 1, 0)
@settings(max_examples=300, deadline=None)
def test_load_refuses_a_mangled_field(key, how, t, at):
    # each field of each tree is refused with its own message after any one
    # of these edits, never loaded with its numbers shifted into another
    # tree; no warning gets out
    doc = json.loads(small_forest_file())
    trees = forest_trees(doc)
    tokens = tokens_of(trees[t][key])
    spaces = how in ("  ", "\n")
    assume(len(tokens) > spaces)
    i = at % (len(tokens) - spaces)
    trees[t][key], message = mangle(key, how, tokens, i, t == len(trees) - 1)
    assume(message is not None)
    doc["trees"] = joined(trees)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            load_forest(doc)


def test_load_refuses_node_counts_that_would_shift_nodes_between_trees():
    # the node counts cut each field into trees: two nodes moved from the
    # second tree to the first keep every field's length, but leave the
    # second tree's root no split's child
    doc = json.loads(small_forest_file())
    nodes = forest_lists(doc["trees"])["nodes"]
    assert nodes[1] > 2
    doc["trees"].update(forest_fields(nodes=[nodes[0] + 2, nodes[1] - 2, *nodes[2:]]))
    with pytest.raises(ValueError, match="each node but the root must be the child of one "
                                         "split before it"):
        load_forest(doc)


def test_rejects_eventless_design():
    d = numeric_design(np.zeros((5, 1)), [1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="event"):
        fit_forest(d, b=1)


def test_rejects_zero_trees():
    d = bigger_design(seed=8, n=40)
    with pytest.raises(ValueError, match="b must"):
        fit_forest(d, b=0)


def test_mtry_default_is_ceil_sqrt_p():
    rng = np.random.default_rng(9)
    d = numeric_design(rng.normal(size=(50, 7)), rng.exponential(1, 50),
                       np.ones(50, dtype=int))
    f = fit_forest(d, b=1, min_leaf=25, seed=0)
    assert f.mtry == 3  # ceil(sqrt(7))


def test_mtry_must_be_a_whole_number():
    d = bigger_design(seed=9, n=60)
    whole = fit_forest(d, b=2, min_leaf=10, mtry=2.0, seed=1)
    same = fit_forest(d, b=2, min_leaf=10, mtry=2, seed=1)
    assert whole.mtry == 2
    assert forest_file(whole, d) == forest_file(same, d)
    with pytest.raises(ValueError, match="whole number"):
        fit_forest(d, b=1, mtry=1.5)


def test_a_depth_limit_past_the_largest_float_is_no_limit():
    # an integer too large for a float is a whole number, in a fit and a file alike
    d = bigger_design(seed=9, n=60)
    deep = forest_file(fit_forest(d, b=2, min_leaf=10, max_depth=10**400, seed=1), d)
    assert deep == {**forest_file(fit_forest(d, b=2, min_leaf=10, seed=1), d), "max_depth": 10**400}
    assert load_forest(json.loads(json.dumps(deep))).max_depth == 10**400

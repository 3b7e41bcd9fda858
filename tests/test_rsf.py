"""Forest: split statistic against a loop-written reference and a closed
form, the chosen root split against a column-by-column search, a pinned
forest digest, single-tree degeneracies against the nonparametric
estimator, and structural invariants (seed determinism, monotone-transform
stability, leaf occupancy)."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survbench import rsf
from survbench.metrics import concordance_index
from survbench.nonparametric import nelson_aalen
from survbench.riskset import risk_set_sums, risk_sets
from survbench.rsf import (
    Forest,
    SurvivalTree,
    TreeNode,
    _leaf_mortalities,
    _logrank,
    fit_forest,
    forest_from_dict,
    forest_to_dict,
    logrank_score,
    mortality_score,
    predict_chf,
    rsf_risk,
)
from survbench.rng import CounterRng, derive_seed

from conftest import numeric_design


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
    n_left = np.hstack([risk_set_sums(rs, left.astype(float))[:, has],
                        rng.integers(0, n, (c, pad))])  # a pad's left count is arbitrary
    batch = _logrank(n_left, np.count_nonzero(left & rs.is_event, axis=1),
                     np.concatenate([rs.n_events[has], np.zeros(pad)]),
                     np.concatenate([rs.n_at_risk[has], np.ones(pad)]))
    for thr, score in zip(thresholds, batch):
        try:
            alone = logrank_score(times, events, x, thr)
        except ValueError:  # zero variance
            assert np.isnan(score)
            continue
        assert score == alone


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
    f = fit_forest(golden_design(), b=5, min_leaf=4, mtry=2, seed=3)
    digest = hashlib.sha256(json.dumps(forest_to_dict(f)).encode()).hexdigest()
    assert digest == "6bd340d3db462f2c623eeacebc51e6d7c40c3f557dc3f4b4247a12b0c183f718"


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
    # grows; the cohort has tied times, tied values and a wide column
    rng = np.random.default_rng(data_seed)
    X = np.column_stack([rng.normal(size=n), np.round(rng.normal(size=n), 1),
                         rng.integers(0, 3, n), rng.integers(0, 2, n)])
    times = np.round(rng.exponential(1.0 / np.exp(X[:, 0] - X[:, 2]), n), 1) + 0.1
    events = (rng.uniform(size=n) < 0.7).astype(int)
    events[0] = 1
    d = numeric_design(X, times, events)
    options = dict(b=b, mtry=mtry, min_leaf=min_leaf, max_depth=max_depth, seed=data_seed)
    batched = forest_to_dict(fit_forest(d, **options))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rsf, "_CELLS", 1)
        assert forest_to_dict(fit_forest(d, **options)) == batched


def test_a_tree_does_not_depend_on_the_trees_grown_with_it():
    d = bigger_design(seed=3, n=150)
    forest = forest_to_dict(fit_forest(d, b=5, min_leaf=5, seed=2))
    for i in range(5):
        fewer = forest_to_dict(fit_forest(d, b=i + 1, min_leaf=5, seed=2))
        assert fewer["trees"][i] == forest["trees"][i]


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


def leaf(times, events, at_risk):
    return TreeNode(times=np.array(times, dtype=float), events=np.array(events),
                    at_risk=np.array(at_risk))


def test_two_tree_averaging_hand_fixture():
    leaf_a = leaf([1.0], [1], [2])  # 0.5 from t=1
    leaf_b = leaf([1.0, 2.0], [1, 1], [4, 1])  # 0.25 from t=1, 1.25 from t=2
    forest = Forest(
        trees=[
            SurvivalTree(seed=0, inbag=np.arange(2), root=leaf_a),
            SurvivalTree(seed=1, inbag=np.arange(2), root=leaf_b),
        ],
        mtry=1,
        min_leaf=1,
        max_depth=None,
        seed=0,
        event_grid=np.array([1.0, 2.0]),
        column_names=["x0"],
    )
    chf = predict_chf(forest, np.zeros(1))
    np.testing.assert_array_equal(chf.times, [1.0, 2.0])
    np.testing.assert_array_equal(chf.values, [0.375, 0.875])
    # mortality: 0.375 at t=1 plus 0.875 at t=2
    assert mortality_score(forest, np.zeros(1)) == 1.25


def routing_forest():
    """Root splits x0 at 0.5; its left child is a leaf, its right child
    splits x1 at -1.0, so leaves sit at depths 1 and 2."""

    def one_knot(at_risk):
        return leaf([1.0], [1], [at_risk])

    inner = TreeNode(column=1, threshold=-1.0, left=one_knot(2), right=one_knot(4))
    root = TreeNode(column=0, threshold=0.5, left=one_knot(1), right=inner)
    return Forest(
        trees=[SurvivalTree(seed=0, inbag=np.arange(2), root=root)],
        mtry=1, min_leaf=1, max_depth=None, seed=0,
        event_grid=np.array([1.0]), column_names=["x0", "x1"],
    )


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
    assert forest_to_dict(a) == forest_to_dict(b)
    c = fit_forest(d, b=5, min_leaf=10, seed=4)
    assert forest_to_dict(a) != forest_to_dict(c)


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


def leaf_occupancy(node, X, rows):
    if node.is_leaf:
        yield rows.size
        return
    go_left = X[rows, node.column] <= node.threshold
    yield from leaf_occupancy(node.left, X, rows[go_left])
    yield from leaf_occupancy(node.right, X, rows[~go_left])


def test_children_of_splits_respect_min_leaf():
    d = bigger_design(seed=2)
    min_leaf = 12
    f = fit_forest(d, b=6, min_leaf=min_leaf, seed=5)
    for t in f.trees:
        Xb = d.X[t.inbag]
        sizes = list(leaf_occupancy(t.root, Xb, np.arange(Xb.shape[0])))
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


def test_risk_is_independent_of_tree_order():
    d = bigger_design(seed=4, n=80)
    f = fit_forest(d, b=7, min_leaf=10, seed=3)
    reversed_forest = replace(f, trees=f.trees[::-1])
    np.testing.assert_array_equal(rsf_risk(reversed_forest, d), rsf_risk(f, d))


def test_scoring_after_the_trees_change_uses_the_new_trees():
    d = bigger_design(seed=4, n=80)
    f = fit_forest(d, b=7, min_leaf=10, seed=3)
    first = rsf_risk(f, d)
    np.testing.assert_array_equal(rsf_risk(f, d), first)  # a second call agrees
    other = fit_forest(d, b=1, min_leaf=10, seed=3)
    one_tree = rsf_risk(other, d)
    np.testing.assert_array_equal(rsf_risk(replace(f, trees=f.trees[:1]), d), one_tree)
    all_trees = f.trees[:]
    f.trees[:] = other.trees  # the same list object, new contents
    np.testing.assert_array_equal(rsf_risk(f, d), one_tree)
    f.trees = all_trees
    np.testing.assert_array_equal(rsf_risk(f, d), first)
    f.trees = f.trees[:1]
    np.testing.assert_array_equal(rsf_risk(f, d), one_tree)
    assert not np.array_equal(one_tree, first)


def test_a_forest_with_another_grid_leaves_the_first_forest_alone():
    # both forests share the same TreeNode objects
    d = bigger_design(seed=4, n=80)
    f = fit_forest(d, b=5, min_leaf=10, seed=3)
    first = rsf_risk(f, d)
    g = replace(f, event_grid=f.event_grid[:5])
    assert not np.array_equal(rsf_risk(g, d), first)
    np.testing.assert_array_equal(rsf_risk(f, d), first)


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
    doc = json.loads(json.dumps(forest_to_dict(f)))
    back = forest_from_dict(doc)
    np.testing.assert_allclose(rsf_risk(back, d), rsf_risk(f, d), rtol=1e-15)
    assert back.mtry == f.mtry and back.min_leaf == f.min_leaf


def test_reloaded_forest_rebuilds_inbag():
    d = bigger_design(seed=7, n=80)
    f = fit_forest(d, b=3, min_leaf=15, seed=8)
    doc = json.loads(json.dumps(forest_to_dict(f)))
    assert doc["n"] == d.n
    assert all("inbag" not in t for t in doc["trees"])
    back = forest_from_dict(doc)
    for fitted, reloaded in zip(f.trees, back.trees):
        np.testing.assert_array_equal(reloaded.inbag, fitted.inbag)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 600))
@settings(max_examples=80, deadline=None)
def test_leaf_mortalities_equal_the_summed_curve(data_seed, n_leaves, grid_draws):
    # one pass over many leaves must give each leaf's np.sum(chf(grid))
    # bit for bit; knots come from a pool the grid only samples, so some
    # lie between grid points, and one leaf has no knots at all
    rng = np.random.default_rng(data_seed)
    pool = np.round(rng.exponential(2.0, 800), 2)
    grid = np.unique(rng.choice(pool, grid_draws))
    leaves = [leaf([], [], [])]
    for _ in range(n_leaves):
        times = np.unique(rng.choice(pool, rng.integers(0, 60)))
        at_risk = rng.integers(1, 1000, times.size)
        leaves.append(leaf(times, rng.integers(1, at_risk + 1), at_risk))
    got = _leaf_mortalities(leaves, grid)
    assert got.tolist() == [float(np.sum(node.chf(grid))) for node in leaves]


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
    doc = forest_to_dict(f)
    back = forest_from_dict(json.loads(json.dumps(doc)))
    assert forest_to_dict(back) == doc
    np.testing.assert_array_equal(rsf_risk(back, d), rsf_risk(f, d))
    for x in X[:4]:
        fitted, reloaded = predict_chf(f, x), predict_chf(back, x)
        np.testing.assert_array_equal(reloaded.times, fitted.times)
        np.testing.assert_array_equal(reloaded.values, fitted.values)


def first_leaf(node: dict) -> dict:
    while "knots" not in node:
        node = node["left"]
    return node


def set_leaf(**fields):
    return lambda doc: first_leaf(doc["trees"][0]["root"]).update(fields)


@pytest.mark.parametrize(
    "edit, text",
    [
        (lambda doc: doc["trees"][1].update(root={"chf_times": [1.0], "chf_values": [0.5]}),
         "refit the model"),
        (set_leaf(knots=[1, 1], events=[1, 1], at_risk=[5, 4]), "increasing indices"),
        (set_leaf(knots=[2, 1], events=[1, 1], at_risk=[5, 4]), "increasing indices"),
        (set_leaf(knots=[-1], events=[1], at_risk=[5]), "increasing indices"),
        (lambda doc: set_leaf(knots=[len(doc["event_grid"])], events=[1], at_risk=[5])(doc),
         "increasing indices"),
        (set_leaf(knots=[0], events=[0], at_risk=[5]), "1 <= events <= at_risk"),
        (set_leaf(knots=[0], events=[6], at_risk=[5]), "1 <= events <= at_risk"),
        (set_leaf(knots=[0, 1], events=[1], at_risk=[5, 4]), "differ in length"),
        (set_leaf(knots=[0], events=[1.5], at_risk=[5]), "integers"),
        (set_leaf(knots=[[0]], events=[1], at_risk=[5]), "integers"),
        (lambda doc: doc.update(event_grid=doc["event_grid"][::-1]), "strictly increasing"),
    ],
    ids=["curve-leaves", "repeated-knot", "decreasing-knots", "negative-knot",
         "knot-past-grid", "no-events", "events-above-at-risk", "length-mismatch",
         "fractional-count", "nested-knot", "grid-decreasing"],
)
def test_load_refuses_bad_leaves(edit, text):
    f = fit_forest(bigger_design(seed=7, n=80), b=2, min_leaf=15, seed=8)
    doc = json.loads(json.dumps(forest_to_dict(f)))
    edit(doc)
    with pytest.raises(ValueError, match=text):
        forest_from_dict(doc)


def test_a_forest_whose_leaves_leave_its_grid_is_not_written():
    f = fit_forest(bigger_design(seed=7, n=80), b=2, min_leaf=15, seed=8)
    with pytest.raises(ValueError, match="event grid"):
        forest_to_dict(replace(f, event_grid=f.event_grid[::2]))


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
    assert forest_to_dict(whole) == forest_to_dict(same)
    with pytest.raises(ValueError, match="whole number"):
        fit_forest(d, b=1, mtry=1.5)

import numpy as np
import pytest

from survbench.rsf import predict_chf
from survbench.stepfun import StepFunction

from conftest import joined, load_forest, numeric_schema, tree_file


def test_right_continuous_lookup():
    f = StepFunction(times=[1.0, 3.0], values=[0.5, 0.2], initial=1.0)
    assert f(0.0) == 1.0
    assert f(1.0) == 0.5  # value AT the jump is the post-jump value
    assert f(2.999) == 0.5
    assert f(3.0) == 0.2
    assert f(100.0) == 0.2


def test_vector_evaluation():
    f = StepFunction(times=[1.0, 2.0], values=[0.7, 0.1], initial=1.0)
    np.testing.assert_allclose(f([0.5, 1.0, 1.5, 2.5]), [1.0, 0.7, 0.7, 0.1])


def test_no_knots_is_constant():
    f = StepFunction(times=[], values=[], initial=0.0)
    assert f(0.0) == 0.0
    assert f(5.0) == 0.0
    np.testing.assert_array_equal(f([1.0, 2.0]), [0.0, 0.0])


def test_times_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        StepFunction(times=[2.0, 1.0], values=[0.5, 0.2])
    with pytest.raises(ValueError, match="strictly increasing"):
        StepFunction(times=[1.0, 1.0], values=[0.5, 0.2])


def test_shape_mismatch():
    with pytest.raises(ValueError):
        StepFunction(times=[1.0, 2.0], values=[0.5])


def two_leaf_forest(trees):
    """A forest file of one-leaf trees on the grid [1, 2]: each tree is its
    leaf's (knots, events, at_risk), knots indexing the grid."""
    return {"model": "rsf", "schema": numeric_schema(["x0"]), "mtry": 1, "min_leaf": 1,
            "max_depth": None, "seed": 0, "event_grid": [1.0, 2.0], "n": 2,
            "trees": joined([tree_file(column=[-1], threshold=[0.0], left=[-1],
                                       knot_counts=[len(knots)], knots=knots, events=events,
                                       at_risk=at_risk)
                             for knots, events, at_risk in trees])}


# The pointwise mean of step functions on the union of their knots is taken
# by rsf.predict_chf over a forest's trees.
def test_average_two_functions_by_hand():
    # f is 1.0 from t=1; g is 0.5 from t=2, and neither has the other's knot
    forest = load_forest(two_leaf_forest([([0], [1], [1]), ([1], [1], [2])]))
    avg = predict_chf(forest, np.zeros(1))
    assert avg.times.tolist() == [1.0, 2.0]
    np.testing.assert_array_equal(avg.values, [0.5, 0.75])
    assert avg(0.5) == 0.0


def test_average_empty_list_rejected():
    with pytest.raises(ValueError, match="at least one tree"):
        load_forest(two_leaf_forest([]))

"""Shared helpers: the Newton maximizer on small functions with known
maxima, each passing its Newton step as a callable."""

import numpy as np
import pytest

from survbench.common import SingularHessianError, newton_maximize


def test_maximizes_a_concave_quadratic_in_one_step():
    A = np.array([[-2.0, 0.5], [0.5, -1.0]])
    c = np.array([1.0, -3.0])
    x, conv = newton_maximize(
        lambda x: (0.5 * x @ A @ x + c @ x, A @ x + c, lambda: np.linalg.solve(-A, A @ x + c)),
        np.zeros(2), max_iter=10, tol=1e-10)
    np.testing.assert_allclose(x, np.linalg.solve(-A, c), rtol=1e-12)
    assert conv.converged and conv.iterations == 1


def test_gradient_fallback_where_the_hessian_is_not_negative():
    # f = -(x^2 - 1)^2 has maxima at +-1 and a minimum at 0; at x = 0.1 its
    # curvature is positive, so the Newton step heads to the minimum and
    # only the gradient direction climbs toward x = 1
    def f(x):
        v = x[0] ** 2 - 1.0
        g = np.array([-4.0 * x[0] * v])
        return -(v**2), g, lambda: g / (12.0 * x[0] ** 2 - 4.0)

    x, conv = newton_maximize(f, np.array([0.1]), max_iter=100, tol=1e-10)
    assert x[0] == pytest.approx(1.0, abs=1e-9)
    assert conv.converged


def test_iterations_count_accepted_steps():
    # -exp(-x) rises without bound on its maximum: every Newton step is
    # accepted until max_iter
    def rising(x):
        return -np.exp(-x[0]), np.exp(-x), lambda: np.ones(1)

    _, conv = newton_maximize(rising, np.zeros(1), max_iter=3, tol=1e-12)
    assert not conv.converged and conv.iterations == 3

    # a kink at the start: the gradient claims ascent but every halving
    # lowers the value, so no step is accepted
    def kink(x):
        return -abs(x[0]), np.ones(1), lambda: np.ones(1)

    x, conv = newton_maximize(kink, np.zeros(1), max_iter=10, tol=1e-8)
    assert x[0] == 0.0 and not conv.converged and conv.iterations == 0


def test_singular_system_raises():
    with pytest.raises(SingularHessianError, match="ridge or l2"):
        newton_maximize(lambda x: (0.0, np.ones(2), lambda: np.linalg.solve(np.zeros((2, 2)),
                                                                           np.ones(2))),
                        np.zeros(2), max_iter=5, tol=1e-8)


def test_direction_is_asked_only_at_accepted_points():
    # -(x - 3)^2 from 0 with a direction that overshoots to x = 12: the
    # full step and the first halving are rejected, the second is taken
    asked = []

    def f(x):
        def direction():
            asked.append(float(x[0]))
            return np.array([12.0 - x[0]])
        return -((x[0] - 3.0) ** 2), np.array([-2.0 * (x[0] - 3.0)]), direction

    x, conv = newton_maximize(f, np.zeros(1), max_iter=1, tol=1e-12)
    assert x[0] == 3.0 and conv.iterations == 1
    assert asked == [0.0]

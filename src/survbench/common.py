"""Small records and helpers shared across modules."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

_LL_TIE = 1e-12


def fmt6(v: float) -> str:
    """A number at 6 significant digits, as every printed line, CSV cell
    and figure label shows it."""
    return format(float(v), ".6g")


@dataclass(frozen=True)
class Convergence:
    """How an iterative fit ended: the criterion is a max-norm gradient
    (or projected gradient) threshold; `iterations` counts accepted steps."""

    converged: bool
    iterations: int
    gradient_norm: float

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "Convergence":
        return Convergence(
            bool(doc["converged"]), int(doc["iterations"]), float(doc["gradient_norm"])
        )


class SingularHessianError(ValueError):
    """The Newton system is singular. Refit with a larger penalty: a
    ValueError, since other options fix it."""


def newton_maximize(f, x0, max_iter: int, tol: float) -> tuple[np.ndarray, Convergence]:
    """Maximize f, which returns (value, gradient, direction), from x0 by
    Newton steps with up to 30 halvings; `direction()` gives the Newton
    step and is called only at accepted points. The loop steps along the
    gradient when that step does not ascend. A step is taken when it raises
    the value, or when it lowers the max-norm gradient and leaves the value
    within _LL_TIE (relative): near an optimum the value is flat to within
    rounding. Stops at max-norm gradient <= tol, after max_iter accepted
    steps, or when no halving is taken."""
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    x = np.asarray(x0, dtype=np.float64)
    value, grad, direction = f(x)
    iterations = 0
    while iterations < max_iter:
        gnorm = float(np.abs(grad).max())
        if gnorm <= tol:
            break
        try:
            delta = direction()
        except np.linalg.LinAlgError:
            raise SingularHessianError("singular Hessian; refit with larger ridge or l2") from None
        if grad @ delta <= 0.0:
            delta = grad.copy()
        step = 1.0
        for _ in range(30):
            cand = x + step * delta
            cvalue, cgrad, cdirection = f(cand)
            if cvalue > value or (
                abs(cvalue - value) <= _LL_TIE * abs(value)
                and float(np.abs(cgrad).max()) < gnorm
            ):
                x, value, grad, direction = cand, cvalue, cgrad, cdirection
                break
            step *= 0.5
        else:
            break
        iterations += 1
    gnorm = float(np.abs(grad).max())
    return x, Convergence(gnorm <= tol, iterations, gnorm)

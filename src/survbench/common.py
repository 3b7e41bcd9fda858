"""Small records and helpers shared across modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LL_TIE = 1e-12


def fmt6(v: float) -> str:
    """A number at 6 significant digits, as every printed line, CSV cell
    and figure label shows it."""
    return format(float(v), ".6g")


def json_kind(default, s: str = "") -> str:  # plural for s="s"; an object by its keys' kinds
    if isinstance(default, (list, tuple)):
        return f"list{s} of {json_kind(default[0], 's')}"
    if isinstance(default, dict):
        kinds = [(json_kind(v), k) for k, v in default.items()]
        keys = [f"{'an' if kind[0] in 'aeiou' else 'a'} {kind} {k}" for kind, k in kinds]
        words = " and ".join(filter(None, [", ".join(keys[:-1]), *keys[-1:]]))
        return f"object{s}" + f" with {words}" * bool(words)
    if default is None:
        return f"number{s} or null{s}"
    return {bool: "boolean", int: "integer", float: "number", str: "string"}[type(default)] + s


def has_json_kind(default, value) -> bool:
    """Whether `value` has the JSON type of `default`: a number for a
    float, a number or null for null, for a list or tuple a list whose
    items have the JSON type of its first, and for a dict a dict whose
    values have the JSON type of the same key's in `default` (a key it
    lacks is left to its reader)."""
    if isinstance(value, bool):  # a JSON boolean is no number
        return isinstance(default, bool)
    if default is None or isinstance(default, float):
        return isinstance(value, (int, float)) or (value is None and default is None)
    if isinstance(default, (list, tuple)):
        return isinstance(value, list) and all(has_json_kind(default[0], v) for v in value)
    if isinstance(default, dict):
        return isinstance(value, dict) and all(
            has_json_kind(d, value[k]) for k, d in default.items() if k in value)
    return type(value) is type(default)


@dataclass(frozen=True)
class Convergence:
    """How an iterative fit ended: the criterion is a max-norm gradient
    (or projected gradient) threshold; `iterations` counts accepted steps."""

    converged: bool
    iterations: int
    gradient_norm: float


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

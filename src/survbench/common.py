"""Small records and helpers shared across modules."""

from __future__ import annotations

from dataclasses import dataclass


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
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "gradient_norm": self.gradient_norm,
        }

    @staticmethod
    def from_dict(doc: dict) -> "Convergence":
        return Convergence(
            bool(doc["converged"]), int(doc["iterations"]), float(doc["gradient_norm"])
        )

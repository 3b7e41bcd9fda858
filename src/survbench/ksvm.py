"""Kernel survival SVM in the pairwise ranking formulation.

For every comparable pair (i, j) in P — subject i purchased strictly
earlier than j was observed — the score should satisfy f_i > f_j with
margin 1. With f = K beta over the training rows (K the Gram matrix),
the fit minimizes the squared-hinge primal on all of P (Chapelle &
Keerthi 2010; Pölsterl, Navab & Katouzian 2015):

    J(beta) = 0.5 beta'K beta + c/(2|P|) * sum over P of max(0, 1 - (f_i - f_j))^2

`c` is the total weight of the pair loss, shared out over the |P| pairs.
J's gradient is K(beta + g), g the f-gradient of the loss; its generalized
Hessian is K + s K L K, s = c/|P|, L the Laplacian of the active pairs
(f_i - f_j < 1). A Newton step solves (I + s L K) d = -(beta + g) by CG
in the K inner product u'K v, where that operator is self-adjoint with
every eigenvalue >= 1: CG needs few iterations however small K's
eigenvalues are. Each costs one K matvec and one pass over the active-pair
masks; K is never factorized. P is `riskset.comparable_blocks`, the pair
blocks the C-index counts, and a mask is a block & (f_i - f_j < 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import Convergence, newton_maximize
from .data import DesignMatrix
from .riskset import comparable_blocks


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "rbf"
    gamma: float | None = None  # rbf; None means 1/p
    degree: int = 3
    coef0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "rbf", "polynomial"):
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.kind == "polynomial" and self.coef0 < 0:
            raise ValueError("polynomial coef0 must be >= 0 (else K is not PSD)")


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    K = a @ b.T
    if spec.kind == "linear":
        return K
    if spec.kind == "polynomial":
        return (K + spec.coef0) ** spec.degree
    gamma = spec.gamma if spec.gamma is not None else 1.0 / max(a.shape[1], 1)
    # squared distances |a|^2 - 2 a.b + |b|^2, built in K's own buffer
    K *= -2.0
    K += (a * a).sum(axis=1)[:, None]
    K += (b * b).sum(axis=1)[None, :]
    np.maximum(K, 0.0, out=K)
    K *= -gamma
    return np.exp(K, out=K)


@dataclass
class KsvmModel:
    """Its file holds the support rows raw; a load standardizes them with the file's means and sds."""

    kernel: KernelSpec
    support_rows: np.ndarray  # standardized
    coefficients: np.ndarray  # beta on each support row
    c: float
    column_names: list[str]
    convergence: Convergence
    support: np.ndarray | None = None  # their rows in the fitted design; None once loaded


def _active_blocks(pairs, f):
    """(rows, mask) per block of `pairs`: the pairs active at scores f."""
    for rows, later in pairs:
        yield rows, later & (f[rows, None] - f < 1.0)


def _laplacian(pairs, f):
    """v -> L v, with L the Laplacian of the `pairs` active at scores f;
    the masks are made float64 once for all CG iterations of a step."""
    blocks = [(rows, mask.astype(np.float64)) for rows, mask in _active_blocks(pairs, f)]
    degree = np.zeros(f.size)
    for rows, m in blocks:
        degree[rows] += m.sum(axis=1)
        degree += m.sum(axis=0)

    def apply(v):
        out = degree * v
        for rows, m in blocks:
            out[rows] -= m @ v
            out -= v[rows] @ m
        return out

    return apply


def _primal(design: DesignMatrix, kernel: KernelSpec, c: float):
    """beta -> (-J, its gradient, Newton-CG step), as newton_maximize takes it."""
    pairs = list(comparable_blocks(design.times, design.events))
    n_pairs = sum(np.count_nonzero(later) for _, later in pairs)
    if n_pairs == 0:
        raise ValueError("no comparable pairs; cannot fit a ranking model")
    s = c / n_pairs
    K = kernel_matrix(kernel, design.X, design.X)

    def negated(beta):
        f = K @ beta
        g = np.zeros(design.n)  # f-gradient of the pair loss, over s
        loss = 0.0
        for rows, mask in _active_blocks(pairs, f):
            r = np.where(mask, 1.0 - f[rows, None] + f, 0.0)
            loss += float(np.vdot(r, r))
            g[rows] -= r.sum(axis=1)
            g += r.sum(axis=0)
        g *= s
        grad = f + K @ g

        def direction():
            """CG in the K inner product on (I + s L K) d = -(beta + g), to the
            forcing term min(0.5, sqrt(|grad|_inf)) or non-positive curvature."""
            laplacian = _laplacian(pairs, f)
            r, Kr = -(beta + g), -grad  # the residual at d = 0, and K times it
            d, p, Kp = np.zeros(beta.size), r, Kr
            rr = float(r @ Kr)
            stop = min(0.25, float(np.abs(grad).max())) * rr  # squared forcing term
            for _ in range(beta.size):
                if rr <= stop:
                    break
                Ap = p + s * laplacian(Kp)
                curvature = float(Kp @ Ap)
                if curvature <= 0.0:
                    break
                alpha = rr / curvature
                d = d + alpha * p
                r = r - alpha * Ap
                Kr = K @ r
                rr, rr_old = float(r @ Kr), rr
                p = r + (rr / rr_old) * p
                Kp = Kr + (rr / rr_old) * Kp
            return d

        return -(0.5 * float(beta @ f) + 0.5 * s * loss), -grad, direction

    return negated


def fit_ksvm(
    design: DesignMatrix,
    kernel: KernelSpec = KernelSpec(),
    c: float = 10_000.0,
    max_iter: int = 30,
    tol: float = 1e-3,
) -> KsvmModel:
    """Minimize J from beta = 0; converged means max-norm gradient <= tol."""
    if c <= 0:
        raise ValueError("c must be > 0")
    beta, convergence = newton_maximize(_primal(design, kernel, c), np.zeros(design.n), max_iter, tol)
    support = np.nonzero(beta != 0.0)[0]
    return KsvmModel(
        kernel=kernel,
        support_rows=design.X[support].copy(),
        coefficients=beta[support],
        c=c,
        column_names=list(design.names),
        convergence=convergence,
        support=support,
    )


def ksvm_risk(model: KsvmModel, design: DesignMatrix) -> np.ndarray:
    if design.names != model.column_names:
        raise ValueError("design columns do not match the fitted model")
    return model.coefficients @ kernel_matrix(model.kernel, model.support_rows, design.X)

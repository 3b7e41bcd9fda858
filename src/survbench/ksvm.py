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
eigenvalues are. Each costs one K matvec and O(n) work per block of event
rows in time order (`riskset.pair_blocks`; Pölsterl, Navab & Katouzian 2016):
rows inside its time span through a (block x span) mask, rows after it sorted
by f once per point J is evaluated at. K is never factorized; the loss and g
come from L and pair degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import Convergence, newton_maximize
from .data import DesignMatrix, cut
from .riskset import pair_blocks


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "rbf"
    gamma: float | None = None  # rbf; None means 1/p
    degree: int = 3
    coef0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "rbf", "polynomial"):
            raise ValueError(f"unknown kernel kind: {cut(repr(self.kind))}")
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


@np.errstate(over="ignore")  # finite rows can have squared norms that overflow the RBF kernel
def kernel_rows(rows: np.ndarray, what: str) -> np.ndarray:
    """Standardized `rows`, or a ValueError naming them `what` if a squared norm is not finite."""
    if not np.all(np.isfinite((rows * rows).sum(axis=1))):
        raise ValueError(f"{what} have squared norms too large to be finite")
    return rows


@dataclass
class KsvmModel:
    """Its file holds the support rows raw; a load maps them by `data.standardize_rows`."""

    kernel: KernelSpec
    support_rows: np.ndarray  # standardized
    coefficients: np.ndarray  # beta on each support row
    c: float
    column_names: list[str]
    convergence: Convergence
    support: np.ndarray | None = None  # their rows in the fitted design; None once loaded


def _first_active(fs, fi):
    """Per score fi, the first k with fi - fs[k] < 1.0 in ascending fs (fs.size if none).
    That rounded test is monotone in fs, so a searchsorted guess moves, a run of equal
    scores at a time, until the test itself agrees with it."""
    k = fs.searchsorted(fi - 1.0, "right")
    while fs.size:
        below, at = fs[k - 1], fs[np.minimum(k, fs.size - 1)]
        down, up = (k > 0) & (fi - below < 1.0), (k < fs.size) & ~(fi - at < 1.0)
        if not (down | up).any():
            break
        k = np.where(down, fs.searchsorted(below), np.where(up, fs.searchsorted(at, "right"), k))
    return k


def _pair_terms(blocks, f):
    """The sum of (1 - f_i + f_j)^2 over the pairs (i, j) of `blocks` active at scores f
    (f_i - f_j < 1.0), half its f-gradient, and v -> L v, L the active pairs' Laplacian.
    With A[i, j] = 1 on an active pair and d = A1 - A'1, L = diag(A1 + A'1) - A - A',
    the half-gradient is L f - d and the sum is |A| + f'(L f - 2d)."""
    parts = []
    for rows, span, later, after in blocks:
        by_f, o = np.argsort(f[span], kind="stable"), after[np.argsort(f[after], kind="stable")]
        first, k = _first_active(f[span[by_f]], f[rows]), _first_active(f[o], f[rows])
        parts.append((rows, span, later & (np.argsort(by_f) >= first[:, None]), o, k))

    def adjacent(v, sign):
        """A v + sign A'v; after a block, row i sums v over the f-sorted rows from k_i on."""
        out = np.zeros(v.size)
        for rows, span, act, o, k in parts:
            out[rows] += np.einsum("ij,j->i", act, v[span])
            out[rows] += np.cumsum(np.append(v[o], 0.0)[::-1])[::-1][k]
            out[span] += sign * np.einsum("i,ij->j", v[rows], act)
            out[o] += sign * np.cumsum(np.bincount(k, v[rows], o.size + 1)[:-1])
        return out

    degree, d = adjacent(np.ones(f.size), 1.0), adjacent(np.ones(f.size), -1.0)

    def laplacian(v):
        return degree * v - adjacent(v, 1.0)

    g = laplacian(f) - d
    return 0.5 * float(degree.sum()) + float(f @ (g - d)), g, laplacian


def _primal(design: DesignMatrix, kernel: KernelSpec, c: float):
    """beta -> (-J, its gradient, Newton-CG step), as newton_maximize takes it."""
    pairs = list(pair_blocks(design.times, design.events))
    n_pairs = sum(np.count_nonzero(later) + rows.size * rest.size for rows, _, later, rest in pairs)
    if n_pairs == 0:
        raise ValueError("no comparable pairs; cannot fit a ranking model")
    s = c / n_pairs
    K = kernel_matrix(kernel, design.X, design.X)

    def negated(beta):
        f = K @ beta
        loss, g, laplacian = _pair_terms(pairs, f)
        g *= s  # the f-gradient of the pair loss, 0.5 s loss
        grad = f + K @ g

        def direction():
            """CG in the K inner product on (I + s L K) d = -(beta + g), to the
            forcing term min(0.5, sqrt(|grad|_inf)) or non-positive curvature."""
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


@np.errstate(over="ignore", invalid="ignore")  # a polynomial kernel can overflow; C-index refuses
def ksvm_risk(model: KsvmModel, design: DesignMatrix) -> np.ndarray:
    if design.names != model.column_names:
        raise ValueError("design columns do not match the fitted model")
    X = design.X if model.kernel.kind == "linear" else kernel_rows(design.X, "scored rows")
    return model.coefficients @ kernel_matrix(model.kernel, model.support_rows, X)

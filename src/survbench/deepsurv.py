"""Feed-forward log-risk network trained on the negative Cox partial
likelihood, with hand-derived backpropagation.

The network replaces the linear predictor beta.x of the proportional
hazards model: loss = -(1/#events) * sum over events of
[g_i - log sum_{j: T_j >= T_i} exp(g_j)], risk sets taken within the
batch. A zero-hidden-layer spec is exactly a linear Cox predictor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import DesignMatrix
from .riskset import breslow_loglik, risk_sets, sorted_breslow_loglik, sorted_risk_sets
from .rng import CounterRng

_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpSpec:
    """layer_widths runs input p, hidden widths..., output 1."""

    layer_widths: tuple[int, ...]
    activation: str = "relu"
    dropout_rate: float = 0.0
    weight_init_seed: int = 0

    def __post_init__(self):
        if len(self.layer_widths) < 2 or self.layer_widths[-1] != 1:
            raise ValueError("layer_widths must end in an output width of 1")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("layer widths must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))


@dataclass
class DeepSurvModel:
    spec: MlpSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    column_names: list[str]
    training_log: list[float] = field(default_factory=list)


def init_parameters(spec: MlpSpec) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Scaled uniform fan-in init, U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    rng = CounterRng(spec.weight_init_seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        u = rng.uniform(fan_in * fan_out).reshape(fan_in, fan_out)
        weights.append((2.0 * u - 1.0) * bound)
        biases.append(np.zeros(fan_out))
    return weights, biases


def cox_nll_loss(log_risks, times, events) -> tuple[float, np.ndarray]:
    """Negative partial likelihood of a batch over its event count, and
    its exact gradient with respect to the log-risks: -l/E and -dl/dg / E
    for the Breslow likelihood l of `breslow_loglik` (ties share a risk
    set, exp is max-shifted)."""
    rs = risk_sets(times, events)
    n_events = int(rs.n_events.sum())
    if n_events < 1:
        raise ValueError("batch has no events")
    loglik, grad = breslow_loglik(rs, log_risks)
    return -loglik / n_events, -grad / n_events


def _forward(weights, biases, X, activation, drop_masks=None):
    """Returns per-row log-risk and the activations/pre-activations needed
    for backprop. drop_masks, when given, are applied to hidden layers."""
    a = X
    acts, zs = [a], []
    n_layers = len(weights)
    for l, (W, b) in enumerate(zip(weights, biases)):
        z = a @ W + b
        zs.append(z)
        if l < n_layers - 1:
            a = np.tanh(z) if activation == "tanh" else np.maximum(z, 0.0)
            if drop_masks is not None:
                a = a * drop_masks[l]
        else:
            a = z
        acts.append(a)
    return a[:, 0], acts, zs


def _backward(weights, dz_out, acts, zs, activation, grads_w, grads_b, drop_masks=None):
    """dz_out is dLoss/d(output column); fills the per-layer gradients of
    the loss, without L2, into grads_w and grads_b."""
    delta = dz_out
    for l in range(len(weights) - 1, -1, -1):
        np.matmul(acts[l].T, delta, out=grads_w[l])
        delta.sum(axis=0, out=grads_b[l])
        if l > 0:
            # an output delta has one column: a product of one term, as in the matmul
            upstream = delta * weights[l].T if l == len(weights) - 1 else delta @ weights[l].T
            if drop_masks is not None:
                upstream = upstream * drop_masks[l - 1]
            if activation == "tanh":
                delta = upstream * (1.0 - np.tanh(zs[l - 1]) ** 2)
            else:
                delta = upstream * (zs[l - 1] > 0.0)


def loss_and_gradients(weights, biases, X, times, events, activation, l2):
    """Full-batch objective (NLL + L2 on weights) and exact parameter
    gradients; the reference path for gradient checks."""
    g, acts, zs = _forward(weights, biases, X, activation)
    loss, dg = cox_nll_loss(g, times, events)
    loss += 0.5 * l2 * sum(float((W * W).sum()) for W in weights)
    gw, gb = [np.empty_like(W) for W in weights], [np.empty_like(b) for b in biases]
    _backward(weights, dg[:, None], acts, zs, activation, gw, gb)
    for W, G in zip(weights, gw):
        G += l2 * W
    return loss, gw, gb


def _views(flat, shapes):
    """Consecutive views into `flat` with the given shapes."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends), shapes)]


def fit_deepsurv(
    design: DesignMatrix,
    spec: MlpSpec,
    epochs: int = 300,
    batch_size: int | None = 64,
    learning_rate: float = 1e-3,
    l2: float = 1e-4,
    seed: int = 0,
) -> DeepSurvModel:
    """SGD with momentum 0.9. Batches are a seeded shuffle each epoch,
    cut into batch_size chunks (full batch when batch_size is None);
    event-free chunks are skipped with a warning. Each epoch is planned
    before its first step (time order and risk sets of all its chunks, with
    the bits of a chunk-by-chunk loop); a step draws its chunk's dropout
    masks, hidden layer by layer, and updates one flat vector of which the
    weights and biases are views."""
    if not design.standardized:
        raise ValueError("deepsurv expects a standardized design")
    if design.events.sum() < 1:
        raise ValueError("need at least one event to fit")
    if spec.layer_widths[0] != design.p:
        raise ValueError("spec input width does not match design")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    if l2 < 0:
        raise ValueError("l2 must be >= 0")
    weights, biases = init_parameters(spec)
    layers, n_weights = len(weights), sum(W.size for W in weights)
    shapes = [a.shape for a in weights + biases]
    params = np.concatenate([a.ravel() for a in weights + biases])  # every weight, then biases
    grad, vel = np.empty_like(params), np.zeros_like(params)
    views, grads = _views(params, shapes), _views(grad, shapes)
    weights, biases, grads_w, grads_b = views[:layers], views[layers:], grads[:layers], grads[layers:]
    rng = CounterRng(seed)
    X, times, events = design.X, design.times, design.events
    n = design.n
    chunk = n if batch_size is None else min(batch_size, n)
    batch_starts = np.arange(0, n, chunk)
    bounds = [*batch_starts.tolist(), n]
    batch_ends = np.array(bounds[1:])
    hidden = spec.layer_widths[1:-1]
    keep = 1.0 - spec.dropout_rate
    log = []
    for epoch in range(epochs):
        perm = np.argsort(rng.uniform(n), kind="stable")
        rows = perm[np.lexsort((times[perm], np.arange(n) // chunk))]
        rs = sorted_risk_sets(times[rows], events[rows], rows, batch_ends)  # batches are runs
        Xs, starts, is_event = X[rows], rs.starts, rs.is_event
        sizes = np.append(starts[1:], n) - starts  # rows at each distinct time
        starts_in_batch = starts % chunk
        group_bounds = np.searchsorted(starts, bounds).tolist()
        batch_events = np.add.reduceat(is_event, batch_starts).tolist()
        batch_losses = []
        for b, k in enumerate(batch_events):
            if not k:
                warnings.warn(f"skipping event-free batch at epoch {epoch}")
                continue
            lo, hi = bounds[b], bounds[b + 1]
            masks = [(rng.uniform((hi - lo) * w).reshape(hi - lo, w) < keep) / keep
                     for w in hidden] if spec.dropout_rate > 0.0 else None
            groups = slice(group_bounds[b], group_bounds[b + 1])
            with np.errstate(all="ignore"):  # a diverged loss is refused below
                g, acts, zs = _forward(weights, biases, Xs[lo:hi], spec.activation, masks)
                loglik, dl = sorted_breslow_loglik(g, is_event[lo:hi], starts_in_batch[groups],
                                                   sizes[groups], rs.n_events[groups])
            loss = -loglik / k
            if not math.isfinite(loss):
                raise ValueError(f"loss diverged at epoch {epoch}; lower the learning rate")
            _backward(weights, (dl / -k)[:, None], acts, zs, spec.activation,
                      grads_w, grads_b, masks)
            grad[:n_weights] += l2 * params[:n_weights]
            vel *= 0.9
            vel -= learning_rate * grad
            params += vel
            batch_losses.append(loss)
        log.append(float(np.mean(batch_losses)) if batch_losses else float("nan"))
    return DeepSurvModel(
        spec=spec,
        weights=weights,
        biases=biases,
        training_log=log,
        column_names=list(design.names),
    )


def predict_log_risk(model: DeepSurvModel, design: DesignMatrix) -> np.ndarray:
    """Per-row log-risk, dropout disabled."""
    if design.names != model.column_names:
        raise ValueError("design columns do not match the fitted model")
    g, _, _ = _forward(model.weights, model.biases, design.X, model.spec.activation)
    return g

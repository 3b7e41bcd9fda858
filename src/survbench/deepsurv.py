"""Feed-forward log-risk network trained on the negative Cox partial
likelihood, with hand-derived backpropagation.

The network replaces the linear predictor beta.x of the proportional
hazards model: loss = -(1/#events) * sum over events of
[g_i - log sum_{j: T_j >= T_i} exp(g_j)], risk sets taken within the
batch. A zero-hidden-layer spec is exactly a linear Cox predictor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import DesignMatrix
from .riskset import breslow_loglik, risk_sets
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


def _backward(weights, dz_out, acts, zs, activation, l2, drop_masks=None):
    """dz_out is dLoss/d(output column); returns per-layer gradients with
    L2 applied to weights only."""
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    delta = dz_out
    for l in range(len(weights) - 1, -1, -1):
        grads_w[l] = acts[l].T @ delta + l2 * weights[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            upstream = delta @ weights[l].T
            if drop_masks is not None:
                upstream = upstream * drop_masks[l - 1]
            if activation == "tanh":
                delta = upstream * (1.0 - np.tanh(zs[l - 1]) ** 2)
            else:
                delta = upstream * (zs[l - 1] > 0.0)
    return grads_w, grads_b


def loss_and_gradients(weights, biases, X, times, events, activation, l2):
    """Full-batch objective (NLL + L2 on weights) and exact parameter
    gradients; the reference path for gradient checks."""
    g, acts, zs = _forward(weights, biases, X, activation)
    loss, dg = cox_nll_loss(g, times, events)
    loss += 0.5 * l2 * sum(float((W * W).sum()) for W in weights)
    gw, gb = _backward(weights, dg[:, None], acts, zs, activation, l2)
    return loss, gw, gb


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
    event-free chunks are skipped with a warning."""
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
    vel_w = [np.zeros_like(W) for W in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    rng = CounterRng(seed)
    X, times, events = design.X, design.times, design.events
    n = design.n
    chunk = n if batch_size is None else min(batch_size, n)
    log = []
    for epoch in range(epochs):
        perm = np.argsort(rng.uniform(n), kind="stable")
        batch_losses = []
        for lo in range(0, n, chunk):
            idx = perm[lo : lo + chunk]
            idx = idx[np.argsort(times[idx], kind="stable")]
            if events[idx].sum() < 1:
                warnings.warn(f"skipping event-free batch at epoch {epoch}")
                continue
            masks = None
            if spec.dropout_rate > 0.0:
                keep = 1.0 - spec.dropout_rate
                masks = [
                    (rng.uniform(idx.size * w).reshape(idx.size, w) < keep) / keep
                    for w in spec.layer_widths[1:-1]
                ]
            with np.errstate(all="ignore"):  # a diverged loss is refused below
                g, acts, zs = _forward(weights, biases, X[idx], spec.activation, masks)
                loss, dg = cox_nll_loss(g, times[idx], events[idx])
            if not np.isfinite(loss):
                raise ValueError(
                    f"loss diverged at epoch {epoch}; lower the learning rate"
                )
            gw, gb = _backward(
                weights, dg[:, None], acts, zs, spec.activation, l2, masks
            )
            for l in range(len(weights)):
                vel_w[l] = 0.9 * vel_w[l] - learning_rate * gw[l]
                vel_b[l] = 0.9 * vel_b[l] - learning_rate * gb[l]
                weights[l] = weights[l] + vel_w[l]
                biases[l] = biases[l] + vel_b[l]
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


def deepsurv_to_dict(model: DeepSurvModel) -> dict:
    return {
        "model": "deepsurv",
        "spec": {
            "layer_widths": list(model.spec.layer_widths),
            "activation": model.spec.activation,
            "dropout_rate": model.spec.dropout_rate,
            "weight_init_seed": model.spec.weight_init_seed,
        },
        "weights": [W.ravel().tolist() for W in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "column_names": model.column_names,
    }


def deepsurv_from_dict(doc: dict) -> DeepSurvModel:
    spec = MlpSpec(
        layer_widths=tuple(doc["spec"]["layer_widths"]),
        activation=doc["spec"]["activation"],
        dropout_rate=doc["spec"]["dropout_rate"],
        weight_init_seed=doc["spec"]["weight_init_seed"],
    )
    weights = [
        np.asarray(flat, dtype=np.float64).reshape(fi, fo)
        for flat, fi, fo in zip(
            doc["weights"], spec.layer_widths[:-1], spec.layer_widths[1:]
        )
    ]
    return DeepSurvModel(
        spec=spec,
        weights=weights,
        biases=[np.asarray(b, dtype=np.float64) for b in doc["biases"]],
        column_names=list(doc["column_names"]),
    )

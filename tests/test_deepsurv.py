"""Network risk model: the batch loss against a hand-computed fixture and
finite differences, the time-ordered likelihood core against the
gathering one, full-parameter gradient checks through the
backpropagation, the linear-network equivalence with the
proportional-hazards fitter, and the bits of four pinned fits."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survbench.bench import MODELS, model_from_dict, model_options, model_to_dict
from survbench.cox import fit_cox, predict_risk
from survbench.data import encode, split
from survbench.datagen import GeneratorConfig, generate
from survbench.deepsurv import (
    DeepSurvModel,
    MlpSpec,
    cox_nll_loss,
    fit_deepsurv,
    init_parameters,
    loss_and_gradients,
    predict_log_risk,
)
from survbench.metrics import concordance_index
from survbench.riskset import breslow_loglik, risk_sets, sorted_breslow_loglik

from conftest import numeric_design


def survival_batch(seed, n=20, censor=0.4):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=n)
    t = rng.exponential(1.0, n)
    e = (rng.uniform(size=n) > censor).astype(int)
    if e.sum() == 0:
        e[0] = 1
    return g, t, e


# --- batch loss ----------------------------------------------------------


def test_two_subject_loss_fixture():
    # both events, equal log-risks: first term log2, second 0, mean log2/2
    loss, _ = cox_nll_loss([0.0, 0.0], [1.0, 2.0], [1, 1])
    assert loss == pytest.approx(math.log(2.0) / 2.0, rel=1e-15)


def test_loss_fixture_with_censoring():
    # event at t=1 against a risk set of both; censored row contributes
    # only through the denominator
    g = np.array([0.3, -0.2])
    loss, _ = cox_nll_loss(g, [1.0, 2.0], [1, 0])
    expected = -(g[0] - math.log(math.exp(g[0]) + math.exp(g[1])))
    assert loss == pytest.approx(expected, rel=1e-14)


def test_loss_gradient_finite_differences():
    for seed in range(6):
        g, t, e = survival_batch(seed)
        _, grad = cox_nll_loss(g, t, e)
        h = 1e-5
        for i in range(g.size):
            gp, gm = g.copy(), g.copy()
            gp[i] += h
            gm[i] -= h
            fd = (cox_nll_loss(gp, t, e)[0] - cox_nll_loss(gm, t, e)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_loss_shift_invariance():
    g, t, e = survival_batch(3)
    base, gbase = cox_nll_loss(g, t, e)
    for c in (-50.0, -1.0, 1e-3, 7.0, 50.0):
        shifted, gshift = cox_nll_loss(g + c, t, e)
        assert shifted == pytest.approx(base, abs=1e-12)
        np.testing.assert_allclose(gshift, gbase, atol=1e-12)


def test_loss_ties_share_risk_set():
    # tied event times: both rows see the same denominator
    g = np.array([0.5, -0.5])
    loss, _ = cox_nll_loss(g, [1.0, 1.0], [1, 1])
    denom = math.log(math.exp(0.5) + math.exp(-0.5))
    expected = -((0.5 - denom) + (-0.5 - denom)) / 2
    assert loss == pytest.approx(expected, rel=1e-14)


@st.composite
def shuffled_batch(draw):
    """A minibatch in shuffled row order: times from a few values, so ties
    are common, censored rows and at least one event."""
    n = draw(st.integers(1, 40))
    pool = draw(st.lists(st.floats(0.1, 20.0), min_size=1, max_size=6, unique=True))
    t = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    e = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    e[draw(st.integers(0, n - 1))] = 1
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(scale=3.0, size=n)
    return g, t, e


@given(shuffled_batch())
@settings(max_examples=200, deadline=None)
def test_a_time_ordered_batch_needs_no_sort(batch):
    # the fit puts each minibatch in stable time order and hands the
    # sorted rows to the likelihood core; it must give the bits that the
    # gathering likelihood gives on the rows in shuffled order
    g, t, e = batch
    order = np.lexsort((t,))
    ts = t[order]
    starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
    sizes = np.diff(np.r_[starts, t.size])
    d = np.add.reduceat((e[order] == 1).astype(float), starts)
    loglik, grad = sorted_breslow_loglik(g[order], e[order] == 1, starts, sizes, d)
    want_loglik, want_grad = breslow_loglik(risk_sets(t, e), g)
    assert loglik == want_loglik
    np.testing.assert_array_equal(grad, want_grad[order])


def test_loss_rejects_event_free_batch():
    with pytest.raises(ValueError, match="no events"):
        cox_nll_loss([0.0, 1.0], [1.0, 2.0], [0, 0])


def test_gradient_sums_to_zero_when_all_events():
    # with every row an event, the gradient components cancel exactly
    g, t, _ = survival_batch(4)
    _, grad = cox_nll_loss(g, t, np.ones_like(t, dtype=int))
    assert grad.sum() == pytest.approx(0.0, abs=1e-14)


# --- parameter gradients through backprop ---------------------------------


def flatten_params(ws, bs):
    return np.concatenate([w.ravel() for w in ws] + [b.ravel() for b in bs])


def test_full_parameter_gradient_tanh():
    rng = np.random.default_rng(8)
    n_checked = 0
    for cfg in range(20):
        widths = (3, int(rng.integers(2, 6)), 1)
        if cfg % 3 == 0:
            widths = (3, int(rng.integers(2, 5)), int(rng.integers(2, 4)), 1)
        spec = MlpSpec(layer_widths=widths, activation="tanh",
                       weight_init_seed=cfg)
        weights, biases = init_parameters(spec)
        X = rng.normal(size=(12, 3))
        t = rng.exponential(1, 12)
        e = (rng.uniform(size=12) > 0.3).astype(int)
        if e.sum() == 0:
            e[0] = 1
        l2 = 0.01
        _, gw, gb = loss_and_gradients(weights, biases, X, t, e, "tanh", l2)
        h = 1e-6
        for l in range(len(weights)):
            it = np.nditer(weights[l], flags=["multi_index"])
            for _ in it:
                ij = it.multi_index
                wp = [w.copy() for w in weights]
                wm = [w.copy() for w in weights]
                wp[l][ij] += h
                wm[l][ij] -= h
                fp, _, _ = loss_and_gradients(wp, biases, X, t, e, "tanh", l2)
                fm, _, _ = loss_and_gradients(wm, biases, X, t, e, "tanh", l2)
                assert gw[l][ij] == pytest.approx((fp - fm) / (2 * h), abs=1e-4)
                n_checked += 1
            for j in range(biases[l].size):
                bp = [b.copy() for b in biases]
                bm = [b.copy() for b in biases]
                bp[l][j] += h
                bm[l][j] -= h
                fp, _, _ = loss_and_gradients(weights, bp, X, t, e, "tanh", l2)
                fm, _, _ = loss_and_gradients(weights, bm, X, t, e, "tanh", l2)
                assert gb[l][j] == pytest.approx((fp - fm) / (2 * h), abs=1e-4)
                n_checked += 1
    assert n_checked > 300


def test_relu_gradient_away_from_kinks():
    # relu is only piecewise smooth; nudge pre-activations off zero by
    # using inputs that keep |z| comfortably positive
    rng = np.random.default_rng(9)
    spec = MlpSpec(layer_widths=(2, 4, 1), activation="relu", weight_init_seed=1)
    weights, biases = init_parameters(spec)
    biases[0][:] = 0.5  # push pre-activations away from 0
    X = rng.normal(size=(10, 2))
    t = rng.exponential(1, 10)
    e = np.ones(10, dtype=int)
    _, gw, _ = loss_and_gradients(weights, biases, X, t, e, "relu", 0.0)
    h = 1e-6
    wp = [w.copy() for w in weights]
    wm = [w.copy() for w in weights]
    wp[0][0, 0] += h
    wm[0][0, 0] -= h
    fp, _, _ = loss_and_gradients(wp, biases, X, t, e, "relu", 0.0)
    fm, _, _ = loss_and_gradients(wm, biases, X, t, e, "relu", 0.0)
    assert gw[0][0, 0] == pytest.approx((fp - fm) / (2 * h), rel=1e-4, abs=1e-8)


# --- the fitter ------------------------------------------------------------


def planted_design(seed=0, n=250, standardize=True):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    beta = np.array([0.8, -0.8])
    t = rng.exponential(1.0 / np.exp(X @ beta))
    c = rng.exponential(2.0, n)
    tt = np.minimum(t, c)
    e = (t <= c).astype(int)
    return numeric_design(X, tt, e, standardize=standardize)


def test_requires_standardized_design():
    d = planted_design(standardize=False)
    spec = MlpSpec(layer_widths=(2, 4, 1))
    with pytest.raises(ValueError, match="standardized"):
        fit_deepsurv(d, spec, epochs=1)


def test_input_width_must_match():
    d = planted_design()
    with pytest.raises(ValueError, match="input width"):
        fit_deepsurv(d, MlpSpec(layer_widths=(5, 4, 1)), epochs=1)


def test_fit_refuses_empty_training():
    # no epoch or no row per batch would return the untrained initialization
    d = planted_design()
    spec = MlpSpec(layer_widths=(2, 4, 1))
    for epochs in (0, -1):
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            fit_deepsurv(d, spec, epochs=epochs)
    for batch_size in (0, -3):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            fit_deepsurv(d, spec, epochs=1, batch_size=batch_size)


def test_training_reduces_full_batch_loss():
    d = planted_design(seed=1)
    spec = MlpSpec(layer_widths=(2, 8, 1), activation="tanh", weight_init_seed=2)
    model = fit_deepsurv(d, spec, epochs=120, batch_size=None, learning_rate=0.5)
    assert model.training_log[-1] < model.training_log[0]


def test_linear_network_matches_cox_ranking():
    d = planted_design(seed=2, n=300)
    spec = MlpSpec(layer_widths=(2, 1), activation="tanh", weight_init_seed=3)
    model = fit_deepsurv(d, spec, epochs=1500, batch_size=None,
                         learning_rate=1.0, l2=0.0)
    cox_model = fit_cox(d)
    c_net = concordance_index(d.times, d.events, predict_log_risk(model, d)).cindex
    c_cox = concordance_index(d.times, d.events, predict_risk(cox_model, d)).cindex
    assert abs(c_net - c_cox) < 0.02


def test_prediction_shift_invariance_of_loss_not_scores():
    # adding a constant to every log-risk leaves the loss unchanged, so two
    # models differing by an output-bias constant rank identically
    d = planted_design(seed=3)
    spec = MlpSpec(layer_widths=(2, 4, 1), weight_init_seed=5)
    model = fit_deepsurv(d, spec, epochs=5)
    g = predict_log_risk(model, d)
    model.biases[-1] = model.biases[-1] + 13.0
    g2 = predict_log_risk(model, d)
    np.testing.assert_allclose(g2, g + 13.0, atol=1e-12)


def test_seeded_training_reproducible():
    d = planted_design(seed=4)
    spec = MlpSpec(layer_widths=(2, 4, 1), weight_init_seed=6)
    a = fit_deepsurv(d, spec, epochs=10, seed=42)
    b = fit_deepsurv(d, spec, epochs=10, seed=42)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert a.training_log == b.training_log
    c = fit_deepsurv(d, spec, epochs=10, seed=43)
    assert any(
        not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights)
    )


def test_dropout_trains_and_predicts_deterministically():
    d = planted_design(seed=5)
    spec = MlpSpec(layer_widths=(2, 8, 1), dropout_rate=0.4, weight_init_seed=7)
    model = fit_deepsurv(d, spec, epochs=5, seed=1)
    g1 = predict_log_risk(model, d)
    g2 = predict_log_risk(model, d)
    np.testing.assert_array_equal(g1, g2)


def test_init_bounds_and_determinism():
    spec = MlpSpec(layer_widths=(9, 5, 1), weight_init_seed=123)
    w, b = init_parameters(spec)
    assert np.abs(w[0]).max() <= 1.0 / 3.0  # 1/sqrt(9)
    assert np.abs(w[1]).max() <= 1.0 / np.sqrt(5)
    assert all(np.all(x == 0) for x in b)
    w2, _ = init_parameters(spec)
    for a, c in zip(w, w2):
        np.testing.assert_array_equal(a, c)


def test_forward_single_row_matches_batch():
    d = planted_design(seed=6)
    spec = MlpSpec(layer_widths=(2, 4, 1), weight_init_seed=8)
    model = fit_deepsurv(d, spec, epochs=3)
    g = predict_log_risk(model, d)
    for i in (0, 5, 17):
        row = numeric_design(d.X[i:i + 1], d.times[i:i + 1], d.events[i:i + 1])
        assert predict_log_risk(model, row)[0] == pytest.approx(g[i], rel=1e-15)


def test_predict_validates_columns():
    d = planted_design(seed=7)
    model = fit_deepsurv(d, MlpSpec(layer_widths=(2, 3, 1)), epochs=1)
    other = numeric_design(np.zeros((4, 3)), [1, 2, 3, 4], [1, 1, 1, 1])
    with pytest.raises(ValueError):
        predict_log_risk(model, other)


def test_event_free_batch_skipped_with_warning():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(8, 2))
    t = np.arange(1.0, 9.0)
    # a single event: whichever way the shuffle falls, one of the two
    # 4-row chunks has no event and must be skipped
    e = np.array([1, 0, 0, 0, 0, 0, 0, 0])
    d = numeric_design(X, t, e, standardize=True)
    spec = MlpSpec(layer_widths=(2, 3, 1))
    with pytest.warns(UserWarning, match="event-free"):
        model = fit_deepsurv(d, spec, epochs=1, batch_size=4, seed=0)
    assert len(model.training_log) == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec(layer_widths=(3, 4))  # output must be 1
    with pytest.raises(ValueError):
        MlpSpec(layer_widths=(3,))
    with pytest.raises(ValueError):
        MlpSpec(layer_widths=(3, 1), activation="selu")
    with pytest.raises(ValueError):
        MlpSpec(layer_widths=(3, 1), dropout_rate=1.0)


def test_serialization_round_trip():
    d = planted_design(seed=8)
    model = fit_deepsurv(d, MlpSpec(layer_widths=(2, 5, 1), weight_init_seed=9),
                         epochs=4)
    doc = json.loads(json.dumps(model_to_dict("deepsurv", model, d, None)))  # raw: KSVM only
    assert "means" not in doc and "sds" not in doc
    _, back, _ = model_from_dict(doc, "deepsurv.json")
    np.testing.assert_array_equal(predict_log_risk(back, d),
                                  predict_log_risk(model, d))
    assert back.spec == model.spec
    # files written with the former means/sds keys still load
    _, old, _ = model_from_dict({**doc, "means": [0.0, 0.0], "sds": [1.0, 1.0]}, "deepsurv.json")
    np.testing.assert_array_equal(predict_log_risk(old, d),
                                  predict_log_risk(model, d))


# --- pinned fits -----------------------------------------------------------


def fit_digest(model):
    h = hashlib.sha256()
    for a in (*model.weights, *model.biases, np.array(model.training_log)):
        h.update(a.tobytes())
    return h.hexdigest()


def generated_train_design():
    cohort, _ = generate(GeneratorConfig(n=300, seed=0))
    train, _ = split(cohort, 0.3, 0)
    return encode(train, standardize=True)


def test_default_fit_is_pinned():
    # the bench registry's default network and optimizer, fewer epochs
    d = generated_train_design()
    model = MODELS["deepsurv"].fit(d, model_options("deepsurv", {"epochs": 20}), 0)
    assert fit_digest(model) == "606446d644264c685e92c3436977f94e006f89333ec2371ab033b53c14f04eb2"


def test_dropout_tanh_odd_batches_fit_is_pinned():
    d = generated_train_design()
    spec = MlpSpec((d.p, 16, 1), activation="tanh", dropout_rate=0.3, weight_init_seed=1)
    model = fit_deepsurv(d, spec, epochs=10, batch_size=37, seed=2)
    assert fit_digest(model) == "3158d7aff2f6ccd84bd832c4ece7b77fc6d96ff54b9330925a78420c285a5c2a"


def test_two_hidden_layer_full_batch_fit_is_pinned():
    d = generated_train_design()
    spec = MlpSpec((d.p, 8, 4, 1), weight_init_seed=3)
    model = fit_deepsurv(d, spec, epochs=30, batch_size=None, learning_rate=0.05, seed=4)
    assert fit_digest(model) == "fa86c68c5ee88647b2f7b0e7b0cb9c57e5c113159f8c079c914d7fc4714a3cc8"


def test_tiny_batch_fit_and_its_skipped_batches_are_pinned():
    # 4 events in 40 rows cut into 8 batches of 5: most batches are
    # event-free, and each skip warns once with its epoch
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    t = np.round(rng.exponential(1.0, 40), 1) + 0.1
    e = (rng.uniform(size=40) < 0.15).astype(int)
    e[0] = 1
    d = numeric_design(X, t, e, standardize=True)
    spec = MlpSpec((3, 4, 1), dropout_rate=0.2, weight_init_seed=6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit_deepsurv(d, spec, epochs=6, batch_size=5, learning_rate=0.01, seed=7)
    skipped = [int(str(w.message).rsplit(" ", 1)[1]) for w in caught]
    assert all(str(w.message).startswith("skipping event-free batch") for w in caught)
    assert skipped == [0] * 5 + [1] * 5 + [2] * 4 + [3] * 4 + [4] * 5 + [5] * 5
    assert fit_digest(model) == "bb844a420acdb7ed4ef5cb88b3747824ad77186693a5cd9b7cb7c45a25aa0454"

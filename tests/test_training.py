"""Local SGD: closed-form steps, proximal behavior, a full loop oracle, and
cohort invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.data import ClientSplit, Dataset, generate_synthetic
from fedsim.model import (
    Batch,
    ParamVector,
    cross_entropy_loss,
    grad_cross_entropy,
    params_equal,
)
from fedsim.seeds import derive, key_rng
from fedsim.training import (
    DivergenceError,
    HyperParams,
    LocalUpdate,
    local_objective,
    proximal_penalty,
    train_cohort,
)


def small_problem(seed=0, n=40, n_classes=3, dim=5):
    d = generate_synthetic(n, n_classes, dim, 3.0, seed)
    return d, ClientSplit(0, np.arange(n)), ParamVector.zeros(n_classes, dim)


def local_train(w_g, data, split, h, seed):
    """One client trained alone: a cohort of one."""
    (update,) = train_cohort(w_g, data, [split], h, [seed])
    return update


def test_hyperparams_defaults():
    h = HyperParams()
    assert h.learning_rate == 0.01
    assert h.batch_size == 64
    assert h.local_epochs == 2
    assert h.mu == 0.2
    assert h.objective == "fedavg"


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="learning_rate"):
        HyperParams(learning_rate=-0.1)
    with pytest.raises(ValueError, match="learning_rate"):
        HyperParams(learning_rate=float("nan"))
    with pytest.raises(ValueError, match="batch_size"):
        HyperParams(batch_size=0)
    with pytest.raises(ValueError, match="local_epochs"):
        HyperParams(local_epochs=0)
    with pytest.raises(ValueError, match="mu"):
        HyperParams(mu=-1.0)
    with pytest.raises(ValueError, match="objective"):
        HyperParams(objective="sgd")
    HyperParams(learning_rate=0.0)  # accepted for no-op limit checks


def test_local_update_requires_positive_samples():
    p = ParamVector.zeros(2, 3)
    with pytest.raises(ValueError, match="n_samples"):
        LocalUpdate(p, 0, 0.5)


def test_proximal_penalty_closed_form():
    w = ParamVector(np.ones((2, 3)), np.ones(2))
    anchor = ParamVector.zeros(2, 3)
    # 8 unit-distance coordinates: (mu / 2) * 8 = 0.8 at mu = 0.2.
    assert proximal_penalty(w, anchor, 0.2) == pytest.approx(0.8, abs=1e-15)
    assert proximal_penalty(w, w, 0.2) == 0.0
    assert proximal_penalty(anchor, w, 0.2) == pytest.approx(0.8, abs=1e-15)


def test_proximal_penalty_scales_quadratically():
    rng = np.random.default_rng(1)
    anchor = ParamVector(rng.normal(size=(2, 4)), rng.normal(size=2))
    step = ParamVector(rng.normal(size=(2, 4)), rng.normal(size=2))
    one = ParamVector(anchor.weights + step.weights, anchor.bias + step.bias)
    two = ParamVector(anchor.weights + 2 * step.weights, anchor.bias + 2 * step.bias)
    assert proximal_penalty(two, anchor, 0.5) == pytest.approx(
        4 * proximal_penalty(one, anchor, 0.5), rel=1e-12
    )


def test_proximal_penalty_validation():
    p = ParamVector.zeros(2, 3)
    with pytest.raises(ValueError, match="mu"):
        proximal_penalty(p, p, -0.5)
    with pytest.raises(ValueError, match="shapes differ"):
        proximal_penalty(p, ParamVector.zeros(2, 4), 0.5)


def test_local_objective_adds_penalty_only_for_fedprox():
    rng = np.random.default_rng(2)
    w = ParamVector(rng.normal(size=(3, 4)), rng.normal(size=3))
    anchor = ParamVector.zeros(3, 4)
    batch = Batch(rng.normal(size=(6, 4)), rng.integers(0, 3, size=6))
    ce = cross_entropy_loss(w, batch)
    avg = local_objective(w, anchor, batch, HyperParams(objective="fedavg", mu=5.0))
    prox = local_objective(w, anchor, batch, HyperParams(objective="fedprox", mu=5.0))
    zero = local_objective(w, anchor, batch, HyperParams(objective="fedprox", mu=0.0))
    assert avg == ce
    assert prox == ce + proximal_penalty(w, anchor, 5.0)
    assert zero == ce


def test_local_train_zero_learning_rate_is_identity():
    d, split, w0 = small_problem()
    h = HyperParams(learning_rate=0.0, batch_size=8, local_epochs=3)
    upd = local_train(w0, d, split, h, 4)
    assert params_equal(upd.params, w0)
    assert upd.n_samples == 40


def test_local_train_single_batch_step_is_gradient_descent():
    # One epoch, one full batch: the update must be exactly w - lr * grad.
    d, split, w0 = small_problem(seed=3, n=24)
    h = HyperParams(learning_rate=0.05, batch_size=24, local_epochs=1)
    upd = local_train(w0, d, split, h, 11)
    order = key_rng(derive(11, 0)).permutation(split.indices)
    batch = Batch(d.features[order], d.labels[order])
    g = grad_cross_entropy(w0, batch)
    assert np.array_equal(upd.params.weights, w0.weights - 0.05 * g.weights)
    assert np.array_equal(upd.params.bias, w0.bias - 0.05 * g.bias)
    assert upd.mean_final_epoch_loss == cross_entropy_loss(w0, batch)


def sgd_reference(w_g, data, split, h, seed):
    """Reimplementation of the local loop through public ops only."""
    w = w_g.weights.copy()
    b = w_g.bias.copy()
    last = []
    for epoch in range(h.local_epochs):
        order = key_rng(derive(seed, epoch)).permutation(split.indices)
        for start in range(0, order.size, h.batch_size):
            sel = order[start : start + h.batch_size]
            batch = Batch(data.features[sel], data.labels[sel])
            cur = ParamVector(w, b)
            g = grad_cross_entropy(cur, batch)
            gw, gb = g.weights.copy(), g.bias.copy()
            loss = cross_entropy_loss(cur, batch)
            if h.objective == "fedprox" and h.mu != 0.0:
                gw += h.mu * (w - w_g.weights)
                gb += h.mu * (b - w_g.bias)
                if epoch == h.local_epochs - 1:
                    loss += proximal_penalty(cur, w_g, h.mu)
            if epoch == h.local_epochs - 1:
                last.append(loss)
            w -= h.learning_rate * gw
            b -= h.learning_rate * gb
    return ParamVector(w, b), float(np.mean(last))


@pytest.mark.parametrize("objective,mu", [("fedavg", 0.0), ("fedprox", 0.7)])
def test_local_train_matches_reference_loop(objective, mu):
    d, split, _ = small_problem(seed=5, n=50, n_classes=4, dim=6)
    rng = np.random.default_rng(9)
    w0 = ParamVector(rng.normal(size=(4, 6)) * 0.1, rng.normal(size=4) * 0.1)
    h = HyperParams(
        learning_rate=0.02, batch_size=16, local_epochs=3, mu=mu, objective=objective
    )
    upd = local_train(w0, d, split, h, 21)
    want_params, want_loss = sgd_reference(w0, d, split, h, 21)
    assert params_equal(upd.params, want_params)
    assert upd.mean_final_epoch_loss == want_loss


def test_fedprox_mu_zero_matches_fedavg_exactly():
    d, split, w0 = small_problem(seed=6, n=64)
    for seed in [0, 1, 2]:
        avg = local_train(
            w0, d, split, HyperParams(batch_size=16, objective="fedavg"), seed
        )
        prox = local_train(
            w0, d, split, HyperParams(batch_size=16, objective="fedprox", mu=0.0), seed
        )
        assert params_equal(avg.params, prox.params)
        assert avg.mean_final_epoch_loss == prox.mean_final_epoch_loss


def test_fedprox_nonzero_mu_changes_the_update():
    d, split, w0 = small_problem(seed=7)
    avg = local_train(w0, d, split, HyperParams(batch_size=8, objective="fedavg"), 0)
    prox = local_train(
        w0, d, split, HyperParams(batch_size=8, objective="fedprox", mu=1.0), 0
    )
    assert not params_equal(avg.params, prox.params)


def test_final_epoch_loss_nonincreasing_with_more_epochs():
    # On well-separated two-class data, more local passes keep reducing the
    # final-epoch objective.
    for seed in range(5):
        d = generate_synthetic(120, 2, 4, 6.0, 100 + seed)
        split = ClientSplit(0, np.arange(120))
        w0 = ParamVector.zeros(2, 4)
        losses = [
            local_train(
                w0,
                d,
                split,
                HyperParams(batch_size=32, local_epochs=e),
                seed,
            ).mean_final_epoch_loss
            for e in range(1, 11)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_proximal_term_shrinks_drift():
    # Larger mu pulls the local parameters harder toward the anchor.
    d = generate_synthetic(200, 2, 4, 6.0, 42)
    split = ClientSplit(0, np.arange(200))
    w0 = ParamVector.zeros(2, 4)

    def drift(mu):
        h = HyperParams(batch_size=32, local_epochs=3, mu=mu, objective="fedprox")
        upd = local_train(w0, d, split, h, 0)
        dw = upd.params.weights - w0.weights
        db = upd.params.bias - w0.bias
        return float(np.sqrt((dw * dw).sum() + (db * db).sum()))

    assert drift(100.0) < drift(10.0) < drift(0.0)


def test_local_train_validation():
    d, split, w0 = small_problem()
    with pytest.raises(ValueError, match="out of range"):
        local_train(w0, d, ClientSplit(0, np.array([0, 40])), HyperParams(), 0)
    with pytest.raises(ValueError, match="feature_dim"):
        local_train(ParamVector.zeros(3, 6), d, split, HyperParams(), 0)
    with pytest.raises(ValueError, match="classes"):
        local_train(ParamVector.zeros(2, 5), d, split, HyperParams(), 0)
    with pytest.raises(ValueError, match="non-empty"):
        train_cohort(w0, d, [], HyperParams(), [])
    with pytest.raises(ValueError, match="seeds"):
        train_cohort(w0, d, [split, split], HyperParams(), [0])


OBJECTIVE_CASES = [("fedavg", 0.4), ("fedprox", 0.4), ("fedprox", 0.0)]


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=6),
    batch_size=st.integers(1, 12),
    local_epochs=st.integers(1, 3),
    objective=st.sampled_from(OBJECTIVE_CASES),
    draw=st.data(),
)
def test_cohort_update_is_bit_identical_to_training_alone(
    sizes, batch_size, local_epochs, objective, draw
):
    # Clients of random sizes (most leave a ragged final batch) train as a
    # random subset in a random order; each must match its solo run exactly.
    d = generate_synthetic(200, 3, 5, 3.0, 0)
    bounds = np.cumsum([0, *sizes])
    splits = [ClientSplit(c, np.arange(bounds[c], bounds[c + 1])) for c in range(len(sizes))]
    order = draw.draw(st.permutations(range(len(sizes))))
    cohort = order[: draw.draw(st.integers(1, len(sizes)))]
    rng = np.random.default_rng(len(sizes))
    w0 = ParamVector(rng.normal(size=(3, 5)) * 0.1, rng.normal(size=3) * 0.1)
    h = HyperParams(
        learning_rate=0.05,
        batch_size=batch_size,
        local_epochs=local_epochs,
        mu=objective[1],
        objective=objective[0],
    )
    together = train_cohort(w0, d, [splits[c] for c in cohort], h, [(7, c) for c in cohort])
    for c, got in zip(cohort, together):
        alone = local_train(w0, d, splits[c], h, (7, c))
        assert params_equal(got.params, alone.params)
        assert got.mean_final_epoch_loss == alone.mean_final_epoch_loss
        assert got.n_samples == alone.n_samples == sizes[c]


def test_divergence_names_the_first_diverging_client_and_epoch():
    # Client 0 sits on well-scaled rows; clients 1-3 on rows scaled by 1e300,
    # whose first step leaves weights that overflow the next logits.
    base = generate_synthetic(30, 2, 3, 3.0, 0)
    features = base.features.copy()
    features[10:] *= 1e300
    d = Dataset(features, base.labels, 2)
    w0 = ParamVector.zeros(2, 3)
    calm, wild, wilder = (ClientSplit(c, np.arange(10 * c, 10 * c + 10)) for c in range(3))
    short = ClientSplit(3, np.arange(20, 25))  # one step per epoch
    h = HyperParams(learning_rate=0.1, batch_size=5, local_epochs=2)
    local_train(w0, d, calm, h, 0)
    cases = [
        ([calm, wild], "client 1, epoch 0"),
        ([wilder, calm, wild], "client 2, epoch 0"),
        ([calm, short], "client 3, epoch 1"),
    ]
    for splits, where in cases:
        with pytest.raises(DivergenceError) as info:
            train_cohort(w0, d, splits, h, list(range(len(splits))))
        assert str(info.value) == f"{where}: local training diverged"

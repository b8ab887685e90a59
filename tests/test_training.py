"""Local SGD: closed-form steps, proximal behavior, a full loop oracle, and
cohort invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.data import ClientSplit, Dataset, generate_synthetic
from fedsim.model import ParamVector, loss_grad
from fedsim.seeds import derive, key_rng
from fedsim.training import DivergenceError, HyperParams, LocalUpdate, train_cohort
from oracles import same_params


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
    # Two full-batch epochs.  The proximal gradient vanishes at the anchor, so
    # the first step is w1 = w_g - lr * g with g the cross-entropy gradient at
    # w_g, and the last epoch reports CE(w1) + (mu/2) * lr^2 * ||g||^2.
    d, split, w0 = small_problem(seed=3, n=24)
    h = HyperParams(
        learning_rate=0.05, batch_size=24, local_epochs=2, mu=5.0, objective="fedprox"
    )
    upd = local_train(w0, d, split, h, 11)
    _, gw, gb = loss_grad(w0.weights, w0.bias, d.features, d.labels)
    w1, b1 = w0.weights - 0.05 * gw, w0.bias - 0.05 * gb
    ce1 = float(loss_grad(w1, b1, d.features, d.labels)[0])
    penalty = 0.5 * 5.0 * 0.05**2 * float((gw * gw).sum() + (gb * gb).sum())
    assert penalty > 1e-3
    assert upd.mean_final_epoch_loss == pytest.approx(ce1 + penalty, rel=1e-12)


def test_local_objective_adds_penalty_only_for_fedprox():
    # mu acts only under fedprox: fedavg at mu = 5 is bit-identical to mu = 0.
    d, split, w0 = small_problem(seed=2)

    def run(objective, mu):
        h = HyperParams(batch_size=8, mu=mu, objective=objective)
        return local_train(w0, d, split, h, 0)

    plain, ignored = run("fedavg", 0.0), run("fedavg", 5.0)
    assert same_params(plain.params, ignored.params)
    assert plain.mean_final_epoch_loss == ignored.mean_final_epoch_loss
    assert run("fedprox", 5.0).mean_final_epoch_loss != plain.mean_final_epoch_loss


def test_local_train_zero_learning_rate_is_identity():
    d, split, w0 = small_problem()
    h = HyperParams(learning_rate=0.0, batch_size=8, local_epochs=3)
    upd = local_train(w0, d, split, h, 4)
    assert same_params(upd.params, w0)
    assert upd.n_samples == 40


def test_local_train_single_batch_step_is_gradient_descent():
    # One epoch, one full batch: the update must be exactly w - lr * grad.
    d, split, w0 = small_problem(seed=3, n=24)
    h = HyperParams(learning_rate=0.05, batch_size=24, local_epochs=1)
    upd = local_train(w0, d, split, h, 11)
    order = key_rng(derive(11, 0)).permutation(split.indices)
    loss, gw, gb = loss_grad(w0.weights, w0.bias, d.features[order], d.labels[order])
    assert np.array_equal(upd.params.weights, w0.weights - 0.05 * gw)
    assert np.array_equal(upd.params.bias, w0.bias - 0.05 * gb)
    assert upd.mean_final_epoch_loss == float(loss)


def sgd_reference(w_g, data, split, h, seed):
    """Reimplementation of the local loop, one client and one batch at a time."""
    w = w_g.weights.copy()
    b = w_g.bias.copy()
    last = []
    for epoch in range(h.local_epochs):
        order = key_rng(derive(seed, epoch)).permutation(split.indices)
        for start in range(0, order.size, h.batch_size):
            sel = order[start : start + h.batch_size]
            loss, gw, gb = loss_grad(w, b, data.features[sel], data.labels[sel])
            loss = float(loss)
            if h.objective == "fedprox" and h.mu != 0.0:
                dw, db = w - w_g.weights, b - w_g.bias
                gw += h.mu * dw
                gb += h.mu * db
                if epoch == h.local_epochs - 1:
                    loss += 0.5 * h.mu * float((dw * dw).sum() + (db * db).sum())
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
    assert same_params(upd.params, want_params)
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
        assert same_params(avg.params, prox.params)
        assert avg.mean_final_epoch_loss == prox.mean_final_epoch_loss


def test_fedprox_nonzero_mu_changes_the_update():
    d, split, w0 = small_problem(seed=7)
    avg = local_train(w0, d, split, HyperParams(batch_size=8, objective="fedavg"), 0)
    prox = local_train(
        w0, d, split, HyperParams(batch_size=8, objective="fedprox", mu=1.0), 0
    )
    assert not same_params(avg.params, prox.params)


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
        assert same_params(got.params, alone.params)
        assert got.mean_final_epoch_loss == alone.mean_final_epoch_loss
        assert got.n_samples == alone.n_samples == sizes[c]


def test_divergence_names_the_first_diverging_client_and_epoch():
    # Client 0 sits on well-scaled rows; clients 1-3 on rows scaled by 1e300.
    # A first step at learning rate 1e-290 leaves weights near 1e10, whose
    # squared norm is far from overflow but whose next logits overflow.
    base = generate_synthetic(30, 2, 3, 3.0, 0)
    features = base.features.copy()
    features[10:] *= 1e300
    d = Dataset(features, base.labels, 2)
    w0 = ParamVector.zeros(2, 3)
    calm, wild, wilder = (ClientSplit(c, np.arange(10 * c, 10 * c + 10)) for c in range(3))
    short = ClientSplit(3, np.arange(20, 25))  # one step per epoch
    h = HyperParams(learning_rate=1e-290, batch_size=5, local_epochs=2)
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
    # A huge step on the well-scaled rows saturates the softmax: zero loss and
    # no overflow, but weights near 1e307 whose squared norm overflows.
    saturating = HyperParams(learning_rate=1e307, batch_size=5, local_epochs=2)
    with pytest.raises(DivergenceError, match="^client 0, epoch 0: "):
        train_cohort(w0, d, [calm], saturating, [0])

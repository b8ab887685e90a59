"""Local SGD: closed-form steps, proximal behavior, a full loop oracle, and
cohort invariance."""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.config import ConfigError, ExperimentConfig
from fedsim.data import ClientSplit, Dataset, generate_synthetic
from fedsim.federation import aggregate
from fedsim.model import ParamVector, loss_grad
from fedsim.seeds import LOCAL_STREAM, derive, key_rng
from fedsim.training import DivergenceError, train_cohort
from oracles import reference_loss_grad, same_params


def small_problem(seed=0, n=40, n_classes=3, dim=5):
    d = generate_synthetic(n, n_classes, dim, 3.0, seed)
    return d, ClientSplit(0, np.arange(n)), ParamVector.zeros(n_classes, dim)


def local_train(w_g, data, split, cfg):
    """One client trained alone, a cohort of one: its parameters and loss."""
    weights, bias, losses = train_cohort(w_g, data, [split], cfg)
    return ParamVector(weights[0], bias[0]), float(losses[0])


BAD_TRAINING_FIELDS = [
    ("learning_rate", -0.1, "learning_rate: must be > 0, got -0.1"),
    ("learning_rate", math.nan, "learning_rate: must be > 0, got nan"),
    ("learning_rate", 0.0, "learning_rate: must be > 0, got 0.0"),
    ("batch_size", 0, "batch_size: must be >= 1, got 0"),
    ("local_epochs", 0, "local_epochs: must be >= 1, got 0"),
    ("mu", -1.0, "mu: must be >= 0 and finite, got -1.0"),
    ("method", "sgd", "method: must be one of ('fedavg', 'fedprox'), got 'sgd'"),
]


def test_a_bad_training_field_never_becomes_a_config():
    # train_cohort reads its training fields from a config, so a bad one is
    # stopped where the config is built, before any training.
    for name, value, message in BAD_TRAINING_FIELDS:
        with pytest.raises(ConfigError) as info:
            replace(ExperimentConfig(), **{name: value})
        assert str(info.value) == message


# One out-of-range value for each training field; the config's rule table,
# which every ExperimentConfig runs when it is built, is the only place that
# decides what is out of range.
OUT_OF_RANGE = {
    "learning_rate": st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf]),
    "batch_size": st.integers(max_value=0),
    "local_epochs": st.integers(max_value=0),
    "mu": st.floats(max_value=0.0, exclude_max=True) | st.sampled_from([math.nan, math.inf]),
    "method": st.text(max_size=8).filter(lambda m: m not in ("fedavg", "fedprox")),
}


@settings(max_examples=60, deadline=None)
@given(bad=st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(
    lambda name: st.tuples(st.just(name), OUT_OF_RANGE[name])
))
def test_construction_and_replace_reject_a_bad_training_field_alike(bad):
    name, value = bad
    with pytest.raises(ConfigError) as want:
        ExperimentConfig(**{name: value})
    assert str(want.value).startswith(f"{name}: ")
    with pytest.raises(ConfigError) as got:
        replace(ExperimentConfig(), **{name: value})
    assert str(got.value) == str(want.value)


def test_local_update_requires_positive_samples():
    # A trained client row is only averaged with a sample count of at least one.
    d, split, w0 = small_problem(seed=2, n=8)
    weights, bias, _ = train_cohort(w0, d, [split], ExperimentConfig(batch_size=8, seed=5))
    with pytest.raises(ValueError, match="n_samples"):
        aggregate(weights, bias, [0], "datasize")


def test_proximal_penalty_closed_form():
    # Two full-batch epochs.  The proximal gradient vanishes at the anchor, so
    # the first step is w1 = w_g - lr * g with g the cross-entropy gradient at
    # w_g, and the last epoch reports CE(w1) + (mu/2) * lr^2 * ||g||^2.
    d, split, w0 = small_problem(seed=3, n=24)
    cfg = ExperimentConfig(
        learning_rate=0.05, batch_size=24, local_epochs=2, mu=5.0, method="fedprox", seed=11
    )
    _, loss = local_train(w0, d, split, cfg)
    _, gw, gb = loss_grad(w0.weights, w0.bias, d.features, d.labels)
    w1, b1 = w0.weights - 0.05 * gw, w0.bias - 0.05 * gb
    ce1 = float(loss_grad(w1, b1, d.features, d.labels)[0])
    penalty = 0.5 * 5.0 * 0.05**2 * float((gw * gw).sum() + (gb * gb).sum())
    assert penalty > 1e-3
    assert loss == pytest.approx(ce1 + penalty, rel=1e-12)


def test_local_objective_adds_penalty_only_for_fedprox():
    # mu acts only under fedprox: fedavg at mu = 5 is bit-identical to mu = 0.
    d, split, w0 = small_problem(seed=2)

    def run(method, mu):
        cfg = ExperimentConfig(batch_size=8, mu=mu, method=method)
        return local_train(w0, d, split, cfg)

    plain, plain_loss = run("fedavg", 0.0)
    ignored, ignored_loss = run("fedavg", 5.0)
    assert same_params(plain, ignored)
    assert plain_loss == ignored_loss
    assert run("fedprox", 5.0)[1] != plain_loss


def test_local_train_at_tiny_learning_rate_stays_at_global_params():
    # learning_rate must be > 0.  At 1e-300, three epochs of steps on features
    # below 15 in size move no coordinate further than 1e-296 from w_g.
    d, split, w0 = small_problem()
    with pytest.raises(ConfigError, match="^learning_rate: must be > 0, got 0.0$"):
        ExperimentConfig(learning_rate=0.0, batch_size=8, local_epochs=3)
    assert np.abs(d.features).max() < 15
    cfg = ExperimentConfig(learning_rate=1e-300, batch_size=8, local_epochs=3, seed=4)
    weights, bias, losses = train_cohort(w0, d, [split], cfg)
    assert (weights.shape, bias.shape, losses.shape) == ((1, 3, 5), (1, 3), (1,))
    assert np.abs(weights[0] - w0.weights).max() <= 1e-296
    assert np.abs(bias[0] - w0.bias).max() <= 1e-296


def test_local_train_single_batch_step_is_gradient_descent():
    # One epoch, one full batch: the update must be exactly w - lr * grad.
    d, split, w0 = small_problem(seed=3, n=24)
    cfg = ExperimentConfig(learning_rate=0.05, batch_size=24, local_epochs=1, seed=11)
    params, got_loss = local_train(w0, d, split, cfg)
    order = key_rng(derive(11, LOCAL_STREAM, 0, 0, 0)).permutation(split.indices)
    loss, gw, gb = loss_grad(w0.weights, w0.bias, d.features[order], d.labels[order])
    assert np.array_equal(params.weights, w0.weights - 0.05 * gw)
    assert np.array_equal(params.bias, w0.bias - 0.05 * gb)
    assert got_loss == float(loss)


def sgd_reference(w_g, data, split, cfg):
    """Reimplementation of the local loop, one client and one batch at a time,
    on the frozen reference kernel rather than the package's, shuffled by the
    streams a run gives the client in round 0."""
    w = w_g.weights.copy()
    b = w_g.bias.copy()
    last = []
    for epoch in range(cfg.local_epochs):
        key = derive(cfg.seed, LOCAL_STREAM, 0, split.client_id, epoch)
        order = key_rng(key).permutation(split.indices)
        for start in range(0, order.size, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            loss, gw, gb = reference_loss_grad(w, b, data.features[sel], data.labels[sel])
            loss = float(loss)
            if cfg.method == "fedprox" and cfg.mu != 0.0:
                dw, db = w - w_g.weights, b - w_g.bias
                gw += cfg.mu * dw
                gb += cfg.mu * db
                if epoch == cfg.local_epochs - 1:
                    loss += 0.5 * cfg.mu * float((dw * dw).sum() + (db * db).sum())
            if epoch == cfg.local_epochs - 1:
                last.append(loss)
            w -= cfg.learning_rate * gw
            b -= cfg.learning_rate * gb
    return ParamVector(w, b), float(np.mean(last))


@pytest.mark.parametrize("method,mu", [("fedavg", 0.0), ("fedprox", 0.7)])
def test_local_train_matches_reference_loop(method, mu):
    d, _, _ = small_problem(seed=5, n=50, n_classes=4, dim=6)
    split = ClientSplit(3, np.arange(50))
    rng = np.random.default_rng(9)
    w0 = ParamVector(rng.normal(size=(4, 6)) * 0.1, rng.normal(size=4) * 0.1)
    cfg = ExperimentConfig(
        learning_rate=0.02, batch_size=16, local_epochs=3, mu=mu, method=method, seed=21
    )
    params, loss = local_train(w0, d, split, cfg)
    want_params, want_loss = sgd_reference(w0, d, split, cfg)
    assert same_params(params, want_params)
    assert loss == want_loss


def test_fedprox_mu_zero_matches_fedavg_exactly():
    d, split, w0 = small_problem(seed=6, n=64)
    for seed in [0, 1, 2]:
        avg = local_train(
            w0, d, split, ExperimentConfig(batch_size=16, method="fedavg", seed=seed)
        )
        prox = local_train(
            w0, d, split, ExperimentConfig(batch_size=16, method="fedprox", mu=0.0, seed=seed)
        )
        assert same_params(avg[0], prox[0])
        assert avg[1] == prox[1]


def test_fedprox_nonzero_mu_changes_the_update():
    d, split, w0 = small_problem(seed=7)
    avg = local_train(w0, d, split, ExperimentConfig(batch_size=8, method="fedavg"))
    prox = local_train(
        w0, d, split, ExperimentConfig(batch_size=8, method="fedprox", mu=1.0)
    )
    assert not same_params(avg[0], prox[0])


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
                ExperimentConfig(batch_size=32, local_epochs=e, seed=seed),
            )[1]
            for e in range(1, 11)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_proximal_term_shrinks_drift():
    # Larger mu pulls the local parameters harder toward the anchor.
    d = generate_synthetic(200, 2, 4, 6.0, 42)
    split = ClientSplit(0, np.arange(200))
    w0 = ParamVector.zeros(2, 4)

    def drift(mu):
        cfg = ExperimentConfig(batch_size=32, local_epochs=3, mu=mu, method="fedprox")
        params, _ = local_train(w0, d, split, cfg)
        dw = params.weights - w0.weights
        db = params.bias - w0.bias
        return float(np.sqrt((dw * dw).sum() + (db * db).sum()))

    assert drift(100.0) < drift(10.0) < drift(0.0)


def test_local_train_validation():
    d, split, w0 = small_problem()
    with pytest.raises(ValueError, match="out of range"):
        local_train(w0, d, ClientSplit(0, np.array([0, 40])), ExperimentConfig())
    with pytest.raises(ValueError, match="feature_dim"):
        local_train(ParamVector.zeros(3, 6), d, split, ExperimentConfig())
    with pytest.raises(ValueError, match="classes"):
        local_train(ParamVector.zeros(2, 5), d, split, ExperimentConfig())
    with pytest.raises(ValueError, match="non-empty"):
        train_cohort(w0, d, [], ExperimentConfig())
    # A client id past 32 bits would otherwise share a shorter id's streams.
    with pytest.raises(OverflowError):
        local_train(w0, d, ClientSplit(2**32, split.indices), ExperimentConfig())


METHOD_CASES = [("fedavg", 0.4), ("fedprox", 0.4), ("fedprox", 0.0)]


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=6),
    batch_size=st.integers(1, 12),
    local_epochs=st.integers(1, 3),
    method=st.sampled_from(METHOD_CASES),
    draw=st.data(),
)
def test_cohort_update_is_bit_identical_to_training_alone(
    sizes, batch_size, local_epochs, method, draw
):
    # Clients of random sizes (most leave a ragged final batch) train as a
    # random subset in a random order; each row must match its solo run exactly.
    d = generate_synthetic(200, 3, 5, 3.0, 0)
    bounds = np.cumsum([0, *sizes])
    splits = [ClientSplit(c, np.arange(bounds[c], bounds[c + 1])) for c in range(len(sizes))]
    order = draw.draw(st.permutations(range(len(sizes))))
    cohort = order[: draw.draw(st.integers(1, len(sizes)))]
    rng = np.random.default_rng(len(sizes))
    w0 = ParamVector(rng.normal(size=(3, 5)) * 0.1, rng.normal(size=3) * 0.1)
    cfg = ExperimentConfig(
        learning_rate=0.05,
        batch_size=batch_size,
        local_epochs=local_epochs,
        mu=method[1],
        method=method[0],
        seed=7,
    )
    weights, bias, losses = train_cohort(w0, d, [splits[c] for c in cohort], cfg)
    m = len(cohort)
    assert (weights.shape, bias.shape, losses.shape) == ((m, 3, 5), (m, 3), (m,))
    for i, c in enumerate(cohort):
        alone, loss = local_train(w0, d, splits[c], cfg)
        assert same_params(ParamVector(weights[i], bias[i]), alone)
        assert losses[i] == loss


def test_cohorts_trained_in_threads_at_once_match_those_trained_in_turn():
    # Each thread reuses its own shuffling generator; one shared by the threads
    # could take another cohort's stream between its seeding and its shuffle.
    d = generate_synthetic(200, 3, 5, 3.0, 0)
    splits = [ClientSplit(c, np.arange(40 * c, 40 * c + 40)) for c in range(5)]
    w0 = ParamVector.zeros(3, 5)
    cfgs = [ExperimentConfig(batch_size=4, local_epochs=3, seed=s) for s in range(8)]
    in_turn = [train_cohort(w0, d, splits, cfg)[0] for cfg in cfgs]
    at_once = [[] for _ in cfgs]
    barrier = threading.Barrier(len(cfgs))

    def train(i):
        barrier.wait()
        for _ in range(20):
            at_once[i].append(train_cohort(w0, d, splits, cfgs[i])[0])

    threads = [threading.Thread(target=train, args=(i,)) for i in range(len(cfgs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(at_once, in_turn):
        assert len(got) == 20 and all(np.array_equal(w, want) for w in got)


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
    cfg = ExperimentConfig(learning_rate=1e-290, batch_size=5, local_epochs=2)
    local_train(w0, d, calm, cfg)
    cases = [
        ([calm, wild], "client 1, epoch 0"),
        ([wilder, calm, wild], "client 2, epoch 0"),
        ([calm, short], "client 3, epoch 1"),
    ]
    for splits, where in cases:
        with pytest.raises(DivergenceError) as info:
            train_cohort(w0, d, splits, cfg)
        assert str(info.value) == f"{where}: local training diverged"
    # A huge step on the well-scaled rows saturates the softmax: zero loss and
    # no overflow, but weights near 1e307 whose squared norm overflows.
    saturating = replace(cfg, learning_rate=1e307)
    with pytest.raises(DivergenceError, match="^client 0, epoch 0: "):
        train_cohort(w0, d, [calm], saturating)

"""Seed-key normalization, stream derivation, and the batched PCG64 seeding."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.federation
from fedsim.config import ExperimentConfig, SyntheticData
from fedsim.federation import aggregate, prepare_experiment, run_federation, select_clients
from fedsim.model import ParamVector
from fedsim.seeds import LOCAL_STREAM, as_key, derive, finish_states, key_rng, local_words
from fedsim.training import _train_cohort
from oracles import same_params


def test_as_key_normalizes_ints_and_tuples():
    assert as_key(7) == (7,)
    assert as_key((1, 2)) == (1, 2)
    out = as_key((np.int64(3), 4))
    assert out == (3, 4)
    assert all(type(v) is int for v in out)


def test_derive_appends_counters():
    assert derive(5, 1, 2) == (5, 1, 2)
    assert derive((5, 1), 2) == (5, 1, 2)
    assert derive((5,)) == (5,)


def test_equal_keys_give_identical_streams():
    a = key_rng((3, 1, 4)).standard_normal(16)
    b = key_rng((3, 1, 4)).standard_normal(16)
    assert np.array_equal(a, b)


def test_int_and_singleton_tuple_agree():
    a = key_rng(9).standard_normal(8)
    b = key_rng((9,)).standard_normal(8)
    assert np.array_equal(a, b)


def test_distinct_keys_give_distinct_streams():
    base = key_rng((3, 1, 4)).standard_normal(8)
    sibling = key_rng((3, 1, 5)).standard_normal(8)
    parent = key_rng((3, 1)).standard_normal(8)
    assert not np.array_equal(base, sibling)
    assert not np.array_equal(base, parent)


def test_stream_output_independent_of_consumption_order():
    # Drawing from one stream must not shift what another stream yields.
    first = key_rng((0, 3, 7)).standard_normal(4)
    key_rng((0, 3, 8)).standard_normal(1000)
    again = key_rng((0, 3, 7)).standard_normal(4)
    assert np.array_equal(first, again)


def key_rng_states(keys):
    """The reference: (state, inc) read off each key's own key_rng generator."""
    states = [key_rng(key).bit_generator.state["state"] for key in keys]
    return [(s["state"], s["inc"]) for s in states]


# Seeds of one to three words: 0, values about the 2**32 and 2**64 boundaries,
# and up to 2**96 - 1.  Rounds and client ids are one word each.
SEEDS = st.one_of(
    st.just(0),
    st.integers(0, 2**32 - 1),
    st.integers(2**32 - 2, 2**32 + 2),
    st.integers(2**64 - 2, 2**64 + 2),
    st.integers(0, 2**96 - 1),
)
WORDS = st.one_of(st.integers(0, 40), st.integers(2**32 - 3, 2**32 - 1), st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, epochs=st.integers(1, 3), m=st.integers(1, 5), draw=st.data())
def test_local_words_match_key_rng(seed, epochs, m, draw):
    # A block of rounds, each training m clients, against each key's key_rng.
    rounds = draw.draw(st.lists(WORDS, min_size=1, max_size=4))
    chosen = [draw.draw(st.lists(WORDS, min_size=m, max_size=m)) for _ in rounds]
    keys = [(seed, LOCAL_STREAM, r, c, e)
            for r, clients in zip(rounds, chosen) for e in range(epochs) for c in clients]
    assert finish_states(local_words(seed, rounds, chosen, epochs)) == key_rng_states(keys)


def reference_run(cfg, data):
    """run_federation's rounds as first written: each round selects its
    clients, then trains them on the streams key_rng gives the keys
    (seed, LOCAL_STREAM, r, c, e), epoch-major."""
    params = ParamVector.zeros(data.train.n_classes, data.train.feature_dim)
    losses = []
    for r in range(cfg.rounds):
        selected = select_clients(len(data.splits), cfg.fraction, cfg.seed, r)
        splits = [data.splits[c] for c in selected]
        states = key_rng_states([derive(cfg.seed, LOCAL_STREAM, r, c, e)
                                 for e in range(cfg.local_epochs) for c in selected])
        weights, bias, cohort = _train_cohort(params, data.train, splits, cfg, states)
        params = aggregate(weights, bias, [s.n_samples for s in splits], cfg.weighting)
        losses.append(tuple(cohort.tolist()))
    return params, losses


def test_a_run_past_32_bit_seeds_shuffles_as_key_rng_does(monkeypatch):
    # Every training key at this seed starts with a two-word value.  A run
    # seeds a block of rounds' streams at once; the reference seeds each
    # stream through key_rng.  The blocks hold every round, or 2 rounds (9
    # keys a round) of 5.
    cfg = ExperimentConfig(
        seed=2**40 + 5, rounds=5, n_clients=6, fraction=0.5, batch_size=7, local_epochs=3,
        partition_mode="shards", shards_per_client=2,
        dataset=SyntheticData(n_samples=240, n_classes=4, feature_dim=8),
    )
    data = prepare_experiment(cfg)
    runs = []
    for block_keys in (fedsim.federation._BLOCK_KEYS, 18):
        monkeypatch.setattr(fedsim.federation, "_BLOCK_KEYS", block_keys)
        result = run_federation(cfg, data)
        runs.append((result.final_state.global_params, [r.client_losses for r in result.history]))
    want_params, want_losses = reference_run(cfg, data)
    for params, losses in runs:
        assert losses == want_losses
        assert same_params(params, want_params)

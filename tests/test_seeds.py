"""Seed-key normalization, stream derivation, and the batched PCG64 seeding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.training
from fedsim.cli import main
from fedsim.seeds import as_key, derive, key_rng, pcg64_states


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


# 0, one-word values, values just past a word boundary, and up to two words.
VALUES = st.one_of(
    st.just(0),
    st.integers(0, 2**32 - 1),
    st.integers(2**32 - 2, 2**32 + 2),
    st.integers(0, 2**64 - 1),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(VALUES, min_size=1, max_size=8).map(tuple), min_size=1, max_size=12))
def test_pcg64_states_match_key_rng(keys):
    # A batch mixes key lengths and word counts, so several groups are mixed.
    assert pcg64_states(keys) == key_rng_states(keys)


def test_pcg64_states_of_an_empty_batch_and_a_negative_value():
    assert pcg64_states([]) == []
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        pcg64_states([(1, -1)])


def test_a_run_past_32_bit_seeds_shuffles_as_key_rng_does(tmp_path, monkeypatch):
    # Every training key at this seed starts with a two-word value.  The
    # reference run seeds each stream through key_rng instead.
    cfg_path = tmp_path / "big.cfg"
    cfg_path.write_text(
        f"seed = {2**40 + 5}\nrounds = 4\nn_clients = 6\nfraction = 0.5\n"
        "batch_size = 7\nlocal_epochs = 3\npartition = shards(2)\n"
        "dataset = synthetic(n_samples=240, n_classes=4, feature_dim=8)\n",
        encoding="utf-8",
    )
    argv = ["run", "--config", str(cfg_path), "--quiet", "--out"]
    assert main(argv + [str(tmp_path / "batched")]) == 0
    monkeypatch.setattr(fedsim.training, "pcg64_states", key_rng_states)
    assert main(argv + [str(tmp_path / "reference")]) == 0
    batched = (tmp_path / "batched" / "rounds.csv").read_bytes()
    assert batched == (tmp_path / "reference" / "rounds.csv").read_bytes()

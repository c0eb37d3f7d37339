"""Child streams hashed in blocks draw exactly as streams built one at a time."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hrlab as H
from hrlab.errors import DomainError
from hrlab.seeding import as_lineage

TOP = 2**32 - 1  # the largest key that is one uint32 word

entropies = st.integers(0, 2**128)
prefixes = st.lists(st.integers(0, 2**64), max_size=3).map(tuple)
one_word_keys = st.lists(st.integers(0, TOP), max_size=20)


def _same_streams(lineage, keys):
    batched = lineage.children(keys)
    assert len(batched) == len(keys)
    for got, key in zip(batched, keys):
        want = lineage.child(key)
        assert got == want and got.key == want.key
        g, w = got.generator(), want.generator()
        assert g.bit_generator.state == w.bit_generator.state
        assert np.array_equal(g.standard_normal(7), w.standard_normal(7))
        assert np.array_equal(g.random(3), w.random(3))


@given(entropies, prefixes, one_word_keys)
def test_children_draw_like_child_streams(entropy, prefix, keys):
    _same_streams(H.SeedLineage(entropy, prefix), [0, TOP, *keys])


@given(entropies, prefixes, st.lists(st.integers(2**32, 2**70), min_size=1, max_size=5))
def test_multiword_keys_take_the_single_stream_path(entropy, prefix, wide):
    lineage = H.SeedLineage(entropy, prefix)
    keys = [0, *wide, TOP]
    _same_streams(lineage, keys)
    assert all(c.words is None for c in lineage.children(wide))


def test_negative_key_fails_at_generator_as_a_single_stream_does():
    lineage = H.SeedLineage(3, (1,))
    batched = lineage.children([5, -1, 6])
    with pytest.raises(ValueError) as single:
        lineage.child(-1).generator()
    with pytest.raises(ValueError) as block:
        batched[1].generator()
    assert str(block.value) == str(single.value)
    _same_streams(lineage, [5, 6])
    with pytest.raises(ValueError, match=str(single.value)):
        H.SeedLineage(-1).children([0])[0].generator()


def test_words_are_a_cache_not_part_of_the_lineage():
    lineage = H.SeedLineage(11)
    child = lineage.children(range(3))[2]
    assert child.words is not None
    assert child == lineage.child(2) and hash(child) == hash(lineage.child(2))
    assert repr(child) == repr(lineage.child(2))
    with pytest.raises(TypeError):
        H.SeedLineage(11, (2,), words=child.words)
    with pytest.raises(ValueError):
        child.generator().bit_generator.seed_seq.generate_state(8)


def test_negative_seed_is_refused_before_any_draw():
    # numpy would refuse it only at the first draw, with a bare ValueError
    with pytest.raises(DomainError, match="seed"):
        as_lineage(-1)
    with pytest.raises(DomainError, match="seed"):
        H.sample_row(H.WeakAR1Model(1.0, 0.5), 50, -1)


@pytest.mark.parametrize(
    "call",
    [lambda m: H.sample_row(m, 50, H.SeedLineage(-1)),
     lambda m: H.sample_row(m, 50, H.SeedLineage(0).child(-2)),
     lambda m: H.sample_rows(m, 50, H.SeedLineage(-1), [1])],
    ids=["sample_row-entropy", "sample_row-key", "sample_rows-entropy"],
)
def test_negative_lineage_is_refused_at_the_public_call(monkeypatch, call):
    # numpy would refuse it only at the first draw, with a bare ValueError
    def no_draws(self):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(H.SeedLineage, "generator", no_draws)
    with pytest.raises(DomainError, match="lineage's entropy and key must be >= 0"):
        call(H.WeakAR1Model(1.0, 0.5))


@pytest.mark.parametrize(
    "lineage",
    [H.SeedLineage(0.5), H.SeedLineage(-0.0), H.SeedLineage(0, (1.5,)),
     H.SeedLineage(0, (np.float64(2.0),)), H.SeedLineage("7")],
    ids=["entropy-half", "entropy-negative-zero", "key-half", "key-float64", "entropy-str"],
)
def test_non_integer_lineage_is_refused_at_the_public_call(monkeypatch, lineage):
    # numpy would refuse each only at the first draw, with a TypeError
    def no_draws(self):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(H.SeedLineage, "generator", no_draws)
    with pytest.raises(DomainError, match="lineage's entropy and key must be >= 0 integers"):
        H.sample_row(H.WeakAR1Model(1.0, 0.5), 100, lineage)


def test_numpy_integer_lineage_draws_as_its_int():
    model = H.WeakAR1Model(1.0, 0.5)
    got = H.sample_row(model, 100, H.SeedLineage(np.int64(3), (np.uint32(4),)))
    want = H.sample_row(model, 100, H.SeedLineage(3, (4,)))
    assert got.x1.tobytes() == want.x1.tobytes() and got.x2.tobytes() == want.x2.tobytes()

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eegrag.embedding import HashedTokenEmbedder
from eegrag.errors import PreconditionError
from eegrag.hypergraph import word_tokens

# str.lower() turns each of these into ASCII letters, yet neither is a word
KELVIN, DOTTED_CAPITAL_I = "\u212a", "\u0130"


def linker_words(text: str) -> str:
    """The words the entity linker reads in ``text``, joined by spaces."""
    return " ".join(word for word, _, _ in word_tokens(text))


def test_deterministic():
    emb = HashedTokenEmbedder(64)
    a = emb.embed("spike-wave discharge at 3 Hz")
    b = emb.embed("spike-wave discharge at 3 Hz")
    np.testing.assert_array_equal(a, b)


def test_unit_norm():
    emb = HashedTokenEmbedder(256)
    for text in ("alpha rhythm", "a", "one two three four five six"):
        assert np.linalg.norm(emb.embed(text)) == pytest.approx(1.0, abs=1e-6)


def test_dimension():
    for d in (1, 16, 256):
        assert HashedTokenEmbedder(d).embed("x").shape == (d,)
    with pytest.raises(ValueError):
        HashedTokenEmbedder(0)


@pytest.mark.parametrize("dim", [0, -3])
def test_dimension_below_one_is_a_precondition_error(dim):
    with pytest.raises(PreconditionError, match="embedding dimension must be >= 1"):
        HashedTokenEmbedder(dim)


def test_no_tokens_degenerates_to_zero_vector():
    emb = HashedTokenEmbedder(32)
    assert np.all(emb.embed("") == 0.0)
    assert np.all(emb.embed("  ... !!") == 0.0)


def test_a_text_with_no_linker_word_embeds_to_zeros():
    assert word_tokens(KELVIN) == []
    assert np.all(HashedTokenEmbedder(32).embed(KELVIN) == 0.0)


@pytest.mark.parametrize("text", [f"{DOTTED_CAPITAL_I}ctal spikes", f"seizure {KELVIN}alium"])
def test_embeds_exactly_the_linker_words(text):
    emb = HashedTokenEmbedder(64)
    np.testing.assert_array_equal(emb.embed(text), emb.embed(linker_words(text)))


@given(st.text())
@example(f"{DOTTED_CAPITAL_I}ctal spikes")
@example(f"seizure {KELVIN}alium")
def test_embedding_of_any_text_is_that_of_its_linker_words(text):
    emb = HashedTokenEmbedder(64)
    np.testing.assert_array_equal(emb.embed(text), emb.embed(linker_words(text)))


@pytest.mark.parametrize("text, words", [("Ｓspike seen", "seen"), ("αwave burst", "burst")])
def test_a_run_that_touches_a_non_ascii_letter_is_not_a_word(text, words):
    emb = HashedTokenEmbedder(64)
    assert linker_words(text) == words
    np.testing.assert_array_equal(emb.embed(text), emb.embed(words))


def test_tokenization_is_case_and_punctuation_insensitive():
    emb = HashedTokenEmbedder(128)
    np.testing.assert_array_equal(
        emb.embed("Spike-Wave Discharge"), emb.embed("spike wave discharge")
    )


def test_shared_tokens_raise_similarity():
    emb = HashedTokenEmbedder(256)
    base = emb.embed("generalized spike wave discharge epilepsy")
    close = emb.embed("focal spike wave discharge epilepsy")
    far = emb.embed("reduced sleep spindle density insomnia")
    assert float(base @ close) > float(base @ far)


def test_cached_token_slots_match_the_hash_for_every_dimension():
    # the token cache is keyed by dimension, so one token maps to its own
    # bucket in each; the vector is the bag of FNV-1a buckets and signs
    from eegrag.hashing import fnv1a64_text

    text = "Spike wave spike discharge"
    for _ in range(2):  # cold, then warm
        for d in (7, 64, 256):
            expected = np.zeros(d)
            for token in ("spike", "wave", "spike", "discharge"):
                h = fnv1a64_text(token)
                expected[h % d] += 1.0 if h % 2 == 0 else -1.0
            expected /= np.linalg.norm(expected)
            np.testing.assert_array_equal(HashedTokenEmbedder(d).embed(text), expected)

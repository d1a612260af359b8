"""Tests for the reference embedder, its sparse form and the embedder contract."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliproute import embed as embed_module
from cliproute.corpus import ClipRecord, ClipRef, Corpus, Modality, normalize_text
from cliproute.embed import (
    _WORD_MEMO_SIZE,
    EmbedderSpec,
    EmbeddingError,
    SparseVector,
    _word_buckets,
    default_spec,
    embed_text,
    is_zero,
    register_embedder,
    token_bucket,
)
from cliproute.index import INDEX_SOURCES, build_index, search, split_sentences


@pytest.fixture(scope="module")
def spec():
    return default_spec()


def _dense(vec):
    """The full-width vector a SparseVector stands for."""
    dense = np.zeros(vec.dim)
    dense[vec.buckets] = vec.weights
    return dense


def _dense_oracle(spec, text):
    """The reference embedder as a dense vector: count every feature's
    bucket in a width-dim array, then divide by its L2 norm."""
    vec = np.zeros(spec.dim, dtype=np.float64)
    for token in normalize_text(text).split():
        vec[token_bucket(token, spec.dim)] += 1.0
        for i in range(len(token) - 2):
            vec[token_bucket(token[i : i + 3], spec.dim)] += 1.0
    if not vec.any():
        return vec
    return vec / float(np.linalg.norm(vec))


def _assert_matches_oracle(spec, text):
    vec, oracle = embed_text(spec, text), _dense_oracle(spec, text)
    assert vec.dim == spec.dim
    assert vec.buckets.dtype.kind == "i" and vec.weights.dtype == np.float64
    assert np.array_equal(vec.buckets, np.flatnonzero(oracle))
    assert vec.weights.tobytes() == oracle[vec.buckets].tobytes()


def _cosine(u, v):
    """Dot product of two embedded vectors, computed densely."""
    return float(np.dot(_dense(u), _dense(v)))


class TestEmbedText:
    def test_deterministic(self, spec):
        a = embed_text(spec, "soup recipe")
        b = embed_text(spec, "soup recipe")
        assert np.array_equal(a.buckets, b.buckets)
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_empty_text_gives_zero_sentinel(self, spec):
        for text in ("", "  !?  "):
            vec = embed_text(spec, text)
            assert is_zero(vec)
            assert vec.dim == spec.dim and vec.buckets.size == vec.weights.size == 0

    def test_unit_norm(self, spec):
        vec = embed_text(spec, "anniversary turtle soup")
        assert abs(np.linalg.norm(vec.weights) - 1.0) <= 1e-9

    def test_depends_only_on_normalized_text(self, spec):
        a = embed_text(spec, "Anniversary, Turtle; SOUP!")
        b = embed_text(spec, "anniversary turtle soup")
        assert np.array_equal(a.buckets, b.buckets)
        assert np.array_equal(a.weights, b.weights)

    def test_dim_applies(self):
        small = default_spec(dim=64)
        vec = embed_text(small, "hello world")
        assert vec.dim == 64 and _dense(vec).shape == (64,)
        assert vec.buckets.max() < 64


class TestDenseOracleParity:
    """The sparse embed against the dense formula it replaced: the same
    buckets as the oracle's nonzeros and bit-equal weights."""

    def test_every_sentence_and_query_of_the_session_corpus(self, acceptance_corpus, spec):
        corpus, queries, _ = acceptance_corpus
        texts = {q.text for q in queries}
        for clip in corpus:
            for source in INDEX_SOURCES:
                texts.update(split_sentences(clip.text_for(source) or ""))
        assert len(texts) > 5000
        for text in sorted(texts):
            _assert_matches_oracle(spec, text)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(text=st.text(max_size=80), dim=st.sampled_from([8, 64, 4096]))
    def test_generated_text(self, text, dim):
        # dim 8 makes most features collide, so counts above 1 are common.
        _assert_matches_oracle(default_spec(dim), text)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        words=st.lists(
            # A 3-letter word is its own trigram, and "banana" and
            # "mississippi" repeat trigrams within the word.
            st.sampled_from(["a", "cat", "ana", "banana", "mississippi", "concatenate"]),
            max_size=40,
        ),
        dim=st.sampled_from([8, 64, 4096]),
    )
    def test_repeated_words_count_above_one(self, words, dim):
        # st.text rarely repeats a word; six words make every run of the
        # sorted features long, which is where run-length counting can slip.
        _assert_matches_oracle(default_spec(dim), " ".join(words))


class TestWordMemo:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        word=st.text(st.characters(blacklist_categories=("Z", "P", "C")), min_size=1),
        dim=st.sampled_from([8, 512, 4096]),
    )
    def test_memoized_buckets_equal_unmemoized(self, word, dim):
        unmemoized = [token_bucket(word, dim)]
        unmemoized += [token_bucket(word[i : i + 3], dim) for i in range(len(word) - 2)]
        assert list(_word_buckets(dim, word)) == unmemoized  # filled here or before
        assert list(_word_buckets(dim, word)) == unmemoized  # served from the memo

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        word=st.text(st.sampled_from("abcé1_"), min_size=1, max_size=6),
        dim=st.sampled_from([8, 512, 4096]),
    )
    def test_buckets_equal_one_hash_per_feature(self, word, dim):
        # Short words from a small alphabet: many have exactly 3 letters.
        trigrams = [word[i : i + 3] for i in range(len(word) - 2)]
        expected = (token_bucket(word, dim), *(token_bucket(t, dim) for t in trigrams))
        assert _word_buckets.__wrapped__(dim, word) == expected

    @pytest.mark.parametrize("word, hashed", [("cat", ["cat"]), ("cats", ["cats", "cat", "ats"])])
    def test_a_three_letter_word_is_hashed_once(self, monkeypatch, word, hashed):
        seen = []

        def counted(token, dim):
            seen.append(token)
            return token_bucket(token, dim)

        monkeypatch.setattr(embed_module, "token_bucket", counted)
        buckets = _word_buckets.__wrapped__(512, word)
        assert seen == hashed
        assert len(buckets) == 1 + max(len(word) - 2, 0)

    def test_memo_never_exceeds_its_bound(self, spec):
        rng = random.Random(5)
        words = [f"w{i}x{rng.randrange(10**6)}" for i in range(2 * _WORD_MEMO_SIZE + 100)]
        sizes = []
        for start in range(0, len(words), 7):
            embed_text(spec, " ".join(words[start : start + 7]))
            sizes.append(_word_buckets.cache_info().currsize)
        assert _word_buckets.cache_info().maxsize == _WORD_MEMO_SIZE
        assert max(sizes) == _WORD_MEMO_SIZE
        # Words pushed out of the memo embed as before.
        _assert_matches_oracle(spec, " ".join(words[:7]))


class TestCosine:
    def test_self_similarity_is_one(self, spec):
        vec = embed_text(spec, "a cat on a mat")
        assert _cosine(vec, vec) == pytest.approx(1.0, abs=1e-9)

    def test_zero_sentinel_scores_zero_against_anything(self, spec):
        zero = embed_text(spec, "")
        other = embed_text(spec, "something")
        assert _cosine(zero, other) == 0.0
        assert _cosine(zero, zero) == 0.0

    def test_symmetry(self, spec):
        rng = random.Random(3)
        words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
        for _ in range(50):
            a = " ".join(rng.choices(words, k=rng.randint(1, 5)))
            b = " ".join(rng.choices(words, k=rng.randint(1, 5)))
            va, vb = embed_text(spec, a), embed_text(spec, b)
            assert _cosine(va, vb) == pytest.approx(_cosine(vb, va), abs=1e-12)

    def test_dimension_mismatch_rejected(self, spec):
        clip = ClipRecord(ref=ClipRef("v", 0, 10), asr_text="x")
        index = build_index(Corpus.from_records([clip]), Modality.ASR, spec)
        with pytest.raises(EmbeddingError, match="does not match"):
            search(index, embed_text(default_spec(dim=64), "x"), 5)

    def test_disjoint_token_texts_share_no_buckets(self, spec):
        # Oracle: enumerate both vectors' nonzero indices and verify the
        # hash-collision-free premise before asserting orthogonality.
        a = embed_text(spec, "quartz marble granite")
        b = embed_text(spec, "velvet denim linen")
        nonzero_a = set(np.nonzero(_dense(a))[0])
        nonzero_b = set(np.nonzero(_dense(b))[0])
        assert not (nonzero_a & nonzero_b)
        assert _cosine(a, b) == 0.0

    def test_more_shared_tokens_score_higher(self, spec):
        doc_d = embed_text(spec, "quartz marble granite")
        doc_e = embed_text(spec, "quartz velvet denim")
        query = embed_text(spec, "quartz marble linen")
        assert _cosine(query, doc_d) > _cosine(query, doc_e)


def _returning(make):
    """An embedder whose every result is ``make(spec)``."""
    return lambda spec, text: make(spec)


def _vec(buckets, weights, dim=16, bucket_dtype=np.int64, weight_dtype=np.float64):
    buckets = np.array(buckets, dtype=bucket_dtype)
    return SparseVector(dim, buckets, np.array(weights, dtype=weight_dtype))


class TestEmbedderSpec:
    def test_dim_floor(self):
        with pytest.raises(EmbeddingError, match=">= 8"):
            EmbedderSpec(dim=4)

    def test_unknown_name_rejected(self):
        with pytest.raises(EmbeddingError, match="unknown embedder"):
            EmbedderSpec(name="not-registered")

    def test_registry_accepts_new_backends(self):
        def constant_embedder(spec, text):
            return SparseVector(spec.dim, np.array([0]), np.array([1.0]))

        register_embedder("constant-test", constant_embedder)
        spec = EmbedderSpec(name="constant-test", dim=16)
        assert _dense(embed_text(spec, "anything"))[0] == 1.0

    def test_default_spec_records_hash_parameters(self):
        spec = default_spec()
        assert spec.parameters["hash"] == "blake2b-64"
        assert spec.to_dict()["dim"] == spec.dim
        assert EmbedderSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("dim", [8, 64, 4096])
    def test_the_bare_reference_spec_is_the_default_spec(self, dim):
        assert EmbedderSpec(dim=dim) == default_spec(dim)
        spelled_out = EmbedderSpec("hashed-trigram", dim, dict(default_spec().parameters))
        assert spelled_out == default_spec(dim)
        assert EmbedderSpec.from_dict({"name": "hashed-trigram", "dim": dim}) == default_spec(dim)

    @pytest.mark.parametrize(
        "parameters", [{"hash": "md5"}, {**default_spec().parameters, "extra": "x"}]
    )
    def test_the_reference_spec_takes_no_other_parameters(self, parameters):
        with pytest.raises(EmbeddingError, match="hashed-trigram parameters must be empty or"):
            EmbedderSpec(parameters=parameters)


class TestRegisteredEmbedderContract:
    @pytest.mark.parametrize(
        "make",
        [
            lambda spec: _vec([0, 3, 15], [0.5, -0.5, 0.5**0.5]),
            lambda spec: _vec([], []),
            lambda spec: _vec([2, 9], [1.0, 2.0], bucket_dtype=np.uint32),
        ],
        ids=["signed-weights", "empty", "uint32-buckets"],
    )
    def test_well_formed_results_pass_unchanged(self, make):
        register_embedder("contract-test", _returning(make))
        vec = embed_text(EmbedderSpec("contract-test", 16), "anything")
        expected = make(None)
        assert np.array_equal(vec.buckets, expected.buckets)
        assert np.array_equal(vec.weights, expected.weights)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda spec: np.ones(spec.dim), "SparseVector of dim 16"),
            (lambda spec: _vec([1], [1.0], dim=32), "SparseVector of dim 16"),
            (lambda spec: _vec([3, 1], [0.6, 0.8]), "increase strictly"),
            (lambda spec: _vec([2, 2], [0.6, 0.8]), "increase strictly"),
            (lambda spec: _vec([5, 1], [0.6, 0.8], bucket_dtype=np.uint32), "increase strictly"),
            (lambda spec: _vec([1, 16], [0.6, 0.8]), "increase strictly within \\[0, 16\\)"),
            (lambda spec: _vec([-1, 4], [0.6, 0.8]), "increase strictly"),
            (lambda spec: _vec([1, 4], [0.6, float("nan")]), "finite"),
            (lambda spec: _vec([1, 4], [float("inf"), 0.8]), "finite"),
            (lambda spec: _vec([1, 4], [0.0, 1.0]), "nonzero"),
            (lambda spec: _vec([1, 4], [0.6]), "of one length"),
            (lambda spec: _vec([1.0, 4.0], [0.6, 0.8], bucket_dtype=np.float64), "int buckets"),
            (lambda spec: _vec([1, 4], [0.6, 0.8], weight_dtype=np.float32), "float64 weights"),
            (lambda spec: SparseVector(16, [1, 4], [0.6, 0.8]), "int buckets"),
            (lambda spec: _vec([[1, 4]], [[0.6, 0.8]]), "1-D"),
        ],
        ids=[
            "dense-array", "wrong-dim", "unsorted", "duplicate", "unsorted-uint",
            "bucket-at-dim", "negative-bucket", "nan-weight", "inf-weight", "zero-weight",
            "length-mismatch", "float-buckets", "float32-weights", "lists", "two-dimensional",
        ],
    )
    def test_malformed_results_rejected(self, make, message):
        register_embedder("contract-test", _returning(make))
        with pytest.raises(EmbeddingError, match=message):
            embed_text(EmbedderSpec("contract-test", 16), "anything")

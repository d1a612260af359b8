"""Tests for index construction, search, and serialization."""

import gc
import random
import struct

import numpy as np
import pytest
from conftest import edit_video_table, resign, split_index
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliproute.corpus import MODALITIES, ClipRecord, ClipRef, Corpus, CorpusError, Modality
from cliproute.embed import (
    EmbedderSpec,
    EmbeddingError,
    SparseVector,
    default_spec,
    embed_text,
    register_embedder,
)
from cliproute import index as index_module
from cliproute.index import (
    _POOL_BLOCK,
    INDEX_SOURCES,
    BuildStats,
    IndexingError,
    build_fused_index,
    build_index,
    load_index,
    save_index,
    search,
    split_sentences,
)

_WORDS = [
    "amber", "basil", "cedar", "dahlia", "elder", "fennel", "ginger",
    "hazel", "iris", "juniper", "laurel", "maple", "nutmeg", "olive",
]


@pytest.fixture(scope="module")
def spec():
    return default_spec(dim=512)


def _corpus(*records):
    return Corpus.from_records(list(records))


def _clip(video, start, **fields):
    return ClipRecord(ref=ClipRef(video, start, start + 10), **fields)


def _refs(index):
    """Every row's ClipRef, in row order."""
    return [index.ref(row) for row in range(len(index))]


def _dense(vec):
    """The full-width vector a SparseVector stands for."""
    dense = np.zeros(vec.dim)
    dense[vec.buckets] = vec.weights
    return dense


def _row_major(index):
    """The clip rows the index's postings hold, as (indptr, buckets, weights):
    row i holds ``weights[indptr[i]:indptr[i + 1]]`` at the ascending
    ``buckets[indptr[i]:indptr[i + 1]]``."""
    buckets = np.repeat(np.arange(index.embedder.dim), np.diff(index.post_ptr))
    order = np.argsort(index.post_rows, kind="stable")  # keeps each row's buckets ascending
    indptr = np.zeros(len(index) + 1, dtype=np.int64)
    np.cumsum(np.bincount(index.post_rows, minlength=len(index)), out=indptr[1:])
    return indptr, buckets[order], index.post_weights[order]


def _dense_rows(index):
    """The index's stored rows as a dense (len, dim) matrix."""
    dense = np.zeros((len(index), index.embedder.dim))
    indptr, buckets, weights = _row_major(index)
    dense[np.repeat(np.arange(len(index)), np.diff(indptr)), buckets] = weights
    return dense


def _full_width_scores(dense_rows, query):
    """Each row's sequential dot product with the query."""
    return np.cumsum(dense_rows * query, axis=1)[:, -1]


def _oracle(index, dense_rows, vec, n):
    """Dense reference search: sequential dot products, a full sort by
    (-score, clip id), positive scores only, then the first n.

    Columns where the query is zero add only +-0.0 to each running sum, so
    the sums run over the query's nonzero columns alone; that is ~100x
    cheaper at dim 4096, and test_oracle_sums_equal_full_width_sums checks
    it against :func:`_full_width_scores`.
    """
    query = _dense(vec)
    support = np.flatnonzero(query)
    if not support.size:
        return []
    scores = _full_width_scores(dense_rows[:, support], query[support])
    ranked = sorted(
        zip(_refs(index), scores.tolist()), key=lambda item: (-item[1], item[0].clip_id)
    )
    return [(ref, score) for ref, score in ranked if score > 0][:n]


def _lexsort_search(index, vec, n):
    """The search that row-order tie-breaks replaced: the oracle's scores,
    positive only, lexsorted by (-score, the rank of each row's clip id among
    the sorted ids), then the first n."""
    query = _dense(vec)
    support = np.flatnonzero(query)
    scores = _full_width_scores(_dense_rows(index)[:, support], query[support])
    ids = [ref.clip_id for ref in _refs(index)]
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    hits = np.flatnonzero(scores > 0)
    top = hits[np.lexsort((rank[hits], -scores[hits]))[:n]]
    return [(index.ref(i), score) for i, score in zip(top.tolist(), scores[top].tolist())]


def _dense_embed(spec, text):
    """A registered embedder whose vectors fill every bucket, partly negative."""
    hashed = embed_text(default_spec(spec.dim), text)
    if not hashed.buckets.size:
        return hashed
    vec = _dense(hashed) + 0.05 * np.cos(np.arange(spec.dim) + len(text))
    return SparseVector(spec.dim, np.arange(spec.dim), vec / np.linalg.norm(vec))


register_embedder("test-dense", _dense_embed)


_SIGNED_SENTENCES = {
    "up": ([1, 3], [0.6, 0.8]),
    "down": ([1, 5], [-0.6, 0.8]),
    "plus": ([2, 4], [0.6, 0.8]),
    "minus": ([2, 4], [-0.6, -0.8]),
    "unsorted": ([4, 2], [0.6, 0.8]),
}


def _signed_embed(spec, text):
    """A registered embedder whose sentences "up" and "down" hold bucket 1
    with opposite signs, so a clip saying both pools it to exactly 0.0, and
    whose "plus" and "minus" are exact negatives, so a clip saying both pools
    to the zero row. "unsorted" breaks the SparseVector contract, and other
    text embeds as the reference embedder's."""
    if text.strip() not in _SIGNED_SENTENCES:
        return embed_text(default_spec(spec.dim), text)
    buckets, weights = _SIGNED_SENTENCES[text.strip()]
    return SparseVector(spec.dim, np.array(buckets), np.array(weights))


register_embedder("test-signed", _signed_embed)


def _dense_pool(spec, text):
    """The dense pooling oracle: the mean of the text's non-empty full-width
    sentence vectors, divided by the norm of that full-width mean."""
    vectors = [_dense(embed_text(spec, s)) for s in split_sentences(text)]
    pooled = np.mean([v for v in vectors if v.any()], axis=0)
    return pooled / float(np.linalg.norm(pooled))


def _assert_rows_equal_dense_pooling(index, corpus):
    """Each stored row against the nonzeros of the dense pooling oracle,
    bit for bit."""
    texts = {clip.ref: clip.text_for(index.source) for clip in corpus}
    indptr, buckets, weights = _row_major(index)
    for i, ref in enumerate(_refs(index)):
        pooled = _dense_pool(index.embedder, texts[ref])
        lo, hi = indptr[i], indptr[i + 1]
        assert np.array_equal(buckets[lo:hi], np.flatnonzero(pooled))
        assert weights[lo:hi].tobytes() == pooled[pooled != 0].tobytes()


def _pools_to_a_row(spec, text):
    """Whether the dense mean of the text's non-empty sentence vectors has a
    nonzero norm, so that its clip gets a row."""
    vectors = [_dense(embed_text(spec, s)) for s in split_sentences(text or "")]
    vectors = [v for v in vectors if v.any()]
    return bool(vectors) and float(np.linalg.norm(np.mean(vectors, axis=0))) != 0.0


class TestBuildIndex:
    def test_skips_clips_without_the_field(self, spec):
        corpus = _corpus(
            _clip("a", 0, visual_caption="cat", ocr_text="title card"),
            _clip("b", 0, visual_caption="dog", ocr_text="menu board"),
            _clip("c", 0, visual_caption="fox"),
        )
        index = build_index(corpus, Modality.OCR, spec)
        assert len(index) == 2
        assert index.build_stats.indexed == 2
        assert index.build_stats.skipped == 1
        assert index.build_stats.indexed + index.build_stats.skipped == len(corpus)

    def test_punctuation_only_field_counts_as_skipped(self, spec):
        corpus = _corpus(
            _clip("a", 0, visual_caption="cat", ocr_text="?!"),
            _clip("b", 0, visual_caption="dog", ocr_text="real text"),
        )
        index = build_index(corpus, Modality.OCR, spec)
        assert len(index) == 1
        assert index.build_stats.skipped == 1
        # No stored vector is a zero sentinel.
        assert np.all(np.linalg.norm(_dense_rows(index), axis=1) > 0.99)

    def test_empty_index_carries_warning_flag(self, spec):
        corpus = _corpus(_clip("a", 0, visual_caption="cat"))
        index = build_index(corpus, Modality.ASR, spec)
        assert len(index) == 0
        assert index.build_stats.empty

    def test_one_sentence_document_equals_sentence_vector(self, spec):
        corpus = _corpus(_clip("a", 0, asr_text="hello there friend"))
        index = build_index(corpus, Modality.ASR, spec)
        expected = _dense(embed_text(spec, "hello there friend"))
        assert np.allclose(_dense_rows(index)[0], expected, atol=1e-12)

    def test_two_sentence_document_matches_mean_pool_oracle(self, spec):
        corpus = _corpus(_clip("a", 0, asr_text="hello there. goodbye now!"))
        index = build_index(corpus, Modality.ASR, spec)
        # Hand-rolled oracle: embed each sentence, average, re-normalize.
        v1 = _dense(embed_text(spec, "hello there"))
        v2 = _dense(embed_text(spec, "goodbye now"))
        pooled = (v1 + v2) / 2.0
        pooled = pooled / np.linalg.norm(pooled)
        assert np.allclose(_dense_rows(index)[0], pooled, atol=1e-12)

    def test_fused_index_uses_fused_caption(self, spec):
        corpus = _corpus(
            _clip("a", 0, visual_caption="cat", fused_caption="cat on mat"),
            _clip("b", 0, visual_caption="dog"),
        )
        index = build_fused_index(corpus, spec)
        assert len(index) == 1
        assert index.source == "fused"

    def test_rows_keep_exactly_the_pooled_nonzeros(self, spec):
        corpus = _corpus(
            _clip("a", 0, asr_text="hello there. goodbye now!"),
            _clip("b", 0, asr_text="other content"),
        )
        index = build_index(corpus, Modality.ASR, spec)
        indptr, buckets, weights = _row_major(index)
        for i, clip in enumerate(corpus):
            vectors = [_dense(embed_text(spec, s)) for s in split_sentences(clip.asr_text)]
            pooled = np.mean(vectors, axis=0)
            pooled = pooled / float(np.linalg.norm(pooled))
            lo, hi = indptr[i], indptr[i + 1]
            assert np.array_equal(buckets[lo:hi], np.flatnonzero(pooled))
            assert np.array_equal(weights[lo:hi], pooled[pooled != 0])

    @pytest.mark.parametrize("source", INDEX_SOURCES)
    def test_rows_equal_dense_pooling_on_the_session_corpus(self, acceptance_corpus, source):
        corpus, _, indices = acceptance_corpus
        assert len(indices[source]) >= 600
        _assert_rows_equal_dense_pooling(indices[source], corpus)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        texts=st.lists(
            st.lists(st.sampled_from(_WORDS + ["!", "x.", "ab.", "?"]), min_size=1, max_size=12),
            min_size=1,
            max_size=20,
        ),
        embedder=st.sampled_from(["hashed-trigram", "test-dense"]),
        dim=st.sampled_from([16, 64, 4096]),
    )
    def test_rows_equal_dense_pooling_on_generated_sentences(self, texts, embedder, dim):
        corpus = _corpus(
            *[
                _clip(f"v{i:02d}", 0, asr_text=" ".join(t), visual_caption="scene")
                for i, t in enumerate(texts)
            ]
        )
        spec = default_spec(dim) if embedder == "hashed-trigram" else EmbedderSpec(embedder, dim)
        _assert_rows_equal_dense_pooling(build_index(corpus, Modality.ASR, spec), corpus)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        clips=st.lists(
            st.lists(
                st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5), min_size=2, max_size=40
            ),
            min_size=1,
            max_size=4,
        ),
        embedder=st.sampled_from(["hashed-trigram", "test-dense"]),
        dim=st.sampled_from([16, 64, 4096]),
    )
    def test_rows_equal_dense_pooling_over_many_sentences(self, clips, embedder, dim):
        corpus = _corpus(
            *[
                _clip(
                    f"v{i:02d}",
                    0,
                    asr_text=". ".join(" ".join(words) for words in sentences),
                    visual_caption="scene",
                )
                for i, sentences in enumerate(clips)
            ]
        )
        assert all(len(split_sentences(clip.asr_text)) >= 2 for clip in corpus)
        spec = default_spec(dim) if embedder == "hashed-trigram" else EmbedderSpec(embedder, dim)
        _assert_rows_equal_dense_pooling(build_index(corpus, Modality.ASR, spec), corpus)

    def test_weights_that_cancel_to_zero_are_not_stored(self, tmp_path):
        corpus = _corpus(
            _clip("a", 0, asr_text="up. down"),
            _clip("b", 0, asr_text="down. up. up"),
        )
        index = build_index(corpus, Modality.ASR, EmbedderSpec("test-signed", 16))
        indptr, buckets, _ = _row_major(index)
        assert buckets[: indptr[1]].tolist() == [3, 5]
        assert buckets[indptr[1] :].tolist() == [1, 3, 5]
        _assert_rows_equal_dense_pooling(index, corpus)
        save_index(index, tmp_path / "asr.idx")
        loaded = load_index(tmp_path / "asr.idx")
        assert np.array_equal(loaded.post_ptr, index.post_ptr)
        assert np.array_equal(loaded.post_rows, index.post_rows)
        assert loaded.post_weights.tobytes() == index.post_weights.tobytes()

    @pytest.mark.parametrize("start", [0, 2**32])
    def test_a_row_that_pools_to_zero_is_skipped(self, tmp_path, start):
        # The skipped clip gets no time check, so times past the u32
        # columns do not stop the build either.
        cancelled = ClipRecord(ref=ClipRef("b", start, start + 10), asr_text="plus. minus")
        corpus = _corpus(_clip("a", 0, asr_text="up"), cancelled)
        index = build_index(corpus, Modality.ASR, EmbedderSpec("test-signed", 16))
        assert index.build_stats == BuildStats(indexed=1, skipped=1)
        assert _refs(index) == [ClipRef("a", 0, 10)]
        save_index(index, tmp_path / "asr.idx")
        assert _refs(load_index(tmp_path / "asr.idx")) == [ClipRef("a", 0, 10)]

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_rows_do_not_depend_on_the_pooling_blocks(self, tmp_path, monkeypatch, block):
        # More than two blocks and a size that is not a multiple of one:
        # one- and multi-sentence texts, empty fields, partial cancellation
        # ("up. down") and rows that pool to zero ("plus. minus"). Small
        # blocks mix in clips without text; a block of one may hold none.
        rng = random.Random(13)
        sentences = ["up", "down", "plus", "minus", *_WORDS, "amber basil", "cedar iris maple"]
        texts = []
        for i in range(2 * _POOL_BLOCK + 37):
            if i % 41 == 0:
                texts.append("plus. minus")
            elif i % 29 == 0:
                texts.append(rng.choice([None, "?!"]))
            else:
                count = rng.choice([1, 1, 2, 3, 6])
                texts.append(". ".join(rng.choice(sentences) for _ in range(count)))
        corpus = _corpus(
            *[
                _clip(f"v{i % 50:02d}", 10 * (i // 50), asr_text=text, visual_caption="scene")
                for i, text in enumerate(texts)
            ]
        )
        spec = EmbedderSpec("test-signed", 64)
        index = build_index(corpus, Modality.ASR, spec)
        _assert_rows_equal_dense_pooling(index, corpus)
        kept = [clip.ref for clip in corpus if _pools_to_a_row(spec, clip.asr_text)]
        kept.sort(key=lambda ref: ref.clip_id)
        assert _refs(index) == kept
        assert index.build_stats == BuildStats(indexed=len(kept), skipped=len(texts) - len(kept))
        assert index.build_stats.skipped >= sum(t in (None, "?!", "plus. minus") for t in texts) > 0
        save_index(index, tmp_path / "blocks.idx")
        monkeypatch.setattr(index_module, "_POOL_BLOCK", block)
        save_index(build_index(corpus, Modality.ASR, spec), tmp_path / "small_blocks.idx")
        assert (tmp_path / "blocks.idx").read_bytes() == (tmp_path / "small_blocks.idx").read_bytes()

    def test_build_embeds_each_sentence_once_in_clip_id_order(self, spec, monkeypatch):
        # The benchmark times embedding through these calls; a batched build
        # that stops making them changes this test and the benchmark together.
        corpus = _corpus(
            _clip("b", 0, asr_text="Cedar iris. Maple! Olive?"),
            _clip("a", 20, asr_text="amber basil"),
            _clip("a", 0, asr_text="?! fennel. ginger"),
            _clip("c", 0, ocr_text="hazel", asr_text=None),
            _clip("a", 10, asr_text="juniper laurel. laurel juniper"),
        )
        calls = []
        original = index_module.embed_text

        def spying_embed_text(spec, text):
            calls.append((spec, text))
            return original(spec, text)

        monkeypatch.setattr(index_module, "embed_text", spying_embed_text)
        build_index(corpus, Modality.ASR, spec)
        clips = sorted(corpus, key=lambda clip: clip.ref.clip_id)
        assert calls == [
            (spec, sentence) for clip in clips for sentence in split_sentences(clip.asr_text or "")
        ]
        assert len(calls) == 8

    def test_a_time_error_comes_before_later_clips_are_embedded(self):
        late = ClipRecord(ref=ClipRef("a", 2**32, 2**32 + 10), asr_text="up")
        broken = _clip("b", 0, asr_text="unsorted")
        signed = EmbedderSpec("test-signed", 16)
        with pytest.raises(IndexingError, match="clip a__s4294967296__e4294967306: "):
            build_index(_corpus(late, broken), Modality.ASR, signed)
        with pytest.raises(EmbeddingError, match="do not increase"):
            build_index(_corpus(broken), Modality.ASR, signed)

    def test_split_sentences(self):
        assert split_sentences("One. Two! Three?") == ["One", " Two", " Three"]
        assert split_sentences("") == []


class TestSearch:
    def test_self_retrieval_at_rank_one(self, spec):
        corpus = _corpus(
            _clip("a", 0, asr_text="turtle soup anniversary"),
            _clip("b", 0, asr_text="completely different words"),
        )
        index = build_index(corpus, Modality.ASR, spec)
        query = embed_text(spec, "turtle soup anniversary")
        ranked = search(index, query, 2)
        assert ranked.items[0][0] == ClipRef("a", 0, 10)
        assert ranked.items[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_n_larger_than_index_returns_everything_ordered(self, spec):
        corpus = _corpus(
            _clip("a", 0, asr_text="alpha"),
            _clip("b", 0, asr_text="alpha beta"),
        )
        index = build_index(corpus, Modality.ASR, spec)
        ranked = search(index, embed_text(spec, "alpha"), 10)
        assert len(ranked.items) == 2
        scores = [s for _, s in ranked.items]
        assert scores == sorted(scores, reverse=True)

    def test_query_sharing_no_bucket_returns_empty(self, spec):
        corpus = _corpus(
            _clip("a", 0, asr_text="alpha"),
            _clip("b", 0, asr_text="beta"),
        )
        index = build_index(corpus, Modality.ASR, spec)
        query = embed_text(spec, "zzz")
        stored = set(np.flatnonzero(np.diff(index.post_ptr)).tolist())
        assert not stored & set(np.flatnonzero(_dense(query)).tolist())
        assert search(index, query, 10).items == []

    def test_only_positive_scores_are_returned(self, spec):
        corpus = _corpus(*[_clip(f"v{i}", 0, asr_text=w) for i, w in enumerate(_WORDS)])
        index = build_index(corpus, Modality.ASR, spec)
        ranked = search(index, embed_text(spec, "amber basil"), 50)
        assert 2 <= len(ranked.items) < len(index)
        assert all(score > 0 for _, score in ranked.items)

    def test_zero_sentinel_query_returns_empty(self, spec):
        corpus = _corpus(_clip("a", 0, asr_text="alpha"))
        index = build_index(corpus, Modality.ASR, spec)
        ranked = search(index, embed_text(spec, "!!!"), 5)
        assert ranked.items == []

    def test_dimension_mismatch_rejected(self, spec):
        corpus = _corpus(_clip("a", 0, asr_text="alpha"))
        index = build_index(corpus, Modality.ASR, spec)
        with pytest.raises(EmbeddingError):
            search(index, embed_text(default_spec(dim=64), "alpha"), 5)

    def test_matches_brute_force_ordering(self, spec):
        rng = random.Random(23)
        words = _WORDS
        records = []
        for i in range(30):
            text = " ".join(rng.choices(words, k=rng.randint(2, 6)))
            records.append(_clip(f"v{i:02d}", 0, asr_text=text))
        corpus = _corpus(*records)
        index = build_index(corpus, Modality.ASR, spec)
        for trial in range(10):
            query_text = " ".join(rng.choices(words, k=rng.randint(1, 4)))
            query = embed_text(spec, query_text)
            ranked = search(index, query, 10)
            # Brute-force oracle: plain python cosine per clip, full sort
            # with the documented tie-break, then take a prefix.
            oracle = []
            for clip in corpus:
                vec = embed_text(spec, clip.asr_text)
                score = float(sum(a * b for a, b in zip(_dense(query), _dense(vec))))
                oracle.append((clip.ref, score))
            oracle.sort(key=lambda item: (-item[1], item[0].clip_id))
            oracle = [(ref, score) for ref, score in oracle if score > 0]
            assert [r for r, _ in ranked.items] == [r for r, _ in oracle[:10]]
            for (_, got), (_, want) in zip(ranked.items, oracle[:10]):
                assert got == pytest.approx(want, abs=1e-9)

    def test_results_are_prefix_of_full_ordering(self, spec):
        corpus = _corpus(
            *[_clip(f"v{i}", 0, asr_text=f"word{i} shared") for i in range(12)]
        )
        index = build_index(corpus, Modality.ASR, spec)
        query = embed_text(spec, "shared")
        full = [r for r, _ in search(index, query, 12).items]
        for n in (1, 3, 7):
            assert [r for r, _ in search(index, query, n).items] == full[:n]

    def test_invalid_depth_rejected(self, spec):
        corpus = _corpus(_clip("a", 0, asr_text="alpha"))
        index = build_index(corpus, Modality.ASR, spec)
        with pytest.raises(IndexingError):
            search(index, embed_text(spec, "alpha"), 0)

    def test_never_returns_clips_whose_field_was_absent(self, spec):
        corpus = _corpus(
            _clip("a", 0, asr_text="alpha beta", visual_caption="x"),
            _clip("b", 0, visual_caption="y"),
            _clip("c", 0, asr_text="alpha", visual_caption="z"),
        )
        index = build_index(corpus, Modality.ASR, spec)
        returned = {ref for ref, _ in search(index, embed_text(spec, "alpha"), 10).items}
        assert ClipRef("b", 0, 10) not in returned


#: Clips as (video, start, text). Video ids prefix one another, starts have
#: decimal strings that sort apart from their values ("a__s10" < "a__s9"),
#: and few distinct texts make many clips tie on every score.
_TIED_CLIPS = st.lists(
    st.tuples(
        st.sampled_from(["a", "a_0", "a__s1", "a0", "b"]),
        st.sampled_from([0, 1, 9, 10, 11, 90, 100, 1000]),
        st.sampled_from(["amber", "amber basil", "basil", "amber. basil", "cedar"]),
    ),
    min_size=1,
    max_size=16,
    unique_by=lambda clip: clip[:2],
)
_TIED_QUERIES = st.lists(
    st.sampled_from(["amber", "basil", "amber basil", "cedar amber", "zzz"]),
    min_size=1,
    max_size=4,
)


class TestSearchParity:
    """search() against the dense oracle: identical rankings, bit-equal scores."""

    @pytest.mark.parametrize("source", INDEX_SOURCES)
    def test_acceptance_corpus(self, acceptance_corpus, source):
        _, queries, indices = acceptance_corpus
        index = indices[source]
        dense = _dense_rows(index)
        sample = queries[::10]
        assert len(sample) >= 300
        for i, query in enumerate(sample):
            vec = embed_text(index.embedder, query.text)
            n = (10, 50, 1000)[i % 3]
            assert search(index, vec, n).items == _oracle(index, dense, vec, n)

    @pytest.mark.parametrize("source", INDEX_SOURCES)
    def test_oracle_sums_equal_full_width_sums(self, acceptance_corpus, source):
        _, queries, indices = acceptance_corpus
        index = indices[source]
        dense = _dense_rows(index)
        for query in queries[5::300]:
            vec = _dense(embed_text(index.embedder, query.text))
            support = np.flatnonzero(vec)
            full = _full_width_scores(dense, vec)
            assert np.array_equal(_full_width_scores(dense[:, support], vec[support]), full)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        texts=st.lists(
            st.lists(st.sampled_from(_WORDS + ["!", "x.", "ab"]), min_size=1, max_size=6),
            min_size=1,
            max_size=25,
        ),
        queries=st.lists(
            st.lists(st.sampled_from(_WORDS + ["?"]), min_size=1, max_size=4),
            min_size=1,
            max_size=5,
        ),
        embedder=st.sampled_from(["hashed-trigram", "test-dense"]),
        dim=st.sampled_from([16, 64, 512]),
        n=st.integers(1, 30),
        seed=st.integers(0, 1000),
    )
    def test_generated_corpora(self, texts, queries, embedder, dim, n, seed):
        ids = random.Random(seed).sample(range(100), len(texts))
        corpus = _corpus(
            *[
                _clip(f"v{ids[i]:02d}", 0, asr_text=" ".join(t), visual_caption="scene")
                for i, t in enumerate(texts)
            ]
        )
        spec = default_spec(dim) if embedder == "hashed-trigram" else EmbedderSpec(embedder, dim)
        index = build_index(corpus, Modality.ASR, spec)
        dense = _dense_rows(index)
        for words in queries:
            vec = embed_text(spec, " ".join(words))
            assert search(index, vec, n).items == _oracle(index, dense, vec, n)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(clips=_TIED_CLIPS, queries=_TIED_QUERIES, n=st.integers(1, 20))
    def test_tied_scores_on_built_and_loaded_indices(self, tmp_path_factory, clips, queries, n):
        corpus = _corpus(*[_clip(video, start, asr_text=text) for video, start, text in clips])
        spec = default_spec(64)
        index = build_index(corpus, Modality.ASR, spec)
        path = tmp_path_factory.mktemp("ties") / "asr.idx"
        save_index(index, path)
        loaded = load_index(path)
        dense = _dense_rows(index)
        for text in queries:
            vec = embed_text(spec, text)
            expected = _oracle(index, dense, vec, n)
            assert search(index, vec, n).items == expected
            assert search(loaded, vec, n).items == expected

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        clips=_TIED_CLIPS, seed=st.integers(0, 2**16), queries=_TIED_QUERIES, n=st.integers(1, 20)
    )
    def test_shuffled_corpora_rank_as_the_id_rank_lexsort(
        self, tmp_path_factory, clips, seed, queries, n
    ):
        random.Random(seed).shuffle(clips)
        corpus = _corpus(*[_clip(video, start, asr_text=text) for video, start, text in clips])
        spec = default_spec(64)
        index = build_index(corpus, Modality.ASR, spec)
        path = tmp_path_factory.mktemp("shuffled") / "asr.idx"
        save_index(index, path)
        loaded = load_index(path)
        for text in queries:
            vec = embed_text(spec, text)
            expected = _lexsort_search(index, vec, n)
            assert search(index, vec, n).items == expected
            assert search(loaded, vec, n).items == expected

    def test_dense_embedder_stores_every_bucket(self):
        spec = EmbedderSpec("test-dense", 32)
        corpus = _corpus(_clip("a", 0, asr_text="alpha"), _clip("b", 0, asr_text="beta"))
        index = build_index(corpus, Modality.ASR, spec)
        assert np.bincount(index.post_rows).tolist() == [32, 32]
        assert np.diff(index.post_ptr).tolist() == [2] * 32
        assert (index.post_weights < 0).any()


def _saved(tmp_path, spec):
    corpus = _corpus(
        _clip("a", 0, asr_text="first one. second part."),
        _clip("b", 0, asr_text="other content"),
    )
    path = tmp_path / "asr.idx"
    save_index(build_index(corpus, Modality.ASR, spec), path)
    return path


def _offsets(header, payload):
    """Byte offset of each payload column, as the README lays them out."""
    videos, count = header["videos"], header["count"]
    id_lengths = struct.unpack_from(f"<{videos}I", payload, 0)
    at = {"video id length": 0, "video id": 4 * videos}
    at["video number"] = at["video id"] + sum(id_lengths)
    for column, after in (("start", "video number"), ("end", "start"), ("bucket count", "end")):
        at[column] = at[after] + 4 * count
    at["row"] = at["bucket count"] + 4 * header["dim"]
    at["weight"] = at["row"] + 4 * header["nnz"]
    return at


def _put(payload, at, fmt, *values):
    """``payload`` with ``values`` packed as ``fmt`` at byte ``at``."""
    size = struct.calcsize(fmt)
    return payload[:at] + struct.pack(fmt, *values) + payload[at + size :]


def _with_header(**changes):
    def corrupt(header, payload):
        return {**header, **changes}, payload

    return corrupt


def _with_postings(edit):
    """Corruption that replaces the bucket count, row and weight columns with
    ``edit(counts, rows, weights)`` of the file's, and the header nnz with
    the number of rows it returns."""

    def corrupt(header, payload):
        at = _offsets(header, payload)
        columns = edit(
            np.frombuffer(payload, "<u4", header["dim"], at["bucket count"]),
            np.frombuffer(payload, "<u4", header["nnz"], at["row"]),
            np.frombuffer(payload, "<f8", header["nnz"], at["weight"]),
        )
        payload = payload[: at["bucket count"]] + b"".join(
            column.astype(dtype).tobytes() for column, dtype in zip(columns, ("<u4", "<u4", "<f8"))
        )
        return {**header, "nnz": len(columns[1])}, payload

    return corrupt


def _set_clip(column, row, value):
    """Corruption that sets one clip's u32 in a per-clip column."""

    def corrupt(header, payload):
        return header, _put(payload, _offsets(header, payload)[column] + 4 * row, "<I", value)

    return corrupt


def _move_nonzeros_to_the_second_row(header, payload):
    """Row 0's postings moved to row 1, and dropped where row 1 holds the
    bucket too."""

    def edit(counts, rows, weights):
        buckets = np.repeat(np.arange(len(counts)), counts)
        kept = ~(np.repeat(counts == 2, counts) & (rows == 0))
        return np.bincount(buckets[kept], minlength=len(counts)), np.ones_like(rows[kept]), weights[kept]

    return _with_postings(edit)(header, payload)


def _repeat_a_row_within_a_bucket(counts, rows, weights):
    """The postings with the second row of the first two-row bucket set to its first."""
    start = int(counts[: np.flatnonzero(counts == 2)[0]].sum())
    rows = rows.copy()
    rows[start + 1] = rows[start]
    return counts, rows, weights


def _swap_rows_within_a_bucket(counts, rows, weights):
    """The postings with the two rows of the first two-row bucket in falling order."""
    start = int(counts[: np.flatnonzero(counts == 2)[0]].sum())
    rows = rows.copy()
    rows[start : start + 2] = rows[start + 1], rows[start]
    return counts, rows, weights


def _set_row(position, value):
    def corrupt(header, payload):
        at = _offsets(header, payload)["row"] + 4 * (position % header["nnz"])
        return header, _put(payload, at, "<I", value)

    return corrupt


def _nan_weight(header, payload):
    return header, _put(payload, _offsets(header, payload)["weight"], "<d", float("nan"))


def _zero_weight(header, payload):
    return header, _put(payload, _offsets(header, payload)["weight"], "<d", 0.0)


def _swap_the_rows(header, payload):
    """The file's two rows in the other order, each with its postings."""
    at = _offsets(header, payload)
    for column in ("video number", "start", "end"):
        first, second = struct.unpack_from("<II", payload, at[column])
        payload = _put(payload, at[column], "<II", second, first)

    def edit(counts, rows, weights):
        order = np.lexsort((1 - rows, np.repeat(np.arange(len(counts)), counts)))
        return counts, (1 - rows)[order], weights[order]

    return _with_postings(edit)(header, payload)


def _per_entry_payload(index):
    """The v4 payload written entry by entry with struct, as the README lays
    it out: each new video id goes to the id table and each clip's fields to
    the end of their columns; then each bucket's posting count, and each
    bucket's rows and weights, in row order, after the buckets before it."""
    numbers = {}
    columns = {name: [] for name in ("lengths", "ids", "video", "start", "end")}
    for ref in _refs(index):
        if ref.video_id not in numbers:
            numbers[ref.video_id] = len(numbers)
            encoded = ref.video_id.encode("utf-8")
            columns["lengths"].append(struct.pack("<I", len(encoded)))
            columns["ids"].append(encoded)
        columns["video"].append(struct.pack("<I", numbers[ref.video_id]))
        columns["start"].append(struct.pack("<I", ref.start_s))
        columns["end"].append(struct.pack("<I", ref.end_s))
    postings = [[] for _ in range(index.embedder.dim)]
    indptr, buckets, weights = _row_major(index)
    for row in range(len(index)):
        for j in range(indptr[row], indptr[row + 1]):
            postings[buckets[j]].append((row, float(weights[j])))
    columns["counts"] = [struct.pack("<I", len(bucket)) for bucket in postings]
    columns["rows"] = [struct.pack("<I", row) for bucket in postings for row, _ in bucket]
    columns["weights"] = [struct.pack("<d", w) for bucket in postings for _, w in bucket]
    return b"".join(b"".join(parts) for parts in columns.values()), len(numbers)


class TestSerialization:
    @pytest.mark.parametrize("source", INDEX_SOURCES)
    def test_file_equals_the_per_entry_writer_on_the_session_corpus(
        self, acceptance_corpus, tmp_path, source
    ):
        index = acceptance_corpus[2][source]
        save_index(index, tmp_path / "index.idx")
        data = (tmp_path / "index.idx").read_bytes()
        header, _ = split_index(data)
        payload, videos = _per_entry_payload(index)
        nnz = len(index.post_rows)
        assert (header["version"], header["count"], header["nnz"]) == (4, len(index), nnz)
        assert header["videos"] == videos < len(index)
        assert data == resign(data, lambda header, _: (header, payload))

    def test_video_ids_are_numbered_in_order_of_first_use(self, tmp_path, spec):
        corpus = _corpus(
            _clip("b", 0, asr_text="beta"),
            _clip("a", 0, asr_text="alpha"),
            _clip("b", 10, asr_text="gamma"),
        )
        index = build_index(corpus, Modality.ASR, spec)
        save_index(index, tmp_path / "asr.idx")
        data = (tmp_path / "asr.idx").read_bytes()
        _, payload = split_index(data)
        # Row order is clip-id order, so a__s0 comes first, then b__s0, b__s10.
        assert payload[8:10] == b"ab"
        assert data == resign(data, lambda header, _: (header, _per_entry_payload(index)[0]))
        assert _refs(load_index(tmp_path / "asr.idx")) == _refs(index)

    def test_round_trip_is_exact(self, tmp_path, spec):
        corpus = _corpus(
            _clip("a", 0, asr_text="first one. second part."),
            _clip("b", 0, asr_text="other content"),
        )
        index = build_index(corpus, Modality.ASR, spec)
        path = tmp_path / "asr.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.source == index.source
        assert loaded.embedder == index.embedder
        assert _refs(loaded) == _refs(index)
        assert np.array_equal(loaded.post_ptr, index.post_ptr)
        assert np.array_equal(loaded.post_rows, index.post_rows)
        assert np.array_equal(loaded.post_weights, index.post_weights)
        assert loaded.build_stats == index.build_stats

    def test_rebuild_produces_byte_identical_files(self, tmp_path, spec):
        corpus = _corpus(
            _clip("a", 0, asr_text="alpha beta"),
            _clip("b", 0, asr_text="gamma delta"),
        )
        p1, p2 = tmp_path / "one.idx", tmp_path / "two.idx"
        save_index(build_index(corpus, Modality.ASR, spec), p1)
        save_index(build_index(corpus, Modality.ASR, spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_save_is_stable(self, acceptance_corpus, tmp_path, spec):
        one_clip = build_index(_corpus(_clip("a", 0, asr_text="alpha")), Modality.ASR, spec)
        p1, p2 = tmp_path / "one.idx", tmp_path / "two.idx"
        for index in (one_clip, *acceptance_corpus[2].values()):
            save_index(index, p1)
            save_index(load_index(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.idx"
        path.write_bytes(b"not a header\n")
        with pytest.raises(IndexingError):
            load_index(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.idx"
        path.write_bytes(b'{"format": "something-else", "version": 1}\n')
        with pytest.raises(IndexingError, match="unexpected format"):
            load_index(path)

    def test_v1_file_asks_for_a_rebuild(self, tmp_path):
        path = tmp_path / "old.idx"
        path.write_bytes(b'{"format": "cliproute-index", "version": 1}\n' + b"\0" * 16)
        with pytest.raises(IndexingError, match="unsupported version 1; rebuild with build-index"):
            load_index(path)

    def test_layout_matches_the_documented_format(self, tmp_path, spec):
        path = _saved(tmp_path, spec)
        data = path.read_bytes()
        header, payload = split_index(data)
        assert (header["version"], header["count"], header["videos"]) == (4, 2, 2)
        assert data == resign(data, lambda header, payload: (header, payload))
        index = load_index(path)
        at = _offsets(header, payload)
        assert struct.unpack_from("<2I", payload, 0) == (1, 1)
        assert payload[at["video id"] : at["video number"]] == b"ab"
        for column, values in (("video number", (0, 1)), ("start", (0, 0)), ("end", (10, 10))):
            assert struct.unpack_from("<2I", payload, at[column]) == values
        dim, nnz = header["dim"], header["nnz"]
        counts = struct.unpack_from(f"<{dim}I", payload, at["bucket count"])
        assert counts == tuple(np.diff(index.post_ptr))
        assert struct.unpack_from(f"<{nnz}I", payload, at["row"]) == tuple(index.post_rows)
        assert struct.unpack_from(f"<{nnz}d", payload, at["weight"]) == tuple(index.post_weights)
        assert at["weight"] + 8 * nnz == len(payload)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_with_header(dim=256), "does not match embedder dim"),
            (_with_header(count=3), "runs past the end"),
            (_with_header(count=1), "bytes trail the last column"),
            (_with_header(videos=5), "runs past the end"),
            (_with_header(videos=1), "bytes trail the last column"),
            (_with_header(nnz=1), "bytes trail the last column"),
            (_with_postings(lambda c, r, w: (c, r[:1], w[:1])), "header says 1"),
            (_with_header(source="audio"), "unknown source"),
            (_with_header(count=-1), "negative count"),
            (lambda h, p: (h, p + b"\0"), "bytes trail the last column"),
            (lambda h, p: (h, p[:-8]), "runs past the end"),
            (_set_clip("video number", 1, 2), "row 1 has a video number past the video ids"),
            (_set_clip("end", 0, 0), "row 0 does not end after it starts"),
            (_set_clip("start", 1, 11), "row 1 does not end after it starts"),
            (_move_nonzeros_to_the_second_row, "row 0 has no nonzero entries"),
            (_set_row(0, 2), "increase within a bucket and stay below 2"),
            (_set_row(-1, 2), "increase within a bucket and stay below 2"),
            (_with_postings(_repeat_a_row_within_a_bucket), "increase within a bucket"),
            (_with_postings(_swap_rows_within_a_bucket), "increase within a bucket"),
            (_nan_weight, "finite"),
            (_zero_weight, "nonzero"),
            (edit_video_table(lambda ids, n: ([b"", *ids[1:]], n)), "video id 0 is empty"),
            (edit_video_table(lambda ids, n: ([b"\xff", *ids[1:]], n)), "video id 0 is not UTF-8"),
            (_set_clip("video number", 1, 0), "clip row 1 is not after the row before it"),
            (_swap_the_rows, "clip row 1 is not after the row before it"),
            # The table a, b, z; b, a with numbers 1, 0; a, a, b with numbers 0, 2.
            (edit_video_table(lambda ids, n: ([*ids, b"z"], n)), "video id 2 is not used by any"),
            (
                edit_video_table(lambda ids, n: (ids[::-1], [1 - x for x in n])),
                "clip row 0 names a video id out of first-use order",
            ),
            (
                edit_video_table(lambda ids, n: ([ids[0], *ids], [x + (x > 0) for x in n])),
                "the video id table repeats an id",
            ),
        ],
    )
    def test_inconsistent_signed_files_rejected(self, tmp_path, spec, corrupt, message):
        path = _saved(tmp_path, spec)
        path.write_bytes(resign(path.read_bytes(), corrupt))
        with pytest.raises(IndexingError, match=message):
            load_index(path)

    @pytest.mark.parametrize("start, end", [(0, 2**32), (2**32, 2**32 + 10)])
    def test_times_past_the_u32_columns_are_rejected_before_writing(self, tmp_path, spec, start, end):
        late = ClipRecord(ref=ClipRef("b", start, end), asr_text="beta")
        corpus = _corpus(_clip("a", 0, asr_text="alpha"), late)
        path = tmp_path / "asr.idx"
        with pytest.raises(IndexingError, match=f"clip b__s{start}__e{end}: "):
            save_index(build_index(corpus, Modality.ASR, spec), path)
        assert not path.exists()

    def test_the_largest_u32_time_round_trips(self, tmp_path, spec):
        corpus = _corpus(_clip("a", 2**32 - 11, asr_text="alpha"))
        index = build_index(corpus, Modality.ASR, spec)
        save_index(index, tmp_path / "asr.idx")
        assert _refs(load_index(tmp_path / "asr.idx")) == [ClipRef("a", 2**32 - 11, 2**32 - 1)]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("damaged", [False, True])
    def test_load_leaves_the_collector_as_it_found_it(self, tmp_path, spec, enabled, damaged):
        path = _saved(tmp_path, spec)
        if damaged:
            path.write_bytes(path.read_bytes()[:-1])
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if damaged:
                with pytest.raises(IndexingError):
                    load_index(path)
            else:
                load_index(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("dim", [512, 70_000])
    def test_loaded_postings_and_row_order_equal_the_built_ones(self, tmp_path, dim):
        # Both are the dense-pooled rows' nonzeros stably sorted by bucket:
        # 70,000 buckets do not fit the build's 16-bit sort keys; 512 do.
        # Rows follow the clip ids, not the corpus or the start times:
        # "v__s10" < "v__s9", and "_" sorts after every digit, so
        # "v__s100__e110" < "v__s10__e20".
        corpus = _corpus(*(
            _clip("v", start, asr_text=" ".join(_WORDS[start % 7 : start % 7 + 5]))
            for start in (9, 10, 0, 90, 100, 3)
        ))
        spec = default_spec(dim=dim)
        index = build_index(corpus, Modality.ASR, spec)
        save_index(index, tmp_path / "asr.idx")
        loaded = load_index(tmp_path / "asr.idx")
        starts = (0, 100, 10, 3, 90, 9)
        pooled = [_dense_pool(spec, " ".join(_WORDS[s % 7 : s % 7 + 5])) for s in starts]
        buckets = np.concatenate([np.flatnonzero(row) for row in pooled])
        rows = np.repeat(np.arange(len(pooled)), [np.count_nonzero(row) for row in pooled])
        weights = np.concatenate([row[row != 0] for row in pooled])
        order = np.argsort(buckets, kind="stable")
        ptr = np.concatenate([[0], np.cumsum(np.bincount(buckets, minlength=dim))])
        for built in (index, loaded):
            assert (built.post_ptr.dtype, built.post_rows.dtype) == (np.int64, np.uint32)
            assert np.array_equal(built.post_ptr, ptr)
            assert np.array_equal(built.post_rows, rows[order])
            assert built.post_weights.tobytes() == weights[order].tobytes()
            assert [ref.clip_id for ref in _refs(built)] == [f"v__s{s}__e{s + 10}" for s in starts]

    def test_build_save_and_load_make_refs_only_for_returned_rows(
        self, tmp_path, spec, monkeypatch
    ):
        corpus = _corpus(*[_clip(f"v{i}", 10 * i, asr_text=w) for i, w in enumerate(_WORDS)])
        made = []
        check = ClipRef.__post_init__

        def counted(ref):
            made.append(ref)
            check(ref)

        monkeypatch.setattr(ClipRef, "__post_init__", counted)
        save_index(build_index(corpus, Modality.ASR, spec), tmp_path / "asr.idx")
        loaded = load_index(tmp_path / "asr.idx")
        assert made == []
        query = embed_text(spec, "amber basil")
        returned = [ref for ref, _ in search(loaded, query, 50).items]
        assert 2 <= len(returned) < len(loaded)
        assert made == returned
        assert [ref for ref, _ in search(loaded, query, 50).items] == returned
        assert made == returned

    def test_a_loaded_index_keeps_no_view_of_the_file(self, acceptance_corpus, tmp_path):
        save_index(acceptance_corpus[2]["asr"], tmp_path / "asr.idx")
        loaded = load_index(tmp_path / "asr.idx")
        arrays = {name: a for name, a in vars(loaded).items() if isinstance(a, np.ndarray)}
        assert set(arrays) == {
            "video_numbers", "start_s", "end_s", "post_ptr", "post_rows", "post_weights",
        }
        assert [name for name, a in arrays.items() if a.base is not None] == []

    def test_reformatted_header_rejected(self, tmp_path, spec):
        # The same JSON values with other whitespace, as a flipped space
        # byte gives: the digest still matches, so only this check sees it.
        path = _saved(tmp_path, spec)
        path.write_bytes(path.read_bytes().replace(b", ", b",\t", 1))
        with pytest.raises(IndexingError, match="canonical"):
            load_index(path)

    def test_digest_mismatch_rejected(self, tmp_path, spec):
        path = _saved(tmp_path, spec)
        data = bytearray(path.read_bytes())
        data[-1] ^= 1
        path.write_bytes(bytes(data))
        with pytest.raises(IndexingError, match="sha256 mismatch"):
            load_index(path)


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    path = _saved(tmp_path_factory.mktemp("small"), default_spec(dim=64))
    return path.read_bytes()


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(cut=st.integers(0, 10**6), position=st.integers(0, 10**6), mask=st.integers(0, 255))
def test_every_truncation_and_byte_flip_is_rejected(small_file, tmp_path_factory, cut, position, mask):
    """mask 0 truncates the file at ``cut``; any other mask flips bits of one byte."""
    if mask == 0:
        damaged = small_file[: cut % len(small_file)]
    else:
        data = bytearray(small_file)
        data[position % len(data)] ^= mask
        damaged = bytes(data)
    path = tmp_path_factory.mktemp("damaged") / "asr.idx"
    path.write_bytes(damaged)
    with pytest.raises(IndexingError):
        load_index(path)


def _validates(texts):
    try:
        ClipRecord(ClipRef("v", 0, 1), None, *texts).validate()
    except CorpusError:
        return False
    return True


#: Modality texts (asr, ocr, visual) of a clip that ClipRecord.validate accepts.
_VALID_TEXTS = st.tuples(*[st.none() | st.text(max_size=40)] * 3).filter(_validates)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(clips=st.lists(_VALID_TEXTS, min_size=1, max_size=6))
def test_every_valid_clip_sits_in_some_modality_index(clips):
    """The reference build of the three modality indices holds each clip a
    corpus accepts, so evaluate can check a gold against the indices alone."""
    corpus = _corpus(
        *[
            _clip("v", 10 * i, asr_text=asr, ocr_text=ocr, visual_caption=visual)
            for i, (asr, ocr, visual) in enumerate(clips)
        ]
    )
    spec = default_spec(64)
    held = set().union(*(_refs(build_index(corpus, m, spec)) for m in MODALITIES))
    assert held == {clip.ref for clip in corpus}


_VIDEOS = st.sampled_from(["a", "a_0", "a__s1", "a0", "b"])
_STARTS = st.sampled_from([0, 1, 9, 10, 11, 90, 100, 1000])


class TestContains:
    """``ref in index`` against a brute-force scan of the rows."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        # (video, start, whether the clip has asr text): clips without it
        # fall between the asr index's rows in clip-id order.
        clips=st.lists(
            st.tuples(_VIDEOS, _STARTS, st.booleans()), max_size=16, unique_by=lambda c: c[:2]
        ),
        others=st.lists(st.tuples(_VIDEOS, _STARTS, st.integers(1, 20)), max_size=8),
    )
    @example(clips=[("a", 0, False)], others=[("a", 0, 10)])  # an empty index
    def test_matches_a_scan_on_built_and_loaded_indices(self, tmp_path_factory, clips, others):
        corpus = _corpus(
            *[
                _clip(video, start, visual_caption="scene", asr_text="amber" if spoken else None)
                for video, start, spoken in clips
            ]
        )
        built = build_index(corpus, Modality.ASR, default_spec(64))
        path = tmp_path_factory.mktemp("contains") / "asr.idx"
        save_index(built, path)
        loaded = load_index(path)
        probes = [ClipRef(video, start, start + length) for video, start, length in others]
        for video, start, _ in clips:
            # The clip itself, and clips of its video at other times.
            probes += [ClipRef(video, start, start + n) for n in (10, 9, 11)]
            probes += [ClipRef(video, start + 1, start + 10), ClipRef(video, start + 5, start + 15)]
        for index in (built, loaded):
            rows = [index.ref(row) for row in range(len(index))]
            for probe in probes:
                assert (probe in index) == any(ref == probe for ref in rows), probe

    def test_makes_and_keeps_no_clip_ref(self, spec, monkeypatch):
        corpus = _corpus(*[_clip(f"v{i}", 10 * i, asr_text=w) for i, w in enumerate(_WORDS)])
        index = build_index(corpus, Modality.ASR, spec)
        probes = [clip.ref for clip in corpus] + [ClipRef("v3", 31, 41), ClipRef("z", 0, 1)]
        made = []
        check = ClipRef.__post_init__
        monkeypatch.setattr(ClipRef, "__post_init__", lambda ref: made.append(ref) or check(ref))
        assert [probe in index for probe in probes] == [True] * len(_WORDS) + [False, False]
        assert made == []
        assert index._refs == [None] * len(index)

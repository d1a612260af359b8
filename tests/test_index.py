"""Tests for index construction, search, and serialization."""

import hashlib
import json
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliproute.corpus import ClipRecord, ClipRef, Corpus, Modality
from cliproute.embed import (
    EmbedderSpec,
    EmbeddingError,
    default_spec,
    embed_text,
    register_embedder,
)
from cliproute.index import (
    INDEX_SOURCES,
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


def _dense_rows(index):
    """The index's stored rows as a dense (len, dim) matrix."""
    dense = np.zeros((len(index), index.embedder.dim))
    rows = np.repeat(np.arange(len(index)), np.diff(index.indptr))
    dense[rows, index.buckets] = index.weights
    return dense


def _full_width_scores(dense_rows, query):
    """Each row's sequential dot product with the query."""
    return np.cumsum(dense_rows * query, axis=1)[:, -1]


def _oracle(index, dense_rows, query, n):
    """Dense reference search: sequential dot products, a full sort by
    (-score, clip id), positive scores only, then the first n.

    Columns where the query is zero add only +-0.0 to each running sum, so
    the sums run over the query's nonzero columns alone; that is ~100x
    cheaper at dim 4096, and test_oracle_sums_equal_full_width_sums checks
    it against :func:`_full_width_scores`.
    """
    support = np.flatnonzero(query)
    if not support.size:
        return []
    scores = _full_width_scores(dense_rows[:, support], query[support])
    ranked = sorted(
        zip(index.clip_refs, scores.tolist()), key=lambda item: (-item[1], item[0].clip_id)
    )
    return [(ref, score) for ref, score in ranked if score > 0][:n]


def _dense_embed(spec, text):
    """A registered embedder whose vectors are dense and partly negative."""
    hashed = embed_text(default_spec(spec.dim), text)
    if not hashed.any():
        return hashed
    vec = hashed + 0.05 * np.cos(np.arange(spec.dim) + len(text))
    return vec / np.linalg.norm(vec)


register_embedder("test-dense", _dense_embed)


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
        expected = embed_text(spec, "hello there friend")
        assert np.allclose(_dense_rows(index)[0], expected, atol=1e-12)

    def test_two_sentence_document_matches_mean_pool_oracle(self, spec):
        corpus = _corpus(_clip("a", 0, asr_text="hello there. goodbye now!"))
        index = build_index(corpus, Modality.ASR, spec)
        # Hand-rolled oracle: embed each sentence, average, re-normalize.
        v1 = embed_text(spec, "hello there")
        v2 = embed_text(spec, "goodbye now")
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
        assert index.modality is None

    def test_rows_keep_exactly_the_pooled_nonzeros(self, spec):
        corpus = _corpus(
            _clip("a", 0, asr_text="hello there. goodbye now!"),
            _clip("b", 0, asr_text="other content"),
        )
        index = build_index(corpus, Modality.ASR, spec)
        for i, clip in enumerate(corpus):
            vectors = [embed_text(spec, s) for s in split_sentences(clip.asr_text)]
            pooled = np.mean(vectors, axis=0)
            pooled = pooled / float(np.linalg.norm(pooled))
            lo, hi = index.indptr[i], index.indptr[i + 1]
            assert np.array_equal(index.buckets[lo:hi], np.flatnonzero(pooled))
            assert np.array_equal(index.weights[lo:hi], pooled[pooled != 0])

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
        assert ranked.depth == 10
        scores = [s for _, s in ranked.items]
        assert scores == sorted(scores, reverse=True)

    def test_query_sharing_no_bucket_returns_empty(self, spec):
        corpus = _corpus(
            _clip("a", 0, asr_text="alpha"),
            _clip("b", 0, asr_text="beta"),
        )
        index = build_index(corpus, Modality.ASR, spec)
        query = embed_text(spec, "zzz")
        stored = set(index.buckets.tolist())
        assert not stored & set(np.flatnonzero(query).tolist())
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
                score = float(sum(a * b for a, b in zip(query, vec)))
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
            vec = embed_text(index.embedder, query.text)
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

    def test_dense_embedder_stores_every_bucket(self):
        spec = EmbedderSpec("test-dense", 32)
        corpus = _corpus(_clip("a", 0, asr_text="alpha"), _clip("b", 0, asr_text="beta"))
        index = build_index(corpus, Modality.ASR, spec)
        assert list(np.diff(index.indptr)) == [32, 32]
        assert (index.weights < 0).any()


def _saved(tmp_path, spec):
    corpus = _corpus(
        _clip("a", 0, asr_text="first one. second part."),
        _clip("b", 0, asr_text="other content"),
    )
    path = tmp_path / "asr.idx"
    save_index(build_index(corpus, Modality.ASR, spec), path)
    return path


def _split(data):
    """(header dict, payload bytes) of an index file."""
    line, _, payload = data.partition(b"\n")
    return json.loads(line), payload


def _signed(header, payload):
    """Index file bytes for ``header`` and ``payload`` with a valid digest."""
    header = {k: v for k, v in header.items() if k != "sha256"}
    line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    header["sha256"] = hashlib.sha256(line + payload).hexdigest()
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload


def _first_entry(payload):
    """(offset of the first entry's buckets, of its weights, its nnz)."""
    id_len, nnz = struct.unpack_from("<II", payload, 0)
    return 8 + id_len, 8 + id_len + 4 * nnz, nnz


def _with_header(**changes):
    def corrupt(header, payload):
        return {**header, **changes}, payload

    return corrupt


def _set_bucket(position, value):
    def corrupt(header, payload):
        buckets_at, _, nnz = _first_entry(payload)
        at = buckets_at + 4 * (position % nnz)
        return header, payload[:at] + struct.pack("<I", value) + payload[at + 4 :]

    return corrupt


def _nan_weight(header, payload):
    _, weights_at, _ = _first_entry(payload)
    return header, payload[:weights_at] + struct.pack("<d", float("nan")) + payload[weights_at + 8 :]


class TestSerialization:
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
        assert loaded.clip_refs == index.clip_refs
        assert np.array_equal(loaded.indptr, index.indptr)
        assert np.array_equal(loaded.buckets, index.buckets)
        assert np.array_equal(loaded.weights, index.weights)
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

    def test_save_load_save_is_stable(self, tmp_path, spec):
        corpus = _corpus(_clip("a", 0, asr_text="alpha"))
        p1, p2 = tmp_path / "one.idx", tmp_path / "two.idx"
        save_index(build_index(corpus, Modality.ASR, spec), p1)
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
        header, payload = _split(path.read_bytes())
        assert header["version"] == 2
        assert path.read_bytes() == _signed(header, payload)
        index = load_index(path)
        assert header["nnz"] == len(index.buckets)
        _, weights_at, nnz = _first_entry(payload)
        assert nnz == index.indptr[1]
        assert payload[weights_at - 4 * nnz : weights_at] == index.buckets[:nnz].astype("<u4").tobytes()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_with_header(dim=256), "does not match embedder dim"),
            (_with_header(count=3), "runs past the end"),
            (_with_header(count=1), "bytes trail the last entry"),
            (_with_header(nnz=1), "header says 1"),
            (_with_header(source="audio"), "unknown source"),
            (lambda h, p: (h, p + b"\0"), "bytes trail the last entry"),
            (lambda h, p: (h, p[:-8]), "runs past the end"),
            (_set_bucket(0, 600), "increase within a row and stay below 512"),
            (_set_bucket(-1, 512), "increase within a row and stay below 512"),
            (_set_bucket(1, 0), "increase within a row"),
            (_nan_weight, "finite"),
        ],
    )
    def test_inconsistent_signed_files_rejected(self, tmp_path, spec, corrupt, message):
        path = _saved(tmp_path, spec)
        path.write_bytes(_signed(*corrupt(*_split(path.read_bytes()))))
        with pytest.raises(IndexingError, match=message):
            load_index(path)

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

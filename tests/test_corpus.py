"""Tests for the clip/query data model, corpus IO, and the synthetic generator."""

import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliproute.corpus import (
    ClipRecord,
    ClipRef,
    CorpusError,
    MODALITIES,
    Modality,
    corpus_to_jsonl,
    load_corpus,
    load_queries,
    normalize_text,
    parse_clip_id,
    queries_to_jsonl,
)
from cliproute.synth import generate_synthetic_corpus


class TestParseClipId:
    def test_leading_hyphen_video_id(self):
        ref = parse_clip_id("-A9zM1jeNfk__s0__e10")
        assert ref == ClipRef("-A9zM1jeNfk", 0, 10)

    def test_plain_id(self):
        assert parse_clip_id("v__s5__e15") == ClipRef("v", 5, 15)

    def test_end_not_after_start_rejected(self):
        with pytest.raises(CorpusError, match="end 10 <= start 10"):
            parse_clip_id("v__s10__e10")

    def test_video_id_containing_markers_splits_on_last(self):
        ref = parse_clip_id("x__s1__e2__s3__e4")
        assert ref == ClipRef("x__s1__e2", 3, 4)

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ("no-markers", "__e"),
            ("v__s1", "__e"),
            ("v__e9", "__s"),
            ("v__sX__e9", "non-integer start 'X'"),
            ("v__s1__eY", "non-integer end 'Y'"),
            ("v__s-2__e9", "negative start"),
            ("__s1__e2", "empty video id"),
            ("v__s05__e10", "non-canonical start '05'"),
            ("v__s0__e010", "non-canonical end '010'"),
            ("v__s+5__e10", "non-canonical start '+5'"),
            ("v__s 5__e10", "non-canonical start ' 5'"),
            ("v__s1_0__e20", "non-canonical start '1_0'"),
            ("v__s\u0665__e10", "non-canonical start '\u0665'"),
            ("v__s5__e10 ", "non-canonical end '10 '"),
        ],
    )
    def test_malformed_ids_name_the_offending_segment(self, bad, fragment):
        with pytest.raises(CorpusError, match=None) as excinfo:
            parse_clip_id(bad)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize(
        "clip_id",
        ["v__s0__e" + "9" * 5000, "v__s" + "9" * 5000 + "__e1"],
        ids=["long-end", "long-start"],
    )
    def test_boundary_past_the_int_digit_limit_names_the_id(self, clip_id):
        with pytest.raises(CorpusError) as excinfo:
            parse_clip_id(clip_id)
        assert str(excinfo.value) == f"clip id {clip_id!r} has a boundary too long to read"

    def test_round_trip_for_random_refs(self):
        rng = random.Random(7)
        charset = "abcXYZ019-__s__e"
        for _ in range(300):
            video = "".join(rng.choice(charset) for _ in range(rng.randint(1, 12)))
            start = rng.randint(0, 500)
            end = start + rng.randint(1, 120)
            try:
                ref = ClipRef(video, start, end)
            except CorpusError:
                continue  # charset can produce an empty-looking id; skip
            assert parse_clip_id(ref.clip_id) == ref

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        video=st.text(min_size=1, max_size=20),
        start=st.integers(0, 10**15),
        length=st.integers(1, 10**6),
    )
    def test_every_valid_ref_round_trips(self, video, start, length):
        ref = ClipRef(video, start, start + length)
        assert parse_clip_id(ref.clip_id) == ref

    @settings(derandomize=True, database=None, max_examples=600, deadline=None)
    @given(
        st.one_of(
            st.text(alphabet="_se0159+- \u0665x", max_size=16),
            st.builds(
                "{}__s{}__e{}".format,
                st.text(alphabet="_sex", min_size=1, max_size=4),
                st.text(alphabet="0159+-_ \u0665\u00b2", min_size=1, max_size=3),
                st.text(alphabet="0159+-_ \u0665\u00b2", min_size=1, max_size=3),
            ),
        )
    )
    def test_accepted_ids_are_canonical(self, s):
        try:
            ref = parse_clip_id(s)
        except CorpusError:
            return
        assert ref.clip_id == s

    @settings(derandomize=True, database=None, max_examples=600, deadline=None)
    @given(
        st.builds(
            "{}__s{}__e{}".format,
            st.text(alphabet="_sex0\n", min_size=0, max_size=8),
            st.text(alphabet="0159_sex", min_size=0, max_size=4),
            st.text(alphabet="0159_sex", min_size=0, max_size=4),
        )
    )
    def test_agrees_with_the_last_marker_split(self, s):
        # The regex that accepts valid ids must accept exactly the ids the
        # split on the last markers and its checks accept, with equal refs.
        head, _, end_part = s.rpartition("__e")
        video_id, _, start_part = head.rpartition("__s")
        canonical = [part.isascii() and part.isdigit() and str(int(part)) == part
                     for part in (start_part, end_part)]
        valid = bool(video_id) and all(canonical) and int(end_part) > int(start_part)
        if valid:
            assert parse_clip_id(s) == ClipRef(video_id, int(start_part), int(end_part))
        else:
            with pytest.raises(CorpusError):
                parse_clip_id(s)


class TestNormalizeText:
    def test_casing_and_punctuation(self):
        assert normalize_text("Anniversary Turtle Soup!") == "anniversary turtle soup"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_whitespace_collapse(self):
        assert normalize_text("A  B\tC") == "a b c"

    def test_idempotent_on_random_strings(self):
        rng = random.Random(11)
        charset = "aA zZ!?.,;:'\"-_\t\n09é"
        for _ in range(200):
            s = "".join(rng.choice(charset) for _ in range(rng.randint(0, 40)))
            once = normalize_text(s)
            assert normalize_text(once) == once


class TestClipRecord:
    def test_requires_one_modality_field(self):
        record = ClipRecord(ref=ClipRef("v", 0, 10), ocr_text="?!")
        with pytest.raises(CorpusError, match="no non-empty modality field"):
            record.validate()

    def test_fused_alone_does_not_count(self):
        record = ClipRecord(ref=ClipRef("v", 0, 10), fused_caption="something")
        with pytest.raises(CorpusError):
            record.validate()


def _write_corpus_lines(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


class TestLoadCorpus:
    def test_valid_two_line_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_corpus_lines(
            path,
            [
                {"clip_id": "v__s0__e10", "visual": "a cat"},
                {"clip_id": "v__s10__e20", "asr": "hello", "category": "news"},
            ],
        )
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert corpus.clips[ClipRef("v", 10, 20)].category == "news"

    def test_duplicate_clip_id_names_the_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_corpus_lines(
            path,
            [
                {"clip_id": "v__s0__e10", "visual": "a"},
                {"clip_id": "v__s0__e10", "visual": "b"},
            ],
        )
        with pytest.raises(CorpusError, match="line 2.*v__s0__e10"):
            load_corpus(path)

    def test_schema_violation_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_corpus_lines(
            path,
            [
                {"clip_id": "v__s0__e10", "visual": "a"},
                {"clip_id": "v__s10__e20", "visual": 42},
            ],
        )
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_invalid_json_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"clip_id": "v__s0__e10", "visual": "a"}\nnot json\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_null_and_absent_fields_are_equivalent(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_corpus_lines(
            path,
            [
                {"clip_id": "a__s0__e10", "visual": "x", "ocr": None},
                {"clip_id": "b__s0__e10", "visual": "x"},
            ],
        )
        corpus = load_corpus(path)
        clips = list(corpus)
        assert clips[0].ocr_text is None and clips[1].ocr_text is None

    def test_coverage_matches_independent_recount(self, tmp_path):
        rows = [
            {"clip_id": "v__s0__e10", "visual": "a", "ocr": "text one"},
            {"clip_id": "v__s10__e20", "visual": "b"},
            {"clip_id": "v__s20__e30", "visual": "c", "asr": "talk"},
        ]
        path = tmp_path / "c.jsonl"
        _write_corpus_lines(path, rows)
        corpus = load_corpus(path)
        # One-line scan oracle over the fixture rows.
        expected_ocr = sum(1 for r in rows if r.get("ocr")) / len(rows)
        coverage = corpus.coverage()
        assert coverage["ocr"] == expected_ocr == pytest.approx(1 / 3)
        assert coverage["visuals"] == 1.0
        assert coverage["asr"] == pytest.approx(1 / 3)


class TestLoadQueries:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "q.jsonl"
        rows = [
            {
                "query_id": "q1",
                "text": "who says hello",
                "gold_clip_id": "v__s0__e10",
                "source_modality": "asr",
                "category": "news",
            },
            {"query_id": "q2", "text": "anything", "gold_clip_id": "v__s10__e20"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        queries = load_queries(path)
        assert [q.query_id for q in queries] == ["q1", "q2"]
        assert queries[0].gold == ClipRef("v", 0, 10)
        assert queries[0].source_as_modality() is Modality.ASR
        assert queries[1].source_modality is None

    def test_dense_source_is_valid_but_not_routable(self, tmp_path):
        path = tmp_path / "q.jsonl"
        row = {
            "query_id": "q1",
            "text": "x",
            "gold_clip_id": "v__s0__e10",
            "source_modality": "dense",
        }
        path.write_text(json.dumps(row) + "\n")
        (query,) = load_queries(path)
        assert query.source_modality == "dense"
        assert query.source_as_modality() is None

    def test_unknown_source_label_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        row = {
            "query_id": "q1",
            "text": "x",
            "gold_clip_id": "v__s0__e10",
            "source_modality": "audio",
        }
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(CorpusError, match="line 1"):
            load_queries(path)

    @pytest.mark.parametrize(
        "field, value",
        [("source_modality", 5), ("category", ["a"]), ("category", 7)],
        ids=["int-source", "list-category", "int-category"],
    )
    def test_non_string_label_rejected(self, tmp_path, field, value):
        path = tmp_path / "q.jsonl"
        rows = [
            {"query_id": "q1", "text": "x", "gold_clip_id": "v__s0__e10"},
            {"query_id": "q2", "text": "y", "gold_clip_id": "v__s0__e10", field: value},
        ]
        _write_corpus_lines(path, rows)
        message = f"line 2: field '{field}' must be a string or null"
        with pytest.raises(CorpusError, match=message):
            load_queries(path)


class TestSyntheticGenerator:
    def test_counts(self):
        corpus, queries = generate_synthetic_corpus(1, 2, 3)
        assert len(corpus) == 6
        assert len(queries) == 18

    def test_same_seed_is_byte_identical(self):
        a_corpus, a_queries = generate_synthetic_corpus(1, 3, 4)
        b_corpus, b_queries = generate_synthetic_corpus(1, 3, 4)
        assert corpus_to_jsonl(a_corpus) == corpus_to_jsonl(b_corpus)
        assert queries_to_jsonl(a_queries) == queries_to_jsonl(b_queries)

    def test_different_seeds_differ(self):
        a_corpus, _ = generate_synthetic_corpus(1, 2, 2)
        b_corpus, _ = generate_synthetic_corpus(2, 2, 2)
        assert corpus_to_jsonl(a_corpus) != corpus_to_jsonl(b_corpus)

    def test_validation(self):
        with pytest.raises(CorpusError):
            generate_synthetic_corpus(1, 0, 3)
        with pytest.raises(CorpusError):
            generate_synthetic_corpus(1, 3, 0)

    def test_clips_are_contiguous_ten_second_segments(self):
        corpus, _ = generate_synthetic_corpus(5, 2, 4)
        by_video = {}
        for clip in corpus:
            by_video.setdefault(clip.ref.video_id, []).append(clip.ref)
        for refs in by_video.values():
            refs.sort(key=lambda r: r.start_s)
            for i, ref in enumerate(refs):
                assert ref.start_s == i * 10
                assert ref.end_s == ref.start_s + 10

    def test_planted_token_is_unique_under_exhaustive_scan(self):
        corpus, queries = generate_synthetic_corpus(1, 4, 3)
        for query in queries:
            # The planted token is the one repeated three times in the query.
            (token, count), = Counter(query.text.split()).most_common(1)
            assert count == 3
            holders = [
                clip.ref
                for clip in corpus
                if token in clip.text_for(query.source_modality).split()
            ]
            assert holders == [query.gold]

    def test_queries_carry_modality_cues_and_gold_category(self):
        corpus, queries = generate_synthetic_corpus(3, 2, 2)
        prefixes = {"asr": "who says", "ocr": "sign text", "visuals": "describe the scene"}
        for query in queries:
            assert query.text.startswith(prefixes[query.source_modality])
            assert query.category == corpus.clips[query.gold].category

    def test_full_coverage_of_all_fields(self):
        corpus, _ = generate_synthetic_corpus(9, 3, 2)
        coverage = corpus.coverage()
        assert all(coverage[s] == 1.0 for s in ("asr", "ocr", "visuals", "fused"))

    def test_every_modality_emits_one_query_per_clip(self):
        corpus, queries = generate_synthetic_corpus(2, 2, 2)
        per_clip = Counter((q.gold, q.source_modality) for q in queries)
        assert len(per_clip) == len(corpus) * len(MODALITIES)
        assert set(per_clip.values()) == {1}

    @pytest.mark.parametrize(
        "seed, videos, corpus_sha, queries_sha",
        [
            (
                1,
                200,
                "a4344fe69aea2bf9f771c3b3a1ffeb384a92f6baf2148ddc0063e771a8c3d5d4",
                "a207654802fabf594b6a205f07f2cb6143a0a9328cd910d927187737154718e3",
            ),
            (
                7,
                1000,
                "513ecc832c9d60edef4a9002ed7ca37e2cf6fe72ca8882858bdda104cabfad22",
                "63298de727661ae1b13b56e8c43a2aeb8b13462c79d2145e97a03310c9b3ea09",
            ),
        ],
    )
    def test_output_bytes_are_pinned(self, seed, videos, corpus_sha, queries_sha):
        corpus, queries = generate_synthetic_corpus(seed, videos, 5)
        assert hashlib.sha256(corpus_to_jsonl(corpus).encode("utf-8")).hexdigest() == corpus_sha
        assert hashlib.sha256(queries_to_jsonl(queries).encode("utf-8")).hexdigest() == queries_sha

    def test_generates_past_the_three_letter_token_space(self):
        # 18,000 tokens do not fit in the 26**3 three-letter words left
        # after the template and cue words.
        corpus, queries = generate_synthetic_corpus(7, 1200, 5)
        assert len(corpus) == 6000
        assert len(queries) == 18000

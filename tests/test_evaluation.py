"""Tests for graded relevance, retrieval metrics, routing stats, and the runner."""

import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliproute import cli, evaluation
from cliproute.corpus import (
    FUSED_SOURCE,
    ClipRecord,
    ClipRef,
    Corpus,
    MODALITIES,
    Modality,
    QueryRecord,
    normalize_text,
)
from cliproute.embed import default_spec, embed_text, is_zero
from cliproute.evaluation import (
    EvalError,
    EvalMethod,
    MethodKind,
    cost_reduction,
    graded_relevance,
    ndcg_at_k,
    recall_at_k,
    reciprocal_rank,
    retrieve,
    routing_stats,
    run_evaluation,
)
from cliproute.fusion import FusedItem, FusionMethod, fuse
from cliproute.index import build_fused_index, build_index, search
from cliproute.router import (
    ALL_CUE_WORDS,
    AllRouter,
    Origin,
    RouterConfig,
    RouterMode,
    RoutingDecision,
    make_router,
    rule_route,
)
from cliproute.synth import generate_synthetic_corpus


def _ref(video, start):
    return ClipRef(video, start, start + 10)


class TestGradedRelevance:
    def test_exact_match(self):
        assert graded_relevance(_ref("v", 0), _ref("v", 0)) == 1.0

    def test_boundary_at_ten_seconds_inclusive(self):
        assert graded_relevance(_ref("v", 10), _ref("v", 0)) == 0.5

    def test_just_past_boundary(self):
        assert graded_relevance(_ref("v", 11), _ref("v", 0)) == 0.0

    def test_different_video_never_partial(self):
        assert graded_relevance(_ref("w", 0), _ref("v", 0)) == 0.0

    def test_symmetric_window(self):
        rng = random.Random(5)
        for _ in range(100):
            a = _ref("v", rng.randrange(0, 100, 5))
            b = _ref("v", rng.randrange(0, 100, 5))
            if a == b:
                continue
            assert graded_relevance(a, b) == graded_relevance(b, a)


class TestNdcg:
    def test_gold_at_rank_one_with_adjacent_at_two_is_exactly_one(self):
        gold = _ref("v", 10)
        ranking = [gold, _ref("v", 20), _ref("x", 0), _ref("y", 0), _ref("z", 0)]
        assert ndcg_at_k(ranking, gold, 5) == pytest.approx(1.0, abs=1e-9)

    def test_gold_only_scores_known_constant(self):
        # Independent hand evaluation: 1 / (1 + (2^0.5 - 1) / log2(3)).
        expected = 1.0 / (1.0 + (2 ** 0.5 - 1.0) / math.log2(3.0))
        gold = _ref("v", 0)
        ranking = [gold, _ref("x", 0), _ref("y", 0), _ref("z", 0), _ref("w", 0)]
        value = ndcg_at_k(ranking, gold, 5)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.79279, abs=1e-4)

    def test_gold_absent_scores_zero(self):
        gold = _ref("v", 0)
        ranking = [_ref("x", 0), _ref("y", 0)]
        assert ndcg_at_k(ranking, gold, 5) == 0.0

    def test_bounded_in_unit_interval(self):
        rng = random.Random(8)
        videos = ["a", "b", "c"]
        for _ in range(200):
            gold = _ref(rng.choice(videos), rng.randrange(0, 50, 10))
            ranking = [
                _ref(rng.choice(videos), rng.randrange(0, 50, 10)) for _ in range(8)
            ]
            # Rankings from search never repeat a clip; drop duplicates.
            deduped = list(dict.fromkeys(ranking))
            value = ndcg_at_k(deduped, gold, 5)
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_k_one(self):
        gold = _ref("v", 0)
        assert ndcg_at_k([gold], gold, 1) == pytest.approx(1.0, abs=1e-12)

    def test_two_adjacent_clips_clamp_to_one(self):
        # Gold plus both ±10 s neighbors in the top 3 exceeds the fixed
        # ideal vector; the score clamps instead of leaving [0, 1].
        gold = _ref("v", 10)
        ranking = [gold, _ref("v", 0), _ref("v", 20)]
        assert ndcg_at_k(ranking, gold, 5) == 1.0


class TestRecallAndRr:
    def test_recall_boundaries(self):
        gold = _ref("v", 0)
        others = [_ref(f"x{i}", 0) for i in range(10)]
        at_rank_5 = others[:4] + [gold] + others[4:]
        at_rank_6 = others[:5] + [gold] + others[5:]
        assert recall_at_k(at_rank_5, gold, 5) == 1
        assert recall_at_k(at_rank_6, gold, 5) == 0

    def test_reciprocal_rank(self):
        gold = _ref("v", 0)
        assert reciprocal_rank([_ref("x", 0), gold], gold) == 0.5
        assert reciprocal_rank([_ref("x", 0)], gold) == 0.0

    def test_mean_rr_arithmetic(self):
        gold = _ref("v", 0)
        rankings = [[gold], [_ref("x", 0), gold], [_ref("x", 0)]]
        values = [reciprocal_rank(r, gold) for r in rankings]
        assert sum(values) / len(values) == pytest.approx(0.5, abs=1e-12)


#: Starts of clips adjacent to a gold clip that starts at 20 s (within 10 s),
#: and of one clip just past that window.
_ADJACENT_STARTS = (10, 12, 15, 20, 25, 30)
_NEAR_MISS_START = 31


@st.composite
def _ranking_case(draw, query_no):
    """A ranking for gold ``ClipRef(f"g{query_no}", 20, 30)``: the gold absent,
    at rank 1, 2-5, 6-10 or past 10, with 0-3 adjacent clips placed before it
    and 0-3 after it (anywhere when it is absent), among distractors."""
    video = f"g{query_no}"
    gold = ClipRef(video, 20, 30)
    gold_rank = draw(
        st.one_of(
            st.none(),
            st.just(1),
            st.integers(2, 5),
            st.integers(6, 10),
            st.integers(11, 40),
        )
    )
    fillers = draw(st.integers(0, 45))
    ranking = [ClipRef(f"x{query_no}_{i}", 0, 10) for i in range(max(fillers, gold_rank or 0))]
    if draw(st.booleans()):
        ranking.insert(draw(st.integers(0, len(ranking))), ClipRef(video, _NEAR_MISS_START, 41))
    adjacent = [
        ClipRef(video, start, start + 7)  # ends differ from the gold's
        for start in draw(st.permutations(_ADJACENT_STARTS))
    ]
    before, after = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if gold_rank is not None:
        ranking.insert(gold_rank - 1, gold)
    at = ranking.index(gold) if gold in ranking else None
    for ref in adjacent[:before]:
        position = draw(st.integers(0, at if at is not None else len(ranking)))
        ranking.insert(position, ref)
        at = at + 1 if at is not None else None
    for ref in adjacent[before : before + after]:
        low = at + 1 if at is not None else 0
        ranking.insert(draw(st.integers(low, len(ranking))), ref)
    return gold, ranking


@st.composite
def _ranking_cases(draw):
    return [draw(_ranking_case(i)) for i in range(draw(st.integers(1, 6)))]


class TestAggregation:
    """run_evaluation's one-scan aggregation against the per-metric oracles."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(cases=_ranking_cases())
    def test_report_fields_equal_the_oracle_sums(self, cases):
        queries = [
            QueryRecord(f"q{i:02d}", f"q{i:02d}", gold, category=("a", "b")[i % 2])
            for i, (gold, _) in enumerate(cases)
        ]
        corpus = Corpus.from_records([ClipRecord(ref=q.gold, visual_caption="x") for q in queries])
        rankings = {q.query_id: ranking for q, (_, ranking) in zip(queries, cases)}

        def fake_retrieve(searches, *_):
            ((_, text),) = searches
            return [FusedItem(ref, 1.0, {}) for ref in rankings[text]]

        method = EvalMethod(kind=MethodKind.SINGLE, modality=Modality.ASR)
        with mock.patch.object(evaluation, "retrieve", fake_retrieve):
            report = run_evaluation(corpus, list(reversed(queries)), method, {})

        sums = dict.fromkeys(["r1", "r5", "r10", "rr", "n5", "n10"], 0.0)
        for gold, ranking in cases:
            sums["r1"] += recall_at_k(ranking, gold, 1)
            sums["r5"] += recall_at_k(ranking, gold, 5)
            sums["r10"] += recall_at_k(ranking, gold, 10)
            sums["rr"] += reciprocal_rank(ranking, gold)
            sums["n5"] += ndcg_at_k(ranking, gold, 5)
            sums["n10"] += ndcg_at_k(ranking, gold, 10)
        n = len(cases)
        got = [
            report.recall_at_1, report.recall_at_5, report.recall_at_10,
            report.mrr, report.ndcg_at_5, report.ndcg_at_10,
        ]
        want = [sums[key] / n for key in ("r1", "r5", "r10", "rr", "n5", "n10")]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        for category in ("a", "b"):
            picked = [c for i, c in enumerate(cases) if ("a", "b")[i % 2] == category]
            if picked:
                r5 = sum(recall_at_k(ranking, gold, 5) for gold, ranking in picked) / len(picked)
                assert report.by_category[category].recall_at_5.hex() == r5.hex()


class TestCostReduction:
    def test_reported_operating_point(self):
        assert cost_reduction(1.78, 3) == pytest.approx(1.0 - 1.78 / 3.0, abs=1e-9)
        assert cost_reduction(1.78, 3) == pytest.approx(0.40667, abs=1e-4)

    def test_exhaustive_search_is_zero(self):
        assert cost_reduction(3.0, 3) == 0.0

    def test_single_modality_is_two_thirds(self):
        assert cost_reduction(1.0, 3) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_domain_validation(self):
        with pytest.raises(EvalError):
            cost_reduction(0.0, 3)
        with pytest.raises(EvalError):
            cost_reduction(3.5, 3)


def _decision(modalities, origin=Origin.RULE):
    return RoutingDecision(selections=[(m, "q") for m in modalities], origin=origin)


# Hand-computed six-query fixture. Per query: (gold source, selections).
#   1. ASR    [ASR]              hit, coverage 1, confusion ASR->ASR
#   2. ASR    [VISUAL, ASR]      hit, coverage 2, confusion ASR->VISUAL
#   3. OCR    [ASR, OCR]         hit, coverage 2, confusion OCR->ASR
#   4. OCR    [ASR]              miss, coverage 2, confusion OCR->ASR
#   5. VISUAL [VISUAL]           hit, coverage 1, confusion VISUAL->VISUAL
#   6. VISUAL [ASR, OCR, VISUAL] hit, coverage 3, confusion VISUAL->ASR
# hit_rate = 5/6; mean_selected = 10/6; coverage_error = 11/6
# micro-F1: tp=5, fp=5, fn=1 -> 2*5 / (2*5 + 5 + 1) = 0.625
SIX_QUERY_FIXTURE = [
    ("asr", [Modality.ASR]),
    ("asr", [Modality.VISUAL, Modality.ASR]),
    ("ocr", [Modality.ASR, Modality.OCR]),
    ("ocr", [Modality.ASR]),
    ("visuals", [Modality.VISUAL]),
    ("visuals", [Modality.ASR, Modality.OCR, Modality.VISUAL]),
]


class TestRoutingStats:
    def test_six_query_fixture_matches_hand_computation(self):
        decisions = [_decision(mods) for _, mods in SIX_QUERY_FIXTURE]
        sources = [source for source, _ in SIX_QUERY_FIXTURE]
        stats = routing_stats(decisions, sources)
        assert stats.hit_rate == pytest.approx(5 / 6, abs=1e-12)
        assert stats.mean_selected == pytest.approx(10 / 6, abs=1e-12)
        assert stats.micro_f1 == pytest.approx(0.625, abs=1e-12)
        assert stats.coverage_error == pytest.approx(11 / 6, abs=1e-12)
        assert stats.labeled_queries == 6
        assert stats.confusion == {
            "asr": {"asr": 0.5, "ocr": 0.0, "visuals": 0.5},
            "ocr": {"asr": 1.0, "ocr": 0.0, "visuals": 0.0},
            "visuals": {"asr": 0.5, "ocr": 0.0, "visuals": 0.5},
        }
        for row in stats.confusion.values():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)

    def test_perfect_router(self):
        decisions = [_decision([m]) for m in MODALITIES]
        sources = [m.wire for m in MODALITIES]
        stats = routing_stats(decisions, sources)
        assert stats.hit_rate == 1.0
        assert stats.micro_f1 == 1.0
        assert stats.coverage_error == 1.0
        for m in MODALITIES:
            assert stats.confusion[m.wire][m.wire] == 1.0

    def test_dense_counts_only_toward_mean_selected(self):
        decisions = [_decision([Modality.ASR]), _decision(list(MODALITIES))]
        stats = routing_stats(decisions, ["asr", "dense"])
        assert stats.labeled_queries == 1
        assert stats.hit_rate == 1.0
        assert stats.mean_selected == pytest.approx(2.0, abs=1e-12)

    def test_no_labeled_queries_reports_absent(self):
        decisions = [_decision([Modality.ASR])]
        assert routing_stats(decisions, [None]) is None
        assert routing_stats(decisions, ["dense"]) is None

    def test_coverage_uses_fixed_order_for_unselected(self):
        # gold VISUAL, selected [OCR]: order is OCR, then ASR, VISUAL.
        stats = routing_stats([_decision([Modality.OCR])], ["visuals"])
        assert stats.coverage_error == 3.0

    def test_parallel_length_mismatch_rejected(self):
        with pytest.raises(EvalError):
            routing_stats([_decision([Modality.ASR])], [])


@pytest.fixture(scope="module")
def small_run():
    corpus, queries = generate_synthetic_corpus(7, 6, 4)
    spec = default_spec()
    indices = {m.wire: build_index(corpus, m, spec) for m in MODALITIES}
    indices["fused"] = build_fused_index(corpus, spec)
    return corpus, queries, indices


def _routed(backend):
    return EvalMethod(
        kind=MethodKind.ROUTED,
        router=make_router(RouterConfig(backend=backend)),
        label=f"routed:{backend}",
    )


class TestRunEvaluation:
    def test_late_fusion_all_reports_exhaustive_cost(self, small_run):
        corpus, queries, indices = small_run
        report = run_evaluation(corpus, queries, EvalMethod(kind=MethodKind.LATE_FUSION_ALL), indices)
        assert report.mean_selected == 3.0
        assert report.cost_reduction == 0.0

    def test_single_modality_mean_is_one(self, small_run):
        corpus, queries, indices = small_run
        method = EvalMethod(kind=MethodKind.SINGLE, modality=Modality.ASR)
        report = run_evaluation(corpus, queries, method, indices)
        assert report.mean_selected == 1.0
        assert report.cost_reduction == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_oracle_router_is_perfect_on_synthetic(self, small_run):
        corpus, queries, indices = small_run
        report = run_evaluation(corpus, queries, _routed("oracle"), indices)
        assert report.recall_at_1 == 1.0
        assert report.ndcg_at_5 == pytest.approx(1.0, abs=1e-9)
        assert report.mrr == 1.0

    def test_rule_router_hits_gold_modality_on_synthetic(self, small_run):
        corpus, queries, indices = small_run
        report = run_evaluation(corpus, queries, _routed("rule"), indices)
        assert report.routing is not None
        assert report.routing.hit_rate == 1.0
        assert report.mean_selected < 3.0

    def test_monotone_recall_chain(self, small_run):
        corpus, queries, indices = small_run
        for method in (
            _routed("oracle"),
            _routed("rule"),
            _routed("all"),
            EvalMethod(kind=MethodKind.LATE_FUSION_ALL),
            EvalMethod(kind=MethodKind.SINGLE, modality=Modality.OCR),
            EvalMethod(kind=MethodKind.ALL_TEXT),
        ):
            report = run_evaluation(corpus, queries, method, indices)
            assert report.recall_at_1 <= report.recall_at_5 <= report.recall_at_10
            assert report.mrr >= report.recall_at_1
            for value in (
                report.recall_at_1,
                report.recall_at_5,
                report.recall_at_10,
                report.mrr,
                report.ndcg_at_5,
                report.ndcg_at_10,
            ):
                assert 0.0 <= value <= 1.0 + 1e-12

    def test_all_text_uses_fused_index_and_full_cost(self, small_run):
        corpus, queries, indices = small_run
        report = run_evaluation(corpus, queries, EvalMethod(kind=MethodKind.ALL_TEXT), indices)
        assert report.mean_selected == 3.0
        assert report.cost_reduction == 0.0
        assert report.routing is None
        assert report.recall_at_1 == 1.0

    def test_all_text_requires_fused_index(self, small_run):
        corpus, queries, indices = small_run
        pruned = {k: v for k, v in indices.items() if k != "fused"}
        with pytest.raises(EvalError, match="fused"):
            run_evaluation(corpus, queries, EvalMethod(kind=MethodKind.ALL_TEXT), pruned)

    def test_missing_modality_index_is_named(self, small_run):
        corpus, queries, indices = small_run
        pruned = {k: v for k, v in indices.items() if k != "ocr"}
        with pytest.raises(EvalError, match="'ocr'"):
            run_evaluation(corpus, queries, _routed("all"), pruned)

    def test_unresolvable_gold_is_an_error(self, small_run):
        corpus, _, indices = small_run
        ghost = QueryRecord(
            query_id="ghost", text="who says x", gold=ClipRef("nope", 0, 10)
        )
        with pytest.raises(EvalError, match="ghost"):
            run_evaluation(corpus, [ghost], _routed("rule"), indices)

    def test_unembeddable_query_scored_as_miss_and_flagged(self, small_run):
        corpus, _, indices = small_run
        gold = next(iter(corpus)).ref
        blank = QueryRecord(query_id="blank", text="?!...", gold=gold)
        report = run_evaluation(corpus, [blank], _routed("all"), indices)
        assert report.unembeddable_queries == 1
        assert report.recall_at_10 == 0.0

    def test_breakdowns_partition_the_query_set(self, small_run):
        corpus, queries, indices = small_run
        report = run_evaluation(corpus, queries, _routed("oracle"), indices)
        assert sum(r.n_queries for r in report.by_source.values()) == report.n_queries
        assert sum(r.n_queries for r in report.by_category.values()) == report.n_queries
        assert set(report.by_source) == {"asr", "ocr", "visuals"}

    def test_dense_queries_skip_routing_metrics_but_not_retrieval(self, small_run):
        corpus, queries, indices = small_run
        relabeled = [
            QueryRecord(
                query_id=q.query_id,
                text=q.text,
                gold=q.gold,
                source_modality="dense",
                category=q.category,
            )
            for q in queries[:6]
        ]
        report = run_evaluation(corpus, relabeled, _routed("all"), indices)
        assert report.routing is None
        assert report.n_queries == 6
        assert "dense" in report.by_source

    def test_report_is_deterministic_json(self, small_run):
        corpus, queries, indices = small_run
        a = run_evaluation(corpus, queries, _routed("rule"), indices)
        b = run_evaluation(corpus, queries, _routed("rule"), indices)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_rrf_fusion_path(self, small_run):
        corpus, queries, indices = small_run
        report = run_evaluation(
            corpus, queries, _routed("all"), indices, fusion_method=FusionMethod.RRF
        )
        assert report.n_queries == len(queries)

    def test_query_rewrites_flag_uses_optimized_queries(self, small_run):
        corpus, queries, indices = small_run

        class RewritingRouter:
            def route(self, query):
                return RoutingDecision(
                    selections=[(Modality.ASR, "nonsense rewrite")], origin=Origin.LLM
                )

        method = EvalMethod(kind=MethodKind.ROUTED, router=RewritingRouter(), label="rw")
        baseline = run_evaluation(corpus, queries, method, indices, use_rewrites=False)
        rewritten = run_evaluation(corpus, queries, method, indices, use_rewrites=True)
        # Routing-only evaluation keeps the original text, so gold still wins;
        # the nonsense rewrite destroys retrieval when the flag is on.
        assert baseline.recall_at_1 > rewritten.recall_at_1


@pytest.mark.parametrize("fusion", [FusionMethod.LINEAR, FusionMethod.RRF])
def test_late_fusion_all_is_exact_on_acceptance_corpus(acceptance_corpus, fusion):
    # Lists carry only positive-score clips, so clips that match nothing in
    # one modality cannot pad its list and outvote the gold clip in fusion.
    corpus, queries, indices = acceptance_corpus
    method = EvalMethod(kind=MethodKind.LATE_FUSION_ALL, label="late_fusion_all")
    report = run_evaluation(corpus, queries, method, indices, depth=50, fusion_method=fusion)
    assert report.recall_at_1 == 1.0
    assert report.ndcg_at_5 == 1.0


def _old_evaluation_refs(query, decision, indices, depth, method, rrf_k, use_rewrites):
    """The runner's rule before ``retrieve``: one vector per query unless
    rewriting, zero vectors skipped, a single list taken in its own order."""
    lists, default_vec = [], None
    for modality, optimized in decision.selections:
        index = indices[modality.wire]
        if use_rewrites:
            vec = embed_text(index.embedder, optimized)
        else:
            if default_vec is None:
                default_vec = embed_text(index.embedder, query.text)
            vec = default_vec
        if not is_zero(vec):
            lists.append(search(index, vec, depth))
    if not lists:
        return None
    if len(lists) == 1:
        return [ref for ref, _ in lists[0].items]
    return [item.ref for item in fuse(lists, method, depth, rrf_k)]


def _old_query_items(query, decision, indices, depth, method, rrf_k, use_rewrites):
    """``cliproute query``'s rule before ``retrieve``: embed per index, search
    every selection, fuse the non-empty lists."""
    lists = []
    for modality, optimized in decision.selections:
        index = indices[modality.wire]
        text = optimized if use_rewrites else query.text
        lists.append(search(index, embed_text(index.embedder, text), depth))
    non_empty = [ranked for ranked in lists if ranked.items]
    return fuse(non_empty, method, depth, rrf_k) if non_empty else []


def _old_all_text_refs(query, indices, depth):
    """The runner's ``all_text`` rule before ``retrieve``: embed for the
    fused index and take its list in its own order; None for a zero vector."""
    fused = indices[FUSED_SOURCE]
    vec = embed_text(fused.embedder, query.text)
    return None if is_zero(vec) else [ref for ref, _ in search(fused, vec, depth).items]


def _strip_cues(text):
    return " ".join(w for w in text.split() if normalize_text(w) not in ALL_CUE_WORDS)


def _parity_cases(queries):
    """(query, decision, use_rewrites) for rule, all and single decisions.

    Synthetic query tokens occur in one modality only, so each clip's three
    queries are also joined with their cue words removed: the rule router
    sends that text to all three indices, each of which finds the clip.
    """
    single = make_router(RouterConfig(mode=RouterMode.SINGLE))
    by_clip = {}
    for query in queries:
        by_clip.setdefault(query.gold, []).append(query)
    for group in list(by_clip.values())[::10]:
        texts = [q.text for q in group]
        joined = QueryRecord(group[0].query_id + "+", _strip_cues(" ".join(texts)), group[0].gold)
        for query in group[:1] + [joined]:
            yield query, rule_route(query.text), False
            yield query, AllRouter().route(query), False
            yield query, single.route(query), False
        rewrites = RoutingDecision(list(zip(MODALITIES, texts)), Origin.LLM)
        yield joined, rewrites, True
        # One text for two indices (embedded once) and one that embeds to zero.
        repeated = [(Modality.ASR, joined.text), (Modality.OCR, joined.text)]
        yield joined, RoutingDecision(repeated + [(Modality.VISUAL, "?!")], Origin.LLM), True
    blank = QueryRecord("blank", "?!", queries[0].gold)
    yield blank, rule_route(blank.text), False


@pytest.mark.parametrize("fusion", [FusionMethod.LINEAR, FusionMethod.RRF])
def test_retrieve_matches_both_paths_it_replaces(acceptance_corpus, fusion):
    _, queries, indices = acceptance_corpus
    seen = {"three-list": 0, "unembeddable": 0, "all_text unembeddable": 0}
    for query, decision, use_rewrites in _parity_cases(queries):
        args = (query, decision, indices, 50, fusion, 60.0, use_rewrites)
        items = retrieve(decision.searches(query.text, use_rewrites), indices, 50, fusion, 60.0)
        old_refs = _old_evaluation_refs(*args)
        assert (items is None) == (old_refs is None)
        assert [item.ref for item in items or ()] == (old_refs or [])
        old_items = _old_query_items(*args)
        assert [(i.ref, i.score, i.provenance) for i in items or ()] == [
            (i.ref, i.score, i.provenance) for i in old_items
        ]
        all_text = retrieve([(FUSED_SOURCE, query.text)], indices, 50, fusion, 60.0)
        old_all_text = _old_all_text_refs(query, indices, 50)
        assert (all_text is None) == (old_all_text is None)
        assert [item.ref for item in all_text or ()] == (old_all_text or [])
        seen["three-list"] += any(len(i.provenance) == 3 for i in items or ())
        seen["unembeddable"] += items is None
        seen["all_text unembeddable"] += all_text is None
    assert seen["three-list"] >= 300 and seen["unembeddable"] == 1
    assert seen["all_text unembeddable"] == 1


def test_retrieve_rejects_a_missing_index(acceptance_corpus):
    _, queries, indices = acceptance_corpus
    partial = {k: v for k, v in indices.items() if k != "ocr"}
    searches = AllRouter().route(queries[0]).searches(queries[0].text, False)
    with pytest.raises(EvalError, match="'ocr'"):
        retrieve(searches, partial, 50, FusionMethod.LINEAR, 60.0)


@pytest.mark.parametrize("spec", ["late_fusion_all", "single:asr", "all_text"])
def test_methods_built_by_kind_report_as_the_cli_parses_them(acceptance_corpus, spec):
    corpus, queries, indices = acceptance_corpus
    kind, _, modality = spec.partition(":")
    built = EvalMethod(kind=MethodKind(kind), modality=Modality.from_wire(modality), label=spec)
    parsed = cli._parse_method(spec, cli.RunConfig())
    built_report, parsed_report = (
        run_evaluation(corpus, queries[::7], method, indices).to_dict() for method in (built, parsed)
    )
    assert built_report == parsed_report

"""Tests for linear and reciprocal rank fusion."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliproute.corpus import INDEX_SOURCES, ClipRef, MODALITIES, Modality
from cliproute.fusion import FusionError, FusionMethod, fuse
from cliproute.index import RankedList


def _ref(i):
    return ClipRef(f"v{i:02d}", 0, 10)


def _ranked(modality, refs):
    items = [(ref, 1.0 - 0.01 * rank) for rank, ref in enumerate(refs)]
    return RankedList(source=modality, items=items)


def _refs(fused):
    return [item.ref for item in fused]


def brute_force_fuse(lists, method, n, k_const=60.0):
    """Independent oracle: materialize every clip's score from scratch."""
    table = {}
    for ranked in lists:
        for rank, (ref, _score) in enumerate(ranked.items, start=1):
            table.setdefault(ref, {})[ranked.source] = rank
    rows = []
    for ref, ranks in table.items():
        if method == "linear":
            score = float(sum(n - r for r in ranks.values()))
        else:
            score = float(sum(1.0 / (k_const + r) for r in ranks.values()))
        rows.append((ref, score, ranks))
    rows.sort(key=lambda row: (-row[1], min(row[2].values()), -len(row[2]), row[0].clip_id))
    return rows


class TestLinearFuse:
    def test_rank_arithmetic_example(self):
        # rank 1 in ASR and rank 3 in OCR at n=10: (10-1) + (10-3) = 16.
        asr = _ranked(Modality.ASR, [_ref(1), _ref(2), _ref(3)])
        ocr = _ranked(Modality.OCR, [_ref(4), _ref(5), _ref(1)])
        fused = fuse([asr, ocr], FusionMethod.LINEAR, 10)
        by_ref = {item.ref: item for item in fused}
        assert by_ref[_ref(1)].score == 16.0
        assert fused[0].ref == _ref(1)

    def test_single_list_preserves_order_and_scores(self):
        refs = [_ref(3), _ref(1), _ref(2)]
        fused = fuse([_ranked(Modality.ASR, refs)], FusionMethod.LINEAR, 10)
        assert _refs(fused) == refs
        assert [item.score for item in fused] == [9.0, 8.0, 7.0]

    def test_item_top_ranked_everywhere_is_first(self):
        lists = [_ranked(m, [_ref(0), _ref(i + 1)]) for i, m in enumerate(MODALITIES)]
        fused = fuse(lists, FusionMethod.LINEAR, 10)
        assert fused[0].ref == _ref(0)
        assert fused[0].score == 3 * 9.0

    def test_disjoint_lists_interleave_by_rank(self):
        asr = _ranked(Modality.ASR, [_ref(1), _ref(2)])
        ocr = _ranked(Modality.OCR, [_ref(3), _ref(4)])
        fused = fuse([asr, ocr], FusionMethod.LINEAR, 10)
        # Rank-1 items of all lists precede rank-2 items of any list.
        assert {item.ref for item in fused[:2]} == {_ref(1), _ref(3)}
        assert {item.ref for item in fused[2:]} == {_ref(2), _ref(4)}

    def test_permutation_invariance(self):
        asr = _ranked(Modality.ASR, [_ref(1), _ref(2), _ref(5)])
        ocr = _ranked(Modality.OCR, [_ref(2), _ref(3)])
        vis = _ranked(Modality.VISUAL, [_ref(5), _ref(1), _ref(3)])
        baseline = fuse([asr, ocr, vis], FusionMethod.LINEAR, 10)
        for perm in itertools.permutations([asr, ocr, vis]):
            assert _refs(fuse(list(perm), FusionMethod.LINEAR, 10)) == _refs(baseline)

    def test_provenance_reconstructs_score(self):
        asr = _ranked(Modality.ASR, [_ref(1), _ref(2), _ref(5)])
        vis = _ranked(Modality.VISUAL, [_ref(5), _ref(1)])
        fused = fuse([asr, vis], FusionMethod.LINEAR, 10)
        for item in fused:
            assert item.score == sum(10 - rank for rank in item.provenance.values())

    def test_depth_smaller_than_longest_list_rejected(self):
        ranked = _ranked(Modality.ASR, [_ref(i) for i in range(5)])
        with pytest.raises(FusionError, match="smaller than the longest list"):
            fuse([ranked], FusionMethod.LINEAR, 4)

    def test_empty_input_set_rejected(self):
        with pytest.raises(FusionError, match="at least one"):
            fuse([], FusionMethod.LINEAR, 10)

    def test_duplicate_modalities_rejected(self):
        a = _ranked(Modality.ASR, [_ref(1)])
        b = _ranked(Modality.ASR, [_ref(2)])
        with pytest.raises(FusionError, match="duplicate source"):
            fuse([a, b], FusionMethod.LINEAR, 10)

    def test_all_empty_lists_fuse_to_empty(self):
        lists = [_ranked(m, []) for m in MODALITIES]
        fused = fuse(lists, FusionMethod.LINEAR, 10)
        assert fused == []

    def test_provenance_wire_fills_nulls(self):
        asr = _ranked(Modality.ASR, [_ref(1)])
        fused = fuse([asr], FusionMethod.LINEAR, 10)
        assert fused[0].provenance_wire() == {"asr": 1, "ocr": None, "visuals": None}


class TestRrfFuse:
    def test_formula_instance(self):
        fused = fuse([_ranked(Modality.ASR, [_ref(1)])], FusionMethod.RRF, 10, 60)
        assert fused[0].score == pytest.approx(1.0 / 61.0, abs=1e-12)

    def test_single_list_preserves_order_for_any_k(self):
        refs = [_ref(2), _ref(3), _ref(1)]
        for k_const in (0.5, 10, 60, 1000):
            fused = fuse([_ranked(Modality.OCR, refs)], FusionMethod.RRF, 10, k_const)
            assert _refs(fused) == refs

    def test_invalid_constant_rejected(self):
        with pytest.raises(FusionError, match="positive"):
            fuse([_ranked(Modality.ASR, [_ref(1)])], FusionMethod.RRF, 10, 0)

    @pytest.mark.parametrize("k_const", [float("nan"), float("inf")])
    def test_non_finite_constant_rejected(self, k_const):
        with pytest.raises(FusionError, match="finite"):
            fuse([_ranked(Modality.ASR, [_ref(1)])], FusionMethod.RRF, 10, k_const)

    def test_provenance_reconstructs_score(self):
        asr = _ranked(Modality.ASR, [_ref(1), _ref(2)])
        ocr = _ranked(Modality.OCR, [_ref(2), _ref(3)])
        fused = fuse([asr, ocr], FusionMethod.RRF, 10, 60)
        for item in fused:
            expected = sum(1.0 / (60 + rank) for rank in item.provenance.values())
            assert item.score == pytest.approx(expected, abs=1e-15)


def _random_instance(rng):
    n = rng.randint(2, 10)
    pool = [_ref(i) for i in range(rng.randint(1, 30))]
    n_lists = rng.randint(1, 3)
    modalities = rng.sample(list(MODALITIES), n_lists)
    lists = []
    for modality in modalities:
        size = rng.randint(0, min(n, len(pool)))
        refs = rng.sample(pool, size)
        lists.append(_ranked(modality, refs))
    return lists, n


def _assert_matches_oracle(fused, oracle):
    assert _refs(fused) == [ref for ref, _, _ in oracle]
    assert [i.score for i in fused] == [s for _, s, _ in oracle]
    assert [i.provenance for i in fused] == [ranks for _, _, ranks in oracle]


class TestOracleEquivalence:
    def test_linear_matches_brute_force_on_random_instances(self):
        rng = random.Random(1234)
        for _ in range(200):
            lists, n = _random_instance(rng)
            fused = fuse(lists, FusionMethod.LINEAR, n)
            _assert_matches_oracle(fused, brute_force_fuse(lists, "linear", n))

    def test_rrf_matches_brute_force_on_random_instances(self):
        rng = random.Random(4321)
        for _ in range(200):
            lists, n = _random_instance(rng)
            fused = fuse(lists, FusionMethod.RRF, n, 60.0)
            _assert_matches_oracle(fused, brute_force_fuse(lists, "rrf", n, k_const=60.0))


@st.composite
def _fusion_instances(draw):
    """1-4 lists from distinct index sources over a small shared pool, so
    items overlap and scores tie."""
    n = draw(st.integers(1, 12))
    pool = [_ref(i) for i in range(draw(st.integers(1, 15)))]
    sources = draw(st.permutations(list(INDEX_SOURCES)))[: draw(st.integers(1, 4))]
    lists = []
    for source in sources:
        refs = draw(st.lists(st.sampled_from(pool), max_size=min(n, len(pool)), unique=True))
        lists.append(_ranked(source, refs))
    return lists, n


class TestOracleProperty:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        instance=_fusion_instances(),
        method=st.sampled_from(list(FusionMethod)),
        rrf_k=st.floats(0.01, 1000.0),
    )
    def test_fuse_matches_brute_force(self, instance, method, rrf_k):
        lists, n = instance
        fused = fuse(lists, method, n, rrf_k)
        _assert_matches_oracle(fused, brute_force_fuse(lists, method.value, n, k_const=rrf_k))


class TestDispatch:
    def test_fuse_dispatches_by_method(self):
        lists = [_ranked(Modality.ASR, [_ref(1), _ref(2)])]
        assert fuse(lists, FusionMethod.LINEAR, 10)[0].score == 9.0
        assert fuse(lists, FusionMethod.RRF, 10, 60.0)[0].score == 1.0 / 61.0

    @pytest.mark.parametrize("method", list(FusionMethod))
    def test_wire_names_fuse_as_their_methods(self, method):
        lists = [
            _ranked(Modality.ASR, [_ref(1), _ref(2)]),
            _ranked(Modality.OCR, [_ref(2), _ref(3)]),
        ]
        assert fuse(lists, method.value, 10) == fuse(lists, method, 10)

    @pytest.mark.parametrize("method", ["bogus", "LINEAR", "", None])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(FusionError, match="unknown fusion method"):
            fuse([_ranked(Modality.ASR, [_ref(1)])], method, 10)

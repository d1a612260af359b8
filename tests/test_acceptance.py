"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each criterion prints a labeled PASS line once its assertions hold, so
``pytest tests/test_acceptance.py -v -s`` gives one line per criterion.
The end-to-end criteria share a module-scoped fixture that runs the full
CLI pipeline twice (seed 1, 200 videos x 5 clips, depth 50) with network
access blocked at the socket layer.
"""

import json
import math
import random
import socket
import time

import pytest

from cliproute.cli import EXIT_OK, main
from cliproute.corpus import ClipRef, MODALITIES, Modality, load_queries
from cliproute.evaluation import cost_reduction, graded_relevance, ndcg_at_k, routing_stats
from cliproute.fusion import FusionMethod, fuse
from cliproute.index import RankedList
from cliproute.router import (
    Origin,
    RoutingDecision,
    parse_router_response,
    rule_route,
)

SEED = 1
VIDEOS = 200
CLIPS_PER_VIDEO = 5
DEPTH = 50
METHODS = "routed:oracle,routed:rule,late_fusion_all,single:asr"


def _ref(i):
    return ClipRef(f"v{i:02d}", 0, 10)


def _ranked(modality, refs):
    items = [(ref, 1.0 - 0.01 * r) for r, ref in enumerate(refs)]
    return RankedList(source=modality, items=items)


def _refs(fused):
    return [item.ref for item in fused]


def _brute_force(lists, method, n, k_const=60.0):
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
    return [ref for ref, _, _ in rows]


def test_criterion_1_fusion_oracle_equivalence():
    rng = random.Random(2024)
    started = time.perf_counter()
    for _ in range(200):
        n = rng.randint(2, 10)
        pool = [_ref(i) for i in range(rng.randint(1, 30))]
        modalities = rng.sample(list(MODALITIES), rng.randint(1, 3))
        lists = []
        for modality in modalities:
            refs = rng.sample(pool, rng.randint(0, min(n, len(pool))))
            lists.append(_ranked(modality, refs))
        linear = fuse(lists, FusionMethod.LINEAR, n)
        rrf = fuse(lists, FusionMethod.RRF, n, 60.0)
        assert _refs(linear) == _brute_force(lists, "linear", n)
        assert _refs(rrf) == _brute_force(lists, "rrf", n)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS - fusion matches brute-force oracle on 200 instances ({elapsed:.2f}s)")


def test_criterion_2_linear_fusion_spot_values():
    asr = _ranked(Modality.ASR, [_ref(1), _ref(2), _ref(3)])
    ocr = _ranked(Modality.OCR, [_ref(4), _ref(5), _ref(1)])
    fused = fuse([asr, ocr], FusionMethod.LINEAR, 10)
    scores = {item.ref: item.score for item in fused}
    assert scores[_ref(1)] == 16.0

    refs = [_ref(9), _ref(4), _ref(7)]
    single = fuse([_ranked(Modality.VISUAL, refs)], FusionMethod.LINEAR, 10)
    assert _refs(single) == refs
    print("ACCEPTANCE 2 PASS - rank-1 + rank-3 at n=10 scores 16; single list preserves order")


def test_criterion_3_graded_relevance_boundary():
    assert graded_relevance(ClipRef("v", 10, 20), ClipRef("v", 0, 10)) == 0.5
    assert graded_relevance(ClipRef("v", 11, 21), ClipRef("v", 0, 10)) == 0.0
    gold = ClipRef("v", 0, 10)
    assert graded_relevance(gold, gold) == 1.0
    print("ACCEPTANCE 3 PASS - graded relevance boundary: 10s -> 0.5, 11s -> 0.0, exact -> 1.0")


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_e2e")
    real_socket = socket.socket

    def _blocked(*args, **kwargs):
        raise AssertionError("network access attempted during acceptance run")

    socket.socket = _blocked
    runs = []
    first_run_seconds = None
    try:
        for name in ("run1", "run2"):
            run_dir = root / name
            run_dir.mkdir()
            corpus = run_dir / "corpus.jsonl"
            queries = run_dir / "queries.jsonl"
            index_dir = run_dir / "indices"
            report = run_dir / "report.json"
            started = time.perf_counter()
            assert main(
                [
                    "gen-corpus",
                    "--videos", str(VIDEOS),
                    "--clips-per-video", str(CLIPS_PER_VIDEO),
                    "--seed", str(SEED),
                    "--corpus", str(corpus),
                    "--queries", str(queries),
                ]
            ) == EXIT_OK
            assert main(
                [
                    "build-index",
                    "--corpus", str(corpus),
                    "--index-dir", str(index_dir),
                ]
            ) == EXIT_OK
            assert main(
                [
                    "evaluate",
                    "--queries", str(queries),
                    "--index-dir", str(index_dir),
                    "--depth", str(DEPTH),
                    "--methods", METHODS,
                    "--out", str(report),
                ]
            ) == EXIT_OK
            elapsed = time.perf_counter() - started
            if first_run_seconds is None:
                first_run_seconds = elapsed
            runs.append(
                {
                    "dir": run_dir,
                    "corpus": corpus,
                    "queries": queries,
                    "index_dir": index_dir,
                    "report": report,
                }
            )
    finally:
        socket.socket = real_socket

    document = json.loads(runs[0]["report"].read_text())
    reports = {r["method"]: r for r in document["reports"]}
    return {"runs": runs, "reports": reports, "first_run_seconds": first_run_seconds}


def test_criterion_4_ndcg_oracle(e2e):
    gold = ClipRef("v", 0, 10)
    alone = [gold] + [ClipRef(f"x{i}", 0, 10) for i in range(4)]
    value = ndcg_at_k(alone, gold, 5)
    # Hand-evaluated oracle: 1 / (1 + (2^0.5 - 1) / log2 3).
    assert value == pytest.approx(1.0 / (1.0 + (2 ** 0.5 - 1.0) / math.log2(3.0)), abs=1e-12)
    assert value == pytest.approx(0.79279, abs=1e-4)

    adjacent = [gold, ClipRef("v", 10, 20)] + [ClipRef(f"x{i}", 0, 10) for i in range(3)]
    assert ndcg_at_k(adjacent, gold, 5) == pytest.approx(1.0, abs=1e-9)

    for method, report in e2e["reports"].items():
        assert report["recall_at_1"] <= report["recall_at_5"] <= report["recall_at_10"], method
    print(
        "ACCEPTANCE 4 PASS - NDCG@5 gold-only 0.79279+-1e-4, gold+adjacent 1.0+-1e-9, "
        "recall chain monotone on every report"
    )


def test_criterion_5_cost_model(e2e):
    value = cost_reduction(1.78, 3)
    # 0.40667 is 1 - 1.78/3 printed to five decimals; assert the exact value
    # at 1e-9 and the printed form at its own precision.
    assert value == pytest.approx(1.0 - 1.78 / 3.0, abs=1e-9)
    assert value == pytest.approx(0.40667, abs=1e-4)
    assert e2e["reports"]["late_fusion_all"]["cost_reduction"] == 0.0
    assert e2e["reports"]["single:asr"]["cost_reduction"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    print("ACCEPTANCE 5 PASS - cost model: 1-1.78/3 at 1e-9; late fusion 0; single 2/3")


def test_criterion_6_end_to_end_synthetic_run(e2e):
    queries = load_queries(e2e["runs"][0]["queries"])
    assert len(queries) == 3000

    oracle = e2e["reports"]["routed:oracle"]
    assert oracle["n_queries"] == 3000
    assert oracle["recall_at_1"] == 1.0
    assert oracle["ndcg_at_5"] == pytest.approx(1.0, abs=1e-9)

    rule = e2e["reports"]["routed:rule"]
    assert rule["routing"]["hit_rate"] == 1.0
    assert rule["mean_selected"] < 3.0

    assert e2e["first_run_seconds"] < 180.0
    print(
        "ACCEPTANCE 6 PASS - 200x5 synthetic run: oracle R@1=1.0 NDCG@5=1.0, rule "
        f"hit_rate=1.0 mean={rule['mean_selected']:.3f}, {e2e['first_run_seconds']:.1f}s, "
        "no network (sockets blocked)"
    )


def test_criterion_7_routing_stats_fixture():
    fixture = [
        ("asr", [Modality.ASR]),
        ("asr", [Modality.VISUAL, Modality.ASR]),
        ("ocr", [Modality.ASR, Modality.OCR]),
        ("ocr", [Modality.ASR]),
        ("visuals", [Modality.VISUAL]),
        ("visuals", [Modality.ASR, Modality.OCR, Modality.VISUAL]),
    ]
    decisions = [
        RoutingDecision(selections=[(m, "q") for m in mods], origin=Origin.RULE)
        for _, mods in fixture
    ]
    stats = routing_stats(decisions, [source for source, _ in fixture])
    assert stats.hit_rate == 5 / 6
    assert stats.micro_f1 == 2 * 5 / (2 * 5 + 5 + 1)
    assert stats.coverage_error == 11 / 6
    assert stats.confusion == {
        "asr": {"asr": 0.5, "ocr": 0.0, "visuals": 0.5},
        "ocr": {"asr": 1.0, "ocr": 0.0, "visuals": 0.0},
        "visuals": {"asr": 0.5, "ocr": 0.0, "visuals": 0.5},
    }
    for row in stats.confusion.values():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
    print("ACCEPTANCE 7 PASS - six-query fixture reproduces hit rate, micro-F1, coverage, confusion")


def test_criterion_8_parser_robustness():
    noisy = [
        '{"ocr": "protest sign text"}',
        "{}",
        'Sure! ```json {"asr": "x", "visuals": "y"} ```',
        "I could not decide.",
        '{"ASR": "case insensitive"}',
        '```\n{"visuals": "scenic shot", "mood": "happy"}\n```',
        '{"asr": 42, "ocr": "still works"}',
        "[1, 2, 3]",
        'prefix {"ocr": "embedded"} suffix',
        '{"asr": "unterminated',
    ]
    malformed = {1, 3, 7, 9}
    for i, raw in enumerate(noisy):
        decision = parse_router_response(raw, "original query")
        assert 1 <= len(decision.selections) <= 3
        if i in malformed:
            assert decision.origin is Origin.FALLBACK_ALL
            assert decision.modalities == list(MODALITIES)
    print("ACCEPTANCE 8 PASS - 10 noisy transcripts parse without exceptions; malformed -> fallback-all")


def test_criterion_9_determinism(e2e):
    run1, run2 = e2e["runs"]
    assert run1["report"].read_bytes() == run2["report"].read_bytes()
    index_names = sorted(p.name for p in run1["index_dir"].iterdir())
    assert index_names == ["asr.idx", "fused.idx", "ocr.idx", "visuals.idx"]
    for name in index_names:
        assert (run1["index_dir"] / name).read_bytes() == (run2["index_dir"] / name).read_bytes()
    print("ACCEPTANCE 9 PASS - repeated run: report JSON and all index files byte-identical")


def test_criterion_10_routing_examples_include_expected_modality():
    cases = [
        ("Who says 'I'm not going anywhere' at the end?", Modality.ASR),
        ("What phrase appears on the protest sign?", Modality.OCR),
        ("Describe the color and shape of the vehicle", Modality.VISUAL),
        ("A man is walking down a street in a city", Modality.VISUAL),
    ]
    for text, expected in cases:
        decision = rule_route(text)
        assert expected in decision.modalities, text
    print("ACCEPTANCE 10 PASS - all four routing examples include the expected modality")

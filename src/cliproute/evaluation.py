"""Retrieval-quality and routing-quality metrics plus the evaluation runner.

Relevance is graded: the exact gold clip scores 1.0 and same-video clips
within ten seconds score 0.5. NDCG normalizes against the fixed ideal
relevance vector [1.0, 0.5, 0, ...] regardless of whether an adjacent clip
exists, so a ranking that finds only the exact gold tops out near 0.793;
reports carry that note in their legend. Routing quality covers hit rate,
mean selected modalities, micro-F1, coverage error, and the single-modality
confusion matrix. Query cost is modeled as the mean number of index
searches per query relative to exhaustive three-modality search.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Container, Mapping, Optional, Sequence

from .corpus import FUSED_SOURCE, ClipRef, MODALITIES, Modality, QueryRecord
from .embed import embed_text, is_zero
from .fusion import FusionMethod, DEFAULT_RRF_K, FusedItem, fuse
from .index import DEFAULT_DEPTH, ModalityIndex, search
from .router import AllRouter, Router, RoutingDecision, constrain_single

TOTAL_MODALITIES = 3

NDCG_LEGEND = (
    "ndcg uses the fixed ideal relevance vector [1.0, 0.5, 0, ...]; a ranking "
    "containing only the exact gold clip scores ~0.793 at cutoff 5."
)


class EvalError(RuntimeError):
    """Raised for unusable evaluation inputs (missing index, unresolvable gold)."""


def graded_relevance(candidate: ClipRef, gold: ClipRef) -> float:
    """1.0 for the gold clip, 0.5 for same-video clips within 10 s, else 0.

    Temporal distance is measured between clip starts; the 10 s boundary is
    inclusive.
    """
    if candidate == gold:
        return 1.0
    if candidate.video_id == gold.video_id and abs(candidate.start_s - gold.start_s) <= 10:
        return 0.5
    return 0.0


#: Ideal relevance prefix: the gold clip followed by one adjacent clip.
_IDEAL_RELS = (1.0, 0.5)


def _gain(rank: int, rel: float) -> float:
    return (2.0 ** rel - 1.0) / math.log2(rank + 1)


def _dcg(rels: Sequence[float]) -> float:
    return sum(_gain(rank, rel) for rank, rel in enumerate(rels, start=1))


def ndcg_at_k(ranking: Sequence[ClipRef], gold: ClipRef, k: int) -> float:
    """Graded-relevance NDCG against the fixed ideal vector.

    Because the ideal vector is fixed rather than corpus-derived, a ranking
    holding the gold plus two adjacent clips in the top k would push the
    raw ratio past 1; it is clamped so scores stay in [0, 1].
    """
    if k < 1:
        raise EvalError(f"ndcg cutoff must be >= 1, got {k}")
    rels = [graded_relevance(ref, gold) for ref in ranking[:k]]
    idcg = _dcg(_IDEAL_RELS[:k])
    return min(1.0, _dcg(rels) / idcg)


def recall_at_k(ranking: Sequence[ClipRef], gold: ClipRef, k: int) -> int:
    """1 iff the exact gold clip appears within the top k."""
    if k < 1:
        raise EvalError(f"recall cutoff must be >= 1, got {k}")
    return int(any(ref == gold for ref in ranking[:k]))


def reciprocal_rank(ranking: Sequence[ClipRef], gold: ClipRef) -> float:
    """1/rank of the first exact gold occurrence, 0 when absent."""
    for rank, ref in enumerate(ranking, start=1):
        if ref == gold:
            return 1.0 / rank
    return 0.0


def cost_reduction(mean_selected: float, total_modalities: int = TOTAL_MODALITIES) -> float:
    """Fraction of index searches saved versus exhaustive search."""
    if not 0 < mean_selected <= total_modalities:
        raise EvalError(
            f"mean_selected must be in (0, {total_modalities}], got {mean_selected}"
        )
    return 1.0 - mean_selected / total_modalities


@dataclass
class RoutingStats:
    """Routing-correctness metrics over labeled (routable-source) queries."""

    hit_rate: float
    mean_selected: float
    micro_f1: float
    coverage_error: float
    #: Row-stochastic matrix keyed by wire names: true modality ->
    #: predicted single modality. Rows with no queries are all zero.
    confusion: dict[str, dict[str, float]]
    labeled_queries: int


def _coverage_position(decision: RoutingDecision, gold: Modality) -> int:
    """1-based position of gold in the decision's total modality order."""
    order = decision.modalities + [m for m in MODALITIES if m not in decision.modalities]
    return order.index(gold) + 1


def routing_stats(
    decisions: Sequence[RoutingDecision],
    sources: Sequence[Optional[str]],
) -> Optional[RoutingStats]:
    """Compute routing metrics from parallel decision/source-label lists.

    Queries with dense or absent source labels count toward mean_selected
    but are excluded from hit rate, micro-F1, coverage error, and the
    confusion matrix. With no labeled queries at all the stats are absent.
    """
    if len(decisions) != len(sources):
        raise EvalError("decisions and sources must be parallel sequences")
    if not decisions:
        return None
    mean_selected = sum(len(d.selections) for d in decisions) / len(decisions)

    labeled = [
        (d, gold)
        for d, s in zip(decisions, sources)
        if s is not None and (gold := Modality.from_wire(s)) is not None
    ]
    if not labeled:
        return None

    hits = 0
    tp = fp = fn = 0
    coverage_total = 0
    counts = {row: {col: 0 for col in MODALITIES} for row in MODALITIES}
    for decision, gold in labeled:
        selected = set(decision.modalities)
        if gold in selected:
            hits += 1
            tp += 1
            fp += len(selected) - 1
        else:
            fn += 1
            fp += len(selected)
        coverage_total += _coverage_position(decision, gold)
        counts[gold][constrain_single(decision)] += 1

    micro_f1 = (2 * tp / (2 * tp + fp + fn)) if (2 * tp + fp + fn) else 0.0
    confusion: dict[str, dict[str, float]] = {}
    for row in MODALITIES:
        row_total = sum(counts[row].values())
        confusion[row.wire] = {
            col.wire: (counts[row][col] / row_total if row_total else 0.0)
            for col in MODALITIES
        }
    return RoutingStats(
        hit_rate=hits / len(labeled),
        mean_selected=mean_selected,
        micro_f1=micro_f1,
        coverage_error=coverage_total / len(labeled),
        confusion=confusion,
        labeled_queries=len(labeled),
    )


class MethodKind(str, Enum):
    ROUTED = "routed"
    ALL_TEXT = "all_text"
    LATE_FUSION_ALL = "late_fusion_all"
    SINGLE = "single"


@dataclass
class EvalMethod:
    """One evaluation configuration: how queries pick their indices."""

    kind: MethodKind
    modality: Optional[Modality] = None  # SINGLE only
    router: Optional[Router] = None  # given for ROUTED; None only for ALL_TEXT
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind is MethodKind.SINGLE:
            if self.modality is None:
                raise EvalError("single-modality method requires a modality")
            self.router = AllRouter((self.modality,))
        elif self.kind is MethodKind.LATE_FUSION_ALL:
            self.router = AllRouter()
        elif self.kind is MethodKind.ROUTED and self.router is None:
            raise EvalError("routed method requires a router")
        if not self.label:
            suffix = ""
            if self.kind is MethodKind.SINGLE:
                suffix = f":{self.modality.wire}"
            self.label = self.kind.value + suffix


@dataclass
class BreakdownRow:
    n_queries: int
    recall_at_5: float
    mean_selected: float


@dataclass
class EvalReport:
    """All retrieval and routing metrics for one method."""

    method: str
    n_queries: int
    recall_at_1: float
    recall_at_5: float
    recall_at_10: float
    mrr: float
    ndcg_at_5: float
    ndcg_at_10: float
    mean_selected: float
    cost_reduction: float
    routing: Optional[RoutingStats]
    unembeddable_queries: int
    #: How the report was made: run_evaluation's retrieval arguments.
    fusion: str
    rrf_k: float
    depth: int
    use_rewrites: bool
    by_source: dict[str, BreakdownRow] = field(default_factory=dict)
    by_category: dict[str, BreakdownRow] = field(default_factory=dict)
    legend: str = NDCG_LEGEND

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class _QueryOutcome:
    query: QueryRecord
    ranking: list[ClipRef]
    selected_count: float
    decision: Optional[RoutingDecision]
    unembeddable: bool


def retrieve(
    searches: Sequence[tuple[str, str]],
    indices: Mapping[str, ModalityIndex],
    depth: int,
    fusion_method: FusionMethod,
    rrf_k: float,
) -> Optional[list[FusedItem]]:
    """Search each (index source, text) pair and fuse the non-empty ranked lists.

    ``cliproute query`` and every evaluation method retrieve through here.
    Each distinct text is embedded once, by the first index that needs it;
    empty vectors are not searched. Returns None when every text embeds to
    an empty vector.
    """
    vectors, lists = {}, []
    for source, text in searches:
        index = indices.get(source)
        if index is None:
            raise EvalError(f"missing index for source {source!r}")
        vec = vectors.get(text)
        if vec is None:
            vec = vectors[text] = embed_text(index.embedder, text)
        if is_zero(vec):
            continue
        ranked = search(index, vec, depth)
        if ranked.items:
            lists.append(ranked)
    if not lists:
        return None if all(map(is_zero, vectors.values())) else []
    return fuse(lists, fusion_method, depth, rrf_k)


def _rank_for_query(
    query: QueryRecord,
    method: EvalMethod,
    indices: Mapping[str, ModalityIndex],
    depth: int,
    fusion_method: FusionMethod,
    rrf_k: float,
    use_rewrites: bool,
) -> _QueryOutcome:
    if method.router is None:  # all_text
        # All-text accounting treats the fused caption as consuming all
        # three modalities' content, matching its exhaustive upper-bound
        # role, even though one physical index is searched.
        decision, searches = None, [(FUSED_SOURCE, query.text)]
        selected = float(TOTAL_MODALITIES)
    else:
        decision = method.router.route(query)
        searches = decision.searches(query.text, use_rewrites)
        selected = float(len(searches))
    items = retrieve(searches, indices, depth, fusion_method, rrf_k)
    refs = [item.ref for item in items or ()]
    return _QueryOutcome(query, refs, selected, decision, items is None)


def _gold_rank_and_gains(
    ranking: Sequence[ClipRef], gold: ClipRef
) -> tuple[float, list[tuple[int, float]]]:
    """The gold's first 1-based rank at any depth (inf when absent), and the
    (rank, DCG gain) of each relevant clip in the top 10, in rank order."""
    gains, gold_rank = [], math.inf
    for rank, ref in enumerate(ranking[:10], start=1):
        rel = graded_relevance(ref, gold)
        if rel:
            gains.append((rank, _gain(rank, rel)))
            if rel == 1.0 and gold_rank == math.inf:
                gold_rank = rank
    if gold_rank == math.inf:
        try:
            gold_rank = ranking.index(gold, 10) + 1
        except ValueError:
            pass
    return gold_rank, gains


def run_evaluation(
    clips: Container[ClipRef],
    queries: Sequence[QueryRecord],
    method: EvalMethod,
    indices: Mapping[str, ModalityIndex],
    *,
    depth: int = DEFAULT_DEPTH,
    fusion_method: FusionMethod = FusionMethod.LINEAR,
    rrf_k: float = DEFAULT_RRF_K,
    use_rewrites: bool = False,
) -> EvalReport:
    """Evaluate one method over a query set.

    A query whose gold is not in ``clips`` raises :class:`EvalError`;
    ``cliproute evaluate`` passes the golds that some loaded index holds.
    Queries are processed in query-id order so aggregation is a stable,
    reproducible reduction. Unembeddable queries score as total misses and
    are counted in the report.
    """
    ordered = sorted(queries, key=lambda q: q.query_id)
    for query in ordered:
        if query.gold not in clips:
            raise EvalError(
                f"query {query.query_id!r} gold clip {query.gold.clip_id!r} "
                "is not a clip of any loaded index"
            )

    outcomes = [
        _rank_for_query(q, method, indices, depth, fusion_method, rrf_k, use_rewrites)
        for q in ordered
    ]

    n = len(outcomes)
    # An empty query set reports every mean as 0.0.
    per_query = max(n, 1)

    # One scan per ranking; each metric below equals its oracle function
    # (recall_at_k, reciprocal_rank, ndcg_at_k) bit for bit.
    idcg5, idcg10 = _dcg(_IDEAL_RELS[:5]), _dcg(_IDEAL_RELS[:10])
    sums = {"r1": 0.0, "r5": 0.0, "r10": 0.0, "rr": 0.0, "n5": 0.0, "n10": 0.0}
    source_groups: dict[str, list[tuple[int, float]]] = {}
    category_groups: dict[str, list[tuple[int, float]]] = {}
    unembeddable = 0
    for outcome in outcomes:
        gold_rank, gains = _gold_rank_and_gains(outcome.ranking, outcome.query.gold)
        r5 = int(gold_rank <= 5)
        sums["r1"] += int(gold_rank == 1)
        sums["r5"] += r5
        sums["r10"] += int(gold_rank <= 10)
        sums["rr"] += 1.0 / gold_rank  # 0.0 for an absent gold
        sums["n5"] += min(1.0, sum(gain for rank, gain in gains if rank <= 5) / idcg5)
        sums["n10"] += min(1.0, sum(gain for _, gain in gains) / idcg10)
        unembeddable += int(outcome.unembeddable)
        source = outcome.query.source_modality or "unlabeled"
        category = outcome.query.category or "uncategorized"
        source_groups.setdefault(source, []).append((r5, outcome.selected_count))
        category_groups.setdefault(category, []).append((r5, outcome.selected_count))

    mean_selected = sum(o.selected_count for o in outcomes) / per_query
    decisions = [o.decision for o in outcomes if o.decision is not None]
    stats = None
    if decisions:
        stats = routing_stats(
            decisions,
            [o.query.source_modality for o in outcomes if o.decision is not None],
        )

    def breakdown(groups: dict[str, list[tuple[int, float]]]) -> dict[str, BreakdownRow]:
        rows = {}
        for key in sorted(groups):
            entries = groups[key]
            rows[key] = BreakdownRow(
                n_queries=len(entries),
                recall_at_5=sum(e[0] for e in entries) / len(entries),
                mean_selected=sum(e[1] for e in entries) / len(entries),
            )
        return rows

    return EvalReport(
        method=method.label,
        n_queries=n,
        recall_at_1=sums["r1"] / per_query,
        recall_at_5=sums["r5"] / per_query,
        recall_at_10=sums["r10"] / per_query,
        mrr=sums["rr"] / per_query,
        ndcg_at_5=sums["n5"] / per_query,
        ndcg_at_10=sums["n10"] / per_query,
        mean_selected=mean_selected,
        cost_reduction=cost_reduction(mean_selected) if n else 0.0,
        routing=stats,
        unembeddable_queries=unembeddable,
        fusion=fusion_method.value,
        rrf_k=rrf_k,
        depth=depth,
        use_rewrites=use_rewrites,
        by_source=breakdown(source_groups),
        by_category=breakdown(category_groups),
    )

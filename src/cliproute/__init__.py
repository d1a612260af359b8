"""Modality-routed multimodal video clip retrieval.

Queries are routed to a subset of per-modality vector indices (speech,
on-screen text, visual captions), the per-modality ranked lists are fused
by rank, and an evaluation harness scores both retrieval quality and
routing efficiency.
"""

from .corpus import (
    ClipRecord,
    ClipRef,
    Corpus,
    CorpusError,
    MODALITIES,
    Modality,
    QueryRecord,
    load_corpus,
    load_queries,
    normalize_text,
    parse_clip_id,
    save_corpus,
    save_queries,
)
from .embed import (
    EmbedderSpec,
    SparseVector,
    default_spec,
    embed_text,
    register_embedder,
)
from .evaluation import (
    EvalMethod,
    EvalReport,
    MethodKind,
    RoutingStats,
    cost_reduction,
    graded_relevance,
    ndcg_at_k,
    recall_at_k,
    reciprocal_rank,
    routing_stats,
    run_evaluation,
)
from .fusion import FusedRanking, FusionMethod, fuse, linear_fuse, rrf_fuse
from .index import (
    ModalityIndex,
    RankedList,
    build_fused_index,
    build_index,
    load_index,
    save_index,
    search,
)
from .router import (
    Origin,
    RouterConfig,
    RouterMode,
    RoutingDecision,
    build_router_prompt,
    constrain_single,
    make_router,
    parse_router_response,
    rule_route,
)
from .synth import generate_synthetic_corpus

__version__ = "0.1.0"

__all__ = [
    "ClipRecord",
    "ClipRef",
    "Corpus",
    "CorpusError",
    "EmbedderSpec",
    "EvalMethod",
    "EvalReport",
    "FusedRanking",
    "FusionMethod",
    "MODALITIES",
    "MethodKind",
    "Modality",
    "ModalityIndex",
    "Origin",
    "QueryRecord",
    "RankedList",
    "RouterConfig",
    "RouterMode",
    "RoutingDecision",
    "RoutingStats",
    "SparseVector",
    "build_fused_index",
    "build_index",
    "build_router_prompt",
    "constrain_single",
    "cost_reduction",
    "default_spec",
    "embed_text",
    "fuse",
    "generate_synthetic_corpus",
    "graded_relevance",
    "linear_fuse",
    "load_corpus",
    "load_index",
    "load_queries",
    "make_router",
    "ndcg_at_k",
    "normalize_text",
    "parse_clip_id",
    "parse_router_response",
    "recall_at_k",
    "reciprocal_rank",
    "register_embedder",
    "routing_stats",
    "rrf_fuse",
    "rule_route",
    "run_evaluation",
    "save_corpus",
    "save_index",
    "save_queries",
    "search",
]

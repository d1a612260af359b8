"""Command-line front end: gen-corpus, build-index, route, query, evaluate.

Runs are driven by a flat JSON config file; command-line flags override
config keys, which override built-in defaults. Every command validates its
full configuration before touching the filesystem. Exit codes are stable
for scripting: 0 success, 1 validation or usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

from .corpus import (
    ClipRef,
    CorpusError,
    MODALITIES,
    Modality,
    QueryRecord,
    load_corpus,
    load_queries,
    save_corpus,
    save_queries,
)
from .embed import (
    REFERENCE_EMBEDDER,
    EmbedderSpec,
    EmbeddingError,
    default_spec,
    embed_text,
    registered_embedders,
)
from .evaluation import EvalError, EvalMethod, MethodKind, run_evaluation
from .fusion import FusionMethod, fuse
from .index import (
    FUSED_SOURCE,
    IndexingError,
    ModalityIndex,
    build_fused_index,
    build_index,
    load_index,
    save_index,
    search,
)
from .router import ROUTER_BACKENDS, RouterConfig, RouterError, RouterMode, make_router
from .synth import generate_synthetic_corpus

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

# Placeholder gold ref for ad-hoc CLI queries; never resolved.
_CLI_GOLD = ClipRef(video_id="cli", start_s=0, end_s=1)


class UsageError(ValueError):
    """Invalid flags or configuration; maps to exit code 1."""


@dataclass
class RunConfig:
    """Flat run configuration; JSON config keys match the field names."""

    corpus: Optional[str] = None
    queries: Optional[str] = None
    index_dir: Optional[str] = None
    embedder: str = REFERENCE_EMBEDDER
    dim: int = 4096
    depth: int = 50
    fusion: str = "linear"
    rrf_k: float = 60.0
    router: str = "rule"
    router_mode: str = "multi"
    fallback_on_error: bool = True
    llm_base_url: Optional[str] = None
    llm_model: Optional[str] = None
    llm_timeout_s: float = 30.0
    llm_max_retries: int = 3
    replay_fixture: Optional[str] = None
    audit_log: Optional[str] = None
    use_rewrites: bool = False
    methods: list[str] = field(default_factory=lambda: ["routed:rule"])
    seed: int = 1
    n_videos: int = 20
    clips_per_video: int = 5
    build_fused: bool = True
    out: Optional[str] = None
    csv_out: Optional[str] = None

    def validate_common(self) -> None:
        if self.depth < 10:
            raise UsageError(f"depth must be >= 10, got {self.depth}")
        if self.fusion not in ("linear", "rrf"):
            raise UsageError(f"fusion must be 'linear' or 'rrf', got {self.fusion!r}")
        if self.rrf_k <= 0:
            raise UsageError(f"rrf_k must be positive, got {self.rrf_k}")
        if self.router not in ROUTER_BACKENDS:
            raise UsageError(
                f"router must be one of {ROUTER_BACKENDS}, got {self.router!r}"
            )
        if self.router_mode not in ("multi", "single"):
            raise UsageError(f"router_mode must be 'multi' or 'single', got {self.router_mode!r}")
        if self.dim < 8:
            raise UsageError(f"dim must be >= 8, got {self.dim}")
        if self.embedder not in registered_embedders():
            raise UsageError(
                f"unknown embedder {self.embedder!r}; registered: {registered_embedders()}"
            )
        if self.replay_fixture and not Path(self.replay_fixture).is_file():
            raise UsageError(f"replay fixture does not exist: {self.replay_fixture}")
        if self.router == "replay" and not self.replay_fixture:
            raise UsageError("replay router requires replay_fixture")

    def embedder_spec(self) -> EmbedderSpec:
        if self.embedder == REFERENCE_EMBEDDER:
            return default_spec(self.dim)
        return EmbedderSpec(name=self.embedder, dim=self.dim)

    def router_config(self, backend: Optional[str] = None) -> RouterConfig:
        return RouterConfig(
            mode=RouterMode(self.router_mode),
            fallback_on_error=self.fallback_on_error,
            backend=backend or self.router,
            base_url=self.llm_base_url,
            model=self.llm_model,
            timeout_s=self.llm_timeout_s,
            max_retries=self.llm_max_retries,
            replay_path=self.replay_fixture,
            audit_path=self.audit_log,
        )


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}
_CONFIG_TYPES = typing.get_type_hints(RunConfig)


def _has_type(value: object, hint: object) -> bool:
    """Whether a JSON value fits a RunConfig field annotation."""
    if typing.get_origin(hint) is typing.Union:
        return any(_has_type(value, arg) for arg in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if isinstance(value, bool) and hint is not bool:
        return False
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _load_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(loaded) - _CONFIG_KEYS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        data.update(loaded)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    if isinstance(data.get("methods"), str):
        data["methods"] = [m.strip() for m in data["methods"].split(",") if m.strip()]
    for key, value in sorted(data.items()):
        hint = _CONFIG_TYPES[key]
        if not _has_type(value, hint):
            expected = str(hint).replace("typing.", "") if typing.get_args(hint) else hint.__name__
            raise UsageError(f"config key {key!r} must be {expected}, got {value!r}")
    config = RunConfig(**data)
    config.validate_common()
    return config


def _require(config: RunConfig, name: str) -> str:
    value = getattr(config, name)
    if not value:
        raise UsageError(f"missing required setting {name!r} (flag or config key)")
    return value


def _require_file(config: RunConfig, name: str) -> str:
    value = _require(config, name)
    if not Path(value).is_file():
        raise UsageError(f"{name} path does not exist: {value}")
    return value


def _require_dir(config: RunConfig, name: str) -> str:
    value = _require(config, name)
    if not Path(value).is_dir():
        raise UsageError(f"{name} path does not exist: {value}")
    return value


def _parse_method(spec_str: str, config: RunConfig) -> EvalMethod:
    name, _, qualifier = spec_str.partition(":")
    name = name.strip().lower()
    qualifier = qualifier.strip().lower()
    if name == "late_fusion_all":
        return EvalMethod(kind=MethodKind.LATE_FUSION_ALL, label=spec_str)
    if name == "all_text":
        return EvalMethod(kind=MethodKind.ALL_TEXT, label=spec_str)
    if name == "single":
        modality = Modality.from_wire(qualifier)
        if modality is None:
            raise UsageError(f"single method needs a modality, got {spec_str!r}")
        return EvalMethod(kind=MethodKind.SINGLE, modality=modality, label=spec_str)
    if name == "routed":
        backend = qualifier or config.router
        if backend not in ROUTER_BACKENDS:
            raise UsageError(f"unknown router backend in method {spec_str!r}")
        router = make_router(config.router_config(backend))
        return EvalMethod(kind=MethodKind.ROUTED, router=router, label=spec_str)
    raise UsageError(
        f"unknown evaluation method {spec_str!r}; expected late_fusion_all, "
        "all_text, single:<modality>, or routed:<backend>"
    )


def _index_path(index_dir: str | Path, source: str) -> Path:
    return Path(index_dir) / f"{source}.idx"


def _load_indices(index_dir: str, sources: Sequence[str]) -> dict[str, ModalityIndex]:
    indices: dict[str, ModalityIndex] = {}
    for source in sources:
        path = _index_path(index_dir, source)
        if not path.is_file():
            raise IndexingError(f"missing index for {source!r}: {path}")
        indices[source] = load_index(path)
    first = next(iter(indices.values()), None)
    for index in indices.values():
        if index.embedder != first.embedder:
            a, b = (json.dumps(i.embedder.to_dict(), sort_keys=True) for i in (first, index))
            raise IndexingError(
                f"indices in {index_dir} were built with different embedders: "
                f"{first.source} {a}, {index.source} {b}"
            )
    return indices


def cmd_gen_corpus(config: RunConfig) -> int:
    if config.n_videos < 1:
        raise UsageError(f"n_videos must be >= 1, got {config.n_videos}")
    if config.clips_per_video < 1:
        raise UsageError(f"clips_per_video must be >= 1, got {config.clips_per_video}")
    corpus_path = Path(_require(config, "corpus"))
    queries_path = Path(_require(config, "queries"))
    corpus, queries = generate_synthetic_corpus(
        config.seed, config.n_videos, config.clips_per_video
    )
    corpus_path.parent.mkdir(parents=True, exist_ok=True)
    queries_path.parent.mkdir(parents=True, exist_ok=True)
    save_corpus(corpus, corpus_path)
    save_queries(queries, queries_path)
    coverage = corpus.coverage()
    print(f"wrote {len(corpus)} clips to {corpus_path}")
    print(f"wrote {len(queries)} queries to {queries_path}")
    for source in ("asr", "ocr", "visuals", "fused"):
        print(f"coverage[{source}] = {coverage[source]:.3f}")
    return EXIT_OK


def cmd_build_index(config: RunConfig) -> int:
    corpus_path = _require_file(config, "corpus")
    index_dir = Path(_require(config, "index_dir"))
    corpus = load_corpus(corpus_path)
    spec = config.embedder_spec()
    sources = [m.wire for m in MODALITIES] + ([FUSED_SOURCE] if config.build_fused else [])
    built = []
    for source in sources:
        if source == FUSED_SOURCE:
            built.append(build_fused_index(corpus, spec))
        else:
            built.append(build_index(corpus, Modality.from_wire(source), spec))
    index_dir.mkdir(parents=True, exist_ok=True)
    for index in built:
        path = _index_path(index_dir, index.source)
        save_index(index, path)
        stats = index.build_stats
        flag = " (EMPTY)" if stats.empty else ""
        print(
            f"{index.source}: indexed={stats.indexed} skipped={stats.skipped}"
            f" -> {path}{flag}"
        )
    return EXIT_OK


def cmd_route(config: RunConfig, query_text: str) -> int:
    if not query_text or not query_text.strip():
        raise UsageError("query text must be non-empty")
    router = make_router(config.router_config())
    query = QueryRecord(query_id="cli", text=query_text, gold=_CLI_GOLD)
    decision = router.route(query)
    print(json.dumps(decision.to_wire(), ensure_ascii=False))
    print(f"origin: {decision.origin.value}")
    return EXIT_OK


def cmd_query(config: RunConfig, query_text: str) -> int:
    if not query_text or not query_text.strip():
        raise UsageError("query text must be non-empty")
    index_dir = _require_dir(config, "index_dir")
    router = make_router(config.router_config())
    query = QueryRecord(query_id="cli", text=query_text, gold=_CLI_GOLD)
    decision = router.route(query)
    indices = _load_indices(index_dir, [m.wire for m in decision.modalities])
    lists = []
    for modality, optimized in decision.selections:
        index = indices[modality.wire]
        text = optimized if config.use_rewrites else query_text
        vec = embed_text(index.embedder, text)
        lists.append(search(index, vec, config.depth))
    non_empty = [ranked for ranked in lists if ranked.items]
    if not non_empty:
        print("[]")
        return EXIT_OK
    ranking = fuse(non_empty, FusionMethod(config.fusion), config.depth, config.rrf_k)
    payload = [
        {
            "clip_id": item.ref.clip_id,
            "fused_score": item.score,
            "provenance": item.provenance_wire(),
        }
        for item in ranking.items
    ]
    print(json.dumps(payload, ensure_ascii=False, indent=2))
    return EXIT_OK


def cmd_evaluate(config: RunConfig) -> int:
    corpus_path = _require_file(config, "corpus")
    queries_path = _require_file(config, "queries")
    index_dir = _require_dir(config, "index_dir")
    if not config.methods:
        raise UsageError("evaluate requires at least one method")
    methods = [_parse_method(m, config) for m in config.methods]

    corpus = load_corpus(corpus_path)
    queries = load_queries(queries_path)
    sources = [m.wire for m in MODALITIES]
    if any(m.kind is MethodKind.ALL_TEXT for m in methods):
        sources.append(FUSED_SOURCE)
    indices = _load_indices(index_dir, sources)

    reports = []
    for method in methods:
        report = run_evaluation(
            corpus,
            queries,
            method,
            indices,
            depth=config.depth,
            fusion_method=FusionMethod(config.fusion),
            rrf_k=config.rrf_k,
            use_rewrites=config.use_rewrites,
        )
        reports.append(report)
        print(
            f"{report.method}: R@1={report.recall_at_1:.4f} R@5={report.recall_at_5:.4f} "
            f"R@10={report.recall_at_10:.4f} MRR={report.mrr:.4f} "
            f"NDCG@5={report.ndcg_at_5:.4f} mean_modalities={report.mean_selected:.4f} "
            f"cost_reduction={report.cost_reduction:.4f}"
        )
        if report.routing:
            print(
                f"  routing: hit_rate={report.routing.hit_rate:.4f} "
                f"micro_f1={report.routing.micro_f1:.4f} "
                f"coverage_error={report.routing.coverage_error:.4f}"
            )

    document = {"reports": [r.to_dict() for r in reports]}
    rendered = json.dumps(document, sort_keys=True, indent=2) + "\n"
    if config.out:
        out_path = Path(config.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(rendered, encoding="utf-8")
        print(f"report written to {out_path}")
    if config.csv_out:
        _write_breakdown_csv(reports, Path(config.csv_out))
        print(f"breakdown csv written to {config.csv_out}")
    return EXIT_OK


def _write_breakdown_csv(reports, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method", "table", "key", "n_queries", "recall_at_5", "mean_selected"])
        for report in reports:
            for table, rows in (("source", report.by_source), ("category", report.by_category)):
                for key, row in rows.items():
                    writer.writerow(
                        [report.method, table, key, row.n_queries, row.recall_at_5, row.mean_selected]
                    )


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cliproute", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--fusion", choices=["linear", "rrf"], default=None)
        p.add_argument("--rrf-k", dest="rrf_k", type=float, default=None)
        p.add_argument(
            "--router", choices=list(ROUTER_BACKENDS), default=None, help="router backend"
        )
        p.add_argument("--router-mode", dest="router_mode", choices=["multi", "single"], default=None)
        p.add_argument(
            "--fallback-on-error",
            dest="fallback_on_error",
            action=argparse.BooleanOptionalAction,
            default=None,
        )
        p.add_argument("--replay-fixture", dest="replay_fixture", default=None)
        p.add_argument("--audit-log", dest="audit_log", default=None)
        p.add_argument("--llm-base-url", dest="llm_base_url", default=None)
        p.add_argument("--llm-model", dest="llm_model", default=None)
        p.add_argument("--embedder", default=None, help="registered embedder name")
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--out", default=None)

    gen = sub.add_parser("gen-corpus", help="write a seeded synthetic corpus + queries")
    add_common(gen)
    gen.add_argument("--videos", dest="n_videos", type=int, default=None)
    gen.add_argument("--clips-per-video", dest="clips_per_video", type=int, default=None)
    gen.add_argument("--corpus", help="output corpus JSONL path")
    gen.add_argument("--queries", help="output queries JSONL path")

    build = sub.add_parser("build-index", help="build per-modality vector indices")
    add_common(build)
    build.add_argument("--corpus", default=None)
    build.add_argument("--index-dir", dest="index_dir", default=None)
    build.add_argument(
        "--fused",
        dest="build_fused",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="also build the fused-caption index (default on)",
    )

    route_p = sub.add_parser("route", help="route one query and print the decision")
    add_common(route_p)
    route_p.add_argument("text", help="query text")

    query_p = sub.add_parser("query", help="route, search, fuse, and print results")
    add_common(query_p)
    query_p.add_argument("--index-dir", dest="index_dir", default=None)
    query_p.add_argument(
        "--use-rewrites",
        dest="use_rewrites",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    query_p.add_argument("text", help="query text")

    eval_p = sub.add_parser("evaluate", help="run the evaluation suite")
    add_common(eval_p)
    eval_p.add_argument("--corpus", default=None)
    eval_p.add_argument("--queries", default=None)
    eval_p.add_argument("--index-dir", dest="index_dir", default=None)
    eval_p.add_argument(
        "--methods",
        default=None,
        help="comma list: late_fusion_all, all_text, single:<modality>, routed:<backend>",
    )
    eval_p.add_argument("--csv-out", dest="csv_out", default=None)
    eval_p.add_argument(
        "--use-rewrites",
        dest="use_rewrites",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args)
        if args.command == "gen-corpus":
            return cmd_gen_corpus(config)
        if args.command == "build-index":
            return cmd_build_index(config)
        if args.command == "route":
            return cmd_route(config, args.text)
        if args.command == "query":
            return cmd_query(config, args.text)
        if args.command == "evaluate":
            return cmd_evaluate(config)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, RouterError, EvalError, IndexingError, EmbeddingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def console_main() -> None:
    logging.basicConfig(level=logging.WARNING)
    sys.exit(main(sys.argv[1:]))

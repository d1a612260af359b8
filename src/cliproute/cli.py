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
import math
import os
import shutil
import sys
import tempfile
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

from .corpus import (
    FUSED_SOURCE,
    INDEX_SOURCES,
    ClipRef,
    CorpusError,
    MODALITIES,
    Modality,
    QueryRecord,
    json_object,
    load_corpus,
    load_queries,
    save_corpus,
    save_queries,
)
from .embed import (
    DEFAULT_DIM,
    MAX_DIM,
    REFERENCE_EMBEDDER,
    EmbedderSpec,
    EmbeddingError,
    registered_embedders,
)
from .evaluation import EvalError, EvalMethod, MethodKind, retrieve, run_evaluation
from .fusion import DEFAULT_RRF_K, FusionMethod
from .index import (
    DEFAULT_DEPTH,
    IndexingError,
    ModalityIndex,
    build_fused_index,
    build_index,
    load_index,
    save_index,
)
from .router import ROUTER_BACKENDS, RouterConfig, RouterError, RouterMode, make_router
from .synth import generate_synthetic_corpus

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

# Placeholder gold ref for ad-hoc CLI queries; never resolved.
_CLI_GOLD = ClipRef(video_id="cli", start_s=0, end_s=1)
_FUSIONS = [method.value for method in FusionMethod]
_ROUTER_MODES = [mode.value for mode in RouterMode]


class UsageError(ValueError):
    """Invalid flags or configuration; maps to exit code 1."""


@dataclass
class RunConfig:
    """Flat run configuration; JSON config keys match the field names."""

    corpus: Optional[str] = None
    queries: Optional[str] = None
    index_dir: Optional[str] = None
    embedder: str = REFERENCE_EMBEDDER
    dim: int = DEFAULT_DIM
    depth: int = DEFAULT_DEPTH
    fusion: str = FusionMethod.LINEAR.value
    rrf_k: float = DEFAULT_RRF_K
    router: str = "rule"
    router_mode: str = RouterMode.MULTI.value
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
        # An index numbers at most 2**32 rows (u32); up to there, linear fusion sums are exact.
        if not 10 <= self.depth <= 2**32:
            raise UsageError(f"depth must be between 10 and {2**32}, got {self.depth}")
        _check_choice("fusion", self.fusion, _FUSIONS)
        if not (math.isfinite(self.rrf_k) and self.rrf_k > 0):
            raise UsageError(f"rrf_k must be finite and positive, got {self.rrf_k}")
        if not (math.isfinite(self.llm_timeout_s) and self.llm_timeout_s > 0):
            raise UsageError(f"llm_timeout_s must be finite and positive, got {self.llm_timeout_s}")
        if self.n_videos < 1:
            raise UsageError(f"n_videos must be >= 1, got {self.n_videos}")
        if self.clips_per_video < 1:
            raise UsageError(f"clips_per_video must be >= 1, got {self.clips_per_video}")
        if self.llm_max_retries < 1:
            raise UsageError(f"llm_max_retries must be >= 1, got {self.llm_max_retries}")
        _check_router(self, self.router)
        _check_choice("router_mode", self.router_mode, _ROUTER_MODES)
        if self.dim < 8:
            raise UsageError(f"dim must be >= 8, got {self.dim}")
        if self.dim > MAX_DIM:
            raise UsageError(f"dim must be <= {MAX_DIM}, got {self.dim}")
        if self.embedder not in registered_embedders():
            raise UsageError(
                f"unknown embedder {self.embedder!r}; registered: {registered_embedders()}"
            )

    def embedder_spec(self) -> EmbedderSpec:
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


def _check_router(config: RunConfig, backend: str) -> None:
    """Reject a router backend ``config`` cannot make: the configured router
    and every ``routed:<backend>`` method are checked here."""
    if backend not in ROUTER_BACKENDS:
        raise UsageError(f"unknown router backend {backend!r}; expected one of {ROUTER_BACKENDS}")
    if backend == "replay" and not config.replay_fixture:
        raise UsageError("replay router requires replay_fixture")


def _check_choice(key: str, value: str, choices: list[str]) -> None:
    if value not in choices:
        raise UsageError(f"{key} must be {' or '.join(map(repr, choices))}, got {value!r}")


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
        loaded = json_object(path.read_bytes(), lambda msg: UsageError(f"config file {path}: {msg}"))
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


# The path settings each command reads, then those it writes.
_PATHS = {
    "gen-corpus": ((), ("corpus", "queries")),
    "build-index": (("corpus",), ("index_dir",)),
    "route": (("replay_fixture",), ("audit_log",)),
    "query": (("index_dir", "replay_fixture"), ("audit_log",)),
    "evaluate": (("queries", "index_dir", "replay_fixture"), ("audit_log", "out", "csv_out")),
}


def _check_paths(config: RunConfig, command: str) -> None:
    """Check each path ``command`` reads or writes, before any is touched: a read
    exists as its kind; a write, if it exists, is of its kind and under no file;
    no two name one file, and an index_dir names its index files."""
    reads, writes = _PATHS[command]
    seen: dict[Path, tuple[str, Path]] = {}
    for key in reads + writes:
        value = getattr(config, key)
        if not value:
            if key in ("corpus", "queries", "index_dir"):
                raise UsageError(f"missing required setting {key!r} (flag or config key)")
            continue
        path, is_dir = Path(value), key == "index_dir"
        if key in reads:
            if not (path.is_dir() if is_dir else path.is_file()):
                kind = "directory" if is_dir else "file"
                problem = f"is not a {kind}" if path.exists() else "does not exist"
                raise UsageError(f"{key} path {problem}: {value}")
        elif path.exists() and path.is_dir() != is_dir:
            raise UsageError(f"{key} path is {'not ' if is_dir else ''}a directory: {value}")
        elif any(parent.exists() and not parent.is_dir() for parent in path.parents):
            raise UsageError(f"{key} path is under a file, not a directory: {value}")
        for file in [_index_path(path, s) for s in INDEX_SOURCES] if is_dir else [path]:
            other, spelled = seen.setdefault(file.resolve(), (key, file))
            if other != key:
                raise UsageError(f"{other} and {key} name the same path: {spelled}")


def _method_name(spec_str: str, config: RunConfig) -> tuple[str, str]:
    """A method spec's name and qualifier, as :func:`_parse_method` reads
    them: a bare ``routed`` names ``config.router``."""
    name, _, qualifier = spec_str.partition(":")
    name, qualifier = name.strip().lower(), qualifier.strip().lower()
    if name == "routed" and not qualifier:
        qualifier = config.router
    return name, qualifier


def _parse_method(spec_str: str, config: RunConfig) -> EvalMethod:
    name, qualifier = _method_name(spec_str, config)
    if name in (MethodKind.LATE_FUSION_ALL, MethodKind.ALL_TEXT):
        if qualifier:
            raise UsageError(f"method {name} takes no qualifier, got {spec_str!r}")
        return EvalMethod(kind=MethodKind(name), label=spec_str)
    if name == "single":
        modality = Modality.from_wire(qualifier)
        if modality is None:
            raise UsageError(f"single method needs a modality, got {spec_str!r}")
        return EvalMethod(kind=MethodKind.SINGLE, modality=modality, label=spec_str)
    if name == "routed":
        _check_router(config, qualifier)
        router = make_router(config.router_config(qualifier))
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
    corpus_path, queries_path = Path(config.corpus), Path(config.queries)
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
    for source, share in coverage.items():
        print(f"coverage[{source}] = {share:.3f}")
    return EXIT_OK


def cmd_build_index(config: RunConfig) -> int:
    index_dir = Path(config.index_dir)
    corpus = load_corpus(config.corpus)
    spec = config.embedder_spec()
    builds = [lambda m=modality: build_index(corpus, m, spec) for modality in MODALITIES]
    if config.build_fused:
        builds.append(lambda: build_fused_index(corpus, spec))
    # Each index is saved into a staging directory beside index_dir before
    # the next is built. Only the finished set replaces index_dir's files,
    # so a failed build leaves index_dir as it was.
    index_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{index_dir.name}.", dir=index_dir.parent))
    try:
        built = []
        for build in builds:
            index = build()
            save_index(index, _index_path(staging, index.source))
            built.append((index.source, index.build_stats))
            del index  # the next build runs with no index held
        index_dir.mkdir(exist_ok=True)
        for source, _ in built:
            os.replace(_index_path(staging, source), _index_path(index_dir, source))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    for source, stats in built:
        flag = " (EMPTY)" if stats.empty else ""
        print(
            f"{source}: indexed={stats.indexed} skipped={stats.skipped}"
            f" -> {_index_path(index_dir, source)}{flag}"
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
    query = QueryRecord(query_id="cli", text=query_text, gold=_CLI_GOLD)
    decision = make_router(config.router_config()).route(query)
    searches = decision.searches(query_text, config.use_rewrites)
    indices = _load_indices(config.index_dir, [source for source, _ in searches])
    items = retrieve(searches, indices, config.depth, FusionMethod(config.fusion), config.rrf_k)
    payload = [
        {
            "clip_id": item.ref.clip_id,
            "fused_score": item.score,
            "provenance": item.provenance_wire(),
        }
        for item in items or ()
    ]
    print(json.dumps(payload, ensure_ascii=False, indent=2))
    return EXIT_OK


def cmd_evaluate(config: RunConfig) -> int:
    if not config.methods:
        raise UsageError("evaluate requires at least one method")
    names = [_method_name(m, config) for m in config.methods]
    repeated = sorted({m for m, name in zip(config.methods, names) if names.count(name) > 1})
    if repeated:
        raise UsageError(f"evaluation method listed more than once: {', '.join(repeated)}")
    methods = [_parse_method(m, config) for m in config.methods]

    queries = load_queries(config.queries)
    all_text = any(m.kind is MethodKind.ALL_TEXT for m in methods)
    sources = [source for source in INDEX_SOURCES if all_text or source != FUSED_SOURCE]
    indices = _load_indices(config.index_dir, sources)
    # No corpus is read: a gold must be a clip of some loaded index.
    golds = {q.gold for q in queries}
    golds = {gold for gold in golds if any(gold in index for index in indices.values())}

    reports = []
    for method in methods:
        report = run_evaluation(
            golds,
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
    toggle = argparse.BooleanOptionalAction

    def command(name: str, summary: str, router: bool = False, retrieval: bool = False) -> _Parser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        if router:
            p.add_argument("--router", choices=list(ROUTER_BACKENDS), help="router backend")
            p.add_argument("--router-mode", choices=_ROUTER_MODES)
            p.add_argument("--fallback-on-error", action=toggle)
            p.add_argument("--replay-fixture")
            p.add_argument("--audit-log")
            p.add_argument("--llm-base-url")
            p.add_argument("--llm-model")
        if retrieval:
            p.add_argument("--index-dir")
            p.add_argument("--depth", type=int)
            p.add_argument("--fusion", choices=_FUSIONS)
            p.add_argument("--rrf-k", type=float)
            p.add_argument("--use-rewrites", action=toggle)
        return p

    gen = command("gen-corpus", "write a seeded synthetic corpus + queries")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--videos", dest="n_videos", type=int)
    gen.add_argument("--clips-per-video", type=int)
    gen.add_argument("--corpus", help="output corpus JSONL path")
    gen.add_argument("--queries", help="output queries JSONL path")

    build = command("build-index", "build per-modality vector indices")
    build.add_argument("--corpus")
    build.add_argument("--index-dir")
    build.add_argument("--embedder", help="registered embedder name")
    build.add_argument("--dim", type=int)
    build.add_argument(
        "--fused",
        dest="build_fused",
        action=toggle,
        help="also build the fused-caption index (default on)",
    )

    route_p = command("route", "route one query and print the decision", router=True)
    route_p.add_argument("text", help="query text")

    query_p = command(
        "query", "route, search, fuse, and print results", router=True, retrieval=True
    )
    query_p.add_argument("text", help="query text")

    eval_p = command("evaluate", "run the evaluation suite", router=True, retrieval=True)
    eval_p.add_argument("--queries")
    eval_p.add_argument(
        "--methods",
        help="comma list: late_fusion_all, all_text, single:<modality>, routed:<backend>",
    )
    eval_p.add_argument("--out")
    eval_p.add_argument("--csv-out")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args)
        _check_paths(config, args.command)
        if args.command == "gen-corpus":
            return cmd_gen_corpus(config)
        if args.command == "build-index":
            return cmd_build_index(config)
        if args.command == "route":
            return cmd_route(config, args.text)
        if args.command == "query":
            return cmd_query(config, args.text)
        return cmd_evaluate(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, RouterError, EvalError, IndexingError, EmbeddingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def console_main() -> None:
    logging.basicConfig(level=logging.WARNING)
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()

"""The three cliproute benchmark workloads.

Each workload is a closed loop with one caller, because both an evaluation
run and a terminal user wait for each answer before asking again. Inputs
come from the seed alone and are written to files before any timing starts;
the program sees only those files. Set-up runs ``SETUP_REPEATS`` times and
reports its median. The timed phase runs whole rounds until ``seconds`` have
passed and at least the workload's minimum number of rounds is done; that
minimum gives the percentiles and repeat checks enough samples.

In a traced run, rounds alternate between untraced and traced, so the same
run gives the per-layer numbers (traced rounds only) and the tracing
overhead (traced versus untraced round time).

Index reads are served from the OS page cache: the benchmark never drops
caches, so ``open_s`` and query latency measure warm reads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from cliproute import cli
from cliproute import corpus as corpus_mod
from cliproute import evaluation
from cliproute import index as index_mod
from cliproute import synth
from cliproute.corpus import Modality, normalize_text
from cliproute.evaluation import EvalMethod, MethodKind
from cliproute.fusion import FusionMethod
from cliproute.index import INDEX_SOURCES
from cliproute.router import ALL_CUE_WORDS, RouterConfig, make_router, rule_route

import layers
from tracing import ENTRY_POINTS, SPAN_FILE_ENV, Tracer, beyond, median, percentile

SETUP_REPEATS = 3
#: Loads of all four indices timed for open_s, where taken back to back.
OPEN_SAMPLES = 4
#: build-5k makes at least this many builds, so its median build time
#: rests on three of them even when the run is short.
BUILD_MIN_ROUNDS = 3
CLIPS_PER_VIDEO = 5
EVAL_DEPTH = 50
CHILD = Path(__file__).with_name("cliproute_child.py")
CHILD_TIMEOUT_S = 60

#: End-to-end metrics every workload reports: name -> unit. Each workload
#: also prints them under its own names:
#:
#: - ``setup_s``: seed to ready inputs, median of the set-ups. eval-1k
#:   includes building and loading the indices; query-5k includes building
#:   them; build-5k is corpus generation and JSONL writing only.
#: - ``items_per_s``: eval-1k (query, method) pairs per second (eval_qps);
#:   query-5k CLI calls per second; build-5k clips built per second
#:   (build_clips_per_s, from the median build).
#: - ``quality``: eval-1k mean R@1 over the four methods (recall_at_1);
#:   query-5k share of calls with the gold clip in the printed top 10
#:   (query_recall_at_10); build-5k share of clip texts present in the
#:   loaded indices.
#: - ``open_s``: median time to load all four indices.
#: - ``index_bytes_per_clip``: bytes of the four index files per clip.
#: - ``peak_rss_mb``: peak resident memory of the process doing the timed
#:   work; for query-5k, of the largest CLI child.
E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "quality": "ratio",
    "open_s": "s",
    "index_bytes_per_clip": "B",
    "peak_rss_mb": "MB",
}


@dataclass
class Run:
    """One benchmark run: its settings and what it has measured so far."""

    seed: int
    seconds: float
    trace: bool
    work: Path
    src: Path
    #: Corpus size override; the self-test runs every workload on a tiny corpus.
    videos: Optional[int] = None
    tracer: Optional[Tracer] = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    #: The workload's own metric names: name -> (value, unit).
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Percentile metric -> {"samples": n, "beyond": samples above it}.
    samples: dict[str, dict] = field(default_factory=dict)
    #: Round time of untraced and traced rounds, for the tracing overhead.
    round_s: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    #: Filled by a traced run: per-layer metrics, missing spans, overhead.
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    layer_missing: list[str] = field(default_factory=list)
    overhead: dict[str, float] = field(default_factory=dict)
    #: Times of untraced loads of all four indices; open_s is their median.
    open_s: list[float] = field(default_factory=list)

    def operation(self, problems: list[str]) -> None:
        """Count one attempted operation; it failed if any check found a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @contextlib.contextmanager
    def traced(self, request: str, on: bool) -> Iterator[None]:
        if not on or self.tracer is None:
            yield
            return
        self.tracer.request = request
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def rounds(self, minimum: int) -> Iterator[tuple[int, bool]]:
        """Round numbers until time is up and ``minimum`` rounds are done.

        Yields (round, traced); a traced run traces every second round.
        """
        start = time.perf_counter()
        i = 0
        while i < minimum or time.perf_counter() - start < self.seconds:
            yield i, self.trace and i % 2 == 1
            i += 1

    @contextlib.contextmanager
    def timed_round(self, i: int, traced: bool) -> Iterator[None]:
        """Trace round ``i`` if asked, and record its time, tracer set-up excluded."""
        with self.traced(f"round-{i}", traced):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.round_s[traced].append(time.perf_counter() - start)


# -- shared steps -----------------------------------------------------------------


def _write_inputs(run: Run, videos: int, out: Path, with_queries: bool = True):
    """Generate the seeded corpus and write it (and its queries) as JSONL."""
    corpus, queries = synth.generate_synthetic_corpus(run.seed, videos, CLIPS_PER_VIDEO)
    out.mkdir(parents=True, exist_ok=True)
    corpus_path, queries_path = out / "corpus.jsonl", out / "queries.jsonl"
    corpus_mod.save_corpus(corpus, corpus_path)
    if with_queries:
        corpus_mod.save_queries(queries, queries_path)
    return corpus, queries, corpus_path, queries_path


def _build_index_cli(corpus_path: Path, index_dir: Path) -> str:
    """Run ``cliproute build-index`` in process; returns what it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["build-index", "--corpus", str(corpus_path), "--index-dir", str(index_dir)])
    if code != 0:
        raise RuntimeError(f"build-index exited with {code}")
    return printed.getvalue()


def _load_all(index_dir: Path) -> dict:
    return {s: index_mod.load_index(index_dir / f"{s}.idx") for s in INDEX_SOURCES}


def _flush(index_dir: Path) -> None:
    """Write the index files to disk, so no writeback overlaps a later timing."""
    for source in INDEX_SOURCES:
        fd = os.open(index_dir / f"{source}.idx", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _dir_bytes(index_dir: Path) -> int:
    return sum((index_dir / f"{s}.idx").stat().st_size for s in INDEX_SOURCES)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _setups(run: Run, step: Callable[[Path], None]) -> None:
    """Run set-up ``step`` ``SETUP_REPEATS`` times and record its median time.

    Every repeat but the last is deleted, so the timed phase uses the last.
    """
    setup_s = []
    for k in range(SETUP_REPEATS):
        out = run.work / f"setup-{k}"
        with run.traced(f"setup-{k}", run.trace):
            start = time.perf_counter()
            step(out)
            setup_s.append(time.perf_counter() - start)
        if k + 1 < SETUP_REPEATS:
            shutil.rmtree(out)
    run.e2e["setup_s"] = median(setup_s)


def _time_open(run: Run, index_dir: Path, clips: int) -> None:
    """Time one load of all four indices into ``run.open_s``.

    Where the samples are taken was chosen by measured run-to-run spread:
    eval-1k spreads them between its passes, because this machine's speed
    drifts over tens of seconds; query-5k and build-5k take them back to
    back, because a load right after a process or a build has freed most
    of a gigabyte is slower and noisier. Also checks that every index holds
    every clip.
    """
    start = time.perf_counter()
    loaded = _load_all(index_dir)
    run.open_s.append(time.perf_counter() - start)
    counts = [len(index) for index in loaded.values()]
    del loaded
    if counts != [clips] * len(INDEX_SOURCES):
        raise RuntimeError(f"loaded index sizes {counts} != {clips} clips")


# -- eval-1k ----------------------------------------------------------------------


def _eval_methods() -> list[EvalMethod]:
    return [
        EvalMethod(
            kind=MethodKind.ROUTED,
            router=make_router(RouterConfig(backend="rule")),
            label="routed:rule",
        ),
        EvalMethod(kind=MethodKind.LATE_FUSION_ALL, label="late_fusion_all"),
        EvalMethod(kind=MethodKind.SINGLE, modality=Modality.ASR, label="single:asr"),
        EvalMethod(kind=MethodKind.ALL_TEXT, label="all_text"),
    ]


#: Methods whose exact answers the synthetic corpus guarantees at 1k clips.
_EXACT_METHODS = ("routed:rule", "all_text")


def eval_1k(run: Run) -> None:
    videos = run.videos or 200
    state = {}

    def setup(out: Path) -> None:
        _, _, corpus_path, queries_path = _write_inputs(run, videos, out)
        _build_index_cli(corpus_path, out / "index")
        state["corpus"] = corpus_mod.load_corpus(corpus_path)
        state["queries"] = corpus_mod.load_queries(queries_path)
        state["indices"] = _load_all(out / "index")
        state["index_dir"] = out / "index"

    _setups(run, setup)
    corpus, queries, indices = state["corpus"], state["queries"], state["indices"]
    _flush(state["index_dir"])
    for _ in range(2):
        _time_open(run, state["index_dir"], len(corpus))
    methods = _eval_methods()
    first: dict[str, str] = {}
    first_reports = []
    pairs = {False: 0, True: 0}
    for i, traced in run.rounds(minimum=2):
        with run.timed_round(i, traced):
            for method in methods:
                report = evaluation.run_evaluation(
                    corpus,
                    queries,
                    method,
                    indices,
                    depth=EVAL_DEPTH,
                    fusion_method=FusionMethod.LINEAR,
                )
                pairs[traced] += report.n_queries
                run.operation(_check_eval(report, first))
                if i == 0:
                    first_reports.append(report)
        for _ in range(2):
            _time_open(run, state["index_dir"], len(corpus))
    run.e2e["items_per_s"] = pairs[False] / sum(run.round_s[False])
    recall = sum(r.recall_at_1 for r in first_reports) / len(first_reports)
    ndcg = sum(r.ndcg_at_10 for r in first_reports) / len(first_reports)
    run.e2e["quality"] = recall
    run.e2e["index_bytes_per_clip"] = _dir_bytes(state["index_dir"]) / len(corpus)
    run.e2e["peak_rss_mb"] = _self_rss_mb()
    run.named.update(
        eval_qps=(run.e2e["items_per_s"], "1/s"),
        recall_at_1=(recall, "ratio"),
        ndcg_at_10=(ndcg, "ratio"),
    )


def _check_eval(report, first: dict[str, str]) -> list[str]:
    problems = []
    if report.method in _EXACT_METHODS and (report.recall_at_1 != 1.0 or report.ndcg_at_5 != 1.0):
        problems.append(
            f"{report.method}: R@1={report.recall_at_1} NDCG@5={report.ndcg_at_5}, expected 1.0"
        )
    rendered = json.dumps({"reports": [report.to_dict()]}, sort_keys=True, indent=2)
    if first.setdefault(report.method, rendered) != rendered:
        problems.append(f"{report.method}: report differs between repeats")
    return problems


# -- query-5k ---------------------------------------------------------------------

#: Call latency is reported at p50 and p75, and ten calls beyond p75 need at
#: least 40 calls. (Ten beyond p90 would need 100 calls, about 90 s of
#: fresh-process calls, more than a run can spend.)
QUERY_MIN_CALLS = 40
QUERY_SAMPLE = 200
#: Calls per block, and calls per block whose cue words are removed.
_BLOCK, _STRIPPED_PER_BLOCK = 10, 3


def strip_cues(text: str) -> str:
    """Drop the rule router's cue words, so the query routes to all indices."""
    return " ".join(w for w in text.split() if normalize_text(w) not in ALL_CUE_WORDS)


def query_sample(seed: int, queries) -> list[dict]:
    """Seeded query sample; 3 in every 10 consecutive calls have no cue words.

    The fixed share keeps the 3-index calls, which make the latency tail,
    at the same rank in every run.
    """
    rng = random.Random(f"query-sample/{seed}")
    picked = rng.sample(sorted(queries, key=lambda q: q.query_id), QUERY_SAMPLE)
    sample = []
    for start in range(0, QUERY_SAMPLE, _BLOCK):
        stripped = set(rng.sample(range(_BLOCK), _STRIPPED_PER_BLOCK))
        for j, query in enumerate(picked[start : start + _BLOCK]):
            text = strip_cues(query.text) if j in stripped else query.text
            sample.append(
                {"text": text, "gold": query.gold.clip_id, "all_indices": j in stripped}
            )
    return sample


def query_5k(run: Run) -> None:
    videos = run.videos or 1000
    state = {}

    def setup(out: Path) -> None:
        corpus, queries, corpus_path, _ = _write_inputs(run, videos, out)
        _build_index_cli(corpus_path, out / "index")
        with (out / "sample.jsonl").open("w", encoding="utf-8") as handle:
            for item in query_sample(run.seed, queries):
                handle.write(json.dumps(item) + "\n")
        state.update(out=out, clip_ids={c.ref.clip_id for c in corpus})

    _setups(run, setup)
    out, clip_ids = state["out"], state["clip_ids"]
    _flush(out / "index")
    for _ in range(OPEN_SAMPLES):
        _time_open(run, out / "index", len(clip_ids))
    with (out / "sample.jsonl").open(encoding="utf-8") as handle:
        sample = [json.loads(line) for line in handle]
    for item in sample:
        routed = len(rule_route(item["text"]).selections)
        if routed != (3 if item["all_indices"] else 1):
            raise RuntimeError(f"sample query routes to {routed} indices: {item['text']!r}")

    env = dict(os.environ, PYTHONPATH=str(run.src))
    env.pop(SPAN_FILE_ENV, None)

    def call(text: str, call_env: dict) -> subprocess.CompletedProcess:
        cmd = [sys.executable, str(CHILD), "query", "--fusion", "rrf",
               "--index-dir", str(out / "index"), text]
        return subprocess.run(
            cmd, env=call_env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )

    hits = 0
    for i, traced in run.rounds(minimum=QUERY_MIN_CALLS):
        item = sample[i % len(sample)]
        span_file = out / f"spans-{i}.jsonl"
        call_env = dict(env, **{SPAN_FILE_ENV: str(span_file)}) if traced else env
        try:
            with run.timed_round(i, traced):
                proc = call(item["text"], call_env)
        except subprocess.TimeoutExpired:
            run.operation([f"query timed out after {CHILD_TIMEOUT_S} s"])
            continue
        problems, top10 = _check_query(proc, clip_ids)
        hits += item["gold"] in top10
        run.operation(problems)
        if traced and span_file.exists():
            run.tracer.merge_file(span_file, f"round-{i}")
    calls = [seconds * 1e3 for seconds in run.round_s[False]]
    run.e2e["items_per_s"] = len(calls) / sum(run.round_s[False])
    run.e2e["quality"] = hits / run.attempted
    run.e2e["index_bytes_per_clip"] = _dir_bytes(out / "index") / len(clip_ids)
    # The largest child: RUSAGE_CHILDREN reports the peak of the biggest one.
    run.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    for q in (50, 75):
        name = f"query_p{q}_ms"
        run.named[name] = (percentile(calls, q), "ms")
        run.samples[name] = {"samples": len(calls), "beyond": beyond(len(calls), q)}
    run.named["query_recall_at_10"] = (run.e2e["quality"], "ratio")


def _check_query(proc, clip_ids: set[str]) -> tuple[list[str], list[str]]:
    if proc.returncode != 0:
        return [f"query exited with {proc.returncode}: {proc.stderr.strip()[-200:]}"], []
    try:
        payload = json.loads(proc.stdout)
    except ValueError:
        return ["query printed no JSON"], []
    if not isinstance(payload, list):
        return ["query output is not a JSON list"], []
    problems = []
    ids = [item.get("clip_id") for item in payload]
    unknown = [c for c in ids if c not in clip_ids]
    if unknown:
        problems.append(f"query returned unknown clip ids {unknown[:3]}")
    scores = [item.get("fused_score") for item in payload]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("query fused scores increase")
    return problems, ids[:10]


# -- build-5k ---------------------------------------------------------------------


def build_5k(run: Run) -> None:
    videos = run.videos or 1000
    state = {}

    def setup(out: Path) -> None:
        corpus, _, corpus_path, _ = _write_inputs(run, videos, out, with_queries=False)
        state.update(corpus_path=corpus_path, clips=len(corpus))

    _setups(run, setup)
    clips = state["clips"]
    index_dir = run.work / "built"
    digests: Optional[dict] = None
    indexed_share = []
    for i, traced in run.rounds(minimum=BUILD_MIN_ROUNDS):
        problems = []
        # The round time is the build alone, as build_clips_per_s counts it.
        with run.traced(f"round-{i}", traced):
            start = time.perf_counter()
            printed = _build_index_cli(state["corpus_path"], index_dir)
            run.round_s[traced].append(time.perf_counter() - start)
            loaded = _load_all(index_dir)
        built = _built_counts(printed)
        counts = {source: len(index) for source, index in loaded.items()}
        if counts != built:
            problems.append(f"loaded counts {counts} != built counts {built}")
        indexed_share.append(sum(counts.values()) / (clips * len(INDEX_SOURCES)))
        del loaded
        _flush(index_dir)
        current = _digest_dir(index_dir)
        digests = digests or current
        if current != digests:
            problems.append("rebuilt index files differ")
        run.operation(problems)
    for _ in range(OPEN_SAMPLES):
        _time_open(run, index_dir, clips)
    run.e2e["items_per_s"] = clips / median(run.round_s[False])
    run.e2e["quality"] = min(indexed_share)
    run.e2e["index_bytes_per_clip"] = _dir_bytes(index_dir) / clips
    run.e2e["peak_rss_mb"] = _self_rss_mb()
    run.named.update(
        build_clips_per_s=(run.e2e["items_per_s"], "1/s"),
        open_s=(median(run.open_s), "s"),
        index_bytes_per_clip=(run.e2e["index_bytes_per_clip"], "B"),
    )


def _built_counts(printed: str) -> dict[str, int]:
    """Indexed counts from ``build-index`` output lines ``<source>: indexed=<n> ...``."""
    counts = {}
    for line in printed.splitlines():
        source, _, rest = line.partition(":")
        for part in rest.split():
            if part.startswith("indexed="):
                counts[source] = int(part.split("=", 1)[1])
    return counts


def _digest_dir(index_dir: Path) -> dict[str, str]:
    digests = {}
    for source in INDEX_SOURCES:
        digest = hashlib.sha256()
        with (index_dir / f"{source}.idx").open("rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        digests[source] = digest.hexdigest()
    return digests


@dataclass(frozen=True)
class Workload:
    run: Callable[[Run], None]
    why: str
    #: Spans a traced run of this workload must reach.
    expected_spans: frozenset


_SETUP_SPANS = {"synth.generate", "corpus.io"}
_INDEX_SETUP_SPANS = _SETUP_SPANS | {"cli.main", "index.build", "index.save", "index.load"}

WORKLOADS = {
    "eval-1k": Workload(
        eval_1k,
        "the acceptance corpus (1,000 clips, 3,000 queries) through run_evaluation for four "
        "methods: the evaluation user's main job, dominated by index search",
        frozenset(_INDEX_SETUP_SPANS | {"embed.text", "index.search", "router.route",
                                        "fusion.fuse", "evaluation.run"}),
    ),
    "query-5k": Workload(
        query_5k,
        "fresh-process cliproute query calls on 5,000 clips, 3 in 10 routed to all indices: "
        "the ad-hoc user, dominated by import and index load",
        frozenset(_INDEX_SETUP_SPANS | {"cli.import", "embed.text", "index.search",
                                        "router.route", "fusion.fuse"}),
    ),
    "build-5k": Workload(
        build_5k,
        "build-index over 5,000 clips from JSONL, then loading all four indices: the write "
        "path (embedding, pooling, saving, loading) with no search",
        frozenset(_SETUP_SPANS | {"cli.main", "embed.text", "index.build", "index.save",
                                  "index.load"}),
    ),
}


def run_workload(name: str, run: Run) -> None:
    """Run one workload; fills ``run`` with its metrics and check results."""
    run.work.mkdir(parents=True, exist_ok=True)
    if run.trace and run.tracer is None:
        run.tracer = Tracer()
    workload = WORKLOADS[name]
    try:
        workload.run(run)
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
    run.e2e["open_s"] = median(run.open_s)
    run.named = {
        "setup_s": (run.e2e["setup_s"], "s"),
        **run.named,
        "peak_rss_mb": (run.e2e["peak_rss_mb"], "MB"),
    }
    if run.trace:
        untraced, traced = median(run.round_s[False]), median(run.round_s[True])
        overhead = traced / untraced - 1.0 if untraced and traced else 0.0
        metrics, samples, missing = layers.layer_metrics(
            run.tracer.spans,
            set(workload.expected_spans),
            run.tracer.missing,
            ENTRY_POINTS,
            overhead,
        )
        run.layers, run.layer_missing = metrics, missing
        run.samples.update(samples)
        run.overhead = {"untraced_round_s": untraced, "traced_round_s": traced, "ratio": overhead}

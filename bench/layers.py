"""Per-layer metrics derived from the spans of a traced run.

A *round* is one traced unit of the timed phase: one evaluation pass over
all methods (eval-1k), one CLI call (query-5k), or one build-and-open cycle
(build-5k). Counts and busy times are given per round so that runs of
different lengths compare. Set-up spans belong to requests named
``setup-<k>``, timed-phase spans to ``round-<i>``.

Each metric names the span it is derived from. When that span's entry point
no longer exists, or a workload that should reach it never does, the metric
is left out and the span is reported as missing: a vanished layer must not
read as a layer that became free.
"""

from __future__ import annotations

import os

from tracing import SpanIndex, beyond, median, percentile

EVAL_METHODS = ("routed:rule", "late_fusion_all", "single:asr", "all_text")


def method_key(label: str) -> str:
    return label.replace(":", "_")


#: name -> (unit, span the metric is derived from)
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "synth.generate_s": ("s", "synth.generate"),
    "corpus.io_s": ("s", "corpus.io"),
    "embed.calls": ("count", "embed.text"),
    "embed.us_per_text": ("us", "embed.text"),
    "embed.repeat_ratio": ("ratio", "embed.text"),
    "index.build_self_s": ("s", "index.build"),
    "index.save_s": ("s", "index.save"),
    "index.save_mb_per_s": ("MB/s", "index.save"),
    "index.load_s": ("s", "index.load"),
    "index.load_mb_per_s": ("MB/s", "index.load"),
    "index.file_bytes": ("B", "index.load"),
    "index.search_calls": ("count", "index.search"),
    "index.search_busy_s": ("s", "index.search"),
    "index.search_us_p50": ("us", "index.search"),
    "index.search_us_p99": ("us", "index.search"),
    "index.nonzero_ratio": ("ratio", "index.search"),
    "router.calls": ("count", "router.route"),
    "router.us_per_call": ("us", "router.route"),
    "router.mean_selected": ("count", "router.route"),
    "router.fallback_ratio": ("ratio", "router.route"),
    "fusion.calls": ("count", "fusion.fuse"),
    "fusion.busy_s": ("s", "fusion.fuse"),
    "fusion.us_per_call": ("us", "fusion.fuse"),
    "fusion.input_items_per_call": ("count", "fusion.fuse"),
    **{
        f"evaluation.qps.{method_key(m)}": ("1/s", "evaluation.run")
        for m in EVAL_METHODS
    },
    "evaluation.aggregate_self_s": ("s", "evaluation.run"),
    "cli.import_ms": ("ms", "cli.import"),
    "cli.query_self_ms": ("ms", "cli.main"),
    "cli.build_self_s": ("s", "cli.main"),
    "trace.overhead_ratio": ("ratio", ""),
    "trace.spans_per_round": ("count", ""),
}

#: Percentile metrics and the percentile each reports.
LAYER_PERCENTILES = {"index.search_us_p50": 50, "index.search_us_p99": 99}

def span_of_entry(entry: str, entry_points) -> str:
    """Span name recorded by a ``module.attribute`` entry point."""
    for module_name, attr, span_name, _ in entry_points:
        if f"{module_name}.{attr}" == entry:
            return span_name
    return entry


def layer_metrics(
    spans: list[list],
    expected: set[str],
    missing_entries: list[str],
    entry_points,
    overhead_ratio: float,
) -> tuple[dict[str, tuple[float, str]], dict[str, dict], list[str]]:
    """Compute every per-layer metric that can be derived.

    Returns (metrics, percentile sample counts, missing span names).
    ``expected`` names the spans this workload must reach.
    """
    idx = SpanIndex(spans)
    requests = {s[4] for s in spans}
    rounds = {r for r in requests if r.startswith("round-")}
    setups = {r for r in requests if r.startswith("setup-")}
    n_rounds = max(1, len(rounds))
    present = {s[0] for s in spans}
    missing = sorted(
        {span_of_entry(e, entry_points) for e in missing_entries}
        | {name for name in expected if name not in present}
    )

    def in_rounds(name):
        return idx.select(name, rounds)

    def attr(i, key, default=0):
        # A call that raised has no attributes.
        return (spans[i][5] or {}).get(key, default)

    def attr_sum(ids, key):
        return sum(attr(i, key) for i in ids)

    values: dict[str, float] = {}
    # Set-up layers.
    values["synth.generate_s"] = median(idx.durations(idx.select("synth.generate")))
    io = idx.select("corpus.io", setups)
    values["corpus.io_s"] = median(idx.per_request(io, idx.durations(io)))

    # Embedding, counted per round; repeats are judged within a round.
    emb = in_rounds("embed.text")
    seen: set = set()
    repeats = 0
    for i in emb:
        key = (spans[i][4], attr(i, "key", None))
        repeats += key in seen
        seen.add(key)
    values["embed.calls"] = len(emb) / n_rounds
    values["embed.us_per_text"] = _mean_us(idx.durations(emb))
    values["embed.repeat_ratio"] = repeats / len(emb) if emb else 0.0

    # Index write and read path: totals per request that did the work.
    build = idx.select("index.build")
    values["index.build_self_s"] = median(idx.per_request(build, idx.self_times(build)))
    for kind in ("save", "load"):
        ids = idx.select(f"index.{kind}")
        times = idx.durations(ids)
        values[f"index.{kind}_s"] = median(idx.per_request(ids, times))
        total_bytes = attr_sum(ids, "bytes")
        values[f"index.{kind}_mb_per_s"] = (
            total_bytes / 1e6 / sum(times) if sum(times) > 0 else 0.0
        )
    # Bytes of the index files in the directory written or read last.
    files_by_dir: dict[str, dict[str, int]] = {}
    last_dir = None
    for span in spans:
        if span[0] in ("index.save", "index.load") and span[5]:
            last_dir = os.path.dirname(span[5]["path"])
            files_by_dir.setdefault(last_dir, {})[span[5]["path"]] = span[5]["bytes"]
    values["index.file_bytes"] = float(sum(files_by_dir[last_dir].values())) if last_dir else 0.0

    search = in_rounds("index.search")
    search_us = [d * 1e6 for d in idx.durations(search)]
    values["index.search_calls"] = len(search) / n_rounds
    values["index.search_busy_s"] = sum(search_us) / 1e6 / n_rounds
    samples = {}
    for name, q in LAYER_PERCENTILES.items():
        values[name] = percentile(search_us, q)
        samples[name] = {"samples": len(search_us), "beyond": beyond(len(search_us), q)}
    items = attr_sum(search, "items")
    values["index.nonzero_ratio"] = attr_sum(search, "nonzero") / items if items else 0.0

    route = in_rounds("router.route")
    values["router.calls"] = len(route) / n_rounds
    values["router.us_per_call"] = _mean_us(idx.durations(route))
    values["router.mean_selected"] = attr_sum(route, "selected") / len(route) if route else 0.0
    values["router.fallback_ratio"] = (
        sum(1 for i in route if attr(i, "selected") == 3 or attr(i, "origin") == "fallback_all")
        / len(route)
        if route
        else 0.0
    )

    fuse = in_rounds("fusion.fuse")
    fuse_s = idx.durations(fuse)
    values["fusion.calls"] = len(fuse) / n_rounds
    values["fusion.busy_s"] = sum(fuse_s) / n_rounds
    values["fusion.us_per_call"] = _mean_us(fuse_s)
    values["fusion.input_items_per_call"] = attr_sum(fuse, "input_items") / len(fuse) if fuse else 0.0

    runs = in_rounds("evaluation.run")
    for method in EVAL_METHODS:
        qps = [
            attr(i, "queries") / (spans[i][2] - spans[i][1])
            for i in runs
            if attr(i, "method", None) == method
        ]
        values[f"evaluation.qps.{method_key(method)}"] = median(qps)
    values["evaluation.aggregate_self_s"] = sum(idx.self_times(runs)) / n_rounds

    values["cli.import_ms"] = median(idx.durations(idx.select("cli.import"))) * 1e3
    mains = idx.select("cli.main")
    for command, name, scale in (("query", "cli.query_self_ms", 1e3), ("build-index", "cli.build_self_s", 1.0)):
        chosen = [i for i in mains if attr(i, "command", None) == command]
        values[name] = median(idx.self_times(chosen)) * scale

    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.spans_per_round"] = sum(1 for s in spans if s[4] in rounds) / n_rounds

    metrics = {
        name: (float(values[name]), unit)
        for name, (unit, span) in LAYER_METRICS.items()
        if span not in missing
    }
    return metrics, samples, missing


def _mean_us(durations: list[float]) -> float:
    return sum(durations) / len(durations) * 1e6 if durations else 0.0

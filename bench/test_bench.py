"""Self-test of the benchmark on a tiny corpus (20 videos x 5 clips).

Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_VIDEOS = 20
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(name: str, trace: bool, tmp: Path) -> workloads.Run:
    run = workloads.Run(
        seed=3, seconds=0.1, trace=trace, work=tmp / name, src=ROOT / "src", videos=TINY_VIDEOS
    )
    workloads.run_workload(name, run)
    return run


@pytest.fixture(scope="module")
def work():
    path = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, work):
    run = _run(name, trace=False, tmp=work)
    assert run.attempted >= 1
    assert run.failed == 0, run.problems
    assert set(run.e2e) == set(workloads.E2E_UNITS)
    for metric, value in run.e2e.items():
        assert value > 0, metric
    for _metric, (value, unit) in run.named.items():
        assert unit and value >= 0
    for metric, info in run.samples.items():
        assert info["samples"] > 0, metric
        assert info["beyond"] >= 10, (metric, info)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, work):
    run = _run(name, trace=True, tmp=work)
    assert run.failed == 0, run.problems
    assert run.layer_missing == []
    assert set(run.layers) == set(layers.LAYER_METRICS)
    for metric, (_value, unit) in run.layers.items():
        assert unit == layers.LAYER_METRICS[metric][0]
    assert run.overhead["untraced_round_s"] > 0 and run.overhead["traced_round_s"] > 0
    if name == "eval-1k":
        # The search percentiles are stated for the evaluation workload.
        for metric in layers.LAYER_PERCENTILES:
            assert run.samples[metric]["beyond"] >= 10, run.samples[metric]


def test_missing_entry_point_is_reported_not_zero():
    tracer = tracing.Tracer()
    fake = (("cliproute.index", "search_gone", "index.search", None),)
    tracer.install(fake)
    tracer.uninstall()
    assert tracer.missing == ["cliproute.index.search_gone"]
    metrics, _samples, missing = layers.layer_metrics([], set(), tracer.missing, fake, 0.0)
    assert "index.search" in missing
    assert not any(name.startswith("index.search") for name in metrics)
    assert "index.nonzero_ratio" not in metrics


def test_expected_span_never_reached_is_missing():
    _metrics, _samples, missing = layers.layer_metrics(
        [], {"fusion.fuse"}, [], tracing.ENTRY_POINTS, 0.0
    )
    assert missing == ["fusion.fuse"]


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _span) in layers.LAYER_METRICS.items()
    }
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


def test_query_sample_is_seeded_with_a_fixed_all_index_share():
    from cliproute.synth import generate_synthetic_corpus

    _corpus, queries = generate_synthetic_corpus(3, TINY_VIDEOS, 5)
    sample = workloads.query_sample(3, queries)
    assert sample == workloads.query_sample(3, queries)
    assert sample != workloads.query_sample(4, queries)
    for start in range(0, len(sample), 10):
        assert sum(item["all_indices"] for item in sample[start : start + 10]) == 3


def test_bare_directory_fails_without_a_result(work):
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "eval-1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

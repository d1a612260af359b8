"""cliproute benchmark: one command for every workload and metric.

Usage, from the root of a checkout::

    python3 bench/run.py --workload eval-1k --seed 1 --seconds 20 --trace 0

It runs one workload (see ``workloads.py`` for each one and why it was
chosen), checks the program's outputs, and prints human-readable lines
followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics, timed with
tracing off; with ``--trace 1`` they are the per-layer metrics of a traced
run, including the tracing overhead. Spans of a traced run are written to
``.bench_work/traces/``. Run data lives in ``.bench_work/`` and is removed
at exit. Without ``src/cliproute`` beside this directory the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def machine_info() -> dict:
    """The machine and numeric stack the numbers were measured on."""
    import numpy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "index_reads": "served from the OS page cache; caches are never dropped",
    }


def _blas_threads():
    """OpenBLAS's thread count, asked from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cliproute" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'cliproute'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_start = time.perf_counter()
    import cliproute.cli  # noqa: F401  (timed: the import every CLI call pays)

    import_end = time.perf_counter()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {args.workload}: {workload.why}")
    print("machine " + json.dumps(machine_info(), sort_keys=True))

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run = workloads.Run(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace), work=work, src=SRC
    )
    try:
        if run.trace:
            run.tracer = workloads.Tracer()
            run.tracer.add_span("cli.import", import_start, import_end)
        workloads.run_workload(args.workload, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.trace:
        run.tracer.dump(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")

    for problem in run.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    metrics = report_lines(run)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def report_lines(run) -> dict[str, tuple[float, str]]:
    """Print every metric of ``run`` with its unit; return those of the result.

    An untraced run prints the workload's own metric names first, then the
    end-to-end metrics every workload shares, which form the result.
    """
    import layers
    import workloads

    if not run.trace:
        for name, (value, unit) in run.named.items():
            line = f"{name} {value:.6g} {unit}"
            if name in run.samples:
                line += " ({samples} samples, {beyond} beyond)".format(**run.samples[name])
            print(line)
        metrics = {name: (run.e2e[name], unit) for name, unit in workloads.E2E_UNITS.items()}
    else:
        for name in run.layer_missing:
            print(f"MISSING: span {name} (entry point gone or never reached)")
        print("trace overhead " + json.dumps(run.overhead, sort_keys=True))
        for name in layers.LAYER_PERCENTILES:
            info = run.samples[name]
            print(f"{name}: {info['samples']} samples, {info['beyond']} beyond")
        metrics = run.layers
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())

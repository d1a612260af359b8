"""In-memory span tracing around cliproute's public entry points.

The benchmark does not change the program: :class:`Tracer` replaces each
entry point listed in :data:`ENTRY_POINTS` with a wrapper that records one
span (name, start, end, parent span, request id, attributes) per call, and
puts the originals back on :meth:`Tracer.uninstall`. A function is replaced
in every loaded ``cliproute`` module that holds it, so calls made through a
``from .index import search`` binding are traced too. An entry point that no
longer exists is reported as missing instead of as zero time.

Spans stay in memory until :meth:`Tracer.dump` writes them as JSON lines.
Child processes (see ``cliproute_child.py``) dump their own spans, which
:meth:`Tracer.merge_file` folds into the parent's list.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Optional

#: Names the span file of a traced CLI child. ``cliproute_child.py`` spells
#: it out instead of importing this module, so untraced calls stay free of it.
SPAN_FILE_ENV = "CLIPROUTE_BENCH_SPANS"


def _search_attrs(args, kwargs, result):
    scores = [score for _ref, score in result.items]
    return {"items": len(scores), "nonzero": sum(1 for s in scores if s > 0)}


def _file_attrs(path_arg: int):
    def attrs(args, kwargs, result):
        path = kwargs.get("path", args[path_arg] if len(args) > path_arg else None)
        return {"path": str(path), "bytes": os.path.getsize(path)}

    return attrs


def _embed_attrs(args, kwargs, result):
    spec, text = args[0], args[1]
    return {"key": f"{spec.name}/{spec.dim}/{text}"}


def _route_attrs(args, kwargs, result):
    return {
        "selected": len(result.selections),
        "origin": getattr(result.origin, "value", str(result.origin)),
    }


def _fuse_attrs(args, kwargs, result):
    lists = kwargs.get("lists", args[0])
    return {"input_items": sum(len(ranked.items) for ranked in lists)}


def _eval_attrs(args, kwargs, result):
    return {"method": result.method, "queries": result.n_queries}


def _cli_attrs(args, kwargs, result):
    argv = kwargs.get("argv", args[0] if args else None) or sys.argv[1:]
    return {"command": argv[0] if argv else ""}


#: (module, attribute, span name, attribute extractor). A dotted attribute
#: names a method on a class. Several entry points may share a span name.
ENTRY_POINTS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cliproute.synth", "generate_synthetic_corpus", "synth.generate", None),
    ("cliproute.corpus", "save_corpus", "corpus.io", None),
    ("cliproute.corpus", "save_queries", "corpus.io", None),
    ("cliproute.corpus", "load_corpus", "corpus.io", None),
    ("cliproute.corpus", "load_queries", "corpus.io", None),
    ("cliproute.embed", "embed_text", "embed.text", _embed_attrs),
    ("cliproute.index", "build_index", "index.build", None),
    ("cliproute.index", "build_fused_index", "index.build", None),
    ("cliproute.index", "save_index", "index.save", _file_attrs(1)),
    ("cliproute.index", "load_index", "index.load", _file_attrs(0)),
    ("cliproute.index", "search", "index.search", _search_attrs),
    ("cliproute.router", "RuleRouter.route", "router.route", _route_attrs),
    ("cliproute.fusion", "fuse", "fusion.fuse", _fuse_attrs),
    ("cliproute.evaluation", "run_evaluation", "evaluation.run", _eval_attrs),
    ("cliproute.cli", "main", "cli.main", _cli_attrs),
)


class Tracer:
    """Collects spans from wrapped entry points of one process.

    A span is ``[name, start, end, parent, request, attrs]``; ``parent`` is
    the list index of the enclosing span or None. Tracing is single-threaded,
    matching the program, so the open-span stack needs no lock.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: str = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing wrappers -------------------------------------------------

    def install(self, entry_points: Iterable[tuple] = ENTRY_POINTS) -> None:
        if self._patches:
            return
        self.missing = []
        for module_name, attr, span_name, attrs_fn in entry_points:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(span_name, original, attrs_fn)
            if owner_name:
                self._patch(owner, method, wrapped)
                continue
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "cliproute" or loaded is None:
                    continue
                if loaded.__dict__.get(method) is original:
                    self._patch(loaded, method, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name: str, wrapped) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapped)

    def _wrap(self, span_name: str, fn, attrs_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [span_name, 0.0, 0.0, stack[-1] if stack else None, self.request, None]
            stack.append(len(spans))
            spans.append(record)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                record[1] = start
                stack.pop()
            if attrs_fn is not None:
                record[5] = attrs_fn(args, kwargs, result)
            return result

        return wrapper

    # -- spans outside the wrapped calls ---------------------------------------

    def add_span(self, name: str, start: float, end: float, attrs=None) -> None:
        """Record a span the benchmark timed itself (e.g. an import)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, self.request, attrs])

    def merge_file(self, path: Path, request: str) -> None:
        """Append spans dumped by a child process under ``request``."""
        base = len(self.spans)
        with Path(path).open(encoding="utf-8") as handle:
            for line in handle:
                name, start, end, parent, _req, attrs = json.loads(line)
                self.spans.append(
                    [name, start, end, None if parent is None else parent + base, request, attrs]
                )

    def dump(self, path: Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# -- span analysis ---------------------------------------------------------------


class SpanIndex:
    """Durations, self times and per-request grouping over a span list."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        self.self_time = [s[2] - s[1] - c for s, c in zip(spans, child_time)]

    def select(self, name: str, requests: Optional[set] = None) -> list[int]:
        return [
            i
            for i, s in enumerate(self.spans)
            if s[0] == name and (requests is None or s[4] in requests)
        ]

    def durations(self, ids: list[int]) -> list[float]:
        return [self.spans[i][2] - self.spans[i][1] for i in ids]

    def self_times(self, ids: list[int]) -> list[float]:
        return [self.self_time[i] for i in ids]

    def per_request(self, ids: list[int], values: list[float]) -> list[float]:
        """Sum ``values`` by the request of each span; one total per request."""
        totals: dict[str, float] = {}
        for i, value in zip(ids, values):
            totals[self.spans[i][4]] = totals.get(self.spans[i][4], 0.0) + value
        return list(totals.values())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``count``."""
    return count - _rank(count, q) if count else 0


def _rank(count: int, q: float) -> int:
    return max(1, math.ceil(count * q / 100))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0

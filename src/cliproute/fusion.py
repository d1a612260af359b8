"""Rank-based fusion of per-source result lists.

Linear fusion sums (n - rank) contributions per list; reciprocal rank
fusion sums 1/(k + rank). Both are purely rank-driven (no similarity
values), keep per-item provenance of contributing index sources, and order
ties deterministically so reports are reproducible. :func:`fuse` returns
the ranked :class:`FusedItem` list itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .corpus import MODALITIES, ClipRef
from .index import RankedList

DEFAULT_RRF_K = 60.0


class FusionError(ValueError):
    """Raised for invalid fusion inputs."""


class FusionMethod(str, Enum):
    LINEAR = "linear"
    RRF = "rrf"


@dataclass
class FusedItem:
    ref: ClipRef
    score: float
    #: 1-based rank per contributing index source; absent sources are omitted.
    provenance: dict[str, int]

    def provenance_wire(self) -> dict[str, Optional[int]]:
        """All three modality keys with null for non-contributing ones."""
        return {m.wire: self.provenance.get(m.wire) for m in MODALITIES}


def fuse(
    lists: Sequence[RankedList],
    method: FusionMethod | str,
    n: int,
    rrf_k: float = DEFAULT_RRF_K,
) -> list[FusedItem]:
    """Fuse ranked lists by summing each item's per-rank contributions.

    A list holding an item at ``rank`` adds ``n - rank`` (linear) or
    ``1 / (rrf_k + rank)`` (RRF), in list order. Contributions fall strictly
    as rank grows, so a single list keeps its own order. ``method`` may be
    given by its wire name, and an unknown one raises :class:`FusionError`.
    Returns the fused items, best first.
    """
    try:
        method = FusionMethod(method)
    except ValueError:
        raise FusionError(f"unknown fusion method {method!r}") from None
    if not lists:
        raise FusionError("fusion requires at least one ranked list")
    seen_sources = set()
    for ranked in lists:
        if ranked.source in seen_sources:
            raise FusionError(f"duplicate source {ranked.source!r} in fusion input")
        seen_sources.add(ranked.source)
    max_len = max(len(ranked.items) for ranked in lists)

    # contribution[rank - 1] is what a list adds for an item at ``rank``.
    ranks = range(1, max_len + 1)
    if method is FusionMethod.LINEAR:
        if n < max_len:
            raise FusionError(f"depth n={n} is smaller than the longest list ({max_len})")
        contribution = [float(n - rank) for rank in ranks]
    else:
        if not (math.isfinite(rrf_k) and rrf_k > 0):
            raise FusionError(f"rrf constant must be finite and positive, got {rrf_k}")
        contribution = [1.0 / (rrf_k + rank) for rank in ranks]

    if len(lists) == 1:
        (ranked,) = lists
        return [
            FusedItem(ref, score, {ranked.source: rank})
            for rank, ((ref, _), score) in enumerate(zip(ranked.items, contribution), start=1)
        ]

    by_ref: dict[ClipRef, FusedItem] = {}
    for ranked in lists:
        for rank, (ref, _score) in enumerate(ranked.items, start=1):
            item = by_ref.get(ref)
            if item is None:
                by_ref[ref] = FusedItem(ref, contribution[rank - 1], {ranked.source: rank})
            else:
                item.score += contribution[rank - 1]
                item.provenance[ranked.source] = rank

    # Ties: better best-rank first, then more contributing sources,
    # then ascending canonical clip id.
    return sorted(
        by_ref.values(),
        key=lambda i: (-i.score, min(i.provenance.values()), -len(i.provenance), i.ref.clip_id),
    )

"""Per-modality sparse vector indices with exact top-n cosine search.

One immutable index per searchable source (the three modalities plus the
optional fused-caption index): each clip's text is split into sentences,
every sentence embedded, and the sentence vectors mean-pooled into a single
re-normalized vector per clip. Each clip row keeps only its nonzero entries
(CSR form); the hashed reference embedder fills about 19 of 4,096 buckets.
Search scores postings exactly: it gathers the postings of the query's
nonzero buckets, sums each clip's products in ascending bucket order (bit-equal
to a sequential dot product), and returns only clips with a positive score.
The on-disk format is versioned, self-describing and checksummed, so files
round-trip bit-exactly and damaged files are rejected when loaded.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .corpus import ClipRef, Corpus, CorpusError, Modality, parse_clip_id
from .embed import EmbedderSpec, EmbeddingError, embed_text, is_zero

FORMAT_NAME = "cliproute-index"
FORMAT_VERSION = 2
DEFAULT_DEPTH = 50

FUSED_SOURCE = "fused"
INDEX_SOURCES = ("asr", "ocr", "visuals", FUSED_SOURCE)

_SENTENCE_SPLIT_RE = re.compile(r"[.!?]+")
_ENTRY_HEAD = struct.Struct("<II")  # id length, nnz


class IndexingError(RuntimeError):
    """Raised for index build, search, or serialization failures."""


@dataclass
class BuildStats:
    indexed: int
    skipped: int
    empty: bool = False

    def to_dict(self) -> dict:
        return {"indexed": self.indexed, "skipped": self.skipped, "empty": self.empty}


@dataclass
class ModalityIndex:
    """Immutable searchable store of unit vectors for one text source.

    Row ``i`` (clip ``clip_refs[i]``) holds ``weights[indptr[i]:indptr[i + 1]]``
    at the strictly increasing ``buckets[indptr[i]:indptr[i + 1]]``; every
    other entry of the row is zero.
    """

    source: str
    embedder: EmbedderSpec
    clip_refs: list[ClipRef]
    indptr: np.ndarray  # (len(clip_refs) + 1,) int64 row offsets
    buckets: np.ndarray  # (nnz,) uint32 bucket ids
    weights: np.ndarray  # (nnz,) float64 row values
    build_stats: BuildStats

    def __post_init__(self) -> None:
        # Bucket-major postings: bucket b's rows (ascending) and weights sit
        # at [_post_ptr[b], _post_ptr[b + 1]) of _post_rows / _post_weights.
        rows = np.repeat(np.arange(len(self.clip_refs)), np.diff(self.indptr))
        order = np.argsort(self.buckets, kind="stable")
        self._post_rows = rows[order]
        self._post_weights = self.weights[order]
        self._post_ptr = np.zeros(self.embedder.dim + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.buckets, minlength=self.embedder.dim), out=self._post_ptr[1:])
        # Rank of each clip id in sorted order drives the deterministic tie-break.
        ids = [ref.clip_id for ref in self.clip_refs]
        self._id_rank = np.empty(len(ids), dtype=np.int64)
        self._id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))

    def __len__(self) -> int:
        return len(self.clip_refs)

    @property
    def modality(self) -> Optional[Modality]:
        """The modality this index serves; None for the fused-caption index."""
        return Modality.from_wire(self.source)


@dataclass
class RankedList:
    """Top-n search result for one source, scores positive and non-increasing."""

    modality: Optional[Modality]
    items: list[tuple[ClipRef, float]]
    depth: int


def split_sentences(text: str) -> list[str]:
    """Split on sentence punctuation; parts that normalize to nothing drop out."""
    return [part for part in _SENTENCE_SPLIT_RE.split(text) if part.strip()]


def _pool_clip_vector(spec: EmbedderSpec, text: str) -> Optional[np.ndarray]:
    vectors = []
    for sentence in split_sentences(text):
        vec = embed_text(spec, sentence)
        if not is_zero(vec):
            vectors.append(vec)
    if not vectors:
        return None
    pooled = np.mean(vectors, axis=0)
    norm = float(np.linalg.norm(pooled))
    if norm == 0.0:
        return None
    return pooled / norm


def _build_for_source(corpus: Corpus, source: str, spec: EmbedderSpec) -> ModalityIndex:
    refs: list[ClipRef] = []
    # A leading empty row keeps concatenate valid for an empty index and makes
    # the cumulative row lengths start at 0, as indptr does.
    row_buckets: list[np.ndarray] = [np.zeros(0, dtype=np.uint32)]
    row_weights: list[np.ndarray] = [np.zeros(0, dtype=np.float64)]
    skipped = 0
    for clip in corpus:
        text = clip.text_for(source)
        vector = _pool_clip_vector(spec, text) if text else None
        if vector is None:
            skipped += 1
            continue
        nonzero = np.flatnonzero(vector)
        refs.append(clip.ref)
        row_buckets.append(nonzero.astype(np.uint32))
        row_weights.append(vector[nonzero])
    indptr = np.cumsum([len(b) for b in row_buckets], dtype=np.int64)
    stats = BuildStats(indexed=len(refs), skipped=skipped, empty=not refs)
    return ModalityIndex(
        source=source,
        embedder=spec,
        clip_refs=refs,
        indptr=indptr,
        buckets=np.concatenate(row_buckets),
        weights=np.concatenate(row_weights),
        build_stats=stats,
    )


def build_index(corpus: Corpus, modality: Modality, spec: EmbedderSpec) -> ModalityIndex:
    """Build the vector index for one modality's text field."""
    return _build_for_source(corpus, modality.wire, spec)


def build_fused_index(corpus: Corpus, spec: EmbedderSpec) -> ModalityIndex:
    """Build the index over fused captions (the all-text baseline)."""
    return _build_for_source(corpus, FUSED_SOURCE, spec)


def search(index: ModalityIndex, query_vec: np.ndarray, n: int) -> RankedList:
    """Exact top-n cosine search over the clips with a positive score.

    Ties in score are broken by ascending canonical clip id. A query that
    shares no bucket with the index, such as the zero sentinel of
    unembeddable text, yields an empty result.
    """
    if n < 1:
        raise IndexingError(f"search depth must be >= 1, got {n}")
    if query_vec.shape != (index.embedder.dim,):
        raise EmbeddingError(
            f"query dim {query_vec.shape} does not match index dim ({index.embedder.dim},)"
        )
    query_buckets = np.flatnonzero(query_vec)
    starts = index._post_ptr[query_buckets]
    lengths = index._post_ptr[query_buckets + 1] - starts
    # Positions of the query buckets' postings, concatenated in bucket order.
    offsets = np.cumsum(lengths) - lengths
    positions = np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)
    products = index._post_weights[positions] * np.repeat(query_vec[query_buckets], lengths)
    # bincount adds its weights in input order, so each clip's score is summed
    # in ascending bucket order: bit-equal to a sequential dot product.
    scores = np.bincount(index._post_rows[positions], weights=products, minlength=len(index))
    hits = np.flatnonzero(scores > 0)
    top = hits[np.lexsort((index._id_rank[hits], -scores[hits]))[:n]]
    items = [(index.clip_refs[i], float(scores[i])) for i in top]
    return RankedList(modality=index.modality, items=items, depth=n)


def _header_line(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"


def _digest(header: dict, payload: bytes) -> str:
    """sha256 of the header line without its digest field, then the payload."""
    digest = hashlib.sha256(_header_line(header))
    digest.update(payload)
    return digest.hexdigest()


def save_index(index: ModalityIndex, path: str | Path) -> None:
    """Write the versioned binary index file (format v2).

    Layout: one canonical JSON header line, then per entry a little-endian
    u32 id length, a u32 nnz, the UTF-8 clip id, nnz u32 bucket ids and nnz
    float64 weights. The header's ``sha256`` covers the rest of the header
    and the payload. Writing the same index twice produces identical bytes.
    """
    parts = []
    for i, ref in enumerate(index.clip_refs):
        lo, hi = index.indptr[i], index.indptr[i + 1]
        id_bytes = ref.clip_id.encode("utf-8")
        parts.append(_ENTRY_HEAD.pack(len(id_bytes), hi - lo))
        parts.append(id_bytes)
        parts.append(index.buckets[lo:hi].astype("<u4").tobytes())
        parts.append(index.weights[lo:hi].astype("<f8").tobytes())
    payload = b"".join(parts)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "source": index.source,
        "embedder": index.embedder.to_dict(),
        "dim": index.embedder.dim,
        "count": len(index.clip_refs),
        "nnz": len(index.buckets),
        "build_stats": index.build_stats.to_dict(),
    }
    header["sha256"] = _digest(header, payload)
    with Path(path).open("wb") as handle:
        handle.write(_header_line(header))
        handle.write(payload)


def load_index(path: str | Path) -> ModalityIndex:
    """Read an index file back; inverse of :func:`save_index`.

    Any file :func:`save_index` did not write, including a truncated or
    altered one, raises :class:`IndexingError`.
    """
    path = Path(path)
    try:
        return _decode(path.read_bytes())
    except IndexingError as exc:
        raise IndexingError(f"{path}: {exc}") from None


def _decode(data: bytes) -> ModalityIndex:
    header_line, _, payload = data.partition(b"\n")
    try:
        header = json.loads(header_line)
    except ValueError:
        raise IndexingError("not an index file (bad header)") from None
    if not isinstance(header, dict):
        raise IndexingError("not an index file (bad header)")
    if header.get("format") != FORMAT_NAME:
        raise IndexingError(f"unexpected format {header.get('format')!r}")
    if header.get("version") != FORMAT_VERSION:
        raise IndexingError(
            f"unsupported version {header.get('version')!r}; rebuild with build-index"
        )
    if _header_line(header) != header_line + b"\n":
        raise IndexingError("header is not in canonical form")
    try:
        digest = header.pop("sha256")
        spec = EmbedderSpec.from_dict(header["embedder"])
        source = header["source"]
        dim, count, nnz = int(header["dim"]), int(header["count"]), int(header["nnz"])
        stats = BuildStats(**header["build_stats"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IndexingError(f"bad header: {exc!r}") from None
    if digest != _digest(header, payload):
        raise IndexingError("sha256 mismatch: the file is damaged or truncated")
    if source not in INDEX_SOURCES:
        raise IndexingError(f"unknown source {source!r}")
    if dim != spec.dim:
        raise IndexingError(f"header dim {dim} does not match embedder dim {spec.dim}")

    refs: list[ClipRef] = []
    lengths: list[int] = []
    bucket_parts: list[bytes] = []
    weight_parts: list[bytes] = []
    offset = 0
    for _ in range(count):
        if offset + _ENTRY_HEAD.size > len(payload):
            raise IndexingError(f"entry {len(refs)} runs past the end of the file")
        id_len, row_nnz = _ENTRY_HEAD.unpack_from(payload, offset)
        id_end = offset + _ENTRY_HEAD.size + id_len
        bucket_end = id_end + 4 * row_nnz
        offset = bucket_end + 8 * row_nnz
        if offset > len(payload):
            raise IndexingError(f"entry {len(refs)} runs past the end of the file")
        try:
            refs.append(parse_clip_id(payload[id_end - id_len : id_end].decode("utf-8")))
        except (UnicodeDecodeError, CorpusError) as exc:
            raise IndexingError(f"entry {len(refs)}: bad clip id: {exc}") from None
        lengths.append(row_nnz)
        bucket_parts.append(payload[id_end:bucket_end])
        weight_parts.append(payload[bucket_end:offset])
    if offset != len(payload):
        raise IndexingError(f"{len(payload) - offset} bytes trail the last entry")
    indptr = np.cumsum([0, *lengths], dtype=np.int64)
    buckets = np.frombuffer(b"".join(bucket_parts), dtype="<u4").astype(np.uint32)
    weights = np.frombuffer(b"".join(weight_parts), dtype="<f8").astype(np.float64)
    if indptr[-1] != nnz:
        raise IndexingError(f"entries hold {indptr[-1]} nonzeros, header says {nnz}")
    if 0 in lengths:
        raise IndexingError("an entry has no nonzero entries")
    steps = np.diff(buckets.astype(np.int64))
    steps[indptr[1:-1] - 1] = 1  # a row may start below the previous row's end
    if np.any(steps <= 0) or np.any(buckets >= dim):
        raise IndexingError(f"bucket ids must increase within a row and stay below {dim}")
    if not np.all(np.isfinite(weights)) or np.any(weights == 0):
        raise IndexingError("weights must be finite and nonzero")
    return ModalityIndex(
        source=source,
        embedder=spec,
        clip_refs=refs,
        indptr=indptr,
        buckets=buckets,
        weights=weights,
        build_stats=stats,
    )

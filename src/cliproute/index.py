"""Per-modality sparse vector indices with exact top-n cosine search.

One immutable index per searchable source (the three modalities plus the
optional fused-caption index): each clip's text is split into sentences,
every sentence embedded, and the sentence vectors mean-pooled into a single
re-normalized vector per clip. A build pools each fixed block of clips in
one vectorized pass; only each row's norm runs per clip, over a full-width
row, so every weight is bit-equal to pooling full-width rows one by one.
Each clip row keeps only its nonzero entries, stored bucket-major as
postings (an inverted file); the hashed reference embedder fills about 19
of 4,096 buckets per row. Search scores postings exactly: it sums each
clip's products over the query's buckets in ascending bucket order
(bit-equal to a sequential dot product) and returns only clips with a
positive score, equal scores in row order, which is clip-id order. The
versioned, checksummed file holds those postings as whole columns, each
read back with one ``np.frombuffer`` and copied out of the file's bytes:
a load derives nothing, files round-trip bit-exactly, and damaged or
out-of-order files are rejected. Each integer column is stored at the
narrowest of u8, u16 and u32 that holds the largest value the header
allows it (:func:`_column_types`). A save writes the columns one after
another, never joined into one copy. An index keeps its clips as columns
too (video ids, each row's video number, start and end), every integer
column at its file width, built or loaded, and makes a :class:`ClipRef`
only for the rows a search returns.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import compress
from pathlib import Path
from typing import Optional

import numpy as np

from .corpus import FUSED_SOURCE, INDEX_SOURCES, ClipRef, Corpus, Modality, clip_ids, json_object
from .embed import EmbedderSpec, EmbeddingError, SparseVector, embed_text, is_zero

FORMAT_NAME = "cliproute-index"
FORMAT_VERSION = 5
_REBUILD = "rebuild with build-index"
DEFAULT_DEPTH = 50

_SENTENCE_SPLIT_RE = re.compile(r"[.!?]+")
#: The largest value of the widest integer column, u32: the bound on clip
#: times and on the header's counts.
_MAX_U32 = 2**32 - 1
#: Corpus clips per build block, whose clips with text are pooled in one
#: vectorized pass: enough to spread each pass's fixed numpy cost thin, few
#: enough that its scratch memory stays small.
_POOL_BLOCK = 256


class IndexingError(RuntimeError):
    """Raised for index build, search, or serialization failures."""


@dataclass
class BuildStats:
    indexed: int
    skipped: int
    empty: bool = False


@dataclass
class ModalityIndex:
    """Immutable searchable store of unit vectors for one text source.

    Row ``i`` is the clip of video ``video_ids[video_numbers[i]]`` from
    ``start_s[i]`` to ``end_s[i]``, whose ClipRef :meth:`ref` makes on first
    use; rows run in strictly ascending clip-id order. Bucket ``b`` holds
    ``post_weights[post_ptr[b]:post_ptr[b + 1]]`` in the strictly increasing
    rows ``post_rows[post_ptr[b]:post_ptr[b + 1]]``, each row in some bucket.
    The video number, time and row columns have the unsigned widths of
    :func:`_column_types`, the file's, whether the index was built or loaded.
    ``ref in index`` asks whether a row is that clip: a binary search by clip
    id, which makes and keeps no ClipRef.
    """

    source: str
    embedder: EmbedderSpec
    video_ids: list[str]  # the distinct video ids, in order of first use
    video_numbers: np.ndarray  # (count,) places in video_ids
    start_s: np.ndarray  # (count,) clip starts
    end_s: np.ndarray  # (count,) clip ends
    post_ptr: np.ndarray  # (dim + 1,) int64 bucket offsets
    post_rows: np.ndarray  # (nnz,) rows, ascending within a bucket
    post_weights: np.ndarray  # (nnz,) float64 values
    build_stats: BuildStats

    def __post_init__(self) -> None:
        # Row i's ClipRef once made, else None; search reads it directly.
        self._refs: list[Optional[ClipRef]] = [None] * len(self)

    def __len__(self) -> int:
        return len(self.start_s)

    def ref(self, row: int) -> ClipRef:
        """The clip of row ``row``, made from the columns on first use and kept."""
        ref = self._refs[row]
        if ref is None:
            video = self.video_ids[self.video_numbers[row]]
            ref = self._refs[row] = ClipRef(video, int(self.start_s[row]), int(self.end_s[row]))
        return ref

    def __contains__(self, ref: ClipRef) -> bool:
        def clip_id(row: int) -> str:  # the id ClipRef.clip_id writes
            video = self.video_ids[self.video_numbers[row]]
            return f"{video}__s{int(self.start_s[row])}__e{int(self.end_s[row])}"

        row = bisect_left(range(len(self)), ref.clip_id, key=clip_id)
        return row < len(self) and clip_id(row) == ref.clip_id


@dataclass
class RankedList:
    """Top-n search result for one index source, scores positive and non-increasing."""

    source: str
    items: list[tuple[ClipRef, float]]


def split_sentences(text: str) -> list[str]:
    """Split on sentence punctuation; parts that normalize to nothing drop out."""
    return [part for part in _SENTENCE_SPLIT_RE.split(text) if part.strip()]


def _width(largest: int) -> str:
    """The narrowest of u8, u16 and u32 that holds every value up to ``largest``."""
    return "u1" if largest < 2**8 else "u2" if largest < 2**16 else "u4"


def _column_types(count: int, videos: int, max_end_s: int) -> dict[str, str]:
    """Each integer column's unsigned type, from the header's bounds: a row
    is below ``count``, a bucket holds at most ``count`` rows, a video
    number is below ``videos``, and no time passes ``max_end_s``."""
    return {
        "video number": _width(videos - 1),
        "start": _width(max_end_s),
        "end": _width(max_end_s),
        "bucket count": _width(count),
        "row": _width(count - 1),
    }


def _pool_block(rows: list[list[SparseVector]], scratch: np.ndarray) -> tuple[np.ndarray, ...]:
    """Pool a block of clip rows, each the list of its non-empty sentence
    vectors, in one pass.

    Each row is bit-equal to pooling full-width rows: the mean of its
    sentence vectors divided by the norm of that full-width mean. Returns
    which rows to keep (those whose norm is not 0.0) and, for the kept rows
    in order, each one's nonzero count, then all their buckets and weights.
    ``scratch`` is a dim-wide zero row, and is left zero.
    """
    dim = len(scratch)
    vectors = [vec for row in rows for vec in row]
    sizes = [sum(len(vec.buckets) for vec in row) for row in rows]
    # Each sentence entry keyed by (row, bucket) as row * dim + bucket.
    keys = np.repeat(np.arange(0, len(rows) * dim, dim), sizes)
    keys += np.concatenate([vec.buckets for vec in vectors], dtype=np.intp)
    weights = np.concatenate([vec.weights for vec in vectors])
    # The stable sort keeps each key's entries in sentence order, and
    # bincount adds them in that order from 0.0: the sums of the dense
    # row-by-row mean, whose absent 0.0 terms change no sum. np.unique
    # would import numpy.ma (~1 MB) on first use.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    sums = np.bincount(np.cumsum(first) - 1, weights=weights[order])
    entry_rows, entry_buckets = np.divmod(keys[first], dim)
    means = sums / np.array([len(row) for row in rows], dtype=np.float64)[entry_rows]
    # Each norm is sqrt(row . row) over the full-width row, the same BLAS
    # dot that np.linalg.norm runs for a 1-D float64 array, without its
    # wrapper. A dot over the nonzeros alone sums in another order and can
    # change the last bit of a stored weight.
    ptr = np.searchsorted(entry_rows, np.arange(len(rows) + 1)).tolist()
    row_norms = []
    for lo, hi in zip(ptr[:-1], ptr[1:]):
        support = entry_buckets[lo:hi]
        scratch[support] = means[lo:hi]
        row_norms.append(math.sqrt(scratch.dot(scratch)))
        scratch[support] = 0.0
    norms = np.array(row_norms)
    keep = norms != 0.0
    stored = keep[entry_rows]
    entry_rows, entry_buckets = entry_rows[stored], entry_buckets[stored]
    weights = means[stored] / norms[entry_rows]
    # Signed sentence weights can cancel to 0.0, and no stored weight is 0.
    nonzero = weights != 0
    row_nnz = np.bincount(entry_rows[nonzero], minlength=len(rows))[keep]
    return keep, row_nnz, entry_buckets[nonzero], weights[nonzero]


def _build_for_source(corpus: Corpus, source: str, spec: EmbedderSpec) -> ModalityIndex:
    clips = sorted(corpus, key=lambda record: record.ref.clip_id)
    scratch = np.zeros(spec.dim)
    refs: list[ClipRef] = []  # the kept rows' clips, in row order
    # Leading empty entries keep concatenate valid for an empty index.
    row_nnz: list[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    row_buckets: list[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    row_weights: list[np.ndarray] = [np.zeros(0, dtype=np.float64)]
    for lo in range(0, len(clips), _POOL_BLOCK):
        # The block's clips with text: each one's ref and non-empty sentence vectors.
        block_refs: list[ClipRef] = []
        rows: list[list[SparseVector]] = []
        for clip in clips[lo : lo + _POOL_BLOCK]:
            sentences = split_sentences(clip.text_for(source) or "")
            vectors = [vec for vec in (embed_text(spec, s) for s in sentences) if not is_zero(vec)]
            # A clip past the u32 time columns is probed alone as it comes, so
            # its error comes before any later clip is embedded; one that
            # pools to zero is skipped like any other.
            if clip.ref.end_s > _MAX_U32 and vectors and _pool_block([vectors], scratch)[0][0]:
                raise IndexingError(
                    f"clip {clip.ref.clip_id}: times above {_MAX_U32} s do not fit the index"
                )
            if vectors:
                block_refs.append(clip.ref)
                rows.append(vectors)
        if rows:
            keep, nnz, buckets, weights = _pool_block(rows, scratch)
            refs.extend(compress(block_refs, keep.tolist()))
            row_nnz.append(nnz)
            row_buckets.append(buckets)
            row_weights.append(weights)
        # Dropped here, or the last block's sentence vectors would live on
        # through the postings sort below, where a build's memory peaks.
        del rows
    numbers: dict[str, int] = {}  # each video's number, in order of first use
    video_numbers = [numbers.setdefault(ref.video_id, len(numbers)) for ref in refs]
    types = _column_types(len(refs), len(numbers), max((ref.end_s for ref in refs), default=0))
    # The postings: entries stably sorted by bucket, so rows stay ascending
    # in each. 16-bit keys, where they fit, sort by radix several times faster.
    buckets = np.concatenate(row_buckets)
    order = np.argsort(buckets.astype(np.min_scalar_type(spec.dim - 1)), kind="stable")
    post_ptr = np.zeros(spec.dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(buckets, minlength=spec.dim), out=post_ptr[1:])
    entry_rows = np.repeat(np.arange(len(refs), dtype=types["row"]), np.concatenate(row_nnz))
    return ModalityIndex(
        source=source,
        embedder=spec,
        video_ids=list(numbers),
        video_numbers=np.array(video_numbers, dtype=types["video number"]),
        start_s=np.array([ref.start_s for ref in refs], dtype=types["start"]),
        end_s=np.array([ref.end_s for ref in refs], dtype=types["end"]),
        post_ptr=post_ptr,
        post_rows=entry_rows[order],
        post_weights=np.concatenate(row_weights)[order],
        build_stats=BuildStats(indexed=len(refs), skipped=len(clips) - len(refs), empty=not refs),
    )


def build_index(corpus: Corpus, modality: Modality, spec: EmbedderSpec) -> ModalityIndex:
    """Build the vector index for one modality's text field."""
    return _build_for_source(corpus, modality.wire, spec)


def build_fused_index(corpus: Corpus, spec: EmbedderSpec) -> ModalityIndex:
    """Build the index over fused captions (the all-text baseline)."""
    return _build_for_source(corpus, FUSED_SOURCE, spec)


def search(index: ModalityIndex, vec: SparseVector, n: int) -> RankedList:
    """Exact top-n cosine search over the clips with a positive score.

    Ties in score are broken by row, which is ascending clip id. A query that
    shares no bucket with the index, such as the empty vector of
    unembeddable text, yields an empty result.
    """
    if n < 1:
        raise IndexingError(f"search depth must be >= 1, got {n}")
    if vec.dim != index.embedder.dim:
        raise EmbeddingError(f"query dim {vec.dim} does not match index dim {index.embedder.dim}")
    # A registered embedder may return narrow buckets, where + 1 would wrap.
    buckets = vec.buckets.astype(np.intp, copy=False)
    starts = index.post_ptr[buckets]
    lengths = index.post_ptr[buckets + 1] - starts
    # Positions of the query buckets' postings, concatenated in bucket order.
    offsets = np.cumsum(lengths) - lengths
    positions = np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)
    products = index.post_weights[positions] * np.repeat(vec.weights, lengths)
    # bincount adds its weights in input order, so each clip's score is summed
    # in ascending bucket order: bit-equal to a sequential dot product.
    scores = np.bincount(index.post_rows[positions], weights=products, minlength=len(index))
    hits = np.flatnonzero(scores > 0)
    top = hits[np.argsort(-scores[hits], kind="stable")[:n]]  # ties stay in row order
    made = index._refs
    items = [
        (made[i] or index.ref(i), score) for i, score in zip(top.tolist(), scores[top].tolist())
    ]
    return RankedList(index.source, items)


def _header_line(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"


def _digest(header: dict, payload: list) -> str:
    """sha256 of the header line without its digest field, then the payload's
    buffers in order."""
    digest = hashlib.sha256(_header_line(header))
    for chunk in payload:
        digest.update(chunk)
    return digest.hexdigest()


def save_index(index: ModalityIndex, path: str | Path) -> None:
    """Write the versioned binary index file (format v5).

    Layout: one canonical JSON header line, then whole little-endian
    columns: the u32 byte lengths of the distinct video ids (in order of
    first use) and their UTF-8 bytes; per clip, in clip-id order, its video
    number, start_s and end_s; per bucket, its posting count; then the
    postings bucket after bucket: all rows and all float64 weights. Each
    integer column but the id lengths has the unsigned width
    :func:`_column_types` gives for the header's ``count``, ``videos`` and
    ``max_end_s`` (the largest end, 0 for an empty index). The header's
    ``sha256`` covers the rest of the header and the payload. Writing the
    same index twice produces identical bytes. The columns go to the digest
    and then to the file one after another, never joined into one copy; a
    column the index holds in its file type is not copied at all.
    """
    video_ids = [video.encode("utf-8") for video in index.video_ids]
    max_end_s = int(index.end_s.max(initial=0))
    types = _column_types(len(index), len(video_ids), max_end_s)
    columns = {
        "video number": index.video_numbers,
        "start": index.start_s,
        "end": index.end_s,
        "bucket count": np.diff(index.post_ptr),
        "row": index.post_rows,
    }
    payload = [
        np.array([len(video) for video in video_ids], dtype="<u4"),
        b"".join(video_ids),
        *[np.ascontiguousarray(columns[name], "<" + types[name]) for name in columns],
        np.ascontiguousarray(index.post_weights, "<f8"),
    ]
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "source": index.source,
        "embedder": index.embedder.to_dict(),
        "dim": index.embedder.dim,
        "count": len(index),
        "videos": len(video_ids),
        "nnz": len(index.post_rows),
        "max_end_s": max_end_s,
        "build_stats": asdict(index.build_stats),
    }
    header["sha256"] = _digest(header, payload)
    with Path(path).open("wb") as handle:
        handle.write(_header_line(header))
        for chunk in payload:
            handle.write(chunk)


def load_index(path: str | Path) -> ModalityIndex:
    """Read an index file back; inverse of :func:`save_index`.

    Any file :func:`save_index` did not write, including a truncated or
    altered one, raises :class:`IndexingError`.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        return _decode(data)
    except IndexingError as exc:
        raise IndexingError(f"{path}: {exc}") from None


def _decode(data: bytes) -> ModalityIndex:
    # The header line runs through the first newline (the whole file if it
    # has none). The payload is a view, not a copy: every column the index
    # keeps is copied out of it, so a loaded index does not pin the file.
    size = data.find(b"\n") + 1 or len(data)
    header_line, payload = data[:size], memoryview(data)[size:]
    header = json_object(header_line, lambda _: IndexingError("not an index file (bad header)"))
    if header.get("format") != FORMAT_NAME:
        raise IndexingError(f"unexpected format {header.get('format')!r}")
    if header.get("version") != FORMAT_VERSION:
        raise IndexingError(f"unsupported version {header.get('version')!r}; {_REBUILD}")
    if _header_line(header) != header_line:
        raise IndexingError("header is not in canonical form")
    try:
        digest = header.pop("sha256")
        spec = EmbedderSpec.from_dict(header["embedder"])
        source = header["source"]
        dim, count, nnz = int(header["dim"]), int(header["count"]), int(header["nnz"])
        videos, max_end_s = int(header["videos"]), int(header["max_end_s"])
        stats = BuildStats(**header["build_stats"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IndexingError(f"bad header: {exc!r}") from None
    if min(count, videos, nnz, max_end_s) < 0:
        raise IndexingError("bad header: negative count, videos, nnz or max_end_s")
    if max(count, videos, max_end_s) > _MAX_U32:
        raise IndexingError(f"bad header: count, videos or max_end_s above {_MAX_U32}")
    if digest != _digest(header, [payload]):
        raise IndexingError("sha256 mismatch: the file is damaged or truncated")
    if source not in INDEX_SOURCES:
        raise IndexingError(f"unknown source {source!r}")
    if dim != spec.dim:
        raise IndexingError(f"header dim {dim} does not match embedder dim {spec.dim}")

    offset = 0
    types = _column_types(count, videos, max_end_s)

    def column(name: str, dtype: str, n: int) -> np.ndarray:
        nonlocal offset
        start, offset = offset, offset + np.dtype(dtype).itemsize * n
        if offset > len(payload):
            raise IndexingError(f"the {name} column runs past the end of the file")
        return np.frombuffer(payload, dtype, count=n, offset=start)

    def kept(name: str, n: int) -> np.ndarray:  # an integer column, copied out at its width
        return column(name, "<" + types[name], n).astype(types[name])

    id_lengths = column("video id length", "<u4", videos)
    id_bytes = column("video id", "u1", int(id_lengths.sum())).tobytes()
    numbers = kept("video number", count)
    starts = kept("start", count)
    ends = kept("end", count)
    counts = column("bucket count", "<" + types["bucket count"], dim)
    rows = kept("row", nnz)
    weights = column("weight", "<f8", nnz).astype(np.float64)
    if offset != len(payload):
        raise IndexingError(f"{len(payload) - offset} bytes trail the last column")
    post_ptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(counts, out=post_ptr[1:])
    if post_ptr[-1] != nnz:
        raise IndexingError(f"buckets hold {int(post_ptr[-1])} postings, header says {nnz}")
    video_ids: list[str] = []
    at = 0
    for k, length in enumerate(id_lengths.tolist()):
        if not length:
            raise IndexingError(f"video id {k} is empty")
        try:
            video_ids.append(id_bytes[at : at + length].decode("utf-8"))
        except UnicodeDecodeError:
            raise IndexingError(f"video id {k} is not UTF-8") from None
        at += length
    if len(set(video_ids)) < videos:
        raise IndexingError("the video id table repeats an id")
    _check_rows(numbers >= videos, "has a video number past the video ids")
    _check_rows(ends <= starts, "does not end after it starts")
    largest_end = int(ends.max(initial=0))  # 0 for an empty index
    if largest_end != max_end_s:
        raise IndexingError(f"header max_end_s {max_end_s} is not the largest end, {largest_end}")
    # Neighbours are compared, not differenced: an unsigned difference wraps.
    falls = rows[1:] <= rows[:-1]
    falls[post_ptr[:-1][counts > 0][1:] - 1] = False  # a bucket may start below the last one's end
    if np.any(falls) or np.any(rows >= count):
        raise IndexingError(f"rows must increase within a bucket and stay below {count}")
    _check_rows(np.bincount(rows, minlength=count) == 0, "has no nonzero entries")
    if not np.all(np.isfinite(weights)) or np.any(weights == 0):
        raise IndexingError("weights must be finite and nonzero")
    ids = clip_ids(video_ids, numbers.tolist(), starts.tolist(), ends.tolist())
    out_of_order = np.fromiter(map(str.__ge__, ["", *ids], ids), bool, count)  # "" < every id
    _check_rows(out_of_order, f"is not after the row before it in clip-id order; {_REBUILD}")
    # Rows number the ids in order of first use: each row's number is at
    # most one past the largest before it, and the last largest is the last id.
    largest = np.maximum.accumulate(np.append(-1, numbers))  # -1 before the first row
    _check_rows(np.diff(largest) > 1, "names a video id out of first-use order")
    if largest[-1] + 1 < videos:
        raise IndexingError(f"video id {largest[-1] + 1} is not used by any row")
    return ModalityIndex(
        source=source,
        embedder=spec,
        video_ids=video_ids,
        video_numbers=numbers,
        start_s=starts,
        end_s=ends,
        post_ptr=post_ptr,
        post_rows=rows,
        post_weights=weights,
        build_stats=stats,
    )


def _check_rows(bad: np.ndarray, what: str) -> None:
    """Reject the file if any row is flagged ``bad``, naming the first."""
    if bad.any():
        raise IndexingError(f"clip row {int(bad.argmax())} {what}")

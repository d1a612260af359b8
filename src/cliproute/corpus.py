"""Clip and query data model, JSONL corpus loading, and the one JSON decoder
that every input file goes through (:func:`json_object`).

A corpus is a set of video clips, each carrying up to three searchable
modality texts (speech transcript, on-screen text, visual caption) and an
optional fused caption that merges all of them. Clips are identified by a
canonical string of the form ``{video_id}__s{start}__e{end}`` with integer
second boundaries.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence


class CorpusError(ValueError):
    """Raised for malformed clip ids, records, or corpus/query files."""


class Modality(str, Enum):
    """The three searchable content channels of a clip.

    Member order is the fixed total order (ASR < OCR < VISUAL) used for
    deterministic iteration and tie-breaking. Values are the lowercase
    wire names used in every file format and JSON payload.
    """

    ASR = "asr"
    OCR = "ocr"
    VISUAL = "visuals"

    @property
    def wire(self) -> str:
        return self.value

    @classmethod
    def from_wire(cls, name: str) -> Optional["Modality"]:
        """Resolve a wire name case-insensitively; None if unknown."""
        try:
            return cls(name.strip().lower())
        except ValueError:
            return None


MODALITIES: tuple[Modality, ...] = (Modality.ASR, Modality.OCR, Modality.VISUAL)

#: The source name of the fused caption, which the all-text baseline searches.
FUSED_SOURCE = "fused"
#: Every text source an index can be built over, one index file each.
INDEX_SOURCES: tuple[str, ...] = (*(m.wire for m in MODALITIES), FUSED_SOURCE)

#: Valid query source labels: the three modalities plus dense-caption-derived
#: queries, which are never routable.
SOURCE_LABELS: tuple[str, ...] = ("asr", "ocr", "visuals", "dense")

_WORD_BREAK_RE = re.compile(r"[\W_]+", re.UNICODE)


def normalize_text(s: str) -> str:
    """Lowercase, replace punctuation runs with single spaces, and strip.

    Idempotent; empty input yields empty output.
    """
    return _WORD_BREAK_RE.sub(" ", s.lower()).strip()


@dataclass(frozen=True, slots=True)
class ClipRef:
    """Identity and temporal extent of one video clip.

    Refs compare only for equality; code that needs an order sorts by
    :attr:`clip_id`.
    """

    video_id: str
    start_s: int
    end_s: int

    def __post_init__(self) -> None:
        if not self.video_id:
            raise CorpusError("clip ref requires a non-empty video id")
        if self.start_s < 0:
            raise CorpusError(f"clip start must be non-negative, got {self.start_s}")
        if self.end_s <= self.start_s:
            raise CorpusError(
                f"clip end ({self.end_s}) must be greater than start ({self.start_s})"
            )

    @property
    def clip_id(self) -> str:
        return f"{self.video_id}__s{self.start_s}__e{self.end_s}"

    def __str__(self) -> str:
        return self.clip_id


def clip_ids(
    video_ids: Sequence[str], numbers: Iterable[int], starts: Iterable[int], ends: Iterable[int]
) -> list[str]:
    """The canonical ids of clips held as columns, without a ClipRef each:
    clip ``i`` is video ``video_ids[numbers[i]]`` from ``starts[i]`` to
    ``ends[i]``, and its id is the one :attr:`ClipRef.clip_id` writes."""
    return [f"{video_ids[v]}__s{s}__e{e}" for v, s, e in zip(numbers, starts, ends)]


#: A canonical clip id: ASCII decimal boundaries with no leading zero. The
#: greedy video id leaves the last ``__s`` and ``__e`` as the markers.
_CANONICAL_ID_RE = re.compile(r"(.+)__s(0|[1-9][0-9]*)__e(0|[1-9][0-9]*)", re.DOTALL)


def parse_clip_id(s: str) -> ClipRef:
    """Parse a canonical clip id, splitting on the LAST ``__s`` and ``__e``.

    The video id is opaque and may itself contain hyphens, underscores, or
    even ``__s``/``__e`` sequences; only the trailing markers delimit the
    temporal extent.
    """
    # One regex match accepts every valid id; the checks below only run to
    # name what is wrong with an invalid one.
    match = _CANONICAL_ID_RE.fullmatch(s)
    if match is not None:
        try:
            start, end = int(match[2]), int(match[3])
        except ValueError:  # past int()'s digit limit
            raise CorpusError(f"clip id {s!r} has a boundary too long to read") from None
        if end > start:
            return ClipRef(match[1], start, end)
    if not s:
        raise CorpusError("empty clip id")
    head, sep, end_part = s.rpartition("__e")
    if not sep:
        raise CorpusError(f"clip id {s!r} is missing the '__e' end marker")
    video_id, sep, start_part = head.rpartition("__s")
    if not sep:
        raise CorpusError(f"clip id {s!r} is missing the '__s' start marker")
    if not video_id:
        raise CorpusError(f"clip id {s!r} has an empty video id segment")
    try:
        start = int(start_part)
    except ValueError:
        raise CorpusError(f"clip id {s!r} has a non-integer start {start_part!r}") from None
    try:
        end = int(end_part)
    except ValueError:
        raise CorpusError(f"clip id {s!r} has a non-integer end {end_part!r}") from None
    # int() also reads "05", "+5", " 5", "1_0" and non-ASCII digits. Only the
    # form ClipRef.clip_id writes is accepted, so each clip has one id.
    if str(start) != start_part or str(end) != end_part:
        what, part = ("start", start_part) if str(start) != start_part else ("end", end_part)
        raise CorpusError(f"clip id {s!r} has a non-canonical {what} {part!r}")
    if start < 0:
        raise CorpusError(f"clip id {s!r} has a negative start {start_part!r}")
    if end <= start:
        raise CorpusError(f"clip id {s!r} has end {end} <= start {start}")
    return ClipRef(video_id=video_id, start_s=start, end_s=end)


@dataclass(slots=True)
class ClipRecord:
    """One indexed clip with its per-modality texts.

    At least one modality field must be non-empty after normalization;
    well-formed corpora carry a visual caption for every clip.
    """

    ref: ClipRef
    category: Optional[str] = None
    asr_text: Optional[str] = None
    ocr_text: Optional[str] = None
    visual_caption: Optional[str] = None
    fused_caption: Optional[str] = None

    _FIELD_BY_SOURCE = {
        "asr": "asr_text",
        "ocr": "ocr_text",
        "visuals": "visual_caption",
        FUSED_SOURCE: "fused_caption",
    }

    def text_for(self, source: Modality | str) -> Optional[str]:
        """Raw text for a modality wire name or ``"fused"``; None if absent."""
        wire = source.wire if isinstance(source, Modality) else source
        attr = self._FIELD_BY_SOURCE.get(wire)
        if attr is None:
            raise CorpusError(f"unknown text source {source!r}")
        return getattr(self, attr)

    def has_text(self, source: Modality | str) -> bool:
        text = self.text_for(source)
        return bool(text and normalize_text(text))

    def validate(self) -> None:
        if not any(self.has_text(m) for m in MODALITIES):
            raise CorpusError(
                f"clip {self.ref} has no non-empty modality field after normalization"
            )


@dataclass(slots=True)
class QueryRecord:
    """A retrieval query with its gold clip and optional source annotation."""

    query_id: str
    text: str
    gold: ClipRef
    source_modality: Optional[str] = None
    category: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.text or not self.text.strip():
            raise CorpusError(f"query {self.query_id!r} has empty text")
        if self.source_modality is not None:
            label = self.source_modality.strip().lower()
            if label not in SOURCE_LABELS:
                raise CorpusError(
                    f"query {self.query_id!r} has unknown source modality "
                    f"{self.source_modality!r}"
                )
            self.source_modality = label

    def source_as_modality(self) -> Optional[Modality]:
        """The routable gold modality, or None for dense/unlabeled queries."""
        if self.source_modality is None:
            return None
        return Modality.from_wire(self.source_modality)


@dataclass
class Corpus:
    """Immutable-after-load clip collection keyed by ClipRef."""

    clips: dict[ClipRef, ClipRecord] = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: Sequence[ClipRecord]) -> "Corpus":
        clips: dict[ClipRef, ClipRecord] = {}
        for record in records:
            record.validate()
            if record.ref in clips:
                raise CorpusError(f"duplicate clip id {record.ref.clip_id!r}")
            clips[record.ref] = record
        return cls(clips=clips)

    def __len__(self) -> int:
        return len(self.clips)

    def __iter__(self) -> Iterator[ClipRecord]:
        return iter(self.clips.values())

    def __contains__(self, ref: ClipRef) -> bool:
        return ref in self.clips

    def coverage(self) -> dict[str, float]:
        """Fraction of clips with non-empty text per source, in [0, 1]."""
        total = len(self.clips)
        stats: dict[str, float] = {}
        for wire in INDEX_SOURCES:
            if total == 0:
                stats[wire] = 0.0
            else:
                stats[wire] = sum(1 for c in self if c.has_text(wire)) / total
        return stats


def _optional_str(obj: dict, key: str) -> Optional[str]:
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise CorpusError(f"field {key!r} must be a string or null")
    return value


#: A clip's JSONL keys, besides ``clip_id``, and the ClipRecord fields they hold.
_CLIP_FIELDS = {
    "category": "category",
    "asr": "asr_text",
    "ocr": "ocr_text",
    "visual": "visual_caption",
    "fused": "fused_caption",
}


def _clip_from_json(obj: dict) -> ClipRecord:
    clip_id = obj.get("clip_id")
    if not isinstance(clip_id, str) or not clip_id:
        raise CorpusError("missing or invalid 'clip_id'")
    fields = {attr: _optional_str(obj, key) for key, attr in _CLIP_FIELDS.items()}
    record = ClipRecord(ref=parse_clip_id(clip_id), **fields)
    record.validate()
    return record


def _query_from_json(obj: dict) -> QueryRecord:
    query_id = obj.get("query_id")
    if not isinstance(query_id, str) or not query_id:
        raise CorpusError("missing or invalid 'query_id'")
    text = obj.get("text")
    if not isinstance(text, str) or not text.strip():
        raise CorpusError(f"query {query_id!r} has empty text")
    gold_id = obj.get("gold_clip_id")
    if not isinstance(gold_id, str):
        raise CorpusError("missing 'gold_clip_id'")
    return QueryRecord(
        query_id=query_id,
        text=text,
        gold=parse_clip_id(gold_id),
        source_modality=_optional_str(obj, "source_modality"),
        category=_optional_str(obj, "category"),
    )


def json_object(text: str | bytes, error: Callable[[str], Exception] = CorpusError) -> dict:
    """Decode ``text`` as one JSON object; every input file is read through here.

    Any failure raises ``error(message)``: bad JSON, nesting too deep for
    the decoder, a number too long for ``int`` and a value that is not an
    object.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise error("expected a JSON object")
    return obj


def read_jsonl(
    path: str | Path, add: Callable[[dict], None], error: type[Exception] = CorpusError
) -> None:
    """Pass the object on each non-blank line of a UTF-8 JSONL file to ``add``.

    A line that is not a JSON object, and any ``error`` that ``add`` raises,
    ends the read in one ``error`` that names the file and the line.
    """
    try:
        with Path(path).open("r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if line:
                    add(json_object(line, error))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
    except error as exc:
        raise error(f"{path}: line {line_no}: {exc}") from None


def load_corpus(path: str | Path) -> Corpus:
    """Load and validate a JSONL corpus file.

    Rejects duplicate clip ids and reports schema violations with the file
    and line.
    """
    clips: dict[ClipRef, ClipRecord] = {}

    def add(obj: dict) -> None:
        record = _clip_from_json(obj)
        if record.ref in clips:
            raise CorpusError(f"duplicate clip id {record.ref.clip_id!r}")
        clips[record.ref] = record

    read_jsonl(path, add)
    return Corpus(clips=clips)


def load_queries(path: str | Path) -> list[QueryRecord]:
    """Load a JSONL queries file; gold ids are parsed but resolved at eval time."""
    queries: list[QueryRecord] = []
    seen_ids: set[str] = set()

    def add(obj: dict) -> None:
        query = _query_from_json(obj)
        if query.query_id in seen_ids:
            raise CorpusError(f"duplicate query id {query.query_id!r}")
        seen_ids.add(query.query_id)
        queries.append(query)

    read_jsonl(path, add)
    return queries


#: Encodes each JSONL line written; one instance, as ``json.dumps`` builds
#: an encoder per call when given options.
_encode_line = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def corpus_to_jsonl(corpus: Corpus) -> str:
    """Serialize a corpus to its canonical JSONL form (one clip per line)."""
    lines = []
    for clip in corpus:
        obj = {key: getattr(clip, attr) for key, attr in _CLIP_FIELDS.items()}
        obj["clip_id"] = clip.ref.clip_id
        lines.append(_encode_line(obj))
    return "\n".join(lines) + ("\n" if lines else "")


def queries_to_jsonl(queries: Sequence[QueryRecord]) -> str:
    """Serialize queries to canonical JSONL."""
    lines = []
    for q in queries:
        obj = {
            "query_id": q.query_id,
            "text": q.text,
            "gold_clip_id": q.gold.clip_id,
            "source_modality": q.source_modality,
            "category": q.category,
        }
        lines.append(_encode_line(obj))
    return "\n".join(lines) + ("\n" if lines else "")


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(corpus_to_jsonl(corpus), encoding="utf-8")


def save_queries(queries: Sequence[QueryRecord], path: str | Path) -> None:
    Path(path).write_text(queries_to_jsonl(queries), encoding="utf-8")

"""Per-query modality routing.

A router decides which modality indices to search for a query and may
attach an optimized query string per modality. The backends share the
``Router`` protocol: a deterministic keyword rule router, an HTTP
chat-completion LLM router, a replay router that serves an LLM router's
audit log back, and trivial oracle/select-all routers for evaluation
baselines; ``make_router`` applies single mode to any of them.
Whatever the backend does, the resulting decision is always valid; routing
failures degrade to selecting all three modalities rather than dropping recall.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Protocol

from .corpus import MODALITIES, Modality, QueryRecord, normalize_text, read_jsonl

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

ENV_BASE_URL = "CLIPROUTE_LLM_BASE_URL"
ENV_MODEL = "CLIPROUTE_LLM_MODEL"
ENV_API_KEY = "CLIPROUTE_LLM_API_KEY"

_PROMPT_ASSET = "router_prompt_v1.txt"


class RouterError(RuntimeError):
    """Raised when a routing backend fails and fallback is disabled."""


class Origin(str, Enum):
    """How a routing decision was produced."""

    RULE = "rule"
    LLM = "llm"
    FALLBACK_ALL = "fallback_all"
    ORACLE = "oracle"
    ALL = "all"


class RouterMode(str, Enum):
    MULTI = "multi"
    SINGLE = "single"


@dataclass
class RoutingDecision:
    """Ordered modality selections with their optimized query strings.

    Selection order is confidence order; it feeds the coverage-error metric
    and single-modality constraining. An LLM decision's transcript goes to
    the audit log, not here.
    """

    selections: list[tuple[Modality, str]]
    origin: Origin

    def __post_init__(self) -> None:
        if not 1 <= len(self.selections) <= 3:
            raise ValueError(f"decision must select 1..3 modalities, got {len(self.selections)}")
        seen = set()
        for modality, optimized in self.selections:
            if modality in seen:
                raise ValueError(f"duplicate modality {modality.wire!r} in decision")
            seen.add(modality)
            if not optimized or not optimized.strip():
                raise ValueError(f"empty optimized query for {modality.wire!r}")

    @property
    def modalities(self) -> list[Modality]:
        return [m for m, _ in self.selections]

    def to_wire(self) -> dict[str, str]:
        """Wire-form decision: only selected keys, in confidence order."""
        return {m.wire: q for m, q in self.selections}

    def searches(self, text: str, use_rewrites: bool) -> list[tuple[str, str]]:
        """(index source, text to search) per selection, in confidence order:
        the selection's optimized query under ``use_rewrites``, else ``text``."""
        return [(m.wire, optimized if use_rewrites else text) for m, optimized in self.selections]


@dataclass
class RouterConfig:
    """Routing behaviour plus LLM endpoint settings.

    The API key is read from the environment only, never from config files,
    so audit logs and configs stay secret-free.
    """

    mode: RouterMode = RouterMode.MULTI
    fallback_on_error: bool = True
    backend: str = "rule"
    base_url: Optional[str] = None
    model: Optional[str] = None
    timeout_s: float = 30.0
    max_retries: int = 3
    replay_path: Optional[str] = None
    audit_path: Optional[str] = None


# Cue vocabularies for the rule router. Matching is on normalized word
# tokens; "looks like" matches as a word bigram. A text noun immediately
# followed by say/says ("what does the sign say") counts as an extra OCR
# cue: asking what written content says is a reading intent.
ASR_CUES = ("say", "says", "spoken", "speaker", "hear", "mentions")
OCR_CUES = ("sign", "text", "read", "subtitle", "caption", "title", "written", "displayed", "label")
VISUAL_CUES = ("describe", "color", "shape", "wearing", "scene", "object")
VISUAL_PHRASES = (("looks", "like"),)
_OCR_TEXT_NOUNS = frozenset({"sign", "text", "subtitle", "caption", "title", "label"})
_SAY_WORDS = frozenset({"say", "says"})

ALL_CUE_WORDS = frozenset(
    ASR_CUES + OCR_CUES + VISUAL_CUES + tuple(w for p in VISUAL_PHRASES for w in p)
)

_QUOTED_RE = re.compile(r"'[^']+'|\"[^\"]+\"")


def fallback_all_decision(text: str) -> RoutingDecision:
    """Recall-preserving decision: search everything with the original text."""
    return RoutingDecision(selections=[(m, text) for m in MODALITIES], origin=Origin.FALLBACK_ALL)


def rule_route(text: str) -> RoutingDecision:
    """Deterministic keyword routing.

    Scores each modality by cue occurrences in the text and selects every
    modality with a positive score, in descending score order (ties broken
    by the fixed ASR < OCR < VISUAL order). Zero matches mean ambiguous
    intent: all three modalities are selected.
    """
    if not text or not text.strip():
        raise ValueError("query text must be non-empty")
    tokens = normalize_text(text).split()
    scores = {m: 0 for m in MODALITIES}
    for token in tokens:
        if token in ASR_CUES:
            scores[Modality.ASR] += 1
        if token in OCR_CUES:
            scores[Modality.OCR] += 1
        if token in VISUAL_CUES:
            scores[Modality.VISUAL] += 1
    for first, second in zip(tokens, tokens[1:]):
        if first in _OCR_TEXT_NOUNS and second in _SAY_WORDS:
            scores[Modality.OCR] += 1
        for phrase in VISUAL_PHRASES:
            if (first, second) == phrase:
                scores[Modality.VISUAL] += 1
    if _QUOTED_RE.search(text) and any(t in _SAY_WORDS for t in tokens):
        scores[Modality.ASR] += 1

    order = {m: i for i, m in enumerate(MODALITIES)}
    selected = sorted(
        (m for m in MODALITIES if scores[m] > 0), key=lambda m: (-scores[m], order[m])
    )
    if not selected:
        selected = list(MODALITIES)
    return RoutingDecision(selections=[(m, text) for m in selected], origin=Origin.RULE)


def router_instructions() -> str:
    """The versioned routing instruction template (no query appended)."""
    return (
        resources.files("cliproute").joinpath("assets").joinpath(_PROMPT_ASSET).read_text("utf-8")
    )


#: An object nested deeper than this is no routing decision. The scan skips
#: it without decoding, which keeps every decode far inside the recursion
#: limit of the JSON decoder.
_MAX_NESTING = 128

#: A quote that ends or starts a JSON string (one after an even run of
#: backslashes), or a bracket.
_JSON_TOKEN_RE = re.compile(r'(?<!\\)(?:\\\\)*"|[{}\[\]]')


def _object_spans(raw: str) -> list[tuple[int, int, int]]:
    """(start, end, parity) of each ``{`` whose brackets balance within at
    most ``_MAX_NESTING`` levels, in order of start: the only places a JSON
    object can start.

    Inside an object, a bracket is structural when an even number of string
    quotes lies between it and the object's ``{``. So each bracket belongs to
    the parity of the quotes before it in ``raw``, and the brackets of one
    parity are matched with one stack; ``end`` is the matching ``}``.
    """
    stacks: tuple[list, list] = ([], [])  # entries [start, closer, levels inside]
    spans = []
    parity = 0
    for match in _JSON_TOKEN_RE.finditer(raw):
        char = raw[match.end() - 1]
        if char == '"':
            parity ^= 1
            continue
        stack = stacks[parity]
        if char in "{[":
            stack.append([match.start(), "}" if char == "{" else "]", 0])
        elif stack and stack[-1][1] == char:
            start, _, levels = stack.pop()
            if stack:
                stack[-1][2] = max(stack[-1][2], levels + 1)
            if char == "}" and levels < _MAX_NESTING:
                spans.append((start, match.start(), parity))
        else:  # a closer of the wrong kind: nothing open can be valid JSON
            stack.clear()
    spans.sort()
    return spans


def _first_json_object(raw: str) -> Optional[dict]:
    """The JSON object that decodes from the first ``{`` it can.

    A decode from the ``{`` at i that fails at position p would fail at p
    again from every later ``{`` of i's parity that is still open at p, as
    that one's text up to p parses as a part of i's. The scan skips those,
    so the failed decodes of one parity do not overlap. (A number too long
    for ``int`` fails with no position and is the exception.)
    """
    decoder = json.JSONDecoder()
    failed_at = [0, 0]  # per parity: where the last failed decode stopped
    for start, end, parity in _object_spans(raw):
        if start < failed_at[parity] <= end:
            continue
        try:
            obj, _ = decoder.raw_decode(raw, start)
        except (ValueError, RecursionError) as exc:  # recursion only from a deep caller
            if isinstance(exc, json.JSONDecodeError):
                failed_at[parity] = exc.pos
            continue
        return obj
    return None


def parse_router_response(raw: str, original_query: str) -> RoutingDecision:
    """Turn an LLM transcript into a decision; never raises on bad input.

    Extracts the first JSON object in the text (code fences and prose are
    tolerated), matches keys case-insensitively against the modality wire
    names, and keeps string values as optimized queries. Anything
    malformed, empty, or without a recognizable key falls back to selecting
    all three modalities with the original query text.
    """
    if not original_query or not original_query.strip():
        raise ValueError("original_query must be non-empty")
    obj = _first_json_object(raw)
    if not obj:
        return fallback_all_decision(original_query)
    selections: list[tuple[Modality, str]] = []
    seen: set[Modality] = set()
    for key, value in obj.items():
        modality = Modality.from_wire(str(key))
        if modality is None or modality in seen:
            continue
        seen.add(modality)
        optimized = value if isinstance(value, str) and value.strip() else original_query
        selections.append((modality, optimized))
    if not selections:
        return fallback_all_decision(original_query)
    return RoutingDecision(selections=selections, origin=Origin.LLM)


def decide_from_transcript(
    query: QueryRecord, raw_response: Optional[str], error: Optional[str], fallback_on_error: bool
) -> RoutingDecision:
    """The decision an LLM transcript gives ``query``; ``llm`` and ``replay`` both end here.

    A reply (``raw_response``) is parsed. Without one, ``error`` says why
    the call failed, or is None when no transcript exists. Then all three
    modalities are selected, or ``RouterError`` is raised when
    ``fallback_on_error`` is off. A failed call is logged as a warning.
    """
    if raw_response is not None:
        return parse_router_response(raw_response, query.text)
    if error is None:
        error = "no replay entry"
    else:
        logger.warning("LLM routing failed for %s: %s", query.query_id, error)
    if fallback_on_error:
        return fallback_all_decision(query.text)
    raise RouterError(f"LLM routing failed for {query.query_id!r}: {error}")


def constrain_single(decision: RoutingDecision) -> Modality:
    """Highest-confidence modality of a decision (first selection)."""
    return decision.selections[0][0]


class Router(Protocol):
    """What every routing backend provides."""

    def route(self, query: QueryRecord) -> RoutingDecision: ...


class RuleRouter:
    """Stateless keyword router; safe for unlimited concurrent calls."""

    def route(self, query: QueryRecord) -> RoutingDecision:
        return rule_route(query.text)


class OracleRouter:
    """Routes straight to the query's annotated source modality.

    Dense or unlabeled queries have no routable gold, so the oracle
    degrades to selecting everything.
    """

    def route(self, query: QueryRecord) -> RoutingDecision:
        gold = query.source_as_modality()
        modalities = list(MODALITIES) if gold is None else [gold]
        return RoutingDecision(
            selections=[(m, query.text) for m in modalities], origin=Origin.ORACLE
        )


@dataclass
class AllRouter:
    """Baseline that always selects ``modalities``: by default all three (exhaustive search)."""

    modalities: tuple[Modality, ...] = MODALITIES

    def route(self, query: QueryRecord) -> RoutingDecision:
        return RoutingDecision(
            selections=[(m, query.text) for m in self.modalities], origin=Origin.ALL
        )


class _SingleModeRouter:
    """Keeps only the highest-confidence selection of another router's decision."""

    def __init__(self, backend: Router) -> None:
        self.backend = backend

    def route(self, query: QueryRecord) -> RoutingDecision:
        decision = self.backend.route(query)
        return replace(decision, selections=decision.selections[:1])


class ReplayRouter:
    """Serves LLM transcripts back from a JSONL fixture keyed by query id.

    A fixture line is the record ``LlmRouter`` audits, so an audit log is a
    fixture. ``query_id`` and ``raw_response`` are required, and ``error``
    is read when the reply is null. A later line for a query id replaces
    an earlier one.
    """

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        if not config.replay_path:
            raise RouterError("replay backend requires a replay fixture path")
        self._transcripts: dict[str, tuple[Optional[str], str]] = {}
        read_jsonl(config.replay_path, self._add, RouterError)

    def _add(self, obj: dict) -> None:
        missing = [key for key in ("query_id", "raw_response") if key not in obj]
        if missing:
            raise RouterError(f"missing {', '.join(map(repr, missing))}")
        query_id, raw_response = obj["query_id"], obj["raw_response"]
        if not isinstance(query_id, str):
            raise RouterError(f"'query_id' must be a string, got {query_id!r}")
        if raw_response is not None and not isinstance(raw_response, str):
            raise RouterError(f"'raw_response' must be a string or null, got {raw_response!r}")
        error = str(obj.get("error") or "no reply recorded")
        self._transcripts[query_id] = (raw_response, error)

    def route(self, query: QueryRecord) -> RoutingDecision:
        raw_response, error = self._transcripts.get(query.query_id, (None, None))
        return decide_from_transcript(query, raw_response, error, self.config.fallback_on_error)


_RETRYABLE_STATUSES = {429, 500, 502, 503, 504}
#: Seconds before the first retry; each further retry waits twice as long.
_BACKOFF_S = 0.5


class LlmRouter:
    """Routes through a generic chat-completion HTTP endpoint.

    One POST per query carrying the routing instructions as the system
    message and the query text as the user message. Transient failures are
    retried with exponential backoff; after the retry budget the router
    either falls back to all modalities or surfaces the error, per config.
    ``requests`` is imported here, not at module level, so the other
    backends never pay for loading an HTTP client.
    """

    def __init__(self, config: RouterConfig, session: Optional[requests.Session] = None) -> None:
        self.config = config
        self.base_url = config.base_url or os.environ.get(ENV_BASE_URL)
        self.model = config.model or os.environ.get(ENV_MODEL)
        if not self.base_url:
            raise RouterError(f"LLM backend requires a base URL (config or ${ENV_BASE_URL})")
        if not self.model:
            raise RouterError(f"LLM backend requires a model name (config or ${ENV_MODEL})")
        if config.audit_path:
            Path(config.audit_path).parent.mkdir(parents=True, exist_ok=True)
        import requests

        self._session = session or requests.Session()
        self._sleep = time.sleep
        self._instructions = router_instructions()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(ENV_API_KEY)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def _audit(
        self, query: QueryRecord, body: dict, raw_response: Optional[str], error: Optional[str]
    ) -> None:
        if not self.config.audit_path:
            return
        entry = {
            "query_id": query.query_id,
            "request": body,
            "raw_response": raw_response,
            "error": error,
        }
        # ASCII escapes keep a line writable for any text, lone surrogates
        # from undecodable argv bytes included, and it reads back the same.
        with Path(self.config.audit_path).open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")

    def route(self, query: QueryRecord) -> RoutingDecision:
        import requests

        url = self.base_url.rstrip("/") + "/chat/completions"
        body = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": self._instructions},
                {"role": "user", "content": query.text},
            ],
        }
        raw_response, error = None, "no attempt made"
        for attempt in range(max(1, self.config.max_retries)):
            if attempt:
                self._sleep(_BACKOFF_S * 2 ** (attempt - 1))
            try:
                response = self._session.post(
                    url, json=body, headers=self._headers(), timeout=self.config.timeout_s
                )
            except requests.RequestException as exc:
                error = f"request failed: {exc}"
                continue
            if response.status_code in _RETRYABLE_STATUSES:
                error = f"retryable status {response.status_code}"
                continue
            if response.status_code != 200:
                error = f"status {response.status_code}"
                break
            try:
                content = response.json()["choices"][0]["message"]["content"]
            except (ValueError, RecursionError, KeyError, IndexError, TypeError) as exc:
                error = f"malformed response body: {exc}"
                continue
            raw_response, error = str(content), None
            break
        self._audit(query, body, raw_response, error)
        return decide_from_transcript(query, raw_response, error, self.config.fallback_on_error)


ROUTER_BACKENDS = ("rule", "llm", "replay", "oracle", "all")


def make_router(config: RouterConfig, session: Optional[requests.Session] = None) -> Router:
    """Instantiate the backend named by ``config.backend``, in ``config.mode``."""
    backend = config.backend
    if backend == "rule":
        router = RuleRouter()
    elif backend == "oracle":
        router = OracleRouter()
    elif backend == "all":
        router = AllRouter()
    elif backend == "replay":
        router = ReplayRouter(config)
    elif backend == "llm":
        router = LlmRouter(config, session=session)
    else:
        raise RouterError(f"unknown router backend {backend!r}; expected one of {ROUTER_BACKENDS}")
    return _SingleModeRouter(router) if config.mode is RouterMode.SINGLE else router

"""Seeded synthetic corpus and query generator for desk-scale runs.

Every clip gets one globally unique planted token per modality plus shared
filler words; every clip emits three queries (one per modality) whose text
carries that planted token together with unambiguous modality-signal
keywords. The construction gives the pipeline known ground truth:

- the gold clip is the unique best cosine match for its query, so oracle
  routing retrieves it at rank 1;
- each query also mentions one temporally adjacent clip's token (twice) and
  three non-relevant decoy tokens (once each), producing the exact ranked
  prefix [gold, adjacent, decoy, decoy, decoy] whose graded relevance matches
  the fixed ideal vector, i.e. NDCG@5 of exactly 1.0 on multi-clip videos;
- the rule router's cue keywords are planted verbatim, so it selects the
  gold modality for 100% of generated queries.

Planted tokens are minted so their hash buckets under the default reference
embedder are pairwise distinct and disjoint from every template word's
buckets. That keeps the score ladder exact instead of statistically likely;
the guarantee holds while the token count stays well under the embedder
dimension (roughly 1,100 clips at the default 4096 buckets). Past that,
tokens are only string-unique. Tokens have 3 letters until those run out,
near 5,600 clips; the rest of the corpus gets 5-letter tokens, which share
trigrams with many other clips' tokens, so past that size scores no longer
form a ladder.
"""

from __future__ import annotations

import random
from itertools import islice

from .corpus import (
    ClipRecord,
    ClipRef,
    Corpus,
    CorpusError,
    MODALITIES,
    Modality,
    QueryRecord,
)
from .embed import DEFAULT_DIM, _word_buckets, token_bucket
from .evaluation import graded_relevance
from .router import ALL_CUE_WORDS

CLIP_SECONDS = 10

_CATEGORIES = ("howto", "education", "entertainment", "news", "science")

#: Query prefixes carry the routing cues: "says" (speech), "sign"+"text"
#: (on-screen text), "describe"+"scene" (visual).
_QUERY_PREFIX = {
    Modality.ASR: "who says",
    Modality.OCR: "sign text",
    Modality.VISUAL: "describe the scene",
}

#: Field templates share identical structure across clips (same word count,
#: same fillers) so every stored vector has the same norm and rank order is
#: decided purely by planted-token matches.
_FIELD_TEMPLATE = {
    Modality.ASR: "{token} is heard in this clip segment",
    Modality.OCR: "{token} appears as overlay lettering here",
    Modality.VISUAL: "the camera view shows {token} prominently",
}
_FUSED_TEMPLATE = "{asr} {ocr} {vis} combined clip summary"

_TEMPLATE_WORDS = frozenset(
    word
    for template in (
        *_QUERY_PREFIX.values(),
        *(t.format(token="") for t in _FIELD_TEMPLATE.values()),
        _FUSED_TEMPLATE.format(asr="", ocr="", vis=""),
    )
    for word in template.split()
)

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_MINT_ATTEMPTS = 200
#: Token length once 3-letter tokens run out: 26**5 leaves room for millions.
_LONG_TOKEN_LETTERS = 5


class _TokenMint:
    """Deterministic supply of 3-letter tokens with disjoint hash buckets,
    then of 5-letter tokens once a 3-letter draw fails."""

    def __init__(self, rng: random.Random, dim: int) -> None:
        self._rng = rng
        self._dim = dim
        self._letters = 3
        self._used_words: set[str] = set(_TEMPLATE_WORDS) | set(ALL_CUE_WORDS)
        self._used_buckets: set[int] = set()
        for word in _TEMPLATE_WORDS:
            self._used_buckets.update(_word_buckets(dim, word))

    def next_token(self) -> str:
        # Past ~90% bucket load disjoint minting cannot finish; fall back to
        # string-unique tokens (exactness guarantees no longer apply).
        enforce_disjoint = len(self._used_buckets) < 0.9 * self._dim
        for _ in range(_MINT_ATTEMPTS):
            token = "".join(self._rng.choice(_ALPHABET) for _ in range(self._letters))
            if token in self._used_words:
                continue
            bucket = token_bucket(token, self._dim)
            if enforce_disjoint and bucket in self._used_buckets:
                continue
            self._used_words.add(token)
            self._used_buckets.add(bucket)
            return token
        if self._letters == _LONG_TOKEN_LETTERS:
            raise CorpusError("token minting failed; corpus too large for synthetic mode")
        # Switch for good: every later 3-letter token would cost its failed
        # draws again.
        self._letters = _LONG_TOKEN_LETTERS
        return self.next_token()


def _decoy_refs(gold: ClipRef, ordered_refs: list[ClipRef], count: int = 3) -> list[ClipRef]:
    """First ``count`` clips (by canonical id) with zero graded relevance to gold."""
    return list(islice((ref for ref in ordered_refs if not graded_relevance(ref, gold)), count))


def generate_synthetic_corpus(
    seed: int, n_videos: int, clips_per_video: int
) -> tuple[Corpus, list[QueryRecord]]:
    """Build a deterministic corpus and its per-clip queries.

    Emits ``n_videos * clips_per_video`` clips (contiguous 10 s segments per
    video, full coverage of all modality fields) and three queries per clip,
    each labeled with its source modality and gold clip.
    """
    if n_videos < 1:
        raise CorpusError(f"n_videos must be >= 1, got {n_videos}")
    if clips_per_video < 1:
        raise CorpusError(f"clips_per_video must be >= 1, got {clips_per_video}")

    rng = random.Random(seed)
    mint = _TokenMint(rng, DEFAULT_DIM)

    refs: list[list[ClipRef]] = []
    for v in range(n_videos):
        video_id = f"video{v:04d}"
        refs.append(
            [
                ClipRef(video_id, j * CLIP_SECONDS, (j + 1) * CLIP_SECONDS)
                for j in range(clips_per_video)
            ]
        )

    tokens: dict[tuple[ClipRef, Modality], str] = {}
    records: list[ClipRecord] = []
    for v, video_refs in enumerate(refs):
        category = _CATEGORIES[v % len(_CATEGORIES)]
        for ref in video_refs:
            for modality in MODALITIES:
                tokens[(ref, modality)] = mint.next_token()
            records.append(
                ClipRecord(
                    ref=ref,
                    category=category,
                    asr_text=_FIELD_TEMPLATE[Modality.ASR].format(
                        token=tokens[(ref, Modality.ASR)]
                    ),
                    ocr_text=_FIELD_TEMPLATE[Modality.OCR].format(
                        token=tokens[(ref, Modality.OCR)]
                    ),
                    visual_caption=_FIELD_TEMPLATE[Modality.VISUAL].format(
                        token=tokens[(ref, Modality.VISUAL)]
                    ),
                    fused_caption=_FUSED_TEMPLATE.format(
                        asr=tokens[(ref, Modality.ASR)],
                        ocr=tokens[(ref, Modality.OCR)],
                        vis=tokens[(ref, Modality.VISUAL)],
                    ),
                )
            )
    corpus = Corpus.from_records(records)
    ordered_refs = sorted((r.ref for r in records), key=lambda r: r.clip_id)

    queries: list[QueryRecord] = []
    for v, video_refs in enumerate(refs):
        for j, ref in enumerate(video_refs):
            if j + 1 < len(video_refs):
                neighbor = video_refs[j + 1]
            elif j > 0:
                neighbor = video_refs[j - 1]
            else:
                neighbor = None
            decoys = _decoy_refs(ref, ordered_refs)
            category = _CATEGORIES[v % len(_CATEGORIES)]
            for modality in MODALITIES:
                planted = tokens[(ref, modality)]
                words = [_QUERY_PREFIX[modality], planted, planted, planted]
                if neighbor is not None:
                    words += [tokens[(neighbor, modality)]] * 2
                words += [tokens[(d, modality)] for d in decoys]
                queries.append(
                    QueryRecord(
                        query_id=f"{ref.clip_id}__{modality.wire}",
                        text=" ".join(words),
                        gold=ref,
                        source_modality=modality.wire,
                        category=category,
                    )
                )
    return corpus, queries

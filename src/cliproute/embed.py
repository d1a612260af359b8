"""Text embedding abstraction with a deterministic hashed reference embedder.

Every embedder returns a :class:`SparseVector`: the nonzero entries of an
L2-normalized vector (or no entries at all for text that normalizes to
nothing), so cosine similarity reduces to a dot product everywhere
downstream. The reference embedder hashes whitespace tokens and character
trigrams of the normalized text into a fixed number of buckets; it exists
so the whole pipeline is testable without any external model, and real
embedders can be plugged in through the registry.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .corpus import normalize_text

DEFAULT_DIM = 4096
#: The widest vector an embedder may produce. Each dim-wide array that a
#: build or a load makes (float64 or int64) then stays at or below 8 MB, and
#: every index file carries one dim-wide u32 column, its bucket counts: 4 MB
#: at this dim.
MAX_DIM = 2**20
REFERENCE_EMBEDDER = "hashed-trigram"

#: Most words whose buckets the reference embedder keeps, least recently
#: used first out. A query round of the 1k-clip corpus uses ~3,000 words; a
#: build of the 5k-clip corpus uses 15,018 distinct words (seed 7), more than
#: the memo holds: such a build misses it 30,019 times.
_WORD_MEMO_SIZE = 4096

#: Parameters recorded in every reference EmbedderSpec so index files are
#: self-describing. The hash must stay fixed, portable, and non-seeded:
#: vectors have to be stable across platforms, processes, and runs.
_REFERENCE_PARAMETERS: Mapping[str, str] = {
    "hash": "blake2b-64",
    "features": "token+char-trigram",
    "normalize": "l2",
}


class EmbeddingError(ValueError):
    """Raised for invalid embedder specs or mismatched vector dimensions."""


@dataclass(frozen=True, eq=False)
class SparseVector:
    """A vector of width ``dim`` given by its nonzero entries.

    ``buckets`` are strictly increasing ints in [0, dim) and ``weights`` the
    float64 values there; every other entry is zero. No buckets marks text
    that could not be embedded. Treat both arrays as read-only.
    """

    dim: int
    buckets: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class EmbedderSpec:
    """Names an embedder and its vector dimensionality.

    Serialized into index headers so an index file records exactly how its
    vectors were produced. The reference embedder always carries its fixed
    hash parameters: empty parameters mean those, and any others raise
    :class:`EmbeddingError`.
    """

    name: str = REFERENCE_EMBEDDER
    dim: int = DEFAULT_DIM
    parameters: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dim < 8:
            raise EmbeddingError(f"embedder dim must be >= 8, got {self.dim}")
        if self.dim > MAX_DIM:
            raise EmbeddingError(f"embedder dim must be <= {MAX_DIM}, got {self.dim}")
        if self.name not in _REGISTRY:
            raise EmbeddingError(
                f"unknown embedder {self.name!r}; registered: {sorted(_REGISTRY)}"
            )
        if self.name == REFERENCE_EMBEDDER:
            if self.parameters and self.parameters != _REFERENCE_PARAMETERS:
                raise EmbeddingError(
                    f"{self.name} parameters must be empty or {dict(_REFERENCE_PARAMETERS)}, "
                    f"got {dict(self.parameters)}"
                )
            object.__setattr__(self, "parameters", dict(_REFERENCE_PARAMETERS))

    def to_dict(self) -> dict:
        return {"name": self.name, "dim": self.dim, "parameters": dict(self.parameters)}

    @classmethod
    def from_dict(cls, obj: dict) -> "EmbedderSpec":
        return cls(
            name=obj["name"],
            dim=int(obj["dim"]),
            parameters=dict(obj.get("parameters", {})),
        )


def default_spec(dim: int = DEFAULT_DIM) -> EmbedderSpec:
    """Reference embedder spec, which carries its hash parameters."""
    return EmbedderSpec(REFERENCE_EMBEDDER, dim)


def token_bucket(token: str, dim: int) -> int:
    """Stable hash bucket in [0, dim) for one token or trigram."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % dim


@functools.lru_cache(maxsize=_WORD_MEMO_SIZE)
def _word_buckets(dim: int, word: str) -> tuple[int, ...]:
    """Buckets of one word and of each of its character trigrams."""
    trigrams = (word[i : i + 3] for i in range(len(word) - 2))
    return (token_bucket(word, dim), *(token_bucket(t, dim) for t in trigrams))


def _hashed_trigram_embed(spec: EmbedderSpec, text: str) -> SparseVector:
    dim = spec.dim
    features: list[int] = []
    for word in normalize_text(text).split():
        features.extend(_word_buckets(dim, word))
    if not features:
        return SparseVector(dim, np.zeros(0, dtype=np.intp), np.zeros(0))
    features.sort()
    # Run-length count the sorted features: each bucket once, ascending.
    buckets: list[int] = []
    counts: list[int] = []
    last = -1
    for b in features:
        if b == last:
            counts[-1] += 1
        else:
            buckets.append(b)
            counts.append(1)
            last = b
    # Integer counts make the sum of squares exact, and both sqrts round
    # correctly, so each weight is bit-equal to the dense
    # ``vec / np.linalg.norm(vec)`` entry.
    weights = np.array(counts, dtype=np.float64) / math.sqrt(sum(c * c for c in counts))
    return SparseVector(dim, np.array(buckets, dtype=np.intp), weights)


_EmbedFn = Callable[[EmbedderSpec, str], SparseVector]
_REGISTRY: dict[str, _EmbedFn] = {}


def register_embedder(name: str, fn: _EmbedFn) -> None:
    """Register an embedding backend.

    ``fn(spec, text)`` returns a :class:`SparseVector` of width ``spec.dim``
    with unit L2 norm, or with no buckets for text it cannot embed.
    """
    _REGISTRY[name] = fn


def registered_embedders() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


register_embedder(REFERENCE_EMBEDDER, _hashed_trigram_embed)


def embed_text(spec: EmbedderSpec, text: str) -> SparseVector:
    """Embed text into a unit vector (no buckets for unembeddable text).

    Deterministic for a fixed (spec, normalized text) pair; texts differing
    only in case or punctuation embed identically. A registered embedder's
    result is checked and a malformed one raises :class:`EmbeddingError`.
    """
    fn = _REGISTRY[spec.name]
    vec = fn(spec, text)
    if fn is not _hashed_trigram_embed:
        _check_vector(spec, vec)
    return vec


def _check_vector(spec: EmbedderSpec, vec: object) -> None:
    """Reject a registered embedder's result that breaks the SparseVector contract."""
    name, dim = spec.name, spec.dim
    if not isinstance(vec, SparseVector) or vec.dim != dim:
        raise EmbeddingError(f"embedder {name!r} must return a SparseVector of dim {dim}")
    buckets, weights = vec.buckets, vec.weights
    if not (
        isinstance(buckets, np.ndarray)
        and isinstance(weights, np.ndarray)
        and buckets.dtype.kind in "iu"
        and weights.dtype == np.float64
        and buckets.ndim == 1
        and buckets.shape == weights.shape
    ):
        raise EmbeddingError(
            f"embedder {name!r} must return 1-D int buckets and float64 weights of one length"
        )
    increasing = np.all(buckets[1:] > buckets[:-1])
    if buckets.size and (buckets[0] < 0 or buckets[-1] >= dim or not increasing):
        raise EmbeddingError(
            f"embedder {name!r} returned buckets that do not increase strictly within [0, {dim})"
        )
    if not np.all(np.isfinite(weights)) or np.any(weights == 0):
        raise EmbeddingError(f"embedder {name!r} returned weights that are not finite and nonzero")


def is_zero(vec: SparseVector) -> bool:
    """True for a vector with no buckets, which marks unembeddable text."""
    return not vec.buckets.size

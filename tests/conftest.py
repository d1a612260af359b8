"""Shared fixtures."""

import pytest

from cliproute.corpus import MODALITIES
from cliproute.embed import default_spec
from cliproute.index import build_fused_index, build_index
from cliproute.synth import generate_synthetic_corpus


@pytest.fixture(scope="session")
def acceptance_corpus():
    """The seed-1 200 videos x 5 clips corpus, its queries, and all four indices."""
    corpus, queries = generate_synthetic_corpus(1, 200, 5)
    spec = default_spec()
    indices = {m.wire: build_index(corpus, m, spec) for m in MODALITIES}
    indices["fused"] = build_fused_index(corpus, spec)
    return corpus, queries, indices

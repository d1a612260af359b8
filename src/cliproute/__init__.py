"""Modality-routed multimodal video clip retrieval.

Queries are routed to a subset of per-modality vector indices (speech,
on-screen text, visual captions), the per-modality ranked lists are fused
by rank, and an evaluation harness scores both retrieval quality and
routing efficiency.
"""

__version__ = "0.1.0"

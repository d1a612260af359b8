"""Shared fixtures and index-file helpers."""

import hashlib
import json
import struct

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


def split_index(data):
    """(header dict without its digest, payload bytes) of an index file."""
    line, _, payload = data.partition(b"\n")
    header = json.loads(line)
    del header["sha256"]
    return header, payload


def resign(data, edit):
    """The index file ``data`` as ``edit(header, payload)`` returns it, a
    (header without its digest, payload) pair, signed with a valid digest."""
    header, payload = edit(*split_index(data))
    line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    signed = {**header, "sha256": hashlib.sha256(line + payload).hexdigest()}
    return json.dumps(signed, sort_keys=True).encode("utf-8") + b"\n" + payload


def column_codes(header):
    """The struct code of each integer column the header's bounds size, as
    the README states the rule: the narrowest of u8, u16 and u32 that holds
    the column's largest value. A row is below ``count``, a bucket holds at
    most ``count`` rows, a video number is below ``videos``, and a time is
    at most ``max_end_s``."""

    def code(largest):
        return "B" if largest < 2**8 else "H" if largest < 2**16 else "I"

    count, videos, max_end_s = header["count"], header["videos"], header["max_end_s"]
    return {
        "video number": code(videos - 1),
        "start": code(max_end_s),
        "end": code(max_end_s),
        "bucket count": code(count),
        "row": code(count - 1),
    }


def edit_video_table(edit):
    """An edit for :func:`resign` that replaces the file's video id table and
    video number column with what ``edit(ids, numbers)`` makes of them, the
    numbers at the width of the new table."""

    def corrupt(header, payload):
        videos, count = header["videos"], header["count"]
        at = 4 * videos
        ids = []
        for length in struct.unpack_from(f"<{videos}I", payload):
            ids.append(payload[at : at + length])
            at += length
        code = column_codes(header)["video number"]
        ids, numbers = edit(ids, list(struct.unpack_from(f"<{count}{code}", payload, at)))
        header = {**header, "videos": len(ids)}
        table = struct.pack(f"<{len(ids)}I", *map(len, ids)) + b"".join(ids)
        table += struct.pack(f"<{count}{column_codes(header)['video number']}", *numbers)
        return header, table + payload[at + struct.calcsize(f"<{count}{code}") :]

    return corrupt

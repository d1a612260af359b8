"""End-to-end tests for the command-line interface."""

import argparse
import json
import os
import random
import re
import shlex
import struct
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import column_codes, edit_video_table, resign

from cliproute import cli, embed
from cliproute import index as index_mod
from cliproute.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, _build_parser, main
from cliproute.corpus import (
    ClipRef,
    Modality,
    QueryRecord,
    load_corpus,
    load_queries,
    normalize_text,
    save_queries,
)
from cliproute.embed import (
    MAX_DIM,
    EmbedderSpec,
    SparseVector,
    default_spec,
    embed_text,
    register_embedder,
)
from cliproute.evaluation import NDCG_LEGEND
from cliproute.index import load_index
from cliproute.router import ALL_CUE_WORDS, rule_route


@pytest.fixture()
def workspace(tmp_path):
    paths = {
        "corpus": tmp_path / "corpus.jsonl",
        "queries": tmp_path / "queries.jsonl",
        "index_dir": tmp_path / "indices",
        "report": tmp_path / "report.json",
        "csv": tmp_path / "report.csv",
    }
    return paths


def _gen(paths, videos=4, clips=3, seed=1):
    return main(
        [
            "gen-corpus",
            "--videos",
            str(videos),
            "--clips-per-video",
            str(clips),
            "--seed",
            str(seed),
            "--corpus",
            str(paths["corpus"]),
            "--queries",
            str(paths["queries"]),
        ]
    )


def _build(paths):
    return main(
        [
            "build-index",
            "--corpus",
            str(paths["corpus"]),
            "--index-dir",
            str(paths["index_dir"]),
        ]
    )


def _skip_embed(spec, text):
    """A registered embedder that embeds no text holding the word "zzhidden",
    and embeds other text as the reference embedder does."""
    if "zzhidden" in normalize_text(text).split():
        return SparseVector(spec.dim, np.zeros(0, dtype=np.intp), np.zeros(0))
    return embed_text(default_spec(spec.dim), text)


register_embedder("test-skip", _skip_embed)


class TestGenCorpus:
    def test_generates_loadable_files(self, workspace, capsys):
        assert _gen(workspace) == EXIT_OK
        out = capsys.readouterr().out
        assert "coverage[visuals] = 1.000" in out
        corpus = load_corpus(workspace["corpus"])
        queries = load_queries(workspace["queries"])
        assert len(corpus) == 12
        assert len(queries) == 36

    def test_deterministic_across_runs(self, tmp_path):
        a = {
            "corpus": tmp_path / "a.jsonl",
            "queries": tmp_path / "aq.jsonl",
        }
        b = {
            "corpus": tmp_path / "b.jsonl",
            "queries": tmp_path / "bq.jsonl",
        }
        assert _gen(a) == EXIT_OK
        assert _gen(b) == EXIT_OK
        assert a["corpus"].read_bytes() == b["corpus"].read_bytes()
        assert a["queries"].read_bytes() == b["queries"].read_bytes()

    def test_zero_videos_is_a_usage_error(self, workspace, capsys):
        code = main(
            [
                "gen-corpus",
                "--videos",
                "0",
                "--corpus",
                str(workspace["corpus"]),
                "--queries",
                str(workspace["queries"]),
            ]
        )
        assert code == EXIT_USAGE
        assert "n_videos" in capsys.readouterr().err


class TestBuildIndex:
    def test_writes_all_four_indices_with_stats(self, workspace, capsys):
        _gen(workspace)
        assert _build(workspace) == EXIT_OK
        out = capsys.readouterr().out
        for source in ("asr", "ocr", "visuals", "fused"):
            assert (workspace["index_dir"] / f"{source}.idx").is_file()
            assert f"{source}: indexed=12 skipped=0" in out

    def test_rebuild_is_byte_identical(self, workspace, tmp_path):
        _gen(workspace)
        assert _build(workspace) == EXIT_OK
        first = (workspace["index_dir"] / "asr.idx").read_bytes()
        assert _build(workspace) == EXIT_OK
        assert (workspace["index_dir"] / "asr.idx").read_bytes() == first

    def test_corpus_line_order_does_not_change_the_files(self, workspace, tmp_path):
        _gen(workspace, videos=6)
        assert _build(workspace) == EXIT_OK
        lines = workspace["corpus"].read_text().splitlines(keepends=True)
        shuffled = random.Random(5).sample(lines, len(lines))
        assert shuffled != lines
        other = {"corpus": tmp_path / "shuffled.jsonl", "index_dir": tmp_path / "shuffled"}
        other["corpus"].write_text("".join(shuffled))
        assert _build(other) == EXIT_OK
        for source in ("asr", "ocr", "visuals", "fused"):
            name = f"{source}.idx"
            assert (other["index_dir"] / name).read_bytes() == (
                workspace["index_dir"] / name
            ).read_bytes()

    def test_unknown_embedder_is_usage_error(self, workspace, capsys):
        _gen(workspace)
        code = main(
            [
                "build-index",
                "--corpus",
                str(workspace["corpus"]),
                "--index-dir",
                str(workspace["index_dir"]),
                "--embedder",
                "nonexistent",
            ]
        )
        assert code == EXIT_USAGE
        assert "unknown embedder" in capsys.readouterr().err

    def test_dim_above_the_ceiling_is_usage_error(self, workspace, capsys):
        _gen(workspace)
        capsys.readouterr()
        argv = ["build-index", "--corpus", str(workspace["corpus"])]
        argv += ["--index-dir", str(workspace["index_dir"]), "--dim", str(MAX_DIM + 1)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: dim must be <= {MAX_DIM}, got {MAX_DIM + 1}\n"
        assert not workspace["index_dir"].exists()

    def test_no_fused_flag(self, workspace):
        _gen(workspace)
        code = main(
            [
                "build-index",
                "--corpus",
                str(workspace["corpus"]),
                "--index-dir",
                str(workspace["index_dir"]),
                "--no-fused",
            ]
        )
        assert code == EXIT_OK
        assert not (workspace["index_dir"] / "fused.idx").exists()

    def test_missing_corpus_is_validation_error_without_partial_output(self, workspace, capsys):
        code = main(
            [
                "build-index",
                "--corpus",
                str(workspace["corpus"]),
                "--index-dir",
                str(workspace["index_dir"]),
            ]
        )
        assert code == EXIT_USAGE
        assert not workspace["index_dir"].exists()

    def test_corpus_that_is_a_directory_is_usage_error(self, workspace, tmp_path, capsys):
        code = main(
            ["build-index", "--corpus", str(tmp_path), "--index-dir", str(workspace["index_dir"])]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: corpus path is not a file: {tmp_path}\n"
        assert not workspace["index_dir"].exists()

    def test_malformed_corpus_is_runtime_error_without_partial_output(self, workspace, capsys):
        workspace["corpus"].write_text('{"clip_id": "oops"}\n')
        code = main(
            [
                "build-index",
                "--corpus",
                str(workspace["corpus"]),
                "--index-dir",
                str(workspace["index_dir"]),
            ]
        )
        assert code == EXIT_RUNTIME
        assert not workspace["index_dir"].exists()

    @pytest.mark.parametrize("existing", [True, False], ids=["existing-dir", "no-dir"])
    @pytest.mark.parametrize("failure", ["save", "build"])
    def test_a_failed_build_leaves_the_index_dir_as_it_was(
        self, workspace, tmp_path, capsys, monkeypatch, failure, existing
    ):
        if existing:
            # Files of another corpus, which a partial build would replace.
            _gen(workspace, seed=2)
            assert _build(workspace) == EXIT_OK
            (workspace["index_dir"] / "notes.txt").write_text("not an index")
        _gen(workspace, seed=1)
        if failure == "save":
            saved = []

            def save_index(index, path):
                saved.append(index.source)
                if len(saved) == 3:
                    raise OSError(28, "No space left on device")
                index_mod.save_index(index, path)

            monkeypatch.setattr(cli, "save_index", save_index)
            message = "error: [Errno 28] No space left on device\n"
        else:
            # Only the third index, visuals, holds a clip past its u32 times.
            late = f"late__s{2**32}__e{2**32 + 10}"
            with workspace["corpus"].open("a") as handle:
                handle.write(json.dumps({"clip_id": late, "visual": "a very late scene"}) + "\n")
            message = f"error: clip {late}: times above {2**32 - 1} s do not fit the index\n"
        before = _tree(tmp_path)
        capsys.readouterr()
        assert _build(workspace) == EXIT_RUNTIME
        assert capsys.readouterr() == ("", message)
        assert _tree(tmp_path) == before
        assert workspace["index_dir"].exists() is existing

    def test_index_dir_that_is_a_file_is_usage_error_before_the_corpus_is_read(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        _gen(workspace)
        index_dir = tmp_path / "indices"
        index_dir.write_text("not a directory")
        before = _tree(tmp_path)
        monkeypatch.setattr(cli, "load_corpus", lambda path: pytest.fail("the corpus was read"))
        capsys.readouterr()
        assert _build(workspace) == EXIT_USAGE
        message = f"usage error: index_dir path is not a directory: {index_dir}\n"
        assert capsys.readouterr() == ("", message)
        assert _tree(tmp_path) == before

    def test_holds_one_index_at_a_time(self, workspace, monkeypatch):
        _gen(workspace)
        calls, built = [], []

        def build(function):
            def call(*args):
                assert [ref() for ref in built] == [None] * len(built), "an earlier index is alive"
                index = function(*args)
                built.append(weakref.ref(index))
                calls.append(("build", index.source))
                return index

            return call

        def save_index(index, path):
            index_mod.save_index(index, path)
            calls.append(("save", index.source))

        monkeypatch.setattr(cli, "build_index", build(index_mod.build_index))
        monkeypatch.setattr(cli, "build_fused_index", build(index_mod.build_fused_index))
        monkeypatch.setattr(cli, "save_index", save_index)
        assert _build(workspace) == EXIT_OK
        sources = ("asr", "ocr", "visuals", "fused")
        assert calls == [(step, source) for source in sources for step in ("build", "save")]


def _tree(root):
    """Each path under ``root``, with its bytes if it is a file."""
    return {
        str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
        for path in sorted(root.rglob("*"))
    }


class TestRoute:
    def test_rule_backend_emits_wire_decision_and_origin(self, capsys):
        assert main(["route", "--router", "rule", "what does the sign say"]) == EXIT_OK
        out_lines = capsys.readouterr().out.strip().splitlines()
        decision = json.loads(out_lines[0])
        assert list(decision) == ["ocr", "asr"]
        assert out_lines[1] == "origin: rule"

    def test_replay_backend_uses_fixture(self, tmp_path, capsys):
        fixture = tmp_path / "replay.jsonl"
        fixture.write_text(
            json.dumps({"query_id": "cli", "raw_response": '{"visuals": "scenic shot"}'})
            + "\n"
        )
        code = main(
            ["route", "--router", "replay", "--replay-fixture", str(fixture), "whatever"]
        )
        assert code == EXIT_OK
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert json.loads(out_lines[0]) == {"visuals": "scenic shot"}

    def test_unparseable_replay_entry_falls_back_with_zero_exit(self, tmp_path, capsys):
        fixture = tmp_path / "replay.jsonl"
        fixture.write_text(json.dumps({"query_id": "cli", "raw_response": "garbage"}) + "\n")
        code = main(
            ["route", "--router", "replay", "--replay-fixture", str(fixture), "whatever"]
        )
        assert code == EXIT_OK
        out_lines = capsys.readouterr().out.strip().splitlines()
        decision = json.loads(out_lines[0])
        assert list(decision) == ["asr", "ocr", "visuals"]
        assert out_lines[1] == "origin: fallback_all"

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"query_id": "cli", ', "invalid JSON"),
            ('["cli", "{}"]', "expected a JSON object"),
            ('{"raw_response": "{}"}', "missing 'query_id'"),
            ('{"query_id": "cli"}', "missing 'raw_response'"),
            ('{"query_id": 5, "raw_response": "{}"}', "'query_id' must be a string, got 5"),
            (
                '{"query_id": "cli", "raw_response": 5}',
                "'raw_response' must be a string or null, got 5",
            ),
        ],
        ids=[
            "not-json",
            "not-an-object",
            "no-query-id",
            "no-raw-response",
            "int-query-id",
            "int-raw-response",
        ],
    )
    def test_malformed_replay_fixture_is_runtime_error(self, tmp_path, capsys, line, message):
        fixture = tmp_path / "replay.jsonl"
        good = json.dumps({"query_id": "other", "raw_response": "{}"})
        fixture.write_text(f"{good}\n\n{line}\n")
        code = main(["route", "--router", "replay", "--replay-fixture", str(fixture), "x"])
        assert code == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {fixture}: line 3: {message}")

    def test_empty_query_is_usage_error(self, capsys):
        assert main(["route", "   "]) == EXIT_USAGE

    def test_single_mode_constrains_to_one_modality(self, capsys):
        code = main(["route", "--router-mode", "single", "what does the sign say"])
        assert code == EXIT_OK
        decision = json.loads(capsys.readouterr().out.splitlines()[0])
        assert list(decision) == ["ocr"]

    def test_llm_failure_without_fallback_exits_runtime(self, monkeypatch, capsys):
        monkeypatch.setenv("CLIPROUTE_LLM_BASE_URL", "http://127.0.0.1:1")
        monkeypatch.setenv("CLIPROUTE_LLM_MODEL", "m")
        code = main(
            [
                "route",
                "--router",
                "llm",
                "--no-fallback-on-error",
                "who says hello",
            ]
        )
        assert code == EXIT_RUNTIME

    @pytest.mark.parametrize("command", ["route", "evaluate"])
    def test_replay_without_a_fixture_is_one_usage_error(self, workspace, capsys, command):
        if command == "route":
            argv = ["route", "--router", "replay", "x"]
        else:
            _gen(workspace)
            _build(workspace)
            argv = ["evaluate", "--queries", str(workspace["queries"])]
            argv += ["--index-dir", str(workspace["index_dir"]), "--methods", "routed:replay"]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", "usage error: replay router requires replay_fixture\n")

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_replay_fixture_that_is_not_a_file_is_usage_error(self, tmp_path, capsys, kind):
        fixture = tmp_path if kind == "directory" else tmp_path / "absent.jsonl"
        problem = "is not a file" if kind == "directory" else "does not exist"
        argv = ["route", "--router", "replay", "--replay-fixture", str(fixture), "x"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: replay_fixture path {problem}: {fixture}\n"

    @pytest.mark.parametrize("kind", ["directory", "under-a-file"])
    def test_unwritable_audit_log_is_usage_error_before_any_call(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        import requests

        posts = []

        def post(session, *args, **kwargs):
            posts.append(args)
            raise requests.ConnectionError("refused")

        monkeypatch.setattr(requests.Session, "post", post)
        if kind == "directory":
            audit, message = tmp_path, f"audit_log path is a directory: {tmp_path}"
        else:
            (tmp_path / "afile").write_text("")
            audit = tmp_path / "afile" / "audit.jsonl"
            message = f"audit_log path is under a file, not a directory: {audit}"
        argv = ["route", "--router", "llm", "--llm-base-url", "http://127.0.0.1:1"]
        argv += ["--llm-model", "m", "--audit-log", str(audit), "who says hello"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
        assert posts == []

    def test_missing_audit_log_parent_is_made_before_any_call(self, tmp_path, monkeypatch):
        import requests

        audit = tmp_path / "absent" / "deeper" / "audit.jsonl"

        def post(session, *args, **kwargs):
            assert audit.parent.is_dir()
            raise requests.ConnectionError("refused")

        monkeypatch.setattr(requests.Session, "post", post)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"llm_max_retries": 1}))
        argv = ["route", "--config", str(config), "--router", "llm", "--llm-base-url"]
        argv += ["http://127.0.0.1:1", "--llm-model", "m", "--audit-log", str(audit), "who says"]
        assert main(argv) == EXIT_OK
        (line,) = audit.read_text().splitlines()
        assert json.loads(line)["query_id"] == "cli"


class TestNonUtf8Input:
    """An input file that is not UTF-8 ends in a runtime error naming it."""

    def _assert_rejected(self, code, capsys, path):
        assert code == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not UTF-8 text")

    def test_corpus(self, workspace, capsys):
        workspace["corpus"].write_bytes(b"\xff\xfe{\x00\n")
        self._assert_rejected(_build(workspace), capsys, workspace["corpus"])

    def test_queries(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        lines = workspace["queries"].read_bytes().splitlines(keepends=True)
        workspace["queries"].write_bytes(b"".join(lines[:2]) + b'{"text": "caf\xe9"}\n')
        capsys.readouterr()
        code = main(
            [
                "evaluate",
                "--queries",
                str(workspace["queries"]),
                "--index-dir",
                str(workspace["index_dir"]),
                "--out",
                str(workspace["report"]),
            ]
        )
        self._assert_rejected(code, capsys, workspace["queries"])

    def test_replay_fixture(self, tmp_path, capsys):
        fixture = tmp_path / "replay.jsonl"
        fixture.write_bytes(b"\xff\n")
        code = main(["route", "--router", "replay", "--replay-fixture", str(fixture), "x"])
        self._assert_rejected(code, capsys, fixture)


_BAD_JSON = [
    pytest.param("[" * 200_000, "invalid JSON (", id="deep-nesting"),
    pytest.param('{"n": ' + "9" * 5000 + "}", "invalid JSON (", id="long-number"),
    pytest.param('["clip", "query"]', "expected a JSON object", id="array"),
]


class TestMalformedJson:
    """Every JSON input file that does not hold an object ends in a message
    naming the file, and the line for JSONL, never in a traceback."""

    @pytest.mark.parametrize("reader", ["corpus", "queries", "replay", "config", "index"])
    @pytest.mark.parametrize("bad, detail", _BAD_JSON)
    def test_reported_with_file_and_line(self, workspace, tmp_path, capsys, reader, bad, detail):
        _gen(workspace)
        _build(workspace)
        fixture, config = tmp_path / "replay.jsonl", tmp_path / "run.json"
        fixture.write_text(json.dumps({"query_id": "q", "raw_response": "{}"}) + "\n")
        config.write_text("{}")
        index = workspace["index_dir"] / "asr.idx"
        if reader == "config":
            config.write_text(bad)
            code, expected = EXIT_USAGE, f"usage error: config file {config}: {detail}"
        elif reader == "index":
            _, _, payload = index.read_bytes().partition(b"\n")
            index.write_bytes(bad.encode() + b"\n" + payload)
            code, expected = EXIT_RUNTIME, f"error: {index}: not an index file (bad header)\n"
        else:
            path = {"corpus": workspace["corpus"], "queries": workspace["queries"]}.get(reader, fixture)
            first = path.read_text().splitlines()[0]
            path.write_text(f"{first}\n{bad}\n")
            code, expected = EXIT_RUNTIME, f"error: {path}: line 2: {detail}"
        capsys.readouterr()
        if reader == "corpus":  # evaluate reads no corpus; build-index does
            argv = ["build-index", "--config", str(config), "--corpus", str(workspace["corpus"])]
            argv += ["--index-dir", str(workspace["index_dir"])]
        else:
            argv = ["evaluate", "--config", str(config), "--queries", str(workspace["queries"])]
            argv += ["--index-dir", str(workspace["index_dir"]), "--methods", "routed:replay"]
            argv += ["--replay-fixture", str(fixture), "--out", str(workspace["report"])]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(expected)
        assert "Traceback" not in captured.err


class TestQuery:
    def test_planted_token_retrieves_gold_at_rank_one(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        capsys.readouterr()
        queries = load_queries(workspace["queries"])
        target = next(q for q in queries if q.source_modality == "asr")
        code = main(
            ["query", "--index-dir", str(workspace["index_dir"]), target.text]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["clip_id"] == target.gold.clip_id

    def test_single_modality_provenance_has_null_ranks_elsewhere(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        capsys.readouterr()
        code = main(
            ["query", "--index-dir", str(workspace["index_dir"]), "who says anything"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        top = payload[0]["provenance"]
        assert top["asr"] is not None
        assert top["ocr"] is None and top["visuals"] is None

    def test_missing_index_names_the_modality(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        (workspace["index_dir"] / "asr.idx").unlink()
        capsys.readouterr()
        code = main(
            ["query", "--index-dir", str(workspace["index_dir"]), "who says anything"]
        )
        assert code == EXIT_RUNTIME
        assert "'asr'" in capsys.readouterr().err

    def test_index_dir_that_is_a_file_is_usage_error(self, workspace, capsys):
        _gen(workspace)
        capsys.readouterr()
        index_dir = workspace["corpus"]
        assert main(["query", "--index-dir", str(index_dir), "who says anything"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: index_dir path is not a directory: {index_dir}\n"

    def test_missing_index_dir_is_usage_error(self, workspace, capsys):
        index_dir = workspace["index_dir"]
        assert main(["query", "--index-dir", str(index_dir), "who says anything"]) == EXIT_USAGE
        message = f"usage error: index_dir path does not exist: {index_dir}\n"
        assert capsys.readouterr().err == message

    def test_a_repeated_clip_row_is_runtime_error(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        path = workspace["index_dir"] / "asr.idx"

        def repeat_row_0(header, payload):
            # Row 1 takes row 0's video number, start and end.
            videos, count = header["videos"], header["count"]
            at = 4 * videos + sum(struct.unpack_from(f"<{videos}I", payload))
            payload = bytearray(payload)
            codes = column_codes(header)
            for name in ("video number", "start", "end"):
                size = struct.calcsize(codes[name])
                payload[at + size : at + 2 * size] = payload[at : at + size]
                at += size * count
            return header, bytes(payload)

        path.write_bytes(resign(path.read_bytes(), repeat_row_0))
        capsys.readouterr()
        code = main(["query", "--index-dir", str(workspace["index_dir"]), "who says anything"])
        assert code == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: clip row 1 is not after the row before it in clip-id order; "
            "rebuild with build-index\n"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda ids, numbers: (ids + [b"zz"], numbers), r"video id \d+ is not used by any row"),
            (
                lambda ids, numbers: ([ids[1], ids[0], *ids[2:]], [n ^ (n < 2) for n in numbers]),
                "clip row 0 names a video id out of first-use order",
            ),
            (
                lambda ids, numbers: ([ids[0], *ids], [n + (n > 0) for n in numbers]),
                "the video id table repeats an id",
            ),
        ],
        ids=["unused", "out-of-order", "repeated"],
    )
    def test_a_video_id_table_save_index_did_not_write_is_runtime_error(
        self, workspace, capsys, edit, message
    ):
        _gen(workspace)
        _build(workspace)
        path = workspace["index_dir"] / "asr.idx"
        path.write_bytes(resign(path.read_bytes(), edit_video_table(edit)))
        capsys.readouterr()
        code = main(["query", "--index-dir", str(workspace["index_dir"]), "who says anything"])
        assert code == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: {re.escape(str(path))}: {message}\n", captured.err)

    def test_empty_query_usage_error(self, workspace):
        assert main(["query", "--index-dir", str(workspace["index_dir"]), ""]) == EXIT_USAGE

    def test_three_index_query_embeds_its_text_once(self, workspace, capsys, monkeypatch):
        _gen(workspace)
        _build(workspace)
        capsys.readouterr()
        texts = []
        original = embed.embed_text

        def counting_embed_text(spec, text):
            texts.append(text)
            return original(spec, text)

        # Patch every cliproute module that imported embed_text by name.
        for name, module in list(sys.modules.items()):
            if name.startswith("cliproute") and getattr(module, "embed_text", None) is original:
                monkeypatch.setattr(module, "embed_text", counting_embed_text)
        queries = load_queries(workspace["queries"])
        text = next(q.text for q in queries if q.source_modality == "asr")
        cue_free = " ".join(w for w in text.split() if normalize_text(w) not in ALL_CUE_WORDS)
        assert len(rule_route(cue_free).selections) == 3
        code = main(["query", "--index-dir", str(workspace["index_dir"]), cue_free])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)
        assert texts == [cue_free]


class TestEvaluate:
    def _evaluate(self, paths, methods, extra=()):
        return main(
            [
                "evaluate",
                "--queries",
                str(paths["queries"]),
                "--index-dir",
                str(paths["index_dir"]),
                "--methods",
                methods,
                "--out",
                str(paths["report"]),
                *extra,
            ]
        )

    def test_three_methods_give_three_report_sections(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        capsys.readouterr()
        code = self._evaluate(workspace, "late_fusion_all,single:asr,routed:rule")
        assert code == EXIT_OK
        document = json.loads(workspace["report"].read_text())
        assert [r["method"] for r in document["reports"]] == [
            "late_fusion_all",
            "single:asr",
            "routed:rule",
        ]

    def test_summary_cost_line_is_consistent_with_mean(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        capsys.readouterr()
        assert self._evaluate(workspace, "routed:rule") == EXIT_OK
        out = capsys.readouterr().out
        summary = next(line for line in out.splitlines() if line.startswith("routed:rule"))
        fields = dict(
            part.split("=") for part in summary.split(": ", 1)[1].split() if "=" in part
        )
        mean = float(fields["mean_modalities"])
        assert float(fields["cost_reduction"]) == pytest.approx(1 - mean / 3, abs=5e-5)
        assert mean < 3.0

    def test_empty_query_file_reports_zeros(self, workspace, tmp_path, capsys):
        _gen(workspace)
        _build(workspace)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        methods = ["routed:rule", "late_fusion_all", "single:asr", "all_text"]
        paths = {**workspace, "queries": empty}
        assert self._evaluate(paths, ",".join(methods)) == EXIT_OK
        zeros = dict.fromkeys(
            ["recall_at_1", "recall_at_5", "recall_at_10", "mrr", "ndcg_at_5", "ndcg_at_10"],
            0.0,
        )
        expected = {
            "reports": [
                {
                    "method": method,
                    "n_queries": 0,
                    **zeros,
                    "mean_selected": 0.0,
                    "cost_reduction": 0.0,
                    "routing": None,
                    "unembeddable_queries": 0,
                    "fusion": "linear",
                    "rrf_k": 60.0,
                    "depth": 50,
                    "use_rewrites": False,
                    "by_source": {},
                    "by_category": {},
                    "legend": NDCG_LEGEND,
                }
                for method in methods
            ]
        }
        rendered = json.dumps(expected, sort_keys=True, indent=2) + "\n"
        assert workspace["report"].read_text(encoding="utf-8") == rendered

    def test_reports_record_how_they_were_made(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        rendered = {}
        for fusion in ("linear", "rrf"):
            extra = ["--fusion", fusion, "--depth", "20", "--rrf-k", "30", "--use-rewrites"]
            assert self._evaluate(workspace, "routed:rule,all_text", extra=extra) == EXIT_OK
            rendered[fusion] = workspace["report"].read_text(encoding="utf-8")
        assert rendered["linear"] != rendered["rrf"]
        for fusion, text in rendered.items():
            for report in json.loads(text)["reports"]:
                made = (report["fusion"], report["rrf_k"], report["depth"], report["use_rewrites"])
                assert made == (fusion, 30.0, 20, True)

    def test_rule_router_selects_specific_cues_on_synthetic(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        capsys.readouterr()
        assert self._evaluate(workspace, "routed:rule") == EXIT_OK
        document = json.loads(workspace["report"].read_text())
        report = document["reports"][0]
        assert report["mean_selected"] < 3.0
        assert report["routing"]["hit_rate"] == 1.0

    def test_csv_breakdown_flattening(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        capsys.readouterr()
        code = self._evaluate(
            workspace, "routed:oracle", extra=["--csv-out", str(workspace["csv"])]
        )
        assert code == EXIT_OK
        rows = workspace["csv"].read_text().strip().splitlines()
        assert rows[0] == "method,table,key,n_queries,recall_at_5,mean_selected"
        tables = Counter(line.split(",")[1] for line in rows[1:])
        assert tables["source"] == 3  # asr, ocr, visuals
        assert tables["category"] > 0

    def test_all_text_method_requires_fused_index(self, workspace, capsys):
        _gen(workspace)
        main(
            [
                "build-index",
                "--corpus",
                str(workspace["corpus"]),
                "--index-dir",
                str(workspace["index_dir"]),
                "--no-fused",
            ]
        )
        capsys.readouterr()
        code = self._evaluate(workspace, "all_text")
        assert code == EXIT_RUNTIME
        assert "fused" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        assert self._evaluate(workspace, "sorcery") == EXIT_USAGE

    def test_repeated_method_is_usage_error(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        capsys.readouterr()
        code = self._evaluate(workspace, "routed:rule,all_text,routed:rule")
        assert code == EXIT_USAGE
        assert "routed:rule" in capsys.readouterr().err
        assert not workspace["report"].exists()

    @pytest.mark.parametrize("methods", ["late_fusion_all:bogus", "all_text:zzz"])
    def test_qualifier_on_an_unqualified_method_is_usage_error(self, workspace, capsys, methods):
        _gen(workspace)
        _build(workspace)
        capsys.readouterr()
        assert self._evaluate(workspace, methods) == EXIT_USAGE
        assert f"takes no qualifier, got {methods!r}" in capsys.readouterr().err
        assert not workspace["report"].exists()

    def test_method_repeated_in_another_case_is_usage_error(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        capsys.readouterr()
        assert self._evaluate(workspace, "routed:rule, ROUTED : RULE") == EXIT_USAGE
        assert "listed more than once: ROUTED : RULE, routed:rule" in capsys.readouterr().err
        assert not workspace["report"].exists()

    def test_bare_routed_repeats_the_configured_router(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        capsys.readouterr()
        assert self._evaluate(workspace, "routed,routed:rule") == EXIT_USAGE
        assert "listed more than once: routed, routed:rule" in capsys.readouterr().err
        assert not workspace["report"].exists()
        assert self._evaluate(workspace, "routed,routed:oracle") == EXIT_OK
        reports = json.loads(workspace["report"].read_text())["reports"]
        assert [r["method"] for r in reports] == ["routed", "routed:oracle"]

    def test_truncated_index_is_runtime_error(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        path = workspace["index_dir"] / "asr.idx"
        path.write_bytes(path.read_bytes()[:-5])
        capsys.readouterr()
        assert self._evaluate(workspace, "single:asr") == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "asr.idx" in err

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_old_index_asks_for_a_rebuild(self, workspace, capsys, version):
        _gen(workspace)
        _build(workspace)
        path = workspace["index_dir"] / "asr.idx"
        header, _, payload = path.read_bytes().partition(b"\n")
        old = header.replace(b'"version": 5', f'"version": {version}'.encode())
        assert old != header
        path.write_bytes(old + b"\n" + payload)
        capsys.readouterr()
        assert self._evaluate(workspace, "single:asr") == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == f"error: {path}: unsupported version {version}; rebuild with build-index\n"

    @pytest.mark.parametrize(
        "field, change, message",
        [
            ("max_end_s", 1, r"header max_end_s \d+ is not the largest end, \d+"),
            ("max_end_s", 2**16, "the [a-z ]+ column runs past the end of the file"),
            ("count", 2**8, "the [a-z ]+ column runs past the end of the file"),
            ("videos", 2**8, "the [a-z ]+ column runs past the end of the file"),
            ("max_end_s", 2**32, "bad header: count, videos or max_end_s above 4294967295"),
        ],
        ids=["not-the-largest-end", "wider-times", "wider-rows", "wider-numbers", "past-u32"],
    )
    def test_a_header_bound_save_index_did_not_write_is_runtime_error(
        self, workspace, capsys, field, change, message
    ):
        _gen(workspace)
        _build(workspace)
        path = workspace["index_dir"] / "asr.idx"
        path.write_bytes(
            resign(path.read_bytes(), lambda h, p: ({**h, field: h[field] + change}, p))
        )
        capsys.readouterr()
        assert self._evaluate(workspace, "single:asr") == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {re.escape(str(path))}: {message}\n", err)

    def test_signed_header_dim_above_the_ceiling_is_runtime_error(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        path = workspace["index_dir"] / "asr.idx"

        def widen(header, payload):
            header["dim"] = header["embedder"]["dim"] = MAX_DIM + 1
            return header, payload

        path.write_bytes(resign(path.read_bytes(), widen))
        capsys.readouterr()
        assert self._evaluate(workspace, "single:asr") == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: bad header: ")
        assert f"embedder dim must be <= {MAX_DIM}, got {MAX_DIM + 1}" in err

    def test_reference_header_with_other_parameters_is_runtime_error(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        path = workspace["index_dir"] / "asr.idx"

        def rehash(header, payload):
            header["embedder"]["parameters"]["hash"] = "md5"
            return header, payload

        path.write_bytes(resign(path.read_bytes(), rehash))
        capsys.readouterr()
        assert self._evaluate(workspace, "single:asr") == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: bad header: ")
        assert "hashed-trigram parameters must be empty or" in err

    def test_an_index_built_with_the_bare_reference_spec_joins_cli_indices(
        self, workspace, capsys
    ):
        # EmbedderSpec() and the spec build-index uses are one spec, so an
        # index built through the API mixes with the CLI's in one directory.
        _gen(workspace)
        _build(workspace)
        methods = "routed:rule,late_fusion_all,single:asr,all_text"
        capsys.readouterr()
        assert self._evaluate(workspace, methods) == EXIT_OK
        report, out = workspace["report"].read_bytes(), capsys.readouterr().out
        path = workspace["index_dir"] / "asr.idx"
        cli_bytes = path.read_bytes()
        corpus = load_corpus(workspace["corpus"])
        index_mod.save_index(index_mod.build_index(corpus, Modality.ASR, EmbedderSpec()), path)
        assert path.read_bytes() == cli_bytes
        assert self._evaluate(workspace, methods) == EXIT_OK
        assert workspace["report"].read_bytes() == report
        assert capsys.readouterr().out == out

    def test_mixed_embedders_rejected_at_load(self, workspace, tmp_path, capsys):
        _gen(workspace)
        _build(workspace)
        other = tmp_path / "other"
        main(
            [
                "build-index",
                "--corpus",
                str(workspace["corpus"]),
                "--index-dir",
                str(other),
                "--dim",
                "512",
            ]
        )
        (workspace["index_dir"] / "ocr.idx").write_bytes((other / "ocr.idx").read_bytes())
        capsys.readouterr()
        assert self._evaluate(workspace, "single:asr") == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "different embedders" in err
        assert '"dim": 4096' in err and '"dim": 512' in err

    @pytest.mark.parametrize("case", ["out-directory", "csv-directory", "same-path"])
    def test_bad_report_paths_are_usage_errors_before_any_method_runs(
        self, workspace, tmp_path, capsys, monkeypatch, case
    ):
        _gen(workspace)
        _build(workspace)
        folder = tmp_path / "folder"
        folder.mkdir()
        report = workspace["report"]
        same = folder / ".." / report.name  # another spelling of the report's path
        out, csv_out, message = {
            "out-directory": (folder, workspace["csv"], f"out path is a directory: {folder}"),
            "csv-directory": (report, folder, f"csv_out path is a directory: {folder}"),
            "same-path": (report, same, f"out and csv_out name the same path: {report}"),
        }[case]
        monkeypatch.setattr(cli, "run_evaluation", lambda *a, **k: pytest.fail("a method ran"))
        before = _tree(tmp_path)
        capsys.readouterr()
        extra = ["--csv-out", str(csv_out)]
        assert self._evaluate({**workspace, "report": out}, "routed:rule", extra) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize(
        "embedder, video", [("hashed-trigram", "ghost"), ("test-skip", "hidden")]
    )
    def test_gold_in_no_loaded_index_is_runtime_error(self, workspace, capsys, embedder, video):
        """A gold that names no clip, and a clip that a registered embedder
        skips in every index, exit 2 naming the query, not a silent miss."""
        _gen(workspace)
        with workspace["corpus"].open("a") as handle:
            clip = {"clip_id": "hidden__s0__e10", "asr": "zzhidden", "visual": "zzhidden. zzhidden"}
            handle.write(json.dumps(clip) + "\n")
        gold = ClipRef(video, 0, 10)
        queries = [*load_queries(workspace["queries"]), QueryRecord("q-gone", "who says x", gold)]
        save_queries(queries, workspace["queries"])
        argv = ["build-index", "--corpus", str(workspace["corpus"]), "--embedder", embedder]
        assert main(argv + ["--index-dir", str(workspace["index_dir"])]) == EXIT_OK
        skipped = int(embedder == "test-skip")
        assert f"asr: indexed={13 - skipped} skipped={skipped}" in capsys.readouterr().out
        assert self._evaluate(workspace, "routed:rule") == EXIT_RUNTIME
        message = f"query 'q-gone' gold clip '{video}__s0__e10' is not a clip of any loaded index"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not workspace["report"].exists()

    def test_depth_below_ten_rejected(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        code = main(
            [
                "evaluate",
                "--queries",
                str(workspace["queries"]),
                "--index-dir",
                str(workspace["index_dir"]),
                "--depth",
                "5",
            ]
        )
        assert code == EXIT_USAGE
        assert "depth" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_paths_and_flags_override(self, workspace, tmp_path, capsys):
        _gen(workspace)
        _build(workspace)
        capsys.readouterr()
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "corpus": str(workspace["corpus"]),
                    "queries": str(workspace["queries"]),
                    "index_dir": str(workspace["index_dir"]),
                    "methods": "single:asr",
                    "depth": 25,
                }
            )
        )
        code = main(
            ["evaluate", "--config", str(config), "--methods", "single:ocr"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "single:ocr" in out and "single:asr" not in out

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"tpyo": 1}))
        assert main(["route", "--config", str(config), "hello"]) == EXIT_USAGE
        assert "tpyo" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["route", "--config", str(missing), "hello"]) == EXIT_USAGE

    def test_mistyped_config_value_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"depth": "50"}))
        assert main(["route", "--config", str(config), "hello"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "'depth' must be int" in err

    @pytest.mark.parametrize(
        "setting",
        [{"llm_timeout_s": 0}, {"llm_timeout_s": -1.5}, {"llm_max_retries": 0}],
        ids=["zero-timeout", "negative-timeout", "zero-retries"],
    )
    def test_bad_llm_retry_settings_are_usage_errors(self, tmp_path, capsys, setting):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(setting))
        assert main(["route", "--config", str(config), "hello"]) == EXIT_USAGE
        (key,) = setting
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and key in err

    @pytest.mark.parametrize(
        "setting",
        [
            {"rrf_k": float("nan")},
            {"rrf_k": float("inf")},
            {"llm_timeout_s": float("nan")},
            {"llm_timeout_s": float("inf")},
        ],
        ids=["nan-rrf-k", "infinite-rrf-k", "nan-timeout", "infinite-timeout"],
    )
    def test_non_finite_floats_are_usage_errors(self, tmp_path, capsys, setting):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(setting))  # NaN and Infinity, as json reads them
        assert main(["route", "--config", str(config), "hello"]) == EXIT_USAGE
        (key,) = setting
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and key in err and "finite" in err

    def test_generator_sizes_are_validated_by_every_command(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n_videos": 0, "clips_per_video": -3}))
        assert main(["route", "--config", str(config), "hello"]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: n_videos must be >= 1, got 0\n"
        config.write_text(json.dumps({"clips_per_video": -3}))
        assert main(["route", "--config", str(config), "hello"]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: clips_per_video must be >= 1, got -3\n"

    @pytest.mark.parametrize("depth", [2**32 + 1, 10**400], ids=["2**32+1", "400-digits"])
    @pytest.mark.parametrize("command", ["query", "evaluate"])
    def test_depth_past_2_to_the_32_is_usage_error(self, workspace, capsys, command, depth):
        _gen(workspace)
        _build(workspace)
        text = load_queries(workspace["queries"])[0].text
        argv = [command, "--index-dir", str(workspace["index_dir"]), "--depth", str(depth)]
        argv += [text] if command == "query" else ["--queries", str(workspace["queries"])]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        message = f"usage error: depth must be between 10 and {2**32}, got {depth}\n"
        assert capsys.readouterr() == ("", message)

    def test_depth_2_to_the_32_ranks_as_depth_50(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        text = load_queries(workspace["queries"])[0].text
        ranked = []
        for depth in (50, 2**32):
            capsys.readouterr()
            argv = ["query", "--index-dir", str(workspace["index_dir"]), "--depth", str(depth)]
            assert main(argv + [text]) == EXIT_OK
            ranked.append([item["clip_id"] for item in json.loads(capsys.readouterr().out)])
        assert ranked[0] == ranked[1] and ranked[0]

    def test_nan_rrf_k_flag_is_usage_error(self, tmp_path, capsys):
        argv = ["query", "--index-dir", str(tmp_path), "--fusion", "rrf", "--rrf-k", "nan", "x"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "rrf_k" in captured.err

    def test_one_config_file_drives_every_command(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "corpus": str(workspace["corpus"]),
                    "queries": str(workspace["queries"]),
                    "index_dir": str(workspace["index_dir"]),
                    "seed": 4,
                    "n_videos": 3,
                    "clips_per_video": 2,
                    "dim": 64,
                    "depth": 20,
                    "fusion": "rrf",
                    "router": "rule",
                    "router_mode": "single",
                    "methods": ["routed", "single:ocr"],
                    "out": str(workspace["report"]),
                    "csv_out": str(workspace["csv"]),
                }
            )
        )
        run = ["--config", str(config)]
        assert main(["gen-corpus", *run]) == EXIT_OK
        assert len(load_corpus(workspace["corpus"])) == 6
        assert main(["build-index", *run]) == EXIT_OK
        assert load_index(workspace["index_dir"] / "asr.idx").embedder.dim == 64
        capsys.readouterr()
        assert main(["query", *run, "what does the sign say"]) == EXIT_OK
        results = json.loads(capsys.readouterr().out)
        assert {key for r in results for key, rank in r["provenance"].items() if rank} == {"ocr"}
        assert main(["evaluate", *run]) == EXIT_OK
        report = json.loads(workspace["report"].read_text())
        assert [r["method"] for r in report["reports"]] == ["routed", "single:ocr"]
        assert workspace["csv"].is_file()


def _readme_flag_table() -> dict[str, set[str]]:
    """Command -> flags, as the README's Configuration table lists them."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 2 or not cells[0].startswith("`"):
            continue
        flags = set()
        for flag in re.findall(r"`(--[^`]+)`", cells[1]):
            if flag.startswith("--[no-]"):
                flags.add("--no-" + flag[len("--[no-]") :])
                flag = "--" + flag[len("--[no-]") :]
            flags.add(flag)
        table[cells[0].strip("`")] = flags
    return table


def _readme_quickstart() -> list[list[str]]:
    """The argv of each ``cliproute`` command in the README's Quickstart."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quickstart", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cliproute ")]


class TestReadme:
    def test_quickstart_commands_exit_0(self, tmp_path, monkeypatch, capsys):
        commands = _readme_quickstart()
        assert [argv[0] for argv in commands] == [
            "gen-corpus", "build-index", "route", "query", "evaluate"
        ]
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv) == EXIT_OK, argv
        assert {"report.json", "breakdowns.csv", "indices"} <= {p.name for p in tmp_path.iterdir()}


class TestCommandSurface:
    @pytest.mark.parametrize(
        "argv",
        [
            ["build-index", "--fusion", "rrf"],
            ["gen-corpus", "--out", "x"],
            ["gen-corpus", "--router", "all"],
            ["route", "--depth", "10", "hello"],
            ["query", "--dim", "64", "hello"],
            ["query", "--out", "x", "hello"],
            ["evaluate", "--corpus", "x"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_flag_the_command_does_not_read_is_rejected(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: unrecognized arguments")

    def test_readme_flag_table_matches_the_parser(self):
        assert _readme_flag_table() == _parser_flags()

    def test_every_path_flag_is_in_its_command_s_path_table_entry(self):
        """A new command or path flag cannot skip the one path check."""
        path_flags = {"--corpus", "--queries", "--index-dir", "--replay-fixture"}
        path_flags |= {"--audit-log", "--out", "--csv-out"}
        parser_flags = _parser_flags()
        assert set(cli._PATHS) == set(parser_flags)
        for command, flags in parser_flags.items():
            reads, writes = cli._PATHS[command]
            table = {"--" + key.replace("_", "-") for key in reads + writes}
            assert flags & path_flags == table, command


def _parser_flags() -> dict[str, set[str]]:
    """Each subcommand's option flags, as the parser declares them."""
    (commands,) = [
        action
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: {
            flag
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings
        }
        for name, parser in commands.choices.items()
    }


# Each command's path settings, as README "Configuration" lists them.
_READS = {
    "gen-corpus": (),
    "build-index": ("corpus",),
    "route": ("replay_fixture",),
    "query": ("index_dir", "replay_fixture"),
    "evaluate": ("queries", "index_dir", "replay_fixture"),
}
_WRITES = {
    "gen-corpus": ("corpus", "queries"),
    "build-index": ("index_dir",),
    "route": ("audit_log",),
    "query": ("audit_log",),
    "evaluate": ("audit_log", "out", "csv_out"),
}
_PATH_PAIRS = [
    (command, key) for command in _READS for key in _READS[command] + _WRITES[command]
]
# An output named as one of the command's other paths: (command, output, other).
_COLLISIONS = [
    ("gen-corpus", "queries", "corpus"),
    ("evaluate", "out", "queries"),
    ("evaluate", "out", "index_dir"),
    ("evaluate", "audit_log", "queries"),
    ("evaluate", "csv_out", "out"),
]


class TestPathCheck:
    """Every path a command reads or writes is checked from one table before
    any file is read or written."""

    @pytest.fixture()
    def paths(self, workspace, tmp_path):
        """A valid path for every setting: inputs that exist, and outputs
        under ``new/``, a directory that does not exist yet."""
        _gen(workspace)
        _build(workspace)
        fixture = tmp_path / "fixture.jsonl"
        fixture.write_text(json.dumps({"query_id": "cli", "raw_response": None}) + "\n")
        new = tmp_path / "new"
        read = {"corpus": workspace["corpus"], "queries": workspace["queries"]}
        read.update(index_dir=workspace["index_dir"], replay_fixture=fixture)
        written = {"corpus": new / "corpus.jsonl", "queries": new / "queries.jsonl"}
        written.update(index_dir=new / "indices", audit_log=new / "audit.jsonl")
        written.update(out=new / "report.json", csv_out=new / "report.csv")
        return {
            command: {key: read[key] for key in _READS[command]}
            | {key: written[key] for key in _WRITES[command]}
            for command in _READS
        }

    @staticmethod
    def _argv(command, paths):
        argv = [command]
        for key, path in paths.items():
            argv += ["--" + key.replace("_", "-"), str(path)]
        if command in ("route", "query"):
            argv += ["--router", "replay", "who says hello"]
        if command == "evaluate":
            argv += ["--methods", "routed:replay"]
        return argv

    def _assert_rejected_before_any_work(self, argv, message, tmp_path, capsys, monkeypatch):
        work = ("generate_synthetic_corpus", "load_corpus", "load_queries", "load_index")
        for name in work + ("make_router", "run_evaluation"):
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("work ran"))
        before = _tree(tmp_path)
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("command", list(_READS))
    def test_every_path_given_runs_and_outputs_get_their_parents(
        self, paths, tmp_path, capsys, command
    ):
        assert not (tmp_path / "new").exists()
        assert main(self._argv(command, paths[command])) == EXIT_OK
        for key in _WRITES[command]:
            if key != "audit_log":  # the replay router writes no audit log
                assert paths[command][key].exists(), key

    @pytest.mark.parametrize("command, key", _PATH_PAIRS)
    @pytest.mark.parametrize("case", ["wrong-kind", "under-a-file"])
    def test_bad_path_is_usage_error_before_any_work(
        self, paths, tmp_path, capsys, monkeypatch, command, key, case
    ):
        folder, afile = tmp_path / "folder", tmp_path / "afile"
        folder.mkdir()
        afile.write_text("a regular file")
        read = key in _READS[command]
        if case == "wrong-kind" and key == "index_dir":
            bad, problem = afile, "is not a directory"
        elif case == "wrong-kind":
            bad, problem = folder, "is not a file" if read else "is a directory"
        else:
            bad = afile / "x"
            problem = "does not exist" if read else "is under a file, not a directory"
        argv = self._argv(command, {**paths[command], key: bad})
        message = f"{key} path {problem}: {bad}"
        self._assert_rejected_before_any_work(argv, message, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("command, output, other", _COLLISIONS)
    def test_output_on_another_path_is_usage_error_before_any_work(
        self, paths, tmp_path, capsys, monkeypatch, command, output, other
    ):
        given = paths[command]
        same = given[other] / "asr.idx" if other == "index_dir" else given[other]
        argv = self._argv(command, {**given, output: same})
        first, second = sorted((output, other), key=list(given).index)
        message = f"{first} and {second} name the same path: {same}"
        self._assert_rejected_before_any_work(argv, message, tmp_path, capsys, monkeypatch)

    def test_a_path_the_command_does_not_take_is_not_checked(self, tmp_path, capsys):
        """One config file serves every command; gen-corpus ignores bad
        replay_fixture, audit_log and out values."""
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"replay_fixture": "absent.jsonl", "audit_log": str(tmp_path), "out": "/"})
        )
        argv = ["gen-corpus", "--config", str(config), "--videos", "3"]
        argv += ["--corpus", str(tmp_path / "c.jsonl"), "--queries", str(tmp_path / "q.jsonl")]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("wrote 15 clips to ")


# Runs CLI commands in a fresh interpreter and reports which HTTP-client
# modules they loaded. A fresh process is needed because this test session
# has imported ``requests`` already (tests/test_router.py uses it).
_COLD_START_SCRIPT = """
import json, sys
from cliproute.cli import main
codes = [main(args) for args in json.loads(sys.argv[1])]
http = ("requests", "urllib3", "charset_normalizer", "idna")
print(json.dumps({"codes": codes, "loaded": [m for m in http if m in sys.modules]}))
"""


class TestColdStart:
    def test_rule_query_and_evaluate_never_import_requests(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        capsys.readouterr()
        index_dir = str(workspace["index_dir"])
        query = ["query", "--fusion", "rrf", "--index-dir", index_dir, "what does the sign say"]
        evaluate = [
            "evaluate",
            "--queries",
            str(workspace["queries"]),
            "--index-dir",
            index_dir,
            "--methods",
            "routed:rule,late_fusion_all",
            "--out",
            str(workspace["report"]),
        ]
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", _COLD_START_SCRIPT, json.dumps([query, evaluate])],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        outcome = json.loads(result.stdout.splitlines()[-1])
        assert outcome["codes"] == [EXIT_OK, EXIT_OK]
        assert outcome["loaded"] == []


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["cliproute", "cliproute.cli"])
    def test_python_dash_m_runs_commands(self, workspace, module):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-m", module, "gen-corpus", "--videos", "2"]
        argv += ["--clips-per-video", "1", "--seed", "1"]
        argv += ["--corpus", str(workspace["corpus"]), "--queries", str(workspace["queries"])]
        run = dict(env=env, capture_output=True, text=True, timeout=120)
        result = subprocess.run(argv, **run)
        assert result.returncode == EXIT_OK, result.stderr
        assert len(load_corpus(workspace["corpus"])) == 2
        assert len(load_queries(workspace["queries"])) == 6
        bad = subprocess.run(argv + ["--bogus"], **run)
        assert bad.returncode == EXIT_USAGE
        assert bad.stderr.startswith("usage error: unrecognized arguments: --bogus")

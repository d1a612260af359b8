"""End-to-end tests for the command-line interface."""

import json
from collections import Counter

import pytest

from cliproute.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from cliproute.corpus import load_corpus, load_queries


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

    def test_empty_query_usage_error(self, workspace):
        assert main(["query", "--index-dir", str(workspace["index_dir"]), ""]) == EXIT_USAGE


class TestEvaluate:
    def _evaluate(self, paths, methods, extra=()):
        return main(
            [
                "evaluate",
                "--corpus",
                str(paths["corpus"]),
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

    def test_truncated_index_is_runtime_error(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        path = workspace["index_dir"] / "asr.idx"
        path.write_bytes(path.read_bytes()[:-5])
        capsys.readouterr()
        assert self._evaluate(workspace, "single:asr") == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "asr.idx" in err

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

    def test_depth_below_ten_rejected(self, workspace, capsys):
        _gen(workspace)
        _build(workspace)
        code = main(
            [
                "evaluate",
                "--corpus",
                str(workspace["corpus"]),
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

"""Tests for rule routing, the prompt template, response parsing, and backends."""

import json
import os
import random

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from cliproute.cli import EXIT_OK, EXIT_RUNTIME, main
from cliproute.corpus import ClipRef, MODALITIES, Modality, QueryRecord, read_jsonl
from cliproute.router import (
    Origin,
    RouterConfig,
    RouterError,
    RouterMode,
    RoutingDecision,
    constrain_single,
    fallback_all_decision,
    make_router,
    _first_json_object,
    parse_router_response,
    router_instructions,
    rule_route,
)

GOLD = ClipRef("v", 0, 10)


def _query(text, query_id="q1", source=None):
    return QueryRecord(query_id=query_id, text=text, gold=GOLD, source_modality=source)


class TestRuleRoute:
    def test_speech_query_selects_asr(self):
        decision = rule_route("Who says 'I'm not going anywhere' at the end?")
        assert decision.modalities == [Modality.ASR]
        assert decision.origin is Origin.RULE

    def test_sign_query_selects_ocr(self):
        decision = rule_route("What phrase appears on the protest sign?")
        assert decision.modalities == [Modality.OCR]

    def test_visual_query_selects_visual(self):
        decision = rule_route("Describe the color and shape of the vehicle")
        assert decision.modalities == [Modality.VISUAL]

    def test_subtitle_reading_query_ranks_ocr_first(self):
        decision = rule_route("Read the subtitle text that appears at 00:12")
        assert decision.modalities[0] is Modality.OCR

    def test_no_cues_falls_back_to_all_three(self):
        decision = rule_route("asdf qwerty")
        assert decision.modalities == list(MODALITIES)
        assert decision.origin is Origin.RULE

    def test_sign_say_outscores_asr_two_to_one(self):
        # Hand count: OCR gets "sign" plus the sign+say reading-intent
        # bigram (2 cues); ASR gets "say" (1 cue).
        decision = rule_route("What does the sign say")
        assert decision.modalities == [Modality.OCR, Modality.ASR]

    def test_scene_statement_without_cues_includes_visual(self):
        decision = rule_route("A man is walking down a street in a city")
        assert Modality.VISUAL in decision.modalities

    def test_pure_function(self):
        text = "describe what the speaker says about the sign"
        a, b = rule_route(text), rule_route(text)
        assert a.selections == b.selections and a.origin == b.origin

    def test_optimized_query_defaults_to_original_text(self):
        text = "What does the sign say"
        decision = rule_route(text)
        assert all(optimized == text for _, optimized in decision.selections)

    def test_looks_like_phrase_counts_for_visual(self):
        decision = rule_route("what it looks like outside")
        assert Modality.VISUAL in decision.modalities

    def test_fuzz_any_text_yields_valid_decision(self):
        rng = random.Random(41)
        charset = "ab signz text say'\" .?! \t\n01"
        for _ in range(300):
            text = "q" + "".join(rng.choice(charset) for _ in range(rng.randint(0, 50)))
            decision = rule_route(text)
            assert 1 <= len(decision.selections) <= 3
            assert len(set(decision.modalities)) == len(decision.modalities)
            assert all(optimized == text for _, optimized in decision.selections)

    def test_whitespace_only_text_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            rule_route("  \t ")


class TestRoutingDecisionInvariants:
    def test_rejects_empty_selection(self):
        with pytest.raises(ValueError):
            RoutingDecision(selections=[], origin=Origin.RULE)

    def test_rejects_duplicate_modality(self):
        with pytest.raises(ValueError, match="duplicate"):
            RoutingDecision(
                selections=[(Modality.ASR, "x"), (Modality.ASR, "y")], origin=Origin.RULE
            )

    def test_rejects_empty_optimized_query(self):
        with pytest.raises(ValueError, match="empty optimized"):
            RoutingDecision(selections=[(Modality.ASR, "  ")], origin=Origin.RULE)

    def test_wire_form_has_only_selected_keys_in_order(self):
        decision = RoutingDecision(
            selections=[(Modality.OCR, "sign text"), (Modality.ASR, "speech")],
            origin=Origin.LLM,
        )
        assert list(decision.to_wire().items()) == [("ocr", "sign text"), ("asr", "speech")]


class TestRouterPrompt:
    def test_wire_names_appear_exactly_once_in_schema(self):
        prompt = router_instructions()
        for wire in ("asr", "ocr", "visuals"):
            assert prompt.count(f'"{wire}"') == 1


NOISY_TRANSCRIPTS = [
    '{"ocr": "protest sign text"}',
    "{}",
    'Sure! ```json {"asr": "x", "visuals": "y"} ```',
    "I could not decide.",
    '{"ASR": "case insensitive"}',
    '```\n{"visuals": "scenic shot", "mood": "happy"}\n```',
    '{"asr": 42, "ocr": "still works"}',
    '[{"asr": "arrays are not decisions"}]',
    'prefix text {"ocr": "embedded"} suffix {"asr": "second object ignored"}',
    '{"asr": "unterminated',
]


class TestParseRouterResponse:
    def test_plain_decision(self):
        decision = parse_router_response('{"ocr": "protest sign text"}', "orig")
        assert decision.selections == [(Modality.OCR, "protest sign text")]
        assert decision.origin is Origin.LLM

    def test_empty_object_falls_back_to_all(self):
        decision = parse_router_response("{}", "orig")
        assert decision.origin is Origin.FALLBACK_ALL
        assert decision.modalities == list(MODALITIES)

    def test_code_fence_with_two_keys_preserves_order(self):
        raw = 'Sure! ```json {"asr": "x", "visuals": "y"} ```'
        decision = parse_router_response(raw, "orig")
        assert decision.modalities == [Modality.ASR, Modality.VISUAL]

    def test_case_insensitive_keys(self):
        decision = parse_router_response('{"ASR": "loud"}', "orig")
        assert decision.modalities == [Modality.ASR]

    def test_unknown_keys_ignored(self):
        decision = parse_router_response('{"audio": "x", "ocr": "y"}', "orig")
        assert decision.modalities == [Modality.OCR]

    def test_non_string_value_replaced_by_original_query(self):
        decision = parse_router_response('{"asr": 42}', "the original")
        assert decision.selections == [(Modality.ASR, "the original")]

    def test_first_json_object_wins(self):
        raw = 'x {"ocr": "embedded"} y {"asr": "later"}'
        decision = parse_router_response(raw, "orig")
        assert decision.modalities == [Modality.OCR]

    def test_noisy_fixture_never_raises(self):
        for raw in NOISY_TRANSCRIPTS:
            decision = parse_router_response(raw, "original query")
            assert 1 <= len(decision.selections) <= 3
            for _, optimized in decision.selections:
                assert optimized.strip()

    def test_malformed_entries_yield_fallback_all(self):
        for raw in ("not json at all", "{}", "[1, 2]", '{"asr": "unterminated'):
            decision = parse_router_response(raw, "orig")
            assert decision.origin is Origin.FALLBACK_ALL
            assert decision.modalities == list(MODALITIES)

    def test_fuzz_random_bytes_always_valid(self):
        rng = random.Random(99)
        charset = '{}[]"\\:,abcxyz \n\t0123'
        for _ in range(300):
            raw = "".join(rng.choice(charset) for _ in range(rng.randint(0, 60)))
            decision = parse_router_response(raw, "query text")
            assert 1 <= len(decision.selections) <= 3
            assert len(set(decision.modalities)) == len(decision.modalities)

    def test_nesting_deeper_than_the_decoder_allows_is_no_object(self):
        raw = '{"asr": ' + "[" * 100000 + "]" * 100000 + "}"
        decision = parse_router_response(raw, "orig")
        assert decision.origin is Origin.FALLBACK_ALL
        assert decision.modalities == list(MODALITIES)
        # An object after the too-deep text is still found.
        decision = parse_router_response('{"a": ' * 1500 + ' {"ocr": "sign"}', "orig")
        assert decision.selections == [(Modality.OCR, "sign")]

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        raw=st.one_of(
            st.text(),
            st.text(alphabet='{}[]":, \\asrocvisual0'),
            st.builds(
                lambda head, unit, depth, tail: head + unit * depth + tail,
                st.sampled_from(["", '{"asr": ', 'x {"ocr": ']),
                st.sampled_from(["[", '{"a": ', '{"asr": [']),
                st.sampled_from([0, 3, 1200]),
                st.text(alphabet='{}[]":, asr', max_size=20),
            ),
        )
    )
    def test_never_raises_on_any_text(self, raw):
        decision = parse_router_response(raw, "query text")
        assert 1 <= len(decision.selections) <= 3
        assert len(set(decision.modalities)) == len(decision.modalities)
        assert all(optimized.strip() for _, optimized in decision.selections)


    @pytest.mark.parametrize(
        "raw, attempts, selections",
        [
            ('{"a":' * 20000 + '{"ocr": "x"}', 1, [(Modality.OCR, "x")]),
            ('"' + '{"a":' * 20000 + '{"ocr": "x"}', 1, [(Modality.OCR, "x")]),
            ('{"a":' * 20000 + "}" * 20000, 1, None),
            (('{"a": ' * 400 + "X" + "}" * 400) * 25 + '{"ocr": "x"}', 26, [(Modality.OCR, "x")]),
            ('{"asr": ' * 100 + "0" + "}" * 100, 1, [(Modality.ASR, "orig")]),
            ('{"a": ' * 300 + '{"ocr": "x"} oops' + "}" * 300, 2, [(Modality.OCR, "x")]),
        ],
        ids=[
            "unclosed",
            "unclosed-after-a-quote",
            "closed-invalid",
            "invalid-runs",
            "valid-deep",
            "valid-inside-invalid",
        ],
    )
    def test_deep_text_takes_a_bounded_number_of_decodes(
        self, monkeypatch, raw, attempts, selections
    ):
        starts = []

        class CountingDecoder(json.JSONDecoder):
            def raw_decode(self, s, idx=0):
                starts.append(idx)
                return super().raw_decode(s, idx)

        monkeypatch.setattr(json, "JSONDecoder", CountingDecoder)
        decision = parse_router_response(raw, "orig")
        assert len(starts) <= attempts
        if selections is None:
            assert decision.origin is Origin.FALLBACK_ALL
        else:
            assert (decision.selections, decision.origin) == (selections, Origin.LLM)

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(
        parts=st.lists(
            st.sampled_from(
                ["{", "}", "[", "]", '"', "\\", ":", ",", " ", "0", "x", '"asr"', '"a"',
                '\\"', "{}", '{"ocr": "x"}', '{"asr": ', '"{"']
            ),
            max_size=30,
        )
    )
    def test_first_object_equals_decoding_from_every_brace(self, parts):
        raw = "".join(parts)
        decoder = json.JSONDecoder()
        expected = None
        for start in (i for i, char in enumerate(raw) if char == "{"):
            try:
                expected = decoder.raw_decode(raw, start)[0]
                break
            except ValueError:
                continue
        assert _first_json_object(raw) == expected


class TestConstrainSingle:
    def test_first_of_ordered_pair(self):
        decision = RoutingDecision(
            selections=[(Modality.OCR, "a"), (Modality.ASR, "b")], origin=Origin.RULE
        )
        assert constrain_single(decision) is Modality.OCR

    def test_singleton(self):
        decision = RoutingDecision(selections=[(Modality.VISUAL, "a")], origin=Origin.RULE)
        assert constrain_single(decision) is Modality.VISUAL

    def test_fallback_all_yields_asr(self):
        assert constrain_single(fallback_all_decision("x")) is Modality.ASR


class TestBackends:
    def test_rule_backend_through_route(self):
        decision = make_router(RouterConfig(backend="rule")).route(_query("who says hello"))
        assert decision.modalities == [Modality.ASR]

    def test_single_mode_truncates(self):
        config = RouterConfig(backend="rule", mode=RouterMode.SINGLE)
        decision = make_router(config).route(_query("what does the sign say"))
        assert decision.modalities == [Modality.OCR]

    def test_oracle_selects_gold(self):
        decision = make_router(RouterConfig(backend="oracle")).route(
            _query("anything", source="ocr")
        )
        assert decision.modalities == [Modality.OCR]
        assert decision.origin is Origin.ORACLE

    def test_oracle_on_dense_selects_all(self):
        decision = make_router(RouterConfig(backend="oracle")).route(
            _query("anything", source="dense")
        )
        assert decision.modalities == list(MODALITIES)

    def test_all_backend(self):
        decision = make_router(RouterConfig(backend="all")).route(_query("who says hello"))
        assert decision.modalities == list(MODALITIES)
        assert decision.origin is Origin.ALL

    def test_unknown_backend_rejected(self):
        with pytest.raises(RouterError, match="unknown router backend"):
            make_router(RouterConfig(backend="psychic")).route(_query("x"))


class TestReplayRouter:
    def _fixture(self, tmp_path, rows):
        path = tmp_path / "replay.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return str(path)

    def test_serves_parsed_decision(self, tmp_path):
        path = self._fixture(
            tmp_path, [{"query_id": "q1", "raw_response": '{"visuals": "scenic"}'}]
        )
        config = RouterConfig(backend="replay", replay_path=path)
        decision = make_router(config).route(_query("whatever"))
        assert decision.selections == [(Modality.VISUAL, "scenic")]

    def test_unparseable_entry_falls_back(self, tmp_path):
        path = self._fixture(tmp_path, [{"query_id": "q1", "raw_response": "garbage"}])
        config = RouterConfig(backend="replay", replay_path=path)
        decision = make_router(config).route(_query("whatever"))
        assert decision.origin is Origin.FALLBACK_ALL

    def test_missing_entry_with_fallback(self, tmp_path):
        path = self._fixture(tmp_path, [{"query_id": "other", "raw_response": "{}"}])
        config = RouterConfig(backend="replay", replay_path=path)
        decision = make_router(config).route(_query("whatever"))
        assert decision.origin is Origin.FALLBACK_ALL

    def test_missing_entry_without_fallback_raises(self, tmp_path):
        path = self._fixture(tmp_path, [{"query_id": "other", "raw_response": "{}"}])
        config = RouterConfig(backend="replay", replay_path=path, fallback_on_error=False)
        with pytest.raises(RouterError, match="no replay entry"):
            make_router(config).route(_query("whatever"))

    def test_requires_fixture_path(self):
        with pytest.raises(RouterError, match="replay backend requires"):
            make_router(RouterConfig(backend="replay"))


class _FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def json(self):
        return self._payload


class _FakeSession:
    def __init__(self, outcomes):
        self._outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self._outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _llm_config(**overrides):
    defaults = dict(
        backend="llm",
        base_url="http://llm.test/v1",
        model="router-model",
        max_retries=3,
    )
    defaults.update(overrides)
    return RouterConfig(**defaults)


def _chat_payload(content):
    return {"choices": [{"message": {"content": content}}]}


class TestLlmRouter:
    def test_successful_decision(self):
        session = _FakeSession([_FakeResponse(payload=_chat_payload('{"asr": "said it"}'))])
        router = make_router(_llm_config(), session=session)
        decision = router.route(_query("who says it"))
        assert decision.selections == [(Modality.ASR, "said it")]
        call = session.calls[0]
        assert call["url"] == "http://llm.test/v1/chat/completions"
        assert call["json"]["model"] == "router-model"
        roles = [m["role"] for m in call["json"]["messages"]]
        assert roles == ["system", "user"]
        assert call["json"]["messages"][1]["content"] == "who says it"

    def test_retries_transient_failures(self):
        session = _FakeSession(
            [
                _FakeResponse(status_code=503),
                requests.ConnectionError("boom"),
                _FakeResponse(payload=_chat_payload('{"ocr": "x"}')),
            ]
        )
        sleeps = []
        router = make_router(_llm_config(), session=session)
        router._sleep = sleeps.append
        decision = router.route(_query("read the sign"))
        assert decision.modalities == [Modality.OCR]
        assert len(session.calls) == 3
        assert sleeps == [0.5, 1.0]

    def test_exhausted_retries_fall_back_to_all(self):
        session = _FakeSession([_FakeResponse(status_code=500)] * 3)
        router = make_router(_llm_config(), session=session)
        router._sleep = lambda _: None
        decision = router.route(_query("anything"))
        assert decision.origin is Origin.FALLBACK_ALL
        assert decision.modalities == list(MODALITIES)

    def test_exhausted_retries_raise_without_fallback(self):
        session = _FakeSession([_FakeResponse(status_code=500)] * 3)
        router = make_router(_llm_config(fallback_on_error=False), session=session)
        router._sleep = lambda _: None
        with pytest.raises(RouterError, match="LLM routing failed"):
            router.route(_query("anything"))

    def test_non_retryable_status_stops_early(self):
        session = _FakeSession([_FakeResponse(status_code=401)])
        router = make_router(_llm_config(), session=session)
        decision = router.route(_query("anything"))
        assert decision.origin is Origin.FALLBACK_ALL
        assert len(session.calls) == 1

    def test_deeply_nested_body_is_a_malformed_response(self):
        deep = requests.Response()
        deep.status_code, deep._content = 200, b"[" * 200_000
        router = make_router(
            _llm_config(max_retries=1, fallback_on_error=False), session=_FakeSession([deep])
        )
        with pytest.raises(RouterError, match="malformed response body: maximum recursion"):
            router.route(_query("anything"))

    def test_requires_endpoint_settings(self, monkeypatch):
        monkeypatch.delenv("CLIPROUTE_LLM_BASE_URL", raising=False)
        monkeypatch.delenv("CLIPROUTE_LLM_MODEL", raising=False)
        with pytest.raises(RouterError, match="base URL"):
            make_router(RouterConfig(backend="llm"))

    def test_env_fallbacks_and_key_header(self, monkeypatch):
        monkeypatch.setenv("CLIPROUTE_LLM_BASE_URL", "http://env.test")
        monkeypatch.setenv("CLIPROUTE_LLM_MODEL", "env-model")
        monkeypatch.setenv("CLIPROUTE_LLM_API_KEY", "sekrit")
        session = _FakeSession([_FakeResponse(payload=_chat_payload('{"asr": "x"}'))])
        router = make_router(RouterConfig(backend="llm"), session=session)
        router.route(_query("who says"))
        headers = session.calls[0]["headers"]
        assert headers["Authorization"] == "Bearer sekrit"

    def test_audit_log_keeps_no_secrets(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CLIPROUTE_LLM_API_KEY", "sekrit")
        audit = tmp_path / "audit.jsonl"
        session = _FakeSession(
            [
                _FakeResponse(payload=_chat_payload('{"asr": "x"}')),
                _FakeResponse(status_code=500),
                _FakeResponse(status_code=500),
                _FakeResponse(status_code=500),
            ]
        )
        router = make_router(_llm_config(audit_path=str(audit)), session=session)
        router._sleep = lambda _: None
        router.route(_query("who says", query_id="good"))
        router.route(_query("who says", query_id="bad"))
        lines = [json.loads(line) for line in audit.read_text().splitlines()]
        assert [entry["query_id"] for entry in lines] == ["good", "bad"]
        assert lines[0]["raw_response"] == '{"asr": "x"}'
        assert lines[1]["error"]
        assert "sekrit" not in audit.read_text()

    def test_single_mode_constrains_llm_decisions(self):
        session = _FakeSession(
            [_FakeResponse(payload=_chat_payload('{"ocr": "a", "asr": "b"}'))]
        )
        router = make_router(_llm_config(mode=RouterMode.SINGLE), session=session)
        decision = router.route(_query("read the sign"))
        assert decision.modalities == [Modality.OCR]



# One live outcome per case: the replies the fake endpoint gives to one query.
_TRANSCRIPT_CASES = {
    "json": [_FakeResponse(payload=_chat_payload('{"ocr": "sign text", "asr": "said"}'))],
    "prose": [_FakeResponse(payload=_chat_payload('Route it so: {"visuals": "red car"}. Done.'))],
    "garbage": [_FakeResponse(payload=_chat_payload("no idea, sorry"))],
    "500s": [_FakeResponse(status_code=500)] * 3,
    "401": [_FakeResponse(status_code=401)],
}


def _outcome(router, query):
    """What routing ``query`` ends in: the decision's fields, or the error."""
    try:
        decision = router.route(query)
    except RouterError as exc:
        return ("RouterError", str(exc))
    return (decision.selections, decision.origin)


def _live_reply(case):
    """The reply text the fake endpoint ends ``case`` with, or None when it fails."""
    last = _TRANSCRIPT_CASES[case][-1]
    return last.json()["choices"][0]["message"]["content"] if last.status_code == 200 else None


def _audited_replies(audit):
    """Each audit line's query id and ``raw_response``, in file order."""
    lines = []
    read_jsonl(audit, lines.append)
    return [(line["query_id"], line["raw_response"]) for line in lines]


class TestTranscriptRoundTrip:
    """The audit log an ``llm`` router writes is a ``replay`` fixture that
    gives back every decision, and every error, of the live run."""

    @pytest.mark.parametrize("fallback", [True, False], ids=["fallback", "no-fallback"])
    def test_replaying_an_audit_log_repeats_the_live_run(self, tmp_path, fallback):
        audit = tmp_path / "audit.jsonl"
        settings = dict(audit_path=str(audit), fallback_on_error=fallback)
        session = _FakeSession(sum(_TRANSCRIPT_CASES.values(), []))
        live = make_router(_llm_config(**settings), session=session)
        live._sleep = lambda _: None
        queries = [_query("what does the sign say", query_id=case) for case in _TRANSCRIPT_CASES]
        live_outcomes = [_outcome(live, q) for q in queries]
        replay = make_router(RouterConfig(backend="replay", replay_path=str(audit), **settings))
        assert [_outcome(replay, q) for q in queries] == live_outcomes
        assert _audited_replies(audit) == [(case, _live_reply(case)) for case in _TRANSCRIPT_CASES]
        raised = [q.query_id for q, o in zip(queries, live_outcomes) if o[0] == "RouterError"]
        assert raised == ([] if fallback else ["500s", "401"])
        origins = [o[1] for o in live_outcomes if o[0] != "RouterError"]
        assert origins == [Origin.LLM, Origin.LLM] + [Origin.FALLBACK_ALL] * (3 if fallback else 1)

    @pytest.mark.parametrize("fallback", [True, False], ids=["fallback", "no-fallback"])
    @pytest.mark.parametrize("case", list(_TRANSCRIPT_CASES))
    def test_route_replays_the_live_decision(self, tmp_path, capsys, case, fallback):
        audit = tmp_path / "audit.jsonl"
        live = make_router(
            _llm_config(audit_path=str(audit), fallback_on_error=fallback),
            session=_FakeSession(_TRANSCRIPT_CASES[case]),
        )
        live._sleep = lambda _: None
        text = "what does the sign say"
        outcome = _outcome(live, _query(text, query_id="cli"))
        flag = "--fallback-on-error" if fallback else "--no-fallback-on-error"
        code = main(["route", "--router", "replay", "--replay-fixture", str(audit), flag, text])
        captured = capsys.readouterr()
        assert _audited_replies(audit) == [("cli", _live_reply(case))]
        if outcome[0] == "RouterError":
            assert code == EXIT_RUNTIME
            assert captured.err == f"error: {outcome[1]}\n"
            return
        selections, origin = outcome
        wire = json.dumps({m.wire: q for m, q in selections}, ensure_ascii=False)
        assert code == EXIT_OK
        assert captured.out == f"{wire}\norigin: {origin.value}\n"

    @pytest.mark.parametrize("case", ["json", "401"])
    def test_an_audit_line_is_written_for_any_query_text(self, tmp_path, case):
        audit = tmp_path / "audit.jsonl"
        router = make_router(
            _llm_config(audit_path=str(audit)), session=_FakeSession(_TRANSCRIPT_CASES[case])
        )
        text = "who says \udcff caf\u00e9"  # \udcff: how argv decodes a stray 0xff byte
        router.route(_query(text, query_id="q\udcff"))
        lines = []
        read_jsonl(audit, lines.append)
        assert [line["query_id"] for line in lines] == ["q\udcff"]
        assert lines[0]["request"]["messages"][1]["content"] == text


class TestReplayTranscripts:
    def _fixture(self, tmp_path, *rows):
        path = tmp_path / "replay.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return str(path)

    def test_a_failed_call_replays_as_it_ended(self, tmp_path):
        path = self._fixture(
            tmp_path, {"query_id": "q1", "raw_response": None, "error": "status 401"}
        )
        fallback = make_router(RouterConfig(backend="replay", replay_path=path))
        assert fallback.route(_query("x")).origin is Origin.FALLBACK_ALL
        strict = make_router(
            RouterConfig(backend="replay", replay_path=path, fallback_on_error=False)
        )
        with pytest.raises(RouterError, match="LLM routing failed for 'q1': status 401"):
            strict.route(_query("x"))

    def test_the_last_line_for_a_query_id_wins(self, tmp_path):
        path = self._fixture(
            tmp_path,
            {"query_id": "q1", "raw_response": '{"asr": "old"}'},
            {"query_id": "q2", "raw_response": '{"visuals": "other"}'},
            {"query_id": "q1", "raw_response": '{"ocr": "new"}'},
        )
        decision = make_router(RouterConfig(backend="replay", replay_path=path)).route(_query("x"))
        assert decision.selections == [(Modality.OCR, "new")]


def _replay_fixture(tmp_path):
    path = tmp_path / "replay.jsonl"
    row = {"query_id": "served", "raw_response": '{"ocr": "a", "visuals": "b"}'}
    path.write_text(json.dumps(row) + "\n")
    return str(path)


def _llm_router(config):
    # Each router gets its own session with the same canned reply.
    reply = _FakeResponse(payload=_chat_payload('{"ocr": "a", "asr": "b"}'))
    return make_router(config, session=_FakeSession([reply]))


_LLM_SETTINGS = dict(backend="llm", base_url="http://llm.test/v1", model="router-model")

# (router settings, query id, query source, router factory). Every case
# makes a multi-modality decision, so single mode has something to drop.
_SINGLE_MODE_CASES = {
    "rule": (dict(backend="rule"), "q1", None, make_router),
    "oracle": (dict(backend="oracle"), "q1", "dense", make_router),
    "all": (dict(backend="all"), "q1", None, make_router),
    "replay-served": (dict(backend="replay"), "served", None, make_router),
    "replay-missing": (dict(backend="replay"), "missing", None, make_router),
    "llm": (_LLM_SETTINGS, "q1", None, _llm_router),
}


@pytest.mark.parametrize("case", sorted(_SINGLE_MODE_CASES))
def test_single_mode_keeps_first_selection_on_every_backend(case, tmp_path):
    settings, query_id, source, factory = _SINGLE_MODE_CASES[case]
    settings = dict(settings, replay_path=_replay_fixture(tmp_path))
    query = _query("what does the sign say", query_id=query_id, source=source)
    multi = factory(RouterConfig(**settings, mode=RouterMode.MULTI)).route(query)
    single = factory(RouterConfig(**settings, mode=RouterMode.SINGLE)).route(query)
    assert len(multi.selections) > 1
    assert single.selections == multi.selections[:1]
    assert single.origin is multi.origin

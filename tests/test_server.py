import http.client
import json
import logging
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegrag import server as server_module
from eegrag.cli import main
from eegrag.config import PipelineConfig
from eegrag.errors import TransportError
from eegrag.pipeline import Pipeline
from eegrag.server import MAX_BODY_BYTES, PipelineServer

from conftest import FIXTURES


@pytest.fixture(scope="module")
def endpoint(tmp_path_factory):
    store = tmp_path_factory.mktemp("store")
    for args in (
        ["ingest-docs", str(FIXTURES / "docs.jsonl")],
        ["ingest-cases", str(FIXTURES / "cases.jsonl")],
        ["ingest-eeg", str(FIXTURES / "eeg")],
    ):
        assert main(args + ["--store", str(store)]) == 0
    pipeline = Pipeline.from_directory(store, PipelineConfig())
    server = PipelineServer(pipeline, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", store
    server.shutdown()
    server.server_close()


def post(url: str, payload) -> tuple[int, dict | str]:
    data = json.dumps(payload).encode() if not isinstance(payload, bytes) else payload
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestHealthz:
    def test_counts_match_ingest(self, endpoint):
        url, _ = endpoint
        with urllib.request.urlopen(f"{url}/healthz", timeout=10) as resp:
            stats = json.loads(resp.read().decode())
        # 26 doc entities; 13 knowledge edges + 9 linked case edges;
        # 8 real cases + 1 pseudo-case; 6 recordings
        assert stats == {
            "entities": 26,
            "hyperedges": 22,
            "cases": 9,
            "eeg_recordings": 6,
            "embedding_dim": 256,
        }

    def test_unknown_path_404(self, endpoint):
        url, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{url}/nope", timeout=10)
        with err.value:
            assert err.value.code == 404


class TestQueryEndpoint:
    QUESTION = (
        "A 34 year old woman shows 3 Hz spike-wave discharge with brief staring "
        "spells. What is the likely diagnosis?"
    )

    def test_matches_cli_output(self, endpoint, capsys):
        url, store = endpoint
        status, body = post(
            f"{url}/query",
            {"question": self.QUESTION, "role": "doctor", "eeg_recording_id": "rec-001"},
        )
        assert status == 200
        assert main(
            [
                "query",
                self.QUESTION,
                "--role",
                "doctor",
                "--eeg-id",
                "rec-001",
                "--store",
                str(store),
            ]
        ) == 0
        cli_payload = json.loads(capsys.readouterr().out)
        assert body == cli_payload

    def test_answer_is_one_compact_line_equal_to_cli_output(self, endpoint, capsys):
        url, store = endpoint
        request = urllib.request.Request(
            f"{url}/query",
            data=json.dumps({"question": self.QUESTION, "eeg_recording_id": "rec-002"}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as resp:
            raw = resp.read()
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        assert main(["query", self.QUESTION, "--eeg-id", "rec-002", "--store", str(store)]) == 0
        cli_text = capsys.readouterr().out
        assert cli_text.count("\n") > 1  # the CLI keeps its indented form
        assert json.loads(raw) == json.loads(cli_text)

    def test_unknown_recording_is_404(self, endpoint):
        url, _ = endpoint
        status, body = post(f"{url}/query", {"question": "q", "eeg_recording_id": "rec-x"})
        assert status == 404
        assert "rec-x" in body["error"]

    def test_malformed_body_is_400(self, endpoint):
        url, _ = endpoint
        status, _ = post(f"{url}/query", b"this is not json")
        assert status == 400
        status, _ = post(f"{url}/query", {"no_question": True})
        assert status == 400
        status, _ = post(f"{url}/query", {"question": "   "})
        assert status == 400

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            "question",
            None,
            42,
            {"question": 5},
            {"question": ["q"]},
            {"question": "q", "role": 3},
            {"question": "q", "domain": ["epilepsy"]},
            {"question": "q", "eeg_recording_id": 1},
            {"question": "q", "eeg_recording_id": {"id": "rec-001"}},
            b"\xff\xfe not utf-8",
            b"[" * 100_000,
            b'{"question": "epilepsy \\ud800"}',  # json reads the escape as a lone surrogate
            b'{"question": "q", "role": "\\udcff"}',
        ],
        ids=[
            "array", "string", "null", "number", "int-question", "list-question",
            "int-role", "list-domain", "int-recording-id", "object-recording-id",
            "not-utf8", "deep-nesting", "lone-surrogate-question", "lone-surrogate-role",
        ],
    )
    def test_malformed_shape_is_400_with_json_error(self, endpoint, payload):
        url, _ = endpoint
        status, body = post(f"{url}/query", payload)
        assert status == 400
        assert isinstance(body["error"], str) and body["error"]

    def test_null_optional_fields_are_accepted(self, endpoint):
        url, _ = endpoint
        status, body = post(
            f"{url}/query", {"question": "q", "role": None, "domain": None, "eeg_recording_id": None}
        )
        assert status == 200
        assert body["answer"].startswith("Mock diagnostic answer for: q")

    def test_post_to_unknown_path_404(self, endpoint):
        url, _ = endpoint
        status, _ = post(f"{url}/other", {"question": "q"})
        assert status == 404

    @pytest.mark.parametrize(
        "length, status",
        [("-1", 400), ("abc", 400), (str(MAX_BODY_BYTES + 1), 413), ("1000000000000", 413)],
        ids=["negative", "not-a-number", "just-over-cap", "terabyte"],
    )
    def test_bad_content_length_answered_without_reading(self, endpoint, length, status):
        url, _ = endpoint
        conn = http.client.HTTPConnection(url.removeprefix("http://"), timeout=10)
        try:
            conn.putrequest("POST", "/query")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == status
            assert json.loads(resp.read().decode())["error"]
        finally:
            conn.close()

    def test_generation_transport_error_is_502(self, endpoint):
        class DownClient:
            client_id = "down"

            def complete(self, prompt, context, question):
                raise TransportError("backend unreachable")

        _, store = endpoint
        pipeline = Pipeline.from_directory(store, PipelineConfig(), client=DownClient())
        server = PipelineServer(pipeline, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, body = post(f"http://127.0.0.1:{server.server_address[1]}/query", {"question": "q"})
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert status == 502
        assert "backend unreachable" in body["error"]


class TestUnexpectedErrors:
    def test_error_in_a_query_is_500_logged_once(self, capfd, caplog):
        class BrokenPipeline:
            def run_query(self, **query):
                raise RuntimeError("injected fault")

        server = PipelineServer(BrokenPipeline(), "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, body = post(f"http://127.0.0.1:{server.server_address[1]}/query", {"question": "q"})
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert status == 500
        assert body == {"error": "internal server error"}
        logged = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert logged == ["POST /query failed: RuntimeError: injected fault"]
        assert capfd.readouterr().err == ""

    def test_stalled_body_is_408(self, monkeypatch, capfd):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        server = PipelineServer(None, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
        try:
            conn.putrequest("POST", "/query")
            conn.putheader("Content-Length", "100")
            conn.endheaders(b'{"question": ')
            resp = conn.getresponse()
            status, body = resp.status, json.loads(resp.read().decode())
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert status == 408
        assert body == {"error": "body stalled for 0.2 s"}
        assert capfd.readouterr().err == ""

    def test_query_past_the_in_flight_cap_is_503(self, monkeypatch, capfd):
        # three connections: one held inside run_query, one refused while it
        # is held, and one answered once the held query has returned
        monkeypatch.setattr(server_module, "MAX_IN_FLIGHT_QUERIES", 1)
        entered, release = threading.Event(), threading.Event()

        class Answer:
            def to_dict(self):
                return {"answer": "held"}

        class BlockingPipeline:
            def run_query(self, **query):
                entered.set()
                release.wait(timeout=10)
                return Answer()

        server = PipelineServer(BlockingPipeline(), "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}/query"
        held = []
        client = threading.Thread(target=lambda: held.append(post(url, {"question": "q"})))
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
        try:
            client.start()
            assert entered.wait(timeout=10)
            conn.request("POST", "/query", body=json.dumps({"question": "q"}))
            resp = conn.getresponse()
            refused = resp.status, resp.getheader("Retry-After"), json.loads(resp.read().decode())
            release.set()
            client.join(timeout=10)
            after = post(url, {"question": "q"})
        finally:
            release.set()
            conn.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not client.is_alive()
        assert refused == (503, "1", {"error": "too many queries in flight; retry later"})
        assert held == [(200, {"answer": "held"})]
        assert after == (200, {"answer": "held"})
        assert capfd.readouterr().err == ""

    def test_client_disconnect_is_logged_at_debug_level(self, capfd, caplog):
        server = PipelineServer(None, "127.0.0.1", 0)
        try:
            with caplog.at_level(logging.DEBUG, logger="eegrag.server"):
                try:
                    raise BrokenPipeError(32, "Broken pipe")
                except BrokenPipeError:
                    server.handle_error(None, ("127.0.0.1", 5000))
        finally:
            server.server_close()
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.DEBUG, "client 127.0.0.1 disconnected: [Errno 32] Broken pipe")
        ]
        assert capfd.readouterr().err == ""


_STORED_IDS = {
    json.loads(path.read_text(encoding="utf-8"))["id"] for path in (FIXTURES / "eeg").glob("*.json")
}
_FIELD_VALUES = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=6) | st.lists(st.integers(), max_size=2)
)
_PAYLOADS = st.one_of(
    st.binary(max_size=64),
    st.dictionaries(
        st.sampled_from(["question", "role", "domain", "eeg_recording_id", "other"]),
        _FIELD_VALUES,
        max_size=5,
    ).map(lambda obj: json.dumps(obj).encode()),
    _FIELD_VALUES.map(lambda value: json.dumps(value).encode()),
    # well-typed bodies, so that 200 and 404 are drawn often too
    st.fixed_dictionaries(
        {"question": st.text(min_size=1, max_size=6)},
        optional={
            name: st.none() | st.text(max_size=6) | st.just("rec-001")
            for name in ("role", "domain", "eeg_recording_id")
        },
    ).map(lambda obj: json.dumps(obj).encode()),
)


def _is_text(value) -> bool:
    return isinstance(value, str) and not any("\ud800" <= c <= "\udfff" for c in value)


def _expected_status(body: bytes) -> int:
    """The status the query rules give ``body``, derived without the engine."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError):
        return 400
    if not isinstance(payload, dict):
        return 400
    question = payload.get("question")
    if not _is_text(question) or not question.strip():
        return 400
    tags = [payload.get(name) for name in ("role", "domain", "eeg_recording_id")]
    if not all(tag is None or _is_text(tag) for tag in tags):
        return 400
    recording_id = payload.get("eeg_recording_id")
    return 404 if recording_id is not None and recording_id not in _STORED_IDS else 200


class TestQueryEndpointProperty:
    # one request per connection, one connection at a time
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(body=_PAYLOADS)
    def test_status_follows_the_query_rules(self, endpoint, body):
        url, _ = endpoint
        status, reply = post(f"{url}/query", body)
        assert status == _expected_status(body)
        if status != 200:
            assert isinstance(reply["error"], str) and reply["error"]

"""Read-only HTTP endpoint over a built pipeline.

POST /query  {"question": ..., "role"?: ..., "domain"?: ..., "eeg_recording_id"?: ...}
             -> the same JSON document the `query` CLI subcommand prints,
             on one line with sorted keys instead of indented (the
             indenting encoder is pure Python and slow);
             a body that is not a JSON object, or a query that
             ``Pipeline.run_query`` refuses (naming the field), gets 400;
             a body over MAX_BODY_BYTES is refused with 413, and one
             that stalls for REQUEST_TIMEOUT_S is answered with 408;
             past MAX_IN_FLIGHT_QUERIES queries at once, a query is
             refused with 503 and ``Retry-After: 1``
GET  /healthz -> store statistics

Any other error inside a query is answered with 500 and logged once, and
a client that disconnects is logged at debug level; neither prints a
traceback. Requests are independent and the stores are sealed, so the
threading server needs no locking. The one write after seal is the EEG
database's stored-recording memo (``EegVectorDatabase.retrieve_by_id``):
a request does one dict get and at most one dict set, each atomic under
the GIL, and two requests that race store equal matches. Ingestion stays
offline by design.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .errors import EegragError, NotFoundError, TransportError
from .pipeline import Pipeline

logger = logging.getLogger(__name__)

MAX_BODY_BYTES = 1 << 20
# seconds any one read or write on a connection may block
REQUEST_TIMEOUT_S = 10.0
# queries read or answered at once; the cap bounds the threads that slow
# clients and long queries can hold
MAX_IN_FLIGHT_QUERIES = 8


def _parse_query(body: bytes) -> dict:
    """The body's ``run_query`` arguments, unchecked; ValueError if not a JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except RecursionError:
        raise ValueError("body nests too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError("body must be a JSON object")
    return {name: payload.get(name) for name in ("question", "role", "domain", "eeg_recording_id")}


class _Handler(BaseHTTPRequestHandler):
    server: "PipelineServer"
    timeout = REQUEST_TIMEOUT_S

    def _send(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if status == 503:
            self.send_header("Retry-After", "1")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send(200, self.server.pipeline.stats())
        else:
            self._send(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:
        self._send(*self._answer_query())

    def _answer_query(self) -> tuple[int, dict]:
        if self.path != "/query":
            return 404, {"error": f"unknown path {self.path}"}
        length = self.headers.get("Content-Length", "0").strip()
        if not length.isdecimal():
            return 400, {"error": "Content-Length must be a non-negative integer"}
        if int(length) > MAX_BODY_BYTES:
            return 413, {"error": f"body over {MAX_BODY_BYTES} bytes"}
        if not self.server.query_slots.acquire(blocking=False):
            return 503, {"error": "too many queries in flight; retry later"}
        try:
            return self._run_query(int(length))
        finally:
            self.server.query_slots.release()

    def _run_query(self, length: int) -> tuple[int, dict]:
        try:
            query = _parse_query(self.rfile.read(length))
        except TimeoutError:  # answered here: handle_one_request would drop it
            return 408, {"error": f"body stalled for {self.timeout} s"}
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError included
            return 400, {"error": f"malformed /query body: {exc}"}
        try:
            return 200, self.server.pipeline.run_query(**query).to_dict()
        except NotFoundError as exc:
            return 404, {"error": str(exc)}
        except TransportError as exc:
            return 502, {"error": str(exc)}
        except EegragError as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:
            logger.error("POST /query failed: %s: %s", type(exc).__name__, exc)
            return 500, {"error": "internal server error"}


class PipelineServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, pipeline: Pipeline, host: str, port: int):
        self.pipeline = pipeline
        self.query_slots = threading.BoundedSemaphore(MAX_IN_FLIGHT_QUERIES)
        super().__init__((host, port), _Handler)

    def handle_error(self, request, client_address) -> None:
        exc = sys.exc_info()[1]
        if isinstance(exc, ConnectionError):
            logger.debug("client %s disconnected: %s", client_address[0], exc)
        else:
            super().handle_error(request, client_address)


def serve(pipeline: Pipeline, host: str, port: int) -> None:
    """Run the endpoint until interrupted."""
    server = PipelineServer(pipeline, host, port)
    logger.info("serving on %s:%d", *server.server_address[:2])
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()

"""The threaded HTTP server over the channel service.

Endpoints (all GET, plain text or JSON bodies as noted):

  /update?api_key=KEY&field1=..&field8=..[&created_at=YYYY-MM-DDTHH:MM:SSZ]
      200 body = decimal entry_id, or "0" when rate-limited.
      401 (bad key) / 400 (malformed request) / 503 (the entry could not be
      stored, as on an I/O error of the log) with body "0".

  /channels/{id}/feeds.json?results=N[&start=..&end=..][&api_key=READ_KEY]
      {"channel":{"id":..,"name":..,"field1":..},"feeds":[{"created_at":..,
      "entry_id":..,"field1":"22.04",...}]}  -- field values are the decimal
      strings the writer sent, null when absent; compact separators.

  /channels/{id}/fields/{n}.json?results=N
      Same shape restricted to one field.

Requests are read without the email package, which the stdlib's header parser
goes through and which cost more server CPU than `ChannelService.update`.
`_Handler.parse_request` reads the subset this service is spoken in: a request
line `METHOD TARGET HTTP/1.x`, then header lines up to a blank one, kept by
lowercase name. Only GET has a handler. It keeps the stdlib's limits and
replies: at most 100 header lines and 65,536 bytes a line (else 431), 414 for
a longer request line, 400 for bad syntax or version, 505 for HTTP/2 and
later, no reply to an empty line, and `Connection: close` or HTTP/1.0 without
`keep-alive` closes the connection. Unlike the stdlib, it refuses a two-word
HTTP/0.9 request with 400, and sends no `100 Continue` to a GET that expects
one. An error in the request line gets a whole reply, status line and headers
(`Connection: close` among them), where the stdlib sends the error page alone.
Its header reader is `wire.read_head`, which also reads the replies that
`HttpServiceClient` gets.

A reply whose body is under _ONE_WRITE_MAX bytes goes out in one write, head
and body joined. A longer one goes out as two, head then body: joining would
copy the body once more, and a 966 kB feed body took ~5% longer to serve that
way. So TCP_NODELAY is set on each connection: with Nagle's algorithm on, the
body of a two-write reply would wait for the peer's delayed ACK, about 40 ms
per request on loopback. The Date header's text is made once per second.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from http.client import HTTPException, LineTooLong
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from . import service as svc
from .wire import feeds_body, read_head

log = logging.getLogger(__name__)

_FEEDS_RE = re.compile(r"^/channels/(\d+)/feeds\.json$")
_FIELD_RE = re.compile(r"^/channels/(\d+)/fields/(\d+)\.json$")

# serve_forever checks for shutdown this often, so stop() returns within about
# this long; the stdlib default of 0.5 s would make every stop() that slow.
_POLL_INTERVAL_S = 0.05

# A connection that sends no request for this long is closed, so an idle
# keep-alive client does not hold its server thread for ever.
_IDLE_TIMEOUT_S = 60

_VERSION_RE = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")

# a reply whose body is shorter goes out in one write (see the module docstring)
_ONE_WRITE_MAX = 65536


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The Date header text of `second`, whole seconds since the epoch, as
    `BaseHTTPRequestHandler.date_time_string` writes it."""
    return formatdate(second, usegmt=True)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Long replies are two writes; see the module docstring for why this is set.
    disable_nagle_algorithm = True
    timeout = _IDLE_TIMEOUT_S

    @property
    def service(self) -> svc.ChannelService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # quiet by default
        if log.isEnabledFor(logging.DEBUG):
            log.debug("%s %s", self.address_string(), fmt % args)

    def parse_request(self) -> bool:
        """Parse `raw_requestline` and read the head after it, as the stdlib
        does but without the email package (see the module docstring).
        Returns False when the connection gets no request served: an error
        reply has been sent, or the line was empty."""
        self.command = None
        # not the default HTTP/0.9, for which send_error writes no status
        # line and no headers; the stdlib's own 414 reply does the same
        self.request_version = ""
        self.close_connection = True
        self.requestline = line = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = line.split()
        if not words:
            return False
        if len(words) >= 3:  # the stdlib checks the version before the word count
            version = words[-1]
            m = _VERSION_RE.fullmatch(version)
            if m is None:
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})")
                return False
            number = int(m[1]), int(m[2])
            if number >= (2, 0):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                f"Invalid HTTP version ({version[5:]})")
                return False
            self.request_version = version
        if len(words) != 3:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({line!r})")
            return False
        self.command, path = words[:2]
        # as the stdlib does, so that no reply can name a scheme-relative URL
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = read_head(self.rfile)
        except LineTooLong as exc:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long",
                            str(exc))
            return False
        except HTTPException as exc:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers",
                            str(exc))
            return False
        connection = self.headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            number < (1, 1) and connection != "keep-alive")
        return True

    def _reply(self, status: int, body: str, content_type: str) -> None:
        """Send the head that send_response, send_header and end_headers
        would, and the body: in one write if the body is shorter than
        _ONE_WRITE_MAX bytes, else in two."""
        data = body.encode("utf-8")
        self.log_request(status)
        head = (f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {_http_date(int(time.time()))}\r\n"
                f"Content-Type: {content_type}; charset=utf-8\r\n"
                f"Content-Length: {len(data)}\r\n\r\n").encode("latin-1")
        if len(data) < _ONE_WRITE_MAX:
            self.wfile.write(head + data)
        else:
            self.wfile.write(head)
            self.wfile.write(data)

    def _text(self, status: int, body: str) -> None:
        self._reply(status, body, "text/plain")

    def _json(self, status: int, body: str) -> None:
        self._reply(status, body, "application/json")

    def do_GET(self):
        url = urlparse(self.path)
        params = {k: v[-1] for k, v in parse_qs(url.query).items()}
        try:
            if url.path == "/update":
                self._handle_update(params)
            elif m := _FEEDS_RE.match(url.path) or _FIELD_RE.match(url.path):
                try:
                    ids = [int(digits) for digits in m.groups()]
                except ValueError:  # more digits than int() reads: no such channel
                    raise svc.UnknownChannelError(url.path) from None
                self._handle_feeds(params, *ids)
            else:
                self._json(404, '{"error":"no such endpoint"}')
        except svc.AuthError:
            if url.path == "/update":
                self._text(401, "0")
            else:
                self._json(401, '{"error":"unauthorized"}')
        except svc.UnknownChannelError:
            self._json(404, '{"error":"channel not found"}')
        except svc.BadRequestError as exc:
            if url.path == "/update":
                self._text(400, "0")
            else:
                self._json(400, json.dumps({"error": str(exc)}, separators=(",", ":")))

    def _handle_update(self, params: dict[str, str]) -> None:
        key = params.get("api_key")
        if key is None:
            raise svc.AuthError("missing api_key")
        values = {}
        for name, value in params.items():
            index = name[5:]
            if name.startswith("field") and index.isascii() and index.isdigit():
                try:
                    values[int(index)] = value
                except ValueError:  # more digits than int() reads: out of range
                    raise svc.BadRequestError("field index out of range") from None
        created_at = None
        if "created_at" in params:
            created_at = svc.parse_timestamp(params["created_at"])
        try:
            entry_id = self.service.update(key, values, created_at)
        except OSError as exc:
            # RecordLog cut the record back off, or refuses appends from now
            # on if it could not: nothing was acknowledged, so the writer may
            # send the entry again
            log.error("update not stored: %r", exc)
            self._text(503, "0")
            return
        self._text(200, str(entry_id))

    def _handle_feeds(self, params: dict[str, str], channel_id: int,
                      only_field: int | None = None) -> None:
        results = None
        if "results" in params:
            try:
                results = int(params["results"])
            except ValueError:
                raise svc.BadRequestError("results must be an integer") from None
        start = svc.parse_timestamp(params["start"]) if "start" in params else None
        end = svc.parse_timestamp(params["end"]) if "end" in params else None
        page = self.service.read_feeds(channel_id, results=results, start=start,
                                       end=end, read_key=params.get("api_key"))
        memo = self.server.memos.setdefault(channel_id, {})  # type: ignore[attr-defined]
        self._json(200, feeds_body(page, only_field, memo))


class ChannelHttpServer:
    """Threaded HTTP front for a ChannelService; one thread per request."""

    def __init__(self, channel_service: svc.ChannelService,
                 host: str = "127.0.0.1", port: int = 0):
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.service = channel_service  # type: ignore[attr-defined]
        # by channel id, the memo the handler gives feeds_body
        self._httpd.memos = {}  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        # set while serve_forever may be in the stdlib loop, which alone
        # ends the wait in its shutdown()
        self._serving = threading.Event()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def endpoint(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ChannelHttpServer":
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="channel-httpd", daemon=True)
        self._serving.set()  # so that a stop() before the thread runs waits for it
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        try:
            self._serving.set()
            self._httpd.serve_forever(poll_interval=_POLL_INTERVAL_S)
        finally:
            self._serving.clear()

    def stop(self) -> None:
        """Stop serving and close the socket. Also returns when serve_forever
        never ran, or ended by an exception before its loop began."""
        if self._serving.is_set():
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

"""HTTP wire layer over the channel service.

Endpoints (all GET, plain text or JSON bodies as noted):

  /update?api_key=KEY&field1=..&field8=..[&created_at=YYYY-MM-DDTHH:MM:SSZ]
      200 body = decimal entry_id, or "0" when rate-limited.
      401 (bad key) / 400 (malformed request) with body "0".

  /channels/{id}/feeds.json?results=N[&start=..&end=..][&api_key=READ_KEY]
      {"channel":{"id":..,"name":..,"field1":..},"feeds":[{"created_at":..,
      "entry_id":..,"field1":"22.04",...}]}  -- field values are the decimal
      strings the writer sent, null when absent; compact separators.

  /channels/{id}/fields/{n}.json?results=N
      Same shape restricted to one field.

Every reply goes out as two sends, headers then body, so TCP_NODELAY is set on
each connection: with Nagle's algorithm on, the body would wait for the peer's
delayed ACK, about 40 ms per request on loopback.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from . import service as svc

log = logging.getLogger(__name__)

_FEEDS_RE = re.compile(r"^/channels/(\d+)/feeds\.json$")
_FIELD_RE = re.compile(r"^/channels/(\d+)/fields/(\d+)\.json$")

# serve_forever checks for shutdown this often, so stop() returns within about
# this long; the stdlib default of 0.5 s would make every stop() that slow.
_POLL_INTERVAL_S = 0.05


def channel_doc(channel: svc.Channel, only_field: int | None = None) -> dict:
    doc: dict = {"id": channel.id, "name": channel.name}
    for k in sorted(channel.fields):
        if only_field is None or k == only_field:
            doc[f"field{k}"] = channel.fields[k]
    return doc


def entry_doc(channel: svc.Channel, entry: svc.FeedEntry,
              only_field: int | None = None) -> dict:
    doc: dict = {
        "created_at": svc.format_timestamp(entry.created_at),
        "entry_id": entry.entry_id,
    }
    for k in sorted(channel.fields):
        if only_field is None or k == only_field:
            doc[f"field{k}"] = entry.fields.get(k)
    return doc


def feeds_body(page: svc.FeedPage, only_field: int | None = None) -> str:
    doc = {
        "channel": channel_doc(page.channel, only_field),
        "feeds": [entry_doc(page.channel, e, only_field) for e in page.entries],
    }
    return json.dumps(doc, separators=(",", ":"))


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Replies are two sends; see the module docstring for why this is set.
    disable_nagle_algorithm = True

    @property
    def service(self) -> svc.ChannelService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # quiet by default
        log.debug("%s %s", self.address_string(), fmt % args)

    def _reply(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
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
            elif m := _FEEDS_RE.match(url.path):
                self._handle_feeds(int(m.group(1)), params, only_field=None)
            elif m := _FIELD_RE.match(url.path):
                self._handle_feeds(int(m.group(1)), params, only_field=int(m.group(2)))
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
            if name.startswith("field") and name[5:].isdigit():
                values[int(name[5:])] = value
        created_at = None
        if "created_at" in params:
            created_at = svc.parse_timestamp(params["created_at"])
        entry_id = self.service.update(key, values, created_at)
        self._text(200, str(entry_id))

    def _handle_feeds(self, channel_id: int, params: dict[str, str],
                      only_field: int | None) -> None:
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
        if only_field is not None and only_field not in page.channel.fields:
            raise svc.UnknownChannelError(f"channel has no field {only_field}")
        self._json(200, feeds_body(page, only_field))


class ChannelHttpServer:
    """Threaded HTTP front for a ChannelService; one thread per request."""

    def __init__(self, channel_service: svc.ChannelService,
                 host: str = "127.0.0.1", port: int = 0):
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.service = channel_service  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

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
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever(poll_interval=_POLL_INTERVAL_S)

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

"""HTTP wire layer over the channel service.

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

A feed body is `feed_doc` of the page read, encoded by the stdlib's JSON
encoder, which alone decides what a value's text needs escaped. Each
ChannelHttpServer keeps a memo per channel of per-entry texts, each feed item
encoded once, that full-channel bodies are joined from. Once a memo holds
more than 2 x MAX_RESULTS texts, `feeds_body` keeps the newest MAX_RESULTS of
them.

`parse_feeds_body` reads a feed body back, for `HttpServiceClient`: the
reader's own memo, a `FeedReplies`, keeps the latest reply to each request
target with its parsed items. A body that repeats the kept reply from one
of its items on, as a steady poll repeats the one before, reuses those items
and parses only the rest; any other body is parsed in one parse. The memo
holds at most 2 x MAX_RESULTS items, and drops the least recently read first.

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
`read_head`, its header reader, also reads the replies that
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
from itertools import repeat
from urllib.parse import parse_qs, urlparse

from . import service as svc

log = logging.getLogger(__name__)

_FEEDS_RE = re.compile(r"^/channels/(\d+)/feeds\.json$")
_FIELD_RE = re.compile(r"^/channels/(\d+)/fields/(\d+)\.json$")

# every feed body's JSON encoder; json.dumps with these separators would make
# a new encoder on each call
_encode = json.JSONEncoder(separators=(",", ":")).encode

# what parse_feeds_body parses a feed body's channel with
_raw_decode = json.JSONDecoder().raw_decode
# a feed body starts with the first and is cut after the channel at the second
_CHANNEL_HEAD = '{"channel":'
_FEEDS_CUT = ',"feeds":['

# serve_forever checks for shutdown this often, so stop() returns within about
# this long; the stdlib default of 0.5 s would make every stop() that slow.
_POLL_INTERVAL_S = 0.05

# A connection that sends no request for this long is closed, so an idle
# keep-alive client does not hold its server thread for ever.
_IDLE_TIMEOUT_S = 60

# http.client's limits on a head: bytes in one line, and lines after the
# status or request line, the blank one that ends the head included
_MAX_LINE = 65536
_MAX_HEAD_LINES = 100

_VERSION_RE = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")

# a reply whose body is shorter goes out in one write (see the module docstring)
_ONE_WRITE_MAX = 65536


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The Date header text of `second`, whole seconds since the epoch, as
    `BaseHTTPRequestHandler.date_time_string` writes it."""
    return formatdate(second, usegmt=True)


def read_head(rfile) -> dict[str, str]:
    """The header lines read from `rfile` up to the blank line that ends a
    head, or EOF: each value stripped, under its lowercase name, the first
    of repeated names kept and lines with no colon skipped.

    Raises LineTooLong for a line over _MAX_LINE bytes, and HTTPException
    when _MAX_HEAD_LINES lines pass without the blank one, as http.client's
    own reader does.
    """
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEAD_LINES):
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise LineTooLong("header line")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if colon:
            headers.setdefault(name.strip().lower(), value.strip())
    raise HTTPException(f"got more than {_MAX_HEAD_LINES} headers")


def _doc_fields(channel: svc.Channel, only_field: int | None) -> list[int]:
    """The field indices a feed doc of `channel` carries, in order: every
    declared one with no `only_field`, else [only_field]. Raises
    UnknownChannelError if the channel lacks `only_field`."""
    if only_field is None:
        return sorted(channel.fields)
    if only_field not in channel.fields:
        raise svc.UnknownChannelError(f"channel has no field {only_field}")
    return [only_field]


def channel_doc(channel: svc.Channel, only_field: int | None = None) -> dict:
    doc: dict = {"id": channel.id, "name": channel.name}
    for k in _doc_fields(channel, only_field):
        doc[f"field{k}"] = channel.fields[k]
    return doc


def feeds_body(page: svc.FeedPage, only_field: int | None,
               memo: dict[int, str]) -> str:
    """The feed body of `page`: `feed_doc(page, only_field)` encoded by the
    stdlib's JSON encoder with compact separators. A full-channel one is
    joined from the entry texts in `memo`, the encoded feed items of the
    page's channel by entry_id; from the first entry the memo lacks on, the
    page is built as a feed doc and each item the memo lacks is encoded into
    it."""
    if only_field is not None:
        return _encode(feed_doc(page, only_field))
    ids = page.ids
    if len(memo) > 2 * svc.MAX_RESULTS:
        # copy() is atomic where iterating would race another thread
        floor = len(page.times) - svc.MAX_RESULTS
        for entry_id in memo.copy():
            if entry_id <= floor:
                memo.pop(entry_id, None)
    feeds = []
    for entry_id in ids:
        text = memo.get(entry_id)
        if text is None:
            # Two threads racing on one entry store equal strings.
            for item in feed_doc(page._replace(ids=range(entry_id, ids.stop)))["feeds"]:
                text = memo.get(item["entry_id"])
                if text is None:
                    text = memo[item["entry_id"]] = _encode(item)
                feeds.append(text)
            break
        feeds.append(text)
    return f'{{"channel":{_encode(channel_doc(page.channel))},"feeds":[{",".join(feeds)}]}}'


def feed_doc(page: svc.FeedPage, only_field: int | None = None) -> dict:
    """The document a feed body of `page` encodes (see feeds_body), built
    from the page's columns one field at a time.

    Each call builds fresh dicts; the values are the channel's own strings,
    None where an entry has no value.
    """
    ids = page.ids
    rows = slice(ids.start - 1, ids.stop - 1)
    feeds = [{"created_at": at, "entry_id": entry_id}
             for at, entry_id in zip(page.times[rows], ids)]
    for k in _doc_fields(page.channel, only_field):
        key, column = f"field{k}", page.columns.get(str(k))
        for item, value in zip(feeds, repeat(None) if column is None else column[rows]):
            item[key] = value
    return {"channel": channel_doc(page.channel, only_field), "feeds": feeds}


class FeedReplies:
    """The memo `parse_feeds_body` reads feed bodies with: `by_target` holds,
    by request target, the latest reply read under it whose feeds text is
    plain (see `_is_plain`), as (body, where its feeds text starts, the items
    it parsed to), the least recently read first. `items` counts their
    items, at most 2 x MAX_RESULTS."""

    __slots__ = ("by_target", "items")

    def __init__(self) -> None:
        self.by_target: dict[str, tuple[str, int, list[dict]]] = {}
        self.items = 0


def _is_plain(text: str, start: int, end: int, n: int) -> bool:
    """Whether text[start:end], the text of n > 0 objects in a JSON array,
    holds no JSON whitespace, no "[" and exactly n "{".

    Then each "{" opens one of the objects, so none holds an object, a list
    or a string with a "{" in it, and the objects lie between exactly n - 1
    "},{", one between each two: a "},{" holds a "{", and with no
    whitespace each object but the first opens right after a "},".
    """
    return (all(text.find(c, start, end) < 0 for c in "[ \n\r\t")
            and text.count("{", start, end) == n)


def _parse_object(text: str) -> dict:
    """The JSON object `text` is, all of it. Raises ValueError for any other
    text."""
    doc, end = _raw_decode(text)
    if end != len(text) or type(doc) is not dict:
        raise ValueError("not one JSON object")
    return doc


def _overlap(kept: tuple[str, int, list[dict]], text: str, start: int,
             end: int) -> tuple[list[dict], int] | None:
    """The items of `kept`, a plain reply, from one on to its last, when the
    feeds text text[start:end] starts with their text and then ends or goes
    on with ",{", and where the text after them and that "," starts; else
    None. They start where kept's feeds text holds the first item of
    text[start:end], up to its first "},{", if that is at a "{"."""
    old, old_start, old_items = kept
    cut = text.find("},{", start, end)
    at = old.find(text[start:cut + 1 if cut >= 0 else end], old_start, len(old) - 2)
    rest = old[at:len(old) - 2]
    over = start + len(rest)
    if (at < 0 or old[at] != "{" or not text.startswith(rest, start)
            or not (over == end or text.startswith(",{", over))):
        return None
    return old_items[old.count("{", old_start, at):], min(over + 1, end)


def _read_layout(text: str, kept: tuple[str, int, list[dict]] | None
                 ) -> tuple[dict, list[dict], tuple[str, int, list[dict]] | None]:
    """parse_feeds_body's reading of a body laid out as feeds_body writes it:
    its channel, its items, and the reply to keep, if it is plain. Raises
    ValueError or RecursionError for any other text."""
    cut = text.find(_FEEDS_CUT)
    if cut < 0 or not (text.startswith(_CHANNEL_HEAD) and text.endswith("]}")):
        raise ValueError("not a feeds_body layout")
    channel = _parse_object(text[len(_CHANNEL_HEAD):cut])
    start, end = cut + len(_FEEDS_CUT), len(text) - 2
    found = _overlap(kept, text, start, end) if kept else None
    reused, tail_start = found or ([], start)
    if tail_start == start:             # the feeds text and its brackets
        tail = json.loads(text[start - 1:end + 1])
    elif tail_start < end:
        tail = json.loads("[" + text[tail_start:end] + "]")
    else:
        tail = []
    if not all(type(item) is dict for item in tail):
        raise ValueError("not a list of objects")
    items = reused + tail
    plain = _is_plain(text, tail_start, end, len(tail)) if tail else bool(reused)
    return channel, items, (text, start, items) if plain else None


def parse_feeds_body(text: str, replies: FeedReplies, target: str) -> dict:
    """The feed doc a feed body `text` holds, equal to `json.loads(text)`, in
    dicts of its own that the caller may change.

    The reader keeps one `replies` across its reads, and names the request
    each body answers by its `target`. A body laid out as feeds_body writes
    it, `{"channel":C,"feeds":[F]}`, is cut at its first `,"feeds":[`; C
    must parse alone as one whole JSON object, so a cut inside C fails. If
    F starts with the text of the items of the reply kept under `target`
    from one of them on, and then ends or goes on with `,{`, those items are
    reused and only the rest of F is parsed, as `[rest]`; else `[F]` is
    parsed. Either way the body is C and that array, and parses to what
    they do. The reply is kept when its F is plain (see `_is_plain`), so
    that each "{" of F starts an item and no item holds a value a caller
    could change in a copy. Any other body is parsed whole by `json.loads`.

    Raises ValueError when `text` is not JSON, or not an object with a
    "channel" object and a "feeds" list of objects, and RecursionError, as
    `json.loads` does, when it nests too deeply to parse.
    """
    by_target = replies.by_target
    kept = by_target.pop(target, None)
    if kept is not None:
        replies.items -= len(kept[2])
    try:
        channel, items, reply = _read_layout(text, kept)
    except (ValueError, RecursionError):
        doc = json.loads(text)
        if not (type(doc) is dict and type(doc.get("channel")) is dict
                and type(doc.get("feeds")) is list
                and all(type(item) is dict for item in doc["feeds"])):
            raise ValueError("not a feed doc")
        return doc
    if reply is not None:
        by_target[target] = reply
        replies.items += len(items)
        while replies.items > 2 * svc.MAX_RESULTS:
            replies.items -= len(by_target.pop(next(iter(by_target)))[2])
    return {"channel": channel, "feeds": list(map(dict.copy, items))}


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

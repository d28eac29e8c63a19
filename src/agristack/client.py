"""Clients for the channel service wire protocol.

`HttpServiceClient` talks to a live server; `LocalServiceClient` drives a
ChannelService in-process. Both return the same documents for the same reads,
the dicts a feed body parses to, and raise the same errors, so anything built
on the client behaves identically in either mode.

`HttpServiceClient` reads each reply's head with `wire.read_head`, under the
same limits as the server, rather than through the email package. It parses
feed bodies with `wire.parse_feeds_body` and a memo of its own, so a
repeated request parses only the entries new since its last reply, and each
read still returns fresh dicts. A 200 reply that is not UTF-8, or not the
body asked for, raises ServiceUnavailable, as a service that does not answer
does.
"""

from __future__ import annotations

import json
import select
import weakref
from base64 import b64encode
from datetime import datetime
from http.client import (HTTPConnection, HTTPException, HTTPResponse, HTTPSConnection,
                         UnknownProtocol)
from typing import Mapping
from urllib.parse import unquote, urlencode, urlsplit
from urllib.request import getproxies, proxy_bypass

from . import wire
from .service import (AuthError, BadRequestError, ChannelService,
                      UnknownChannelError, format_timestamp, parse_timestamp)

TIMEOUT_S = 5.0                 # per HTTP request, connect and read


class ServiceUnavailable(Exception):
    """Transport-level failure: service unreachable or not answering."""


class RateLimited(Exception):
    """The service accepted the request but rejected the write ("0" body)."""


def _connection(endpoint: str) -> tuple[HTTPConnection, str, dict[str, str]]:
    """An unopened connection to `endpoint`, the prefix of each request
    target and the headers each request carries, with the proxy settings of
    the environment applied. Raises ValueError for a URL it cannot use."""
    url = urlsplit(endpoint)
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ValueError("not an http:// or https:// URL")
    connection = HTTPSConnection if url.scheme == "https" else HTTPConnection
    port = url.port or connection.default_port
    proxies = getproxies()
    proxy = proxies.get(url.scheme) or proxies.get("all")
    if not proxy or proxy_bypass(f"{url.hostname}:{port}"):
        return connection(url.hostname, port, timeout=TIMEOUT_S), url.path, {}
    proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    headers = {}
    if proxy_url.username is not None:
        creds = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
        headers["Proxy-Authorization"] = f"Basic {b64encode(creds.encode()).decode()}"
    conn = connection(proxy_url.hostname, proxy_url.port or 80, timeout=TIMEOUT_S)
    if url.scheme == "http":
        return conn, endpoint, headers  # absolute-form targets, to the proxy
    conn.set_tunnel(url.hostname, port, headers=headers)
    return conn, url.path, {}


class _Response(HTTPResponse):
    """An HTTPResponse whose head `wire.read_head` reads; every 1xx interim
    reply before it is skipped.

    `headers` and `msg` are that dict, by lowercase name, so `getheader` and
    `getheaders` are not supported. Everything `read` relies on is set as
    `HTTPResponse.begin` sets it.
    """

    def begin(self):
        if self.headers is not None:
            return
        while True:
            version, status, reason = self._read_status()
            if not 100 <= status < 200:
                break
            wire.read_head(self.fp)  # an interim reply's head
        self.code = self.status = status
        self.reason = reason.strip()
        if version in ("HTTP/1.0", "HTTP/0.9"):
            self.version = 10
        elif version.startswith("HTTP/1."):
            self.version = 11
        else:
            raise UnknownProtocol(version)
        self.headers = self.msg = headers = wire.read_head(self.fp)
        self.chunked = headers.get("transfer-encoding", "").lower() == "chunked"
        self.chunk_left = None
        self.will_close = self._check_close()
        self.length = None
        length = headers.get("content-length")
        if length and not self.chunked:
            try:
                self.length = int(length)
            except ValueError:
                pass
            else:
                if self.length < 0:
                    self.length = None
        if status in (204, 304) or self._method == "HEAD":
            self.length = 0
        # no length and no chunks: the body ends when the server closes
        if not self.will_close and not self.chunked and self.length is None:
            self.will_close = True


class HttpServiceClient:
    """A client on one keep-alive connection to `endpoint`, for one thread at
    a time.

    The proxy settings of the environment are read once, here. A request that
    fails once sent is not sent again, since `/update` is not idempotent: the
    connection is closed, `ServiceUnavailable` is raised, and the next call
    connects afresh.
    """

    def __init__(self, endpoint: str, write_key: str | None = None,
                 read_key: str | None = None):
        self.endpoint = endpoint.rstrip("/")
        self.write_key = write_key
        self.read_key = read_key
        try:
            self._conn, self._prefix, self._headers = _connection(self.endpoint)
        except ValueError as exc:  # includes a port that is not a number in range
            raise ServiceUnavailable(f"bad endpoint {endpoint!r}: {exc}") from None
        self._conn.response_class = _Response
        # the memo wire.parse_feeds_body parses feed bodies with
        self._replies = wire.FeedReplies()
        # The socket goes with the client, as a pooled one would with its pool.
        weakref.finalize(self, self._conn.close)

    def _target(self, path: str, params: dict) -> str:
        """The request target of `path` with the non-None `params`."""
        query = urlencode({k: v for k, v in params.items() if v is not None})
        return f"{self._prefix}{path}?{query}" if query else f"{self._prefix}{path}"

    def _get(self, target: str) -> tuple[int, str]:
        """GET `target`: (status, body as text). A body that is not UTF-8
        raises ServiceUnavailable."""
        conn = self._conn
        try:
            # The server sends nothing unasked, so a readable idle socket
            # holds the EOF of a server that closed it (its idle timeout).
            # poll, unlike select, takes a descriptor of any number.
            if conn.sock is not None:
                idle = select.poll()
                idle.register(conn.sock, select.POLLIN)
                if idle.poll(0):
                    conn.close()
            conn.request("GET", target, headers=self._headers)
            resp = conn.getresponse()
            body = resp.read()
        except (OSError, HTTPException) as exc:
            conn.close()
            raise ServiceUnavailable(f"{self.endpoint}: {exc!r}") from exc
        try:
            return resp.status, body.decode("utf-8")
        except UnicodeDecodeError:
            raise self._unexpected("a body that is not UTF-8") from None

    def _unexpected(self, what: str) -> ServiceUnavailable:
        return ServiceUnavailable(f"unexpected reply from {self.endpoint}: {what}")

    def update(self, values: Mapping[int, str],
               created_at: datetime | None = None) -> int:
        params = {"api_key": self.write_key}
        for k, v in sorted(values.items()):
            params[f"field{k}"] = v
        if created_at is not None:
            params["created_at"] = format_timestamp(created_at)
        status, text = self._get(self._target("/update", params))
        if status == 401:
            raise AuthError("write key rejected")
        if status == 400:
            raise BadRequestError(text)
        if status != 200:
            raise ServiceUnavailable(f"unexpected status {status}")
        if text == "0":
            raise RateLimited("write rejected by rate limit")
        try:
            return int(text)
        except ValueError:
            raise self._unexpected(f"{text[:80]!r} for an entry id") from None

    def read_feeds(self, channel_id: int, results: int | None = None,
                   start: str | None = None, end: str | None = None) -> dict:
        params = {"results": results, "start": start, "end": end,
                  "api_key": self.read_key}
        return self._feed(f"/channels/{channel_id}/feeds.json", params,
                          f"channel {channel_id} not found")

    def read_field(self, channel_id: int, field_index: int,
                   results: int | None = None) -> dict:
        params = {"results": results, "api_key": self.read_key}
        # the wire's 404 body is the same for an undeclared field
        return self._feed(f"/channels/{channel_id}/fields/{field_index}.json", params,
                          f"channel {channel_id} has no field {field_index},"
                          f" or no such channel")

    def _feed(self, path: str, params: dict, not_found: str) -> dict:
        """GET the feed body at `path`; a 404 raises UnknownChannelError
        saying `not_found`."""
        status, text = self._get(target := self._target(path, params))
        if status == 404:
            raise UnknownChannelError(not_found)
        if status == 401:
            raise AuthError("read key rejected")
        if status == 400:
            try:
                message = json.loads(text)["error"]
            except (ValueError, TypeError, KeyError):  # not the server's error body
                message = text
            raise BadRequestError(message)
        if status != 200:
            raise ServiceUnavailable(f"unexpected status {status}")
        try:
            return wire.parse_feeds_body(text, self._replies, target)
        except (ValueError, RecursionError):
            raise self._unexpected(f"{text[:80]!r} for a feed body") from None


class LocalServiceClient:
    """Same surface as HttpServiceClient, against an in-process service.

    A read returns the document `wire.feed_doc` builds from the service's
    page, equal to the one the HTTP client parses from the wire body, with no
    JSON rendered or parsed on the way.
    """

    def __init__(self, channel_service: ChannelService, write_key: str | None = None,
                 read_key: str | None = None):
        self.service = channel_service
        self.write_key = write_key
        self.read_key = read_key

    def update(self, values: Mapping[int, str],
               created_at: datetime | None = None) -> int:
        entry_id = self.service.update(self.write_key or "", values, created_at)
        if entry_id == 0:
            raise RateLimited("write rejected by rate limit")
        return entry_id

    def read_feeds(self, channel_id: int, results: int | None = None,
                   start: str | None = None, end: str | None = None) -> dict:
        page = self.service.read_feeds(
            channel_id, results=results,
            start=parse_timestamp(start) if start else None,
            end=parse_timestamp(end) if end else None,
            read_key=self.read_key,
        )
        return wire.feed_doc(page)

    def read_field(self, channel_id: int, field_index: int,
                   results: int | None = None) -> dict:
        page = self.service.read_feeds(channel_id, results=results,
                                       read_key=self.read_key)
        return wire.feed_doc(page, only_field=field_index)

from __future__ import annotations

import http.client
import json
import socket
import threading
from contextlib import contextmanager
from datetime import datetime, timezone
from typing import NamedTuple
from urllib.parse import urlencode, urlsplit

import pytest

from agristack.httpd import ChannelHttpServer
from agristack.service import ChannelService

FIELD_LABELS = ["Temperature", "Pressure", "Moisture", "Rain"]
WRITE_KEY = "TESTWRITEKEY0001"


class FakeClock:
    """Manually advanced service clock."""

    def __init__(self, start: datetime | None = None):
        self.now = start or datetime(2024, 12, 15, 10, 0, 0, tzinfo=timezone.utc)

    def __call__(self) -> datetime:
        return self.now

    def advance(self, seconds: float) -> None:
        from datetime import timedelta
        self.now += timedelta(seconds=seconds)


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def memory_service(clock):
    service = ChannelService(clock=clock)
    service.create_channel("field-station", FIELD_LABELS,
                           write_key=WRITE_KEY, rate_limit_s=0.0)
    return service


@pytest.fixture
def http_server(memory_service):
    server = ChannelHttpServer(memory_service).start()
    yield server
    server.stop()


class HttpReply(NamedTuple):
    status_code: int
    headers: http.client.HTTPMessage    # looked up by any case of a name
    content: bytes

    @property
    def text(self) -> str:
        return self.content.decode("utf-8")

    def json(self):
        return json.loads(self.content)


class HttpSession:
    """GETs over one keep-alive connection to the server a first URL names.

    Replies are read by http.client, a client independent of the server's
    own header reader (wire.read_head).
    """

    def __init__(self, timeout: float = 5):
        self.timeout = timeout
        self.conn: http.client.HTTPConnection | None = None

    def get(self, url: str, params: dict[str, str] | None = None) -> HttpReply:
        parts = urlsplit(url)
        if self.conn is None:
            self.conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                                   timeout=self.timeout)
        query = "&".join(q for q in (parts.query, urlencode(params or {})) if q)
        self.conn.request("GET", parts.path + (f"?{query}" if query else ""))
        reply = self.conn.getresponse()
        return HttpReply(reply.status, reply.headers, reply.read())

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()

    def __enter__(self) -> "HttpSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def http_get(url: str, params: dict[str, str] | None = None,
             timeout: float = 5) -> HttpReply:
    """GET `url` with the query `params` on a connection of its own."""
    with HttpSession(timeout) as session:
        return session.get(url, params)


@contextmanager
def scripted_server(replies: list[bytes]):
    """Yield (port, heads) of a server whose n-th connection reads one request
    head, appends it to `heads` and answers replies[n]; b"" closes without a
    reply."""
    heads: list[bytes] = []

    def serve(listener):
        for reply in replies:
            conn, _ = listener.accept()
            with conn:
                head = b""
                while b"\r\n\r\n" not in head and (chunk := conn.recv(4096)):
                    head += chunk
                heads.append(head)
                conn.sendall(reply)

    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5)
        thread = threading.Thread(target=serve, args=(listener,), daemon=True)
        thread.start()
        yield listener.getsockname()[1], heads
        thread.join(timeout=5)
        assert not thread.is_alive()


def ok_reply(body: bytes) -> bytes:
    """A 200 reply carrying `body`, for a scripted_server."""
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)

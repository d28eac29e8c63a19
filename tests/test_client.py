"""HttpServiceClient against a live server: environment settings."""
from __future__ import annotations

import socket

import pytest

from agristack.client import HttpServiceClient, ServiceUnavailable
from tests.conftest import WRITE_KEY

VALUES = {1: "22.04", 2: "1013.05", 3: "30.00", 4: "0"}


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in ("HTTP_PROXY", "http_proxy", "ALL_PROXY", "all_proxy",
                 "NO_PROXY", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_client_honours_a_proxy_set_before_it_is_made(http_server, no_proxy_env):
    no_proxy_env.setenv("HTTP_PROXY", f"http://127.0.0.1:{_closed_port()}")
    client = HttpServiceClient(http_server.endpoint, write_key=WRITE_KEY)
    with pytest.raises(ServiceUnavailable):
        client.update(VALUES)


def test_client_reads_the_environment_once(http_server, no_proxy_env):
    client = HttpServiceClient(http_server.endpoint, write_key=WRITE_KEY)
    no_proxy_env.setenv("HTTP_PROXY", f"http://127.0.0.1:{_closed_port()}")
    assert client.update(VALUES) == 1
    assert [e["entry_id"] for e in client.read_feeds(1)["feeds"]] == [1]

"""Clients for the channel service wire protocol.

`HttpServiceClient` talks to a live server; `LocalServiceClient` drives a
ChannelService in-process through the same serialization, so anything built
on the client behaves identically in either mode.
"""

from __future__ import annotations

import json
from datetime import datetime
from typing import Mapping

import requests

from . import httpd
from .service import (AuthError, BadRequestError, ChannelService,
                      UnknownChannelError, format_timestamp, parse_timestamp)

TIMEOUT_S = 5.0                 # per HTTP request, connect and read


class ServiceUnavailable(Exception):
    """Transport-level failure: service unreachable or not answering."""


class RateLimited(Exception):
    """The service accepted the request but rejected the write ("0" body)."""


class HttpServiceClient:
    def __init__(self, endpoint: str, write_key: str | None = None,
                 read_key: str | None = None):
        self.endpoint = endpoint.rstrip("/")
        self.write_key = write_key
        self.read_key = read_key
        self._session = requests.Session()

    def _get(self, path: str, params: dict) -> requests.Response:
        try:
            return self._session.get(f"{self.endpoint}{path}", params=params,
                                     timeout=TIMEOUT_S)
        except requests.RequestException as exc:
            raise ServiceUnavailable(str(exc)) from exc

    def update(self, values: Mapping[int, str],
               created_at: datetime | None = None) -> int:
        params = {"api_key": self.write_key}
        for k, v in sorted(values.items()):
            params[f"field{k}"] = v
        if created_at is not None:
            params["created_at"] = format_timestamp(created_at)
        resp = self._get("/update", params)
        if resp.status_code == 401:
            raise AuthError("write key rejected")
        if resp.status_code == 400:
            raise BadRequestError(resp.text)
        if resp.status_code != 200:
            raise ServiceUnavailable(f"unexpected status {resp.status_code}")
        if resp.text == "0":
            raise RateLimited("write rejected by rate limit")
        return int(resp.text)

    def read_feeds(self, channel_id: int, results: int | None = None,
                   start: str | None = None, end: str | None = None) -> dict:
        params: dict = {}
        if results is not None:
            params["results"] = results
        if start is not None:
            params["start"] = start
        if end is not None:
            params["end"] = end
        if self.read_key is not None:
            params["api_key"] = self.read_key
        resp = self._get(f"/channels/{channel_id}/feeds.json", params)
        return self._feed_response(resp, channel_id)

    def read_field(self, channel_id: int, field_index: int,
                   results: int | None = None) -> dict:
        params: dict = {}
        if results is not None:
            params["results"] = results
        if self.read_key is not None:
            params["api_key"] = self.read_key
        resp = self._get(f"/channels/{channel_id}/fields/{field_index}.json", params)
        return self._feed_response(resp, channel_id)

    @staticmethod
    def _feed_response(resp: requests.Response, channel_id: int) -> dict:
        if resp.status_code == 404:
            raise UnknownChannelError(f"channel {channel_id} not found")
        if resp.status_code == 401:
            raise AuthError("read key rejected")
        if resp.status_code != 200:
            raise ServiceUnavailable(f"unexpected status {resp.status_code}")
        return resp.json()


class LocalServiceClient:
    """Same surface as HttpServiceClient, against an in-process service."""

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
        return json.loads(httpd.feeds_body(page))

    def read_field(self, channel_id: int, field_index: int,
                   results: int | None = None) -> dict:
        page = self.service.read_feeds(channel_id, results=results,
                                       read_key=self.read_key)
        if field_index not in page.channel.fields:
            raise UnknownChannelError(f"channel has no field {field_index}")
        return json.loads(httpd.feeds_body(page, only_field=field_index))

"""Channel service core: keyed channels, rate-limited writes, feed queries.

A compatible subset of the hosted telemetry platform the gateway targets:
channels hold up to 8 numeric fields; writes are authenticated by write key,
assigned gapless per-channel entry ids, and persisted durably (append-only
log per channel) before they are acknowledged. Reads return entries in
ascending entry order. Field values are kept as the decimal strings the
writer sent, so reads reproduce them byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import re
import secrets
import threading
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import Callable, Mapping

from .storelog import RecordLog, fsync_directory

MAX_FIELDS = 8
MAX_RESULTS = 8000
DEFAULT_RATE_LIMIT_S = 15.0

# ASCII only and matched in full, so a written value needs no JSON escaping
NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?", re.ASCII)
# the form format_timestamp writes, year zero-padded to four digits
_TIMESTAMP_RE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", re.ASCII)
_CREATED_AT = attrgetter("created_at")


class ServiceError(Exception):
    pass


class AuthError(ServiceError):
    pass


class UnknownChannelError(ServiceError):
    pass


class BadRequestError(ServiceError):
    pass


def utc_now() -> datetime:
    return datetime.now(timezone.utc).replace(microsecond=0)


def format_timestamp(ts: datetime) -> str:
    # isoformat zero-pads the year, which glibc's strftime("%Y") does not
    return ts.astimezone(timezone.utc).isoformat()[:19] + "Z"


def parse_timestamp(text: str) -> datetime:
    if _TIMESTAMP_RE.fullmatch(text):
        try:
            return datetime.fromisoformat(text)
        except ValueError:  # a field out of range, such as month 13
            pass
    raise BadRequestError(f"timestamp {text!r} not in YYYY-MM-DDTHH:MM:SSZ form")


def json_string(text: str) -> str:
    """`text` as a JSON string literal, byte-identical to `json.dumps(text)`.

    A value `update` accepts (NUMBER_RE) holds no character JSON escapes and
    is quoted as it is; any other, recovered from a log written before that
    check, goes through `json.dumps`.
    """
    if NUMBER_RE.fullmatch(text):
        return f'"{text}"'
    return json.dumps(text)


def generate_key() -> str:
    return secrets.token_hex(8).upper()  # 16 characters


@dataclass(frozen=True)
class FeedEntry:
    entry_id: int
    created_at: datetime
    fields: Mapping[int, str]


@dataclass
class Channel:
    id: int
    name: str
    write_key: str
    fields: dict[int, str]
    read_key: str | None = None
    rate_limit_s: float = DEFAULT_RATE_LIMIT_S

    def __post_init__(self):
        if self.id < 1:
            raise ValueError("channel id must be positive")
        if len(self.write_key) != 16:
            raise ValueError("write_key must be 16 characters")
        if self.read_key is not None and self.read_key == self.write_key:
            raise ValueError("read_key must differ from write_key")
        if self.rate_limit_s < 0:
            raise ValueError("rate limit must be >= 0")
        for k in self.fields:
            if not 1 <= k <= MAX_FIELDS:
                raise ValueError(f"field index {k} outside 1..{MAX_FIELDS}")


@dataclass(frozen=True)
class FeedPage:
    channel: Channel
    entries: tuple[FeedEntry, ...]
    rendered: dict[int, str]    # the channel's memo; see _ChannelState


@dataclass
class _ChannelState:
    meta: Channel
    entries: list[FeedEntry] = field(default_factory=list)
    # each entry's JSON for a full-channel feed body, by entry_id: filled by
    # httpd.feeds_body on the entry's first read, outside the lock
    rendered: dict[int, str] = field(default_factory=dict)
    log: RecordLog | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    last_accept: datetime | None = None


def _validate_field_values(values: Mapping[int, str]) -> dict[int, str]:
    if not values:
        raise BadRequestError("at least one field value is required")
    cleaned: dict[int, str] = {}
    for k, v in values.items():
        try:
            index = int(k)
        except (TypeError, ValueError):
            raise BadRequestError(f"bad field index {k!r}") from None
        if not 1 <= index <= MAX_FIELDS:
            raise BadRequestError(f"field index {k} outside 1..{MAX_FIELDS}")
        text = str(v)
        if not NUMBER_RE.fullmatch(text) or not math.isfinite(float(text)):
            raise BadRequestError(f"field{k} value {text!r} is not a decimal number")
        cleaned[index] = text
    return cleaned


class ChannelService:
    """Thread-safe channel store with optional durable persistence.

    With a data_dir, channel metadata lives in channels.json and every
    channel gets an append-only entry log replayed on startup; without one
    the service is purely in-memory. `clock` supplies the service's notion
    of now (rate limiting and default created_at) and is injectable.
    """

    def __init__(self, data_dir: str | Path | None = None,
                 clock: Callable[[], datetime] = utc_now, fsync: bool = True):
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.clock = clock
        self.fsync = fsync
        self._channels: dict[int, _ChannelState] = {}
        self._by_write_key: dict[str, int] = {}
        self._registry_lock = threading.Lock()
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)
            self._recover()

    # -- provisioning -------------------------------------------------------

    def create_channel(self, name: str, fields: Mapping[int, str] | list[str],
                       write_key: str | None = None, read_key: str | None = None,
                       rate_limit_s: float = DEFAULT_RATE_LIMIT_S) -> Channel:
        if isinstance(fields, list):
            fields = {i + 1: label for i, label in enumerate(fields)}
        with self._registry_lock:
            cid = max(self._channels, default=0) + 1
            key = write_key if write_key is not None else generate_key()
            if key in self._by_write_key:
                raise ValueError("write_key already in use")
            meta = Channel(cid, name, key, dict(fields), read_key, rate_limit_s)
            state = _ChannelState(meta=meta, log=self._open_log(cid))
            self._channels[cid] = state
            self._by_write_key[key] = cid
            self._save_registry()
            return meta

    def channels(self) -> list[Channel]:
        with self._registry_lock:
            return [s.meta for s in self._channels.values()]

    def channel(self, channel_id: int) -> Channel:
        state = self._state(channel_id)
        return state.meta

    def _state(self, channel_id: int) -> _ChannelState:
        with self._registry_lock:
            try:
                return self._channels[channel_id]
            except KeyError:
                raise UnknownChannelError(f"no channel {channel_id}") from None

    # -- writes -------------------------------------------------------------

    def update(self, write_key: str, values: Mapping[int, str],
               created_at: datetime | None = None) -> int:
        """Append one entry; returns its entry_id, or 0 when rate-limited."""
        with self._registry_lock:
            cid = self._by_write_key.get(write_key)
        if cid is None:
            raise AuthError("unknown write key")
        cleaned = _validate_field_values(values)
        state = self._channels[cid]
        now = self.clock()
        ts = created_at or now
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        ts = ts.astimezone(timezone.utc).replace(microsecond=0)

        with state.lock:
            policy = state.meta.rate_limit_s
            if policy > 0 and state.last_accept is not None:
                if (now - state.last_accept).total_seconds() < policy:
                    return 0
            if state.entries and ts < state.entries[-1].created_at:
                raise BadRequestError(
                    f"created_at {format_timestamp(ts)} is before the channel's"
                    f" latest entry"
                )
            entry_id = len(state.entries) + 1
            entry = FeedEntry(entry_id, ts, cleaned)
            if state.log is not None:
                state.log.append(_encode_entry(entry))
            state.entries.append(entry)
            state.last_accept = now
            return entry_id

    # -- reads --------------------------------------------------------------

    def read_feeds(self, channel_id: int, results: int | None = None,
                   start: datetime | None = None, end: datetime | None = None,
                   read_key: str | None = None) -> FeedPage:
        """Last `results` entries (or all within [start, end]), ascending."""
        state = self._state(channel_id)
        if state.meta.read_key is not None and read_key != state.meta.read_key:
            raise AuthError("channel is private; valid read key required")
        if results is not None and results < 0:
            raise BadRequestError("results must be >= 0")
        n = MAX_RESULTS if results is None else min(results, MAX_RESULTS)
        with state.lock:
            # entries are in created_at order: update refuses an older one
            entries = state.entries
            lo = 0 if start is None else bisect_left(entries, start, key=_CREATED_AT)
            hi = (len(entries) if end is None
                  else bisect_right(entries, end, key=_CREATED_AT))
            window = tuple(entries[max(lo, hi - n):hi])
            if len(state.rendered) > 2 * MAX_RESULTS:
                # keep the newest MAX_RESULTS, the window polls repeat; copy()
                # is atomic where iterating would race a reader's insert
                floor = len(entries) - MAX_RESULTS
                state.rendered = {k: v for k, v in state.rendered.copy().items()
                                  if k > floor}
            rendered = state.rendered
        return FeedPage(state.meta, window, rendered)

    # -- persistence --------------------------------------------------------

    def _open_log(self, channel_id: int) -> RecordLog | None:
        if self.data_dir is None:
            return None
        return RecordLog(self.data_dir / f"channel_{channel_id}.log", fsync=self.fsync)

    def _registry_path(self) -> Path:
        return self.data_dir / "channels.json"

    def _save_registry(self) -> None:
        if self.data_dir is None:
            return
        payload = {"channels": [asdict(s.meta) for s in self._channels.values()]}
        tmp = self._registry_path().with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            if self.fsync:
                fh.flush()
                os.fsync(fh.fileno())
        tmp.replace(self._registry_path())
        if self.fsync:
            fsync_directory(self.data_dir)  # makes the rename durable

    def _recover(self) -> None:
        """Rebuild state from channels.json plus each channel's entry log."""
        registry = self._registry_path()
        if not registry.exists():
            return
        spec = json.loads(registry.read_text(encoding="utf-8"))
        for item in spec["channels"]:
            # JSON object keys are strings; Channel's field indices are ints
            fields = {int(k): v for k, v in item["fields"].items()}
            meta = Channel(**{**item, "fields": fields})
            log = self._open_log(meta.id)
            try:
                entries = _decode_entries(log.replay())
            except CorruptStateError as exc:
                raise CorruptStateError(f"channel {meta.id}: {exc}") from None
            state = _ChannelState(meta=meta, entries=entries, log=log)
            self._channels[meta.id] = state
            self._by_write_key[meta.write_key] = meta.id

    def close(self) -> None:
        for state in self._channels.values():
            if state.log is not None:
                state.log.close()


class CorruptStateError(ServiceError):
    pass


# Records parsed by one json.loads in recovery. Parsing a 60,480-entry log in
# one piece raised recovery's peak RSS from 78 to 122 MB. Chunks of 64, 256
# and 1024 records parse as fast; this size costs 0.25 MB over record by
# record, and 1024 costs 0.6 MB.
_DECODE_CHUNK = 256


def _encode_entry(entry: FeedEntry) -> bytes:
    """The log record of `entry`, `{"id":N,"at":"…","f":{"1":…}}` with the
    fields in index order: byte-identical to `json.dumps` of that dict with
    separators (",", ":")."""
    fields = ",".join([f'"{k}":{json_string(v)}'
                       for k, v in sorted(entry.fields.items())])
    return (f'{{"id":{entry.entry_id},"at":"{format_timestamp(entry.created_at)}",'
            f'"f":{{{fields}}}}}').encode()


def _decode_entries(records: list[bytes]) -> list[FeedEntry]:
    """The entries a channel log's records hold, in order. Raises
    CorruptStateError at the first record that is not exactly one entry, or
    whose entry_id is not its 1-based position.

    Each chunk of records is parsed as one JSON array, the records joined by
    a comma and a newline. Its items are the records only if each of those
    separators is a top-level one: a raw newline cannot stand in a JSON
    string, no object goes on with a separator and a `{`, and a chunk with no
    `[` of its own holds no nested array. Any other chunk, like one that fails
    to parse or has another number of items, is parsed record by record, which
    finds the culprit.
    """
    entries: list[FeedEntry] = []
    for first in range(0, len(records), _DECODE_CHUNK):
        chunk = records[first:first + _DECODE_CHUNK]
        joined = b"[" + b",\n".join(chunk) + b"]"
        docs = None
        # the separators are the only newlines, and each is followed by a `{`
        if (joined.count(b"\n") == joined.count(b",\n{") == len(chunk) - 1
                and joined.count(b"[") == 1):
            try:
                docs = json.loads(joined.decode("utf-8"))
            except ValueError:  # JSONDecodeError and UnicodeDecodeError
                pass
        if docs is None or len(docs) != len(chunk):
            docs = [_parse_record(raw, position)
                    for position, raw in enumerate(chunk, start=first + 1)]
        for position, doc in enumerate(docs, start=first + 1):
            try:
                entry = FeedEntry(doc["id"], parse_timestamp(doc["at"]),
                                  {int(k): v for k, v in doc["f"].items()})
            except (LookupError, TypeError, AttributeError, ValueError,
                    BadRequestError) as exc:
                raise CorruptStateError(f"entry {position} is not a log entry:"
                                        f" {type(exc).__name__}: {exc}") from None
            if entry.entry_id != position:
                raise CorruptStateError(
                    f"entry_id {entry.entry_id} at position {position}; log is"
                    f" not a clean prefix")
            entries.append(entry)
    return entries


def _parse_record(raw: bytes, position: int):
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise CorruptStateError(
            f"entry {position} is not one JSON value: {exc}") from None

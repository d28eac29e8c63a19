"""Channel service core: keyed channels, rate-limited writes, feed queries.

A compatible subset of the hosted telemetry platform the gateway targets:
channels hold up to 8 numeric fields; writes are authenticated by write key,
assigned gapless per-channel entry ids, and persisted durably (append-only
log per channel) before they are acknowledged. Reads return entries in
ascending entry order. Field values are kept as the decimal strings the
writer sent, so reads reproduce them byte for byte.

A channel keeps its entries by column (see _ChannelState): the created_at
texts, and one list per field index written so far. Reads slice them, and
recovery turns the records it decodes into them.

`close` also writes each channel's columns to a snapshot, channel_N.snap,
that names the length and crc32 of the log prefix it was built from. A start
loads a snapshot only if that prefix still matches the log and every column
passes the checks a replay makes, and then replays only the records after it;
in any other case, a snapshot of an older format among them, it replays the
whole log. The log stays the only source of truth: deleting a snapshot loses
nothing.

A write's values are checked in one pass (`_field_object`), which also builds
the text of the entry's "f" object that its log record is made from. Each
service remembers the value texts that passed, in a set of at most
_ACCEPTED_MAX texts that is emptied when full, and does not check them again:
the MCP3208 is a 12-bit converter, so each analog field has at most 4096
distinct texts.
"""

from __future__ import annotations

import json
import logging
import math
import re
import secrets
import threading
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .storelog import RecordLog, replace_file

logger = logging.getLogger(__name__)

MAX_FIELDS = 8
MAX_RESULTS = 8000
DEFAULT_RATE_LIMIT_S = 15.0

# ASCII only and matched in full, so a written value needs no JSON escaping.
# `_field_object` matches each value text against it once, with isfinite, and
# a service remembers up to _ACCEPTED_MAX texts that passed so as not to
# match them again.
NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?", re.ASCII)
# the form format_timestamp writes, year zero-padded to four digits: fixed
# width, so for years 0001-9999 these texts sort as the times they name
_TIMESTAMP_RE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", re.ASCII)
# the name of each field index in a log entry's "f" object; every entry
# update stores shares these strings
_FIELD_NAMES = {i: str(i) for i in range(1, MAX_FIELDS + 1)}
_NAME_SET = frozenset(_FIELD_NAMES.values())
# a service's set of accepted value texts is emptied once it holds this
# many, which caps it at ~3 MB
_ACCEPTED_MAX = 32768


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
    """`ts` to the second in UTC, as the wire and the log write it. A naive
    `ts` is taken to be in UTC already."""
    tz = ts.tzinfo
    if tz is not None and tz is not timezone.utc:
        ts = ts.astimezone(timezone.utc)
    # isoformat zero-pads the year, which glibc's strftime("%Y") does not
    return ts.isoformat()[:19] + "Z"


def parse_timestamp(text: str) -> datetime:
    if _TIMESTAMP_RE.fullmatch(text):
        try:
            return datetime.fromisoformat(text)
        except ValueError:  # a field out of range, such as month 13
            pass
    raise BadRequestError(f"timestamp {text!r} not in YYYY-MM-DDTHH:MM:SSZ form")


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


class _FeedEntries:
    """Entries `ids` of a channel, from its columns (see _ChannelState), each
    built as a FeedEntry when it is indexed; `len` builds none. An entry's
    `fields` hold only the values it has.

    Only the benchmark reads it: `bench/common.verify_reopened` indexes and
    iterates it, and `bench/spans.py` sizes read spans by its `len`.
    """

    __slots__ = ("_times", "_columns", "_ids")

    def __init__(self, times: list[str], columns: dict[str, list[str | None]], ids: range):
        self._times = times
        self._columns = columns
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index: int) -> FeedEntry:
        entry_id = self._ids[index]  # IndexError past either end
        row = entry_id - 1
        return FeedEntry(entry_id, datetime.fromisoformat(self._times[row]),
                         {int(name): value for name, column in self._columns.items()
                          if (value := column[row]) is not None})


class FeedPage(NamedTuple):
    """One read: the channel, and the ids of the entries it returns, found
    under the channel's lock. `times` and the lists in `columns` are the
    channel's own (see _ChannelState), which only grow, so later writes leave
    the page as it was; `columns` is a copy of the channel's dict, taken under
    the lock, so a column made later is not in it."""

    channel: Channel
    ids: range
    times: list[str]
    columns: dict[str, list[str | None]]

    @property
    def entries(self) -> _FeedEntries:
        return _FeedEntries(self.times, self.columns, self.ids)


@dataclass
class _ChannelState:
    """A channel's entries by column: entry N's created_at text is times[N-1],
    and its value of the field named `name` ("1" to "8", as in a log entry's
    "f" object) is columns[name][N-1], None where the entry has none.

    A column is made when its field is first written, padded with None for
    the entries before it; every column is as long as `times`, and `columns`
    keeps them in index order.
    """

    meta: Channel
    times: list[str] = field(default_factory=list)
    columns: dict[str, list[str | None]] = field(default_factory=dict)
    log: RecordLog | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    last_accept: datetime | None = None
    snap_end: int = 0   # the log length the channel's snapshot covers


def _field_object(values: Mapping[int, str], accepted: set[str]
                  ) -> tuple[dict[str, str], str]:
    """`values` as an entry's "f" object, index text to value in index order,
    and that object's compact JSON text. Raises BadRequestError at the first
    index or value, in the order given, that a write may not hold; of two
    keys with one index, such as 1 and "1", the later one's value is kept.

    A value text in `accepted` passed before and is not checked again; one
    that passes now is added to it.
    """
    if not values:
        raise BadRequestError("at least one field value is required")
    f: dict[str, str] = {}
    last = 0    # the last index, or past MAX_FIELDS once one is out of order
    for k, v in values.items():
        index = k if type(k) is int and 0 < k <= MAX_FIELDS else _field_index(k)
        text = v if type(v) is str else str(v)
        if text not in accepted:
            if not NUMBER_RE.fullmatch(text) or not math.isfinite(float(text)):
                raise BadRequestError(f"field{k} value {text!r} is not a decimal number")
            if len(accepted) >= _ACCEPTED_MAX:
                accepted.clear()
            accepted.add(text)
        last = index if index > last else MAX_FIELDS + 1
        f[_FIELD_NAMES[index]] = text
    if last > MAX_FIELDS:
        f = dict(sorted(f.items()))     # one-digit names sort as their indices
    # NUMBER_RE's texts hold no character JSON escapes
    return f, "{" + ",".join([f'"{name}":"{text}"' for name, text in f.items()]) + "}"


def _field_index(k) -> int:
    """Field index `k`, given as anything `int` reads, in 1..MAX_FIELDS."""
    try:
        index = int(k)
    except (TypeError, ValueError):
        raise BadRequestError(f"bad field index {k!r}") from None
    if not 1 <= index <= MAX_FIELDS:
        raise BadRequestError(f"field index {k} outside 1..{MAX_FIELDS}")
    return index


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
        # value texts update accepted (see _field_object). Threads share it
        # without a lock: whatever the interleaving, each text in it passed
        # the check, and a race can only empty it early or let it pass
        # _ACCEPTED_MAX by a text per thread.
        self._accepted: set[str] = set()
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
            if self.data_dir is not None:   # a channel takes writes once the registry names it
                metas = [vars(s.meta) for s in self._channels.values()] + [vars(meta)]
                replace_file(self._registry_path(),
                             [json.dumps({"channels": metas}).encode()], self.fsync)
            self._channels[cid] = _ChannelState(meta=meta, log=self._open_log(cid))
            self._by_write_key[key] = cid
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
        fields, fields_json = _field_object(values, self._accepted)
        state = self._channels[cid]
        policy = state.meta.rate_limit_s
        # the clock is read only where the write needs it
        now = self.clock() if created_at is None or policy > 0 else None
        at = format_timestamp(created_at or now)

        with state.lock:
            if policy > 0 and state.last_accept is not None:
                if (now - state.last_accept).total_seconds() < policy:
                    return 0
            if state.times and at < state.times[-1]:
                raise BadRequestError(
                    f"created_at {at} is before the channel's latest entry")
            entry_id = len(state.times) + 1
            if state.log is not None:
                state.log.append(_encode_entry(entry_id, at, fields_json))
            columns = state.columns
            if not fields.keys() <= columns.keys():
                _add_columns(columns, fields, entry_id - 1)
            for name, column in columns.items():
                column.append(fields.get(name))
            state.times.append(at)
            if now is not None:
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
        # created_at texts sort as the times; a bound with a fraction of a
        # second falls after the entries of its whole second
        lo_text = None if start is None else format_timestamp(start)
        hi_text = None if end is None else format_timestamp(end)
        with state.lock:
            # entries are in created_at order: update refuses an older one,
            # and recovery a log that holds one
            times = state.times
            lo = 0
            if lo_text is not None:
                lo = (bisect_right if start.microsecond else bisect_left)(times, lo_text)
            hi = len(times) if hi_text is None else bisect_right(times, hi_text)
            lo = max(lo, hi - n)
            columns = state.columns.copy()
        return FeedPage(state.meta, range(lo + 1, hi + 1), times, columns)

    # -- persistence --------------------------------------------------------

    def _open_log(self, channel_id: int) -> RecordLog | None:
        if self.data_dir is None:
            return None
        return RecordLog(self.data_dir / f"channel_{channel_id}.log", fsync=self.fsync)

    def _registry_path(self) -> Path:
        return self.data_dir / "channels.json"

    def _snapshot_path(self, channel_id: int) -> Path:
        return self.data_dir / f"channel_{channel_id}.snap"

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
            start, crc, times, columns = (_load_snapshot(self._snapshot_path(meta.id), log)
                                          or (0, 0, [], {}))
            try:
                _extend_rows(times, columns, *_decode_entries(log.replay(start, crc),
                                                              first_id=len(times) + 1))
                _check_order(times)
            except CorruptStateError as exc:
                raise CorruptStateError(f"channel {meta.id}: {exc}") from None
            state = _ChannelState(meta=meta, times=times, columns=columns, log=log,
                                  snap_end=start)
            self._channels[meta.id] = state
            self._by_write_key[meta.write_key] = meta.id

    def close(self) -> None:
        """Close every channel's log, then snapshot each one whose log grew
        since its snapshot. A snapshot that cannot be written is logged and
        skipped: the log holds every entry, so the next start replays it."""
        for state in self._channels.values():
            if state.log is not None:
                state.log.close()
        for state in self._channels.values():
            if state.log is None:
                continue
            with state.lock:
                covered = state.log.covered()
                # None for a fenced log, whose file may end in an unacknowledged record
                if covered is None or covered[0] == state.snap_end:
                    continue
                try:
                    _write_snapshot(self._snapshot_path(state.meta.id), *covered,
                                    state.times, state.columns, self.fsync)
                except OSError as exc:
                    logger.warning("channel %d: snapshot not written: %r", state.meta.id, exc)
                    continue
                state.snap_end = covered[0]


class CorruptStateError(ServiceError):
    pass


# Records parsed by one json.loads in recovery. Parsing a 60,480-entry log in
# one piece raised recovery's peak RSS from 78 to 122 MB. Chunks of 64, 256
# and 1024 records parse as fast; this size costs 0.25 MB over record by
# record, and 1024 costs 0.6 MB.
_DECODE_CHUNK = 256


_ID, _AT, _F = itemgetter("id"), itemgetter("at"), itemgetter("f")
# a chunk's created_at texts, each followed by a newline
_TIMES_RE = re.compile(rf"(?:{_TIMESTAMP_RE.pattern}\n)*", re.ASCII)


def _encode_entry(entry_id: int, at: str, fields_json: str) -> bytes:
    """The log record `{"id":N,"at":"…","f":{"1":…}}` of entry `entry_id`,
    created at `at` (format_timestamp's text), whose "f" object has the
    compact JSON text `fields_json` (as _field_object builds it):
    byte-identical to `json.dumps` of that dict with separators (",", ":")."""
    return f'{{"id":{entry_id},"at":"{at}","f":{fields_json}}}'.encode()


def _decode_entries(records: list[bytes], first_id: int = 1
                    ) -> tuple[list[str], dict[str, list[str | None]]]:
    """The created_at texts and field columns of the entries a channel log's
    records hold, in order, as _ChannelState keeps them; the first record
    holds entry `first_id`.

    Raises CorruptStateError at the first record that is not exactly one
    entry: a JSON object whose "id" is its position, whose "at" is a
    text parse_timestamp accepts, and whose "f" maps field indices 1 to
    MAX_FIELDS, written as update writes them, to strings. Any other value
    could not be served: feed bodies render each one as a string.

    Each chunk of records is decoded at once (_decode_chunk). A chunk that
    cannot be is decoded record by record, which finds the culprit, and its
    "f" objects are then turned into columns.
    """
    times: list[str] = []
    columns: dict[str, list[str | None]] = {}
    for first in range(0, len(records), _DECODE_CHUNK):
        chunk = records[first:first + _DECODE_CHUNK]
        rows = _decode_chunk(chunk, first_id + first)
        if rows is None:
            chunk_times, chunk_fields = zip(*[
                _decode_record(raw, position)
                for position, raw in enumerate(chunk, start=first_id + first)])
            rows = chunk_times, _columns_of(chunk_fields)
        _extend_rows(times, columns, *rows)
    return times, columns


def _columns_of(fields) -> dict[str, list[str | None]]:
    """The "f" objects `fields` as columns, sorted by name: for each name any
    of them has, its value in each of them, or None. Raises TypeError for
    an "f" that is not an object."""
    # field names "1".."8" sort as their indices
    return {name: list(map(dict.get, fields, repeat(name)))
            for name in sorted(set().union(*fields))}


def _add_columns(columns: dict[str, list[str | None]], names, rows: int) -> None:
    """Give `columns`, each `rows` long, a column of `rows` Nones for each of
    `names` it lacks, and keep them in index order. Changes the dict in
    place, so only under the channel's lock, or before the channel exists."""
    added = {name: [None] * rows for name in names if name not in columns}
    if added:
        merged = sorted({**columns, **added}.items())
        columns.clear()
        columns.update(merged)


def _extend_rows(times: list[str], columns: dict[str, list[str | None]],
                 more_times, more_columns: dict[str, list[str | None]]) -> None:
    """Append the rows `more_times` and `more_columns` to `times` and
    `columns`, both as _ChannelState keeps them: a column that only one side
    has is padded with None on the other."""
    _add_columns(columns, more_columns, len(times))
    for name, column in columns.items():
        more = more_columns.get(name)
        column += [None] * len(more_times) if more is None else more
    times += more_times


def _check_order(times: list[str]) -> None:
    """Raise CorruptStateError at the first entry whose created_at text is
    before the one of the entry before it, as update refuses: reads bisect
    these texts."""
    if times != sorted(times):
        back = next(i for i in range(1, len(times)) if times[i] < times[i - 1])
        raise CorruptStateError(f"entry {back + 1} created_at {times[back]} is before"
                                f" entry {back}'s {times[back - 1]}")


_SNAP_MAGIC = b"agristack-snapshot-2"
_VALUE_TYPES = frozenset({str, type(None)})


def _write_snapshot(path: Path, length: int, crc: int, times: list[str],
                    columns: dict[str, list[str | None]], fsync: bool) -> None:
    """Write the columns `times` and `columns` to `path` as a snapshot of the
    log whose first `length` bytes have crc32 `crc`.

    The file is a header line (magic, length, crc, entry count); then, for
    each _DECODE_CHUNK entries, a line of their created_at texts separated by
    spaces and a line of one JSON object that maps each field name to the
    chunk's slice of that column; then the crc32 of all the lines before it,
    in hex. storelog.replace_file writes it all or nothing, taking each part
    as it is made, so the whole file is never held at once.
    """
    def lines():
        header = b"%s %d %d %d\n" % (_SNAP_MAGIC, length, crc, len(times))
        body_crc = zlib.crc32(header)
        yield header
        for i in range(0, len(times), _DECODE_CHUNK):
            line = (" ".join(times[i:i + _DECODE_CHUNK]) + "\n"
                    + json.dumps({name: column[i:i + _DECODE_CHUNK]
                                  for name, column in columns.items()},
                                 separators=(",", ":")) + "\n").encode()
            body_crc = zlib.crc32(line, body_crc)
            yield line
        yield b"%08x\n" % body_crc
    replace_file(path, lines(), fsync)


def _load_snapshot(path: Path, log: RecordLog
                   ) -> tuple[int, int, list[str], dict[str, list[str | None]]] | None:
    """(length, crc, times, columns) from the snapshot at `path` (see
    _write_snapshot), if the log's first `length` bytes still have crc32
    `crc`, the file's own crc32 holds, and its columns pass every check a
    replay makes (_valid_times, _valid_columns, _check_order); else None."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            magic, length, crc, count = header.split()
            length, crc, count = int(length), int(crc), int(count)
            if magic != _SNAP_MAGIC or length < 0 or log.prefix_crc(length) != crc:
                return None
            body_crc = zlib.crc32(header)
            times: list[str] = []
            columns: dict[str, list[str | None]] = {}
            while len(times) < count:
                times_line, columns_line = fh.readline(), fh.readline()
                body_crc = zlib.crc32(columns_line, zlib.crc32(times_line, body_crc))
                chunk_times = times_line.decode("ascii")[:-1].split(" ")
                chunk_columns = json.loads(columns_line)
                if not (0 < len(chunk_times) <= _DECODE_CHUNK and _valid_times(chunk_times)
                        and _valid_columns(chunk_columns, len(chunk_times))):
                    return None
                _extend_rows(times, columns, chunk_times, chunk_columns)
            if len(times) != count or fh.read() != b"%08x\n" % body_crc:
                return None
            _check_order(times)
    except FileNotFoundError:
        return None
    except (ValueError, TypeError, RecursionError, CorruptStateError):
        return None     # incl. JSON and UTF-8 errors
    return length, crc, times, columns


def _valid_columns(columns, rows: int) -> bool:
    """Whether `columns`, a snapshot chunk's parsed JSON, maps field names to
    columns of `rows` values that an entry could hold: each a string, or
    None where the entry has no value."""
    return (type(columns) is dict and _NAME_SET.issuperset(columns)
            and all(type(column) is list and len(column) == rows
                    and _VALUE_TYPES.issuperset(map(type, column))
                    for column in columns.values()))


def _decode_chunk(chunk: list[bytes], first_id: int
                  ) -> tuple[list[str], dict[str, list[str | None]]] | None:
    """The created_at texts and field columns of entries `first_id`… held by
    `chunk`, if every record in it is one entry, checked as _decode_entries
    says; else None.

    The chunk is parsed as one JSON array, the records joined by a comma and
    a newline. Its items are the records only if each of those separators is
    a top-level one: a raw newline cannot stand in a JSON string, no object
    goes on with a separator and a `{`, and a chunk with no `[` of its own
    holds no nested array. The items are then checked together, their "f"
    objects' names once they are columns.
    """
    joined = b"[" + b",\n".join(chunk) + b"]"
    # the separators are the only newlines, and each is followed by a `{`
    if not (joined.count(b"\n") == joined.count(b",\n{") == len(chunk) - 1
            and joined.count(b"[") == 1):
        return None
    try:
        docs = json.loads(joined.decode("utf-8"))
        ids = list(map(_ID, docs))  # TypeError for an item that is not an object
        times = list(map(_AT, docs))
        fields = list(map(_F, docs))
        # TypeError for an "f" that is not an object, or a value not a string
        "".join(chain.from_iterable(map(dict.values, fields)))
        columns = _columns_of(fields)
    except (ValueError, LookupError, TypeError):  # incl. JSON and UTF-8 errors
        return None
    if (len(docs) != len(chunk) or ids != list(range(first_id, first_id + len(docs)))
            or not _valid_times(times) or not _NAME_SET.issuperset(columns)):
        return None
    return times, columns


def _valid_times(times: list) -> bool:
    """Whether each of `times` is a created_at text parse_timestamp accepts."""
    try:
        text = "\n".join(times) + "\n"  # TypeError for a time not a string
        # the newlines the join put in are the only ones, so each time is one
        # match of the pattern; fromisoformat then checks the ranges
        return (text.count("\n") == len(times) and _TIMES_RE.fullmatch(text) is not None
                and all(map(datetime.fromisoformat, times)))
    except (ValueError, TypeError):
        return False


def _decode_record(raw: bytes, position: int) -> tuple[str, dict[str, str]]:
    """The created_at text and "f" object of the entry in record `raw`;
    raises CorruptStateError if it is not the entry at `position`."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise CorruptStateError(
            f"entry {position} is not one JSON value: {exc}") from None
    try:
        entry_id, at = doc["id"], doc["at"]
        parse_timestamp(at)
        f = doc["f"]
        for name, value in f.items():
            if name not in _NAME_SET:
                raise ValueError(f"field index {name!r} outside 1..{MAX_FIELDS}")
            if type(value) is not str:
                raise TypeError(f"field{name} value {value!r} is not a string")
    except (LookupError, TypeError, AttributeError, ValueError,
            BadRequestError) as exc:
        raise CorruptStateError(f"entry {position} is not a log entry:"
                                f" {type(exc).__name__}: {exc}") from None
    if entry_id != position:
        raise CorruptStateError(f"entry_id {entry_id} at position {position}; log is"
                                f" not a clean prefix")
    return at, f

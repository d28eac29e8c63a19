"""The codec both ends of the channel service's wire use: feed bodies written
and read back, and the header reader.

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

`read_head` reads the header lines of a request or a reply without the email
package, under http.client's limits; the server reads requests with it, and
`HttpServiceClient` replies.
"""

from __future__ import annotations

import json
from http.client import HTTPException, LineTooLong
from itertools import repeat

from . import service as svc

# every feed body's JSON encoder; json.dumps with these separators would make
# a new encoder on each call
_encode = json.JSONEncoder(separators=(",", ":")).encode

# what parse_feeds_body parses a feed body's channel with
_raw_decode = json.JSONDecoder().raw_decode
# a feed body starts with the first and is cut after the channel at the second
_CHANNEL_HEAD = '{"channel":'
_FEEDS_CUT = ',"feeds":['

# http.client's limits on a head: bytes in one line, and lines after the
# status or request line, the blank one that ends the head included
_MAX_LINE = 65536
_MAX_HEAD_LINES = 100


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

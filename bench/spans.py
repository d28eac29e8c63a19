"""Span tracing of agristack's layers, applied from outside the program.

`Tracer.install()` replaces each traced public function with a wrapper at
the place its caller looks it up (for example `pipeline.moving_average`,
not `analytics.moving_average`), and `uninstall()` puts the originals back.
Spans are kept in memory and written out as JSON lines at the end of a
run: name, start, end, parent, request id, pid, a size and an error flag.

Times come from `time.perf_counter_ns`, which on Linux reads
CLOCK_MONOTONIC, a clock every process on the machine shares; that is what
lets `analyze` put spans from the server process under the client request
that caused them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import os
import statistics
import threading
import time

from common import summarize


class _OsProxy:
    """Stands in for the `os` module inside `agristack.storelog`, so that
    only the fsync that storelog calls is traced."""

    def __init__(self, fsync):
        self.fsync = fsync

    def __getattr__(self, name):
        return getattr(os, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []    # (sid, parent, rid, name, t0, t1, size, err)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._undo: list[tuple] = []
        self.paused = False

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, name: str, fn, size_of=None, request: bool = False):
        """Wrap `fn` so each call records a span.

        `size_of(args, result)` gives the span's size (entries, bytes, an
        entry id). A `request` span starts a request id that its child spans
        share; client calls are request spans.
        """
        tracer = self
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = stack_of()
            parent, rid = stack[-1] if stack else (None, None)
            sid = next(ids)
            if request and rid is None:
                rid = sid
            stack.append((sid, rid))
            size = None
            err = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                err = False
            finally:
                t1 = clock()
                stack.pop()
                if not err and size_of is not None:
                    size = size_of(args, result)
                spans.append((sid, parent, rid, name, t0, t1, size, err))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, size_of=None, request: bool = False):
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, size_of, request))
        self._undo.append((owner, attr, original))

    def install(self) -> "Tracer":
        from agristack import adc, analytics, client, gateway, httpd, pipeline, service, storelog

        original_simulate = pipeline.simulate

        def simulate(spec):
            step = self.wrap("envsim.simulate_next", original_simulate(spec).__next__)
            while True:
                try:
                    sample = step()
                except StopIteration:
                    return
                yield sample

        setattr(pipeline, "simulate", simulate)
        self._undo.append((pipeline, "simulate", original_simulate))

        self.patch(pipeline, "run_pipeline", "pipeline.run_pipeline")
        self.patch(adc, "convert_units", "adc.convert_units")
        self.patch(gateway.EdgeGateway, "acquire_cycle", "gateway.acquire_cycle")
        self.patch(gateway.Publisher, "publish", "gateway.publish",
                   size_of=lambda a, r: len(a[0].backlog))
        self.patch(pipeline, "moving_average", "analytics.moving_average",
                   size_of=lambda a, r: len(a[0]))
        self.patch(pipeline, "plan_duty_cycle", "analytics.plan_duty_cycle")
        self.patch(analytics.AlertEngine, "observe", "analytics.alert_observe")
        for cls in (client.HttpServiceClient, client.LocalServiceClient):
            self.patch(cls, "update", "client.update", size_of=lambda a, r: r, request=True)
            self.patch(cls, "read_feeds", "client.read_feeds", request=True)
            self.patch(cls, "read_field", "client.read_field", request=True)
        self.patch(httpd, "feeds_body", "httpd.feeds_body",
                   size_of=lambda a, r: [len(r.encode("utf-8")), len(a[0].entries)])
        self.patch(service.ChannelService, "__init__", "service.recover")
        self.patch(service.ChannelService, "update", "service.update",
                   size_of=lambda a, r: r)
        self.patch(service.ChannelService, "read_feeds", "service.read_feeds",
                   size_of=lambda a, r: len(r.entries))
        self.patch(storelog.RecordLog, "append", "storelog.append",
                   size_of=lambda a, r: len(a[1]) + 8)
        self.patch(storelog.RecordLog, "replay", "storelog.replay",
                   size_of=lambda a, r: len(r))
        original_os = storelog.os
        storelog.os = _OsProxy(self.wrap("storelog.fsync", os.fsync))
        self._undo.append((storelog, "os", original_os))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def records(self, origin: str) -> list[dict]:
        pid = os.getpid()
        return [{"name": name, "start": t0, "end": t1, "parent": parent, "rid": rid,
                 "sid": sid, "pid": pid, "origin": origin, "size": size, "err": err}
                for sid, parent, rid, name, t0, t1, size, err in self.spans]

    def dump(self, path, origin: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records(origin):
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# Analysis

ROUND = "count/round"
ROUND_MS = "ms/round"
PER_LAYER_UNITS = {
    "envsim.samples": ROUND, "envsim.busy_ms": ROUND_MS,
    "adc.conversions": ROUND, "adc.busy_ms": ROUND_MS,
    "gateway.acquire_calls": ROUND, "gateway.acquire_self_ms": ROUND_MS,
    "gateway.publish_calls": ROUND, "gateway.publish_self_ms": ROUND_MS,
    "gateway.send_attempts": ROUND, "gateway.ack_ratio": "ratio",
    "gateway.backlog_peak": "count",
    "analytics.forecast_calls": ROUND, "analytics.forecast_inputs": ROUND,
    "analytics.forecast_busy_ms": ROUND_MS, "analytics.plan_calls": ROUND,
    "analytics.plan_busy_ms": ROUND_MS, "analytics.alert_readings": ROUND,
    "analytics.alert_busy_ms": ROUND_MS,
    "pipeline.self_ms": ROUND_MS,
    "client.requests": ROUND, "client.errors": ROUND, "client.update_ms_p50": "ms",
    "client.read_feeds_ms_p50": "ms", "client.read_field_ms_p50": "ms",
    "httpd.wire_ms_p50": "ms", "httpd.wire_ms_tail": "ms", "httpd.feeds_body_calls": ROUND,
    "httpd.feeds_body_ms_p50": "ms", "httpd.body_bytes_per_entry": "bytes",
    "service.update_calls": ROUND, "service.update_ms_p50": "ms",
    "service.rate_limited": ROUND, "service.read_calls": ROUND, "service.read_ms_p50": "ms",
    "service.entries_returned": ROUND, "service.recovery_ms": "ms",
    "service.recovered_entries": "count",
    "storelog.appends": ROUND, "storelog.append_self_ms": ROUND_MS, "storelog.fsyncs": ROUND,
    "storelog.fsync_ms_p50": "ms", "storelog.log_bytes_per_entry": "bytes",
    "storelog.replay_ms": "ms", "storelog.replay_records": "count",
}


def _attach_server_spans(spans: list[dict]) -> None:
    """Give each top-level span of a server process the client request that
    contains it in time. Only one request is ever in flight, so containment
    is unique."""
    requests = sorted((s for s in spans if s["origin"] == "client"
                       and s["name"].startswith("client.")), key=lambda s: s["start"])
    starts = [s["start"] for s in requests]
    for s in spans:
        if s["origin"] != "server" or s["parent"] is not None:
            continue
        i = bisect.bisect_right(starts, s["start"]) - 1
        if i >= 0 and s["end"] <= requests[i]["end"]:
            s["parent_key"] = (requests[i]["pid"], requests[i]["sid"])
            s["rid"] = requests[i]["rid"]


def analyze(spans: list[dict], rounds: int) -> dict:
    """Per-layer metrics from a merged span list.

    Counts, busy times and self times are per round; `_p50` and `_tail`
    figures are over single spans. Self time is a span's duration minus the
    time covered by its child spans, including server spans under a client
    request.
    """
    _attach_server_spans(spans)
    by_key = {(s["pid"], s["sid"]): s for s in spans}
    for s in spans:
        s["kids"] = []
    for s in spans:
        parent = by_key.get(s.get("parent_key") or (s["pid"], s["parent"]))
        if parent is not None:
            parent["kids"].append(s)

    named: dict[str, list[dict]] = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def of(name):
        return named.get(name, [])

    def ms(s):
        return (s["end"] - s["start"]) / 1e6

    def self_ms(s):
        # a span's children run inside it one after another, so their
        # durations add up to the part of it they cover
        return ms(s) - sum(ms(k) for k in s["kids"])

    def per_round(x):
        return x / rounds if rounds else 0.0

    def busy(name):
        return per_round(sum(ms(s) for s in of(name)))

    def p50(values):
        return statistics.median(values) if values else 0.0

    def ok(name):
        return [s for s in of(name) if not s["err"]]

    client_spans = [s for s in spans if s["name"].startswith("client.")]
    attempts = [s for s in of("client.update")
                if by_key.get((s["pid"], s["parent"]), {}).get("name") == "gateway.publish"]
    acks = [s for s in attempts if not s["err"] and s["size"]]
    body = ok("httpd.feeds_body")
    body_entries = sum(s["size"][1] for s in body)
    appends = ok("storelog.append")
    recoveries = ok("service.recover")
    for s in recoveries:
        s["size"] = sum(k["size"] for k in s["kids"] if k["name"] == "storelog.replay"
                        and not k["err"])
    recovered = [s for s in recoveries if s["size"]] or recoveries
    replays = ok("storelog.replay")
    replayed = [s for s in replays if s["size"]] or replays
    wire = summarize([self_ms(s) for s in client_spans])

    m = {
        "envsim.samples": per_round(len(ok("envsim.simulate_next"))),
        "envsim.busy_ms": busy("envsim.simulate_next"),
        "adc.conversions": per_round(len(of("adc.convert_units"))),
        "adc.busy_ms": busy("adc.convert_units"),
        "gateway.acquire_calls": per_round(len(of("gateway.acquire_cycle"))),
        "gateway.acquire_self_ms": per_round(sum(self_ms(s) for s in of("gateway.acquire_cycle"))),
        "gateway.publish_calls": per_round(len(of("gateway.publish"))),
        "gateway.publish_self_ms": per_round(sum(self_ms(s) for s in of("gateway.publish"))),
        "gateway.send_attempts": per_round(len(attempts)),
        "gateway.ack_ratio": len(acks) / len(attempts) if attempts else 0.0,
        "gateway.backlog_peak": max((s["size"] for s in ok("gateway.publish")), default=0),
        "analytics.forecast_calls": per_round(len(of("analytics.moving_average"))),
        "analytics.forecast_inputs": per_round(sum(s["size"] for s in ok("analytics.moving_average"))),
        "analytics.forecast_busy_ms": busy("analytics.moving_average"),
        "analytics.plan_calls": per_round(len(of("analytics.plan_duty_cycle"))),
        "analytics.plan_busy_ms": busy("analytics.plan_duty_cycle"),
        "analytics.alert_readings": per_round(len(of("analytics.alert_observe"))),
        "analytics.alert_busy_ms": busy("analytics.alert_observe"),
        "pipeline.self_ms": per_round(sum(self_ms(s) for s in of("pipeline.run_pipeline"))),
        "client.requests": per_round(len(client_spans)),
        "client.errors": per_round(sum(1 for s in client_spans if s["err"])),
        "client.update_ms_p50": p50([ms(s) for s in ok("client.update")]),
        "client.read_feeds_ms_p50": p50([ms(s) for s in ok("client.read_feeds")]),
        "client.read_field_ms_p50": p50([ms(s) for s in ok("client.read_field")]),
        "httpd.wire_ms_p50": wire["p50"] or 0.0,
        "httpd.wire_ms_tail": wire["tail"] or 0.0,
        "httpd.feeds_body_calls": per_round(len(of("httpd.feeds_body"))),
        "httpd.feeds_body_ms_p50": p50([ms(s) for s in body]),
        "httpd.body_bytes_per_entry": (sum(s["size"][0] for s in body) / body_entries
                                       if body_entries else 0.0),
        "service.update_calls": per_round(len(of("service.update"))),
        "service.update_ms_p50": p50([ms(s) for s in ok("service.update")]),
        "service.rate_limited": per_round(sum(1 for s in ok("service.update") if s["size"] == 0)),
        "service.read_calls": per_round(len(of("service.read_feeds"))),
        "service.read_ms_p50": p50([ms(s) for s in ok("service.read_feeds")]),
        "service.entries_returned": per_round(sum(s["size"] for s in ok("service.read_feeds"))),
        "service.recovery_ms": p50([ms(s) for s in recovered]),
        "service.recovered_entries": p50([s["size"] for s in recovered]),
        "storelog.appends": per_round(len(appends)),
        "storelog.append_self_ms": per_round(sum(self_ms(s) for s in of("storelog.append"))),
        "storelog.fsyncs": per_round(len(of("storelog.fsync"))),
        "storelog.fsync_ms_p50": p50([ms(s) for s in ok("storelog.fsync")]),
        "storelog.log_bytes_per_entry": (sum(s["size"] for s in appends) / len(appends)
                                         if appends else 0.0),
        "storelog.replay_ms": p50([ms(s) for s in replayed]),
        "storelog.replay_records": p50([s["size"] for s in replayed]),
    }

    layer_self: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_ms(s)
    extra = {
        "layer_self_ms_per_round": {k: per_round(v) for k, v in sorted(layer_self.items())},
        "wire_update_ms_p50": p50([self_ms(s) for s in ok("client.update")]),
        "feeds_body_8000_ms_p50": p50([ms(s) for s in body if s["size"][1] == 8000]),
        "read_feeds_8000_ms_p50": p50([ms(s) for s in ok("service.read_feeds")
                                       if s["size"] == 8000]),
        "run_pipeline_ms_per_round": busy("pipeline.run_pipeline"),
        "wire_n": wire["n"],
        "wire_tail_pct": wire["tail_pct"],
    }
    return {"metrics": m, "extra": extra}

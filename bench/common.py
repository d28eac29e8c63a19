"""Shared pieces of the agristack benchmark.

Locating the program under test, seeded inputs, summary statistics, the
operator's read round and the output checks. Both the benchmark entry point
(`run.py`) and the process that holds the channel service (`host.py`)
import this module.
"""

from __future__ import annotations

import bisect
import math
import random
import resource
import statistics
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

WRITE_KEY = "BENCHWRITEKEY001"
CHANNEL_NAME = "field-station"
CHANNEL_ID = 1
TICK_S = 10
POLL_RESULTS = 8000     # what `agristack watch-alerts` and `agristack run` fetch
TABLE_RESULTS = 20      # `agristack table` default --results
PLOT_RESULTS = 60
PLOT_FIELD = 1
WINDOW_S = 3600
READ_PAUSE_S = 0.03     # between replay_local's read rounds, to sample more core states
FILL_EPOCH = datetime(2024, 12, 1, 0, 0, 0, tzinfo=timezone.utc)


def use_checkout_source() -> None:
    """Import agristack from this checkout's src/ and from nowhere else."""
    if not (SRC / "agristack" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def now_ms() -> float:
    return time.perf_counter_ns() / 1e6


def summarize(samples: list[float]) -> dict:
    """Median and tail of a list of timings.

    The tail is the highest percentile with at least ten samples beyond it,
    capped at p99: past p99 a run of tens of thousands of writes measures
    how many rare pauses (garbage collection, page-cache writeback, the
    scheduler) happened to land in it, which differs from run to run by more
    than any bound. Below 21 samples that percentile would sit under the
    median, so the tail falls back to the median. `tail_pct` says which
    percentile was used.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return {"p50": None, "tail": None, "tail_pct": None, "n": 0}
    p50 = statistics.median(xs)
    if n < 21:
        return {"p50": p50, "tail": p50, "tail_pct": 50.0, "n": n}
    k = min(n - 11, math.ceil(0.99 * n) - 1)
    return {"p50": p50, "tail": xs[k], "tail_pct": round(100.0 * (k + 1) / n, 2), "n": n}


# ---------------------------------------------------------------------------
# Seeded inputs


class FieldWalk:
    """Seeded 10 s readings as the gateway would format them.

    A bounded mean-reverting walk per analog sensor and a two-state rain
    line, wide enough that both default alert rules fire now and then. This
    is the benchmark's own generator, so filling a channel does not run the
    program's simulator.
    """

    RANGES = {1: (20.0, 40.0), 2: (1010.0, 1025.0), 3: (10.0, 50.0)}

    def __init__(self, seed: int, start: datetime = FILL_EPOCH):
        self.rng = random.Random(seed)
        self.at = start
        self.values = {k: (lo + hi) / 2 for k, (lo, hi) in self.RANGES.items()}
        self.rain = 0

    def next(self) -> tuple[str, dict[int, str]]:
        rng = self.rng
        fields: dict[int, str] = {}
        for k, (lo, hi) in self.RANGES.items():
            v = self.values[k]
            v += 0.05 * ((lo + hi) / 2 - v) + rng.uniform(-0.08, 0.08) * (hi - lo)
            v = min(hi, max(lo, v))
            self.values[k] = v
            fields[k] = f"{v:.2f}"
        if rng.random() > 0.9:
            self.rain = 1 - self.rain
        fields[4] = str(self.rain)
        created_at = self.at.strftime("%Y-%m-%dT%H:%M:%SZ")
        self.at += timedelta(seconds=TICK_S)
        return created_at, fields


def round_seeds(seed: int):
    """Endless stream of per-round seeds derived from the run seed."""
    rng = random.Random(f"agristack-bench-{seed}")
    while True:
        yield rng.randrange(1 << 31)


# ---------------------------------------------------------------------------
# Output checks


class Known:
    """The entries the benchmark knows to be in one channel, in id order.

    Each entry is (entry_id, created_at text, {field index: value text}).
    """

    def __init__(self, labels: dict[int, str]):
        self.labels = labels
        self.entries: list[tuple[int, str, dict[int, str]]] = []
        self.times: list[str] = []

    def add(self, entry_id: int, created_at: str, fields: dict[int, str]) -> None:
        self.entries.append((entry_id, created_at, dict(fields)))
        self.times.append(created_at)

    def channel_doc(self, only_field: int | None = None) -> dict:
        doc: dict = {"id": CHANNEL_ID, "name": CHANNEL_NAME}
        for k in sorted(self.labels):
            if only_field is None or k == only_field:
                doc[f"field{k}"] = self.labels[k]
        return doc

    def feed_doc(self, entries, only_field: int | None = None) -> dict:
        feeds = []
        for entry_id, created_at, fields in entries:
            item: dict = {"created_at": created_at, "entry_id": entry_id}
            for k in sorted(self.labels):
                if only_field is None or k == only_field:
                    item[f"field{k}"] = fields.get(k)
            feeds.append(item)
        return {"channel": self.channel_doc(only_field), "feeds": feeds}

    def last(self, n: int):
        return self.entries[max(0, len(self.entries) - min(n, POLL_RESULTS)):]

    def window(self, start: str, end: str):
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return self.entries[max(lo, hi - POLL_RESULTS):hi]


def verify_reopened(service, known: Known) -> int:
    """Count durability violations in a reopened ChannelService.

    Every acknowledged entry must be present with its id, its sent
    created_at and byte-identical field strings; ids must be gapless and
    nothing unacknowledged may appear. Reads go through the public
    `read_feeds`, paged by time window because one read returns at most
    8000 entries.
    """
    from agristack.service import format_timestamp, parse_timestamp

    bad = sum(1 for i, e in enumerate(known.entries, start=1) if e[0] != i)
    tail = service.read_feeds(CHANNEL_ID, results=1).entries
    stored = tail[-1].entry_id if tail else 0
    bad += abs(stored - len(known.entries))
    chunk = 4000
    for i in range(0, len(known.entries), chunk):
        want = known.entries[i:i + chunk]
        page = service.read_feeds(CHANNEL_ID, start=parse_timestamp(want[0][1]),
                                  end=parse_timestamp(want[-1][1])).entries
        got = [(e.entry_id, format_timestamp(e.created_at), dict(e.fields)) for e in page]
        if got == want:
            continue
        matched = sum(1 for g, w in zip(got, want) if g == w)
        bad += max(len(got), len(want)) - matched
    return bad


# ---------------------------------------------------------------------------
# The operator's reads


class Samples:
    """Timings and outcome counts gathered by one workload phase."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.ingest_per_s: list[float] = []
        self.write_ms: list[float] = []
        self.poll_ms: list[float] = []
        self.query_ms: list[float] = []
        self.recovery_s: list[float] = []
        self.peak_rss_mb: list[float] = []
        self.round_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def merge(self, other: dict) -> None:
        for name, value in other.items():
            current = getattr(self, name)
            if isinstance(current, list):
                current.extend(value)
            else:
                setattr(self, name, current + value)

    def as_dict(self) -> dict:
        return dict(vars(self))


def timed_read(samples: Samples, bucket: list[float], call, expected: dict) -> dict | None:
    """One closed-loop read: time it to the parsed JSON, then check it."""
    samples.attempted += 1
    t0 = now_ms()
    try:
        doc = call()
    except Exception as exc:  # any failure of the program counts, and the loop goes on
        print(f"read failed: {exc!r}", file=sys.stderr)
        samples.failed += 1
        return None
    bucket.append(now_ms() - t0)
    if doc != expected:
        print("read returned a body that differs from the written entries", file=sys.stderr)
        samples.failed += 1
    return doc


def read_round(client, known: Known, rng: random.Random, samples: Samples) -> dict | None:
    """The operator's reads on one channel: the watcher's poll, then the
    `table` query, the `plot` query and a seeded one-hour window.

    Returns the poll body so the caller can feed its new entries to the
    alert watcher.
    """
    from agristack.service import format_timestamp, parse_timestamp

    poll = timed_read(samples, samples.poll_ms,
                      lambda: client.read_feeds(CHANNEL_ID, results=POLL_RESULTS),
                      known.feed_doc(known.last(POLL_RESULTS)))
    timed_read(samples, samples.query_ms,
               lambda: client.read_feeds(CHANNEL_ID, results=TABLE_RESULTS),
               known.feed_doc(known.last(TABLE_RESULTS)))
    timed_read(samples, samples.query_ms,
               lambda: client.read_field(CHANNEL_ID, PLOT_FIELD, results=PLOT_RESULTS),
               known.feed_doc(known.last(PLOT_RESULTS), only_field=PLOT_FIELD))
    # a start with a full hour of entries after it, so every window holds
    # the same number of entries whatever the seed
    start = known.times[rng.randrange(max(1, len(known.times) - WINDOW_S // TICK_S))]
    end = format_timestamp(parse_timestamp(start) + timedelta(seconds=WINDOW_S))
    timed_read(samples, samples.query_ms,
               lambda: client.read_feeds(CHANNEL_ID, start=start, end=end),
               known.feed_doc(known.window(start, end)))
    return poll


def replay_round(client, ticks: int, seed: int, duty_cycle: bool,
                 labels: dict[int, str], reads: int,
                 read_pause_s: float = 0.0) -> tuple[Samples, Known]:
    """One gateway run into a fresh channel, then `reads` rounds of the reads
    `agristack run` and an operator make on it, `read_pause_s` apart.

    The gateway runs a seeded stochastic scenario at the 10 s tick through
    `run_pipeline`. Each write is timed from the client `update` call to the
    parsed ack by wrapping the client object the pipeline is handed.
    """
    from agristack import pipeline
    from agristack.envsim import ScenarioSpec
    from agristack.service import format_timestamp

    samples = Samples()
    known = Known(labels)
    update = client.update

    def timed_update(values, created_at=None):
        samples.attempted += 1
        t0 = now_ms()
        try:
            entry_id = update(values, created_at)
        except Exception:
            samples.failed += 1
            raise
        samples.write_ms.append(now_ms() - t0)
        known.add(entry_id, format_timestamp(created_at), values)
        return entry_id

    client.update = timed_update
    spec = ScenarioSpec(mode="stochastic", seed=seed, duration_s=ticks * TICK_S,
                        tick_s=TICK_S)
    t0 = time.perf_counter()
    report = pipeline.run_pipeline(spec, client, duty_cycle=duty_cycle)
    run_s = time.perf_counter() - t0
    del client.update
    samples.round_ms.append(run_s * 1e3)
    samples.ingest_per_s.append(report.acknowledged / run_s)
    if report.acknowledged != ticks or report.queued or report.drops:
        print(f"replay acknowledged {report.acknowledged} of {ticks} readings",
              file=sys.stderr)
        samples.failed += ticks - report.acknowledged
    rng = random.Random(seed)
    for _ in range(reads):
        time.sleep(read_pause_s)
        read_round(client, known, rng, samples)
    samples.rounds = 1
    return samples, known

"""agristack benchmark: closed-loop workloads over the gateway -> HTTP ->
channel service -> feed-read path, with per-layer tracing from outside.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):
  replay_http     gateway runs into a server process over HTTP, fsync on
  replay_local    one simulated day with duty cycling, in-process service
  dashboard_read  operator reads and writes on a one-week channel

With --trace 0 the last line of standard output is a JSON object holding
every end-to-end metric; with --trace 1 the run spends half its time
untraced and half traced, and the object holds the per-layer metrics.
Human-readable figures, the machine record and the tracing overhead are
printed above it. Everything the run writes stays under .bench_run/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
from common import Known, Samples, WORK
from spans import PER_LAYER_UNITS, Tracer, analyze, load

HOST = Path(__file__).resolve().parent / "host.py"
WORKLOADS = ("replay_http", "replay_local", "dashboard_read")
SIZES = {
    # ticks: one replay round (replay_http ten simulated minutes, replay_local
    # one simulated day); reads: operator read rounds after each replay;
    # reopens: timed pairs of reopens of each replay's data dir; fill: the
    # dashboard_read channel, one week of 10 s readings; starts: server
    # starts during its set-up; probes: server starts on a copy of the
    # filled dir after its loop. Reads, reopens and starts repeat where one
    # sample per round is too short to be steady on a shared machine.
    # polls: the fewest 8000-entry polls a --trace 0 replay run ends with,
    # so that poll_ms_p50 rests on dozens of samples; on replay_local that
    # is four rounds.
    "full": {"replay_http": {"ticks": 60, "reads": 4, "reopens": 8, "polls": 24},
             "replay_local": {"ticks": 8640, "reads": 16, "reopens": 4, "polls": 64},
             "dashboard_read": {"fill": 60480, "starts": 4, "probes": 4}},
    "tiny": {"replay_http": {"ticks": 6, "reads": 1, "reopens": 1, "polls": 0},
             "replay_local": {"ticks": 30, "reads": 2, "reopens": 1, "polls": 0},
             "dashboard_read": {"fill": 400, "starts": 2, "probes": 1}},
}
REOPEN_PAUSE_S = 0.05
UNITS = {"setup_s": "s", "ingest_per_s": "readings/s", "write_ms_p50": "ms",
         "poll_ms_p50": "ms", "query_ms_p50": "ms", "recovery_s": "s",
         "peak_rss_mb": "MB"}


class Host:
    """A running bench/host.py process; always ended by `finish` or `kill`."""

    def __init__(self, mode: str, data_dir: Path, trace_out: Path | None = None,
                 extra: tuple = ()):
        cmd = [sys.executable, str(HOST), mode, "--data-dir", str(data_dir), *extra]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=common.ROOT)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not line:
            self.kill()
            raise RuntimeError(f"host {mode} exited before it was ready")
        self.ready = json.loads(line)

    def finish(self) -> dict:
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        code = self.proc.wait(timeout=120)
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"host exited with code {code}")
        return json.loads(line) if line.strip() else {}

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


class Run:
    """State of one benchmark invocation: directories, seeds, trace files."""

    def __init__(self, args):
        self.args = args
        self.size = SIZES[args.size][args.workload]
        self.seeds = common.round_seeds(args.seed)
        self.dir = WORK / f"run-{os.getpid()}"
        self.trace_dir = WORK / "traces"
        self.count = 0
        self.trace_files: list[Path] = []
        self.hosts: list[Host] = []
        self.tracer: Tracer | None = None
        from agristack.cli import DEFAULT_FIELD_LABELS
        self.labels = {i + 1: label for i, label in enumerate(DEFAULT_FIELD_LABELS)}

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def new_dir(self) -> Path:
        self.count += 1
        path = self.dir / f"d{self.count}"
        path.mkdir(parents=True)
        return path

    def host(self, mode: str, data_dir: Path, traced: bool, extra: tuple = ()) -> Host:
        trace_out = None
        if traced:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            trace_out = self.trace_dir / f"host-{os.getpid()}-{self.count}-{len(self.hosts)}.jsonl"
            self.trace_files.append(trace_out)
        host = Host(mode, data_dir, trace_out, extra)
        self.hosts.append(host)
        return host

    def close(self) -> None:
        for host in self.hosts:
            host.kill()
        shutil.rmtree(self.dir, ignore_errors=True)


def reopen_and_verify(run: "Run", data_dir: Path, known: Known, samples: Samples) -> None:
    """Restart check: reopen the stopped server's data dir and compare.

    The reopens are timed (and traced, in a traced phase) in pairs, with a
    pause before each pair: on a shared machine the speed of the core
    changes every 50 to 300 ms and holds for a back-to-back burst, so pairs
    apart sample more of those states than one burst does. The reads that
    compare entries are the benchmark's own and are not traced.
    """
    from agristack.service import ChannelService

    for _ in range(run.size["reopens"]):
        time.sleep(REOPEN_PAUSE_S)
        for _ in range(2):
            t0 = time.perf_counter()
            service = ChannelService(data_dir=data_dir)
            samples.recovery_s.append(time.perf_counter() - t0)
            service.close()
    service = ChannelService(data_dir=data_dir)
    try:
        with run.untraced():
            bad = common.verify_reopened(service, known)
    finally:
        service.close()
    if bad:
        print(f"{bad} acknowledged entries missing or altered after restart",
              file=sys.stderr)
        samples.failed += bad


# ---------------------------------------------------------------------------
# Workloads. Each runs closed-loop rounds from one client within its time.


class Budget:
    """Whether another round fits in a phase's measuring time.

    A round starts only if one as long as the last would still end in time,
    so a phase runs at least one round and at most about `seconds`.
    """

    def __init__(self, seconds: float):
        self.t = time.perf_counter()
        self.end = self.t + seconds

    def another(self) -> bool:
        now = time.perf_counter()
        last, self.t = now - self.t, now
        return now + last <= self.end


def replay_again(run: Run, samples: Samples, budget: Budget) -> bool:
    """Whether a replay runs another round: while time is left, and in a run
    that reports end-to-end metrics until it has its polls."""
    more_time = budget.another()
    return more_time or (not run.args.trace and len(samples.poll_ms) < run.size["polls"])


def replay_http(run: Run, samples: Samples, traced: bool, seconds: float) -> None:
    from agristack.client import HttpServiceClient

    budget = Budget(seconds)
    while True:
        data_dir = run.new_dir()
        host = run.host("serve", data_dir, traced)
        samples.setup_s.append(host.setup_s)
        client = HttpServiceClient(host.ready["endpoint"], write_key=common.WRITE_KEY)
        round_samples, known = common.replay_round(
            client, run.size["ticks"], next(run.seeds), duty_cycle=False,
            labels=run.labels, reads=run.size["reads"])
        samples.merge(round_samples.as_dict())
        samples.peak_rss_mb.append(host.finish()["peak_rss_mb"])
        reopen_and_verify(run, data_dir, known, samples)
        if not replay_again(run, samples, budget):
            return


def replay_local(run: Run, samples: Samples, traced: bool, seconds: float) -> None:
    budget = Budget(seconds)
    while True:
        data_dir = run.new_dir()
        result = data_dir.with_suffix(".json")
        host = run.host("edge", data_dir, traced, extra=(
            "--seed", str(next(run.seeds)), "--ticks", str(run.size["ticks"]),
            "--reads", str(run.size["reads"]), "--result-out", str(result)))
        samples.setup_s.append(host.setup_s)
        host.finish()
        with open(result, encoding="utf-8") as fh:
            out = json.load(fh)
        samples.merge(out["samples"])
        known = Known(run.labels)
        for entry_id, created_at, fields in out["entries"]:
            known.add(entry_id, created_at, {int(k): v for k, v in fields.items()})
        reopen_and_verify(run, data_dir, known, samples)
        if not replay_again(run, samples, budget):
            return


class Dashboard:
    """dashboard_read: one week of readings, then the operator's loop.

    Set-up fills the channel through ChannelService.update (fsync off, as a
    bulk load), then starts the server process on that data dir several
    times; setup_s is the fill plus the median start, recovery included.
    The last server started runs the operator loop, and only its peak RSS is
    reported: the others exit without serving a request. After an
    untraced loop, servers start on a copy of the filled dir for more
    recovery samples, taken half a minute after the first ones. They do not
    start between loop rounds: a keep-alive connection that has idled
    answers its next write without the delayed-ACK stall, so the loop's
    write times would depend on how often it was interrupted.
    """

    def __init__(self, run: Run):
        from agristack import analytics
        from agristack.service import ChannelService, parse_timestamp

        self.run = run
        self.known = Known(run.labels)
        self.walk = common.FieldWalk(run.args.seed)
        self.rng = random.Random(run.args.seed)
        self.engine = analytics.AlertEngine(analytics.default_rules())
        self.events: list = []
        self.observed: list[int] = []
        self.last_seen = 0
        self.host: Host | None = None
        self.setup = Samples()

        t0 = time.perf_counter()
        self.data_dir = run.new_dir()
        service = ChannelService(data_dir=self.data_dir, fsync=False)
        labels = [run.labels[k] for k in sorted(run.labels)]
        service.create_channel(common.CHANNEL_NAME, labels, write_key=common.WRITE_KEY,
                               rate_limit_s=0.0)
        for _ in range(run.size["fill"]):
            created_at, fields = self.walk.next()
            entry_id = service.update(common.WRITE_KEY, fields, parse_timestamp(created_at))
            self.known.add(entry_id, created_at, fields)
        service.close()
        fill_s = time.perf_counter() - t0
        self.probe_dir = run.new_dir()
        shutil.copytree(self.data_dir, self.probe_dir, dirs_exist_ok=True)

        starts = []
        for k in range(run.size["starts"]):
            host = run.host("serve", self.data_dir, traced=False)
            starts.append(host.setup_s)
            self.setup.recovery_s.append(host.ready["recovery_s"])
            if k + 1 < run.size["starts"]:
                host.finish()
            else:
                self.host = host
        self.setup.setup_s.append(fill_s + statistics.median(starts))

    def phase(self, samples: Samples, traced: bool, seconds: float) -> None:
        from agristack.client import HttpServiceClient
        from agristack.service import parse_timestamp

        if self.host is None:
            self.host = self.run.host("serve", self.data_dir, traced)
        if not traced:
            samples.merge(self.setup.as_dict())
        client = HttpServiceClient(self.host.ready["endpoint"], write_key=common.WRITE_KEY)
        budget = Budget(seconds)
        while True:
            t_round = common.now_ms()
            created_at, fields = self.walk.next()
            at = parse_timestamp(created_at)
            samples.attempted += 1
            t0 = common.now_ms()
            try:
                entry_id = client.update(fields, at)
            except Exception as exc:  # a failed write counts, and the loop goes on
                print(f"write failed: {exc!r}", file=sys.stderr)
                samples.failed += 1
                entry_id = None
            else:
                samples.write_ms.append(common.now_ms() - t0)
            if entry_id is not None:
                if entry_id != len(self.known.entries) + 1:
                    print(f"write acknowledged as entry {entry_id}", file=sys.stderr)
                    samples.failed += 1
                self.known.add(entry_id, created_at, fields)
            poll = common.read_round(client, self.known, self.rng, samples)
            if poll is not None:
                self.watch(poll["feeds"])
            samples.round_ms.append(common.now_ms() - t_round)
            samples.rounds += 1
            if not budget.another():
                break
        self.stop(samples)
        for _ in range(0 if traced else self.run.size["probes"]):
            probe = self.run.host("serve", self.probe_dir, traced=False)
            samples.recovery_s.append(probe.ready["recovery_s"])
            probe.finish()

    def watch(self, feeds: list[dict]) -> None:
        """What `agristack watch-alerts` does with each poll."""
        for entry in feeds:
            if entry["entry_id"] <= self.last_seen:
                continue
            self.last_seen = entry["entry_id"]
            self.observed.append(entry["entry_id"])
            fields = {k: entry.get(f"field{k}") for k in self.run.labels}
            self.events.extend(self.engine.observe(reading_of(entry["created_at"], fields)))

    def check_alerts(self, samples: Samples) -> None:
        from agristack import analytics

        samples.attempted += 1
        entries = self.known.entries
        readings = [reading_of(entries[i - 1][1], entries[i - 1][2]) for i in self.observed]
        if self.events != analytics.evaluate_alerts(readings, analytics.default_rules()):
            print("watcher alert events differ from evaluate_alerts", file=sys.stderr)
            samples.failed += 1

    def stop(self, samples: Samples) -> None:
        if self.host is not None:
            samples.peak_rss_mb.append(self.host.finish()["peak_rss_mb"])
            self.host = None


def reading_of(created_at: str, fields: dict):
    from agristack.gateway import FIELD_MAP, Reading
    from agristack.service import parse_timestamp

    def value(name):
        text = fields.get(FIELD_MAP[name])
        return None if text is None else float(text)

    rain = fields.get(FIELD_MAP["rain"])
    return Reading(timestamp=parse_timestamp(created_at),
                   temperature=value("temperature"), pressure=value("pressure"),
                   moisture=value("moisture"),
                   rain=None if rain is None else int(float(rain)))


# ---------------------------------------------------------------------------
# Reporting


def end_to_end(samples: Samples) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, the sample counts behind each, and the tails.

    The tails are printed and kept in the result file but are not metrics
    of BENCHMARK.json: they measure how often a neighbour slowed the core,
    and spread past any bound from run to run on a shared machine.
    """
    def median(xs):
        return statistics.median(xs) if xs else None

    values = {"setup_s": median(samples.setup_s),
              "ingest_per_s": median(samples.ingest_per_s),
              "recovery_s": median(samples.recovery_s),
              "peak_rss_mb": median(samples.peak_rss_mb)}
    detail = {name: {"n": len(getattr(samples, name))} for name in values}
    if not samples.ingest_per_s and samples.write_ms:
        # dashboard_read: the rate of the write path at its median write,
        # not the loop's rate, which the reads set
        values["ingest_per_s"] = 1e3 / median(samples.write_ms)
        detail["ingest_per_s"] = {"n": len(samples.write_ms)}
    tails = {}
    for name in ("write_ms", "poll_ms", "query_ms"):
        stats = common.summarize(getattr(samples, name))
        values[f"{name}_p50"] = stats["p50"]
        detail[f"{name}_p50"] = {"n": stats["n"]}
        tails[f"{name}_tail"] = {"value": stats["tail"], "n": stats["n"],
                                 "percentile": stats["tail_pct"]}
    return {name: values[name] for name in UNITS}, detail, tails


def checkout_commit() -> str:
    """The commit of the checkout, read from .git without running git."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(args) -> dict:
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "machine": platform.machine(), "system": platform.system(),
            "nproc": os.cpu_count(), "commit": checkout_commit(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size}


def run_workload(run: Run, samples: Samples, traced: bool, seconds: float,
                 dashboard: Dashboard | None) -> None:
    if run.args.workload == "replay_http":
        replay_http(run, samples, traced, seconds)
    elif run.args.workload == "replay_local":
        replay_local(run, samples, traced, seconds)
    else:
        dashboard.phase(samples, traced, seconds)


def traced_phase(run: Run, samples: Samples, dashboard: Dashboard | None) -> dict:
    """The traced half of a --trace 1 run: spans from every process, merged
    into one file and reduced to per-layer metrics."""
    tracer = run.tracer = Tracer().install()
    try:
        run_workload(run, samples, True, run.args.seconds / 2, dashboard)
    finally:
        run.tracer = None
        tracer.uninstall()
    spans = tracer.records("client")
    for path in run.trace_files:
        spans += load(path)
        path.unlink()
    with open(run.trace_dir / f"{run.args.workload}.spans.jsonl", "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s, separators=(",", ":")) + "\n")
    return analyze(spans, samples.rounds)


def print_trace(plain: Samples, traced: Samples, per_layer: dict) -> dict:
    """Print self time per layer, the tracing overhead and the two shares
    that show the known bottlenecks; return the overhead."""
    untraced_ms = statistics.median(plain.round_ms)
    traced_ms = statistics.median(traced.round_ms)
    overhead = {"untraced_round_ms": untraced_ms, "traced_round_ms": traced_ms,
                "pct": (traced_ms / untraced_ms - 1.0) * 100.0}
    print(f"tracing overhead: median round {traced_ms:.1f} ms traced against "
          f"{untraced_ms:.1f} ms untraced ({overhead['pct']:+.1f}%)")
    m, extra = per_layer["metrics"], per_layer["extra"]
    for layer, ms in extra["layer_self_ms_per_round"].items():
        print(f"  self time {layer:<10} {ms:12.3f} ms/round")
    if m["client.update_ms_p50"]:
        print(f"  wire share of traced write p50: {extra['wire_update_ms_p50']:.3f} of "
              f"{m['client.update_ms_p50']:.3f} ms")
    if extra["run_pipeline_ms_per_round"]:
        print(f"  forecast share of run_pipeline: {m['analytics.forecast_busy_ms']:.1f} of "
              f"{extra['run_pipeline_ms_per_round']:.1f} ms/round")
    return overhead


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="input size; 'tiny' is for the benchmark's own test")
    args = parser.parse_args()
    common.use_checkout_source()

    record = machine_record(args)
    print("machine " + json.dumps(record))
    run = Run(args)
    plain, traced = Samples(), Samples()
    per_layer = None
    try:
        dashboard = Dashboard(run) if args.workload == "dashboard_read" else None
        seconds = args.seconds / 2 if args.trace else args.seconds
        run_workload(run, plain, False, seconds, dashboard)
        if args.trace:
            per_layer = traced_phase(run, traced, dashboard)
        if dashboard is not None:
            dashboard.check_alerts(plain)
    finally:
        run.close()

    metrics, detail, tails = end_to_end(plain)
    attempted = plain.attempted + traced.attempted
    failed = min(attempted, plain.failed + traced.failed)
    for name, value in metrics.items():
        extra = " ".join(f"{k}={v}" for k, v in detail[name].items())
        print(f"{name:>14} {value:12.4f} {UNITS[name]:<10} {extra}")
    for name, tail in tails.items():
        print(f"{name:>14} {tail['value'] or 0.0:12.4f} {'ms':<10} n={tail['n']} "
              f"percentile={tail['percentile']} (not a BENCHMARK.json metric)")
    print(f"{'failed_frac':>14} {failed / attempted:12.4f} ratio"
          f"      failed={failed} attempted={attempted}")
    result = {"machine": record, "end_to_end": metrics, "detail": detail, "tails": tails,
              "failed": failed, "attempted": attempted,
              "benchmark_peak_rss_mb": common.peak_rss_mb(),
              "per_round": {name: getattr(plain, name) for name in
                            ("setup_s", "ingest_per_s", "round_ms", "recovery_s", "peak_rss_mb")}}
    if per_layer is None:
        out = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    else:
        result.update({"per_layer": per_layer["metrics"], "trace_extra": per_layer["extra"],
                       "tracing_overhead": print_trace(plain, traced, per_layer)})
        out = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
               for name, value in per_layer["metrics"].items()}

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Terminal client for the stack: run the pipeline, serve channels, render
historical tables, export/plot series with a forecast overlay, and watch a
channel for threshold alerts.

Exit codes: 0 success, 1 usage, 2 network error, 3 data error.
"""

from __future__ import annotations

import sys
import time
from itertools import count

import click

from . import analytics, httpd, pipeline, sensors
from .client import (HttpServiceClient, LocalServiceClient, RateLimited,
                     ServiceUnavailable)
from .envsim import ScenarioError, resolve_scenario
from .gateway import fields_to_reading
from .service import (AuthError, BadRequestError, ChannelService,
                      CorruptStateError, UnknownChannelError, format_timestamp,
                      parse_timestamp)
from .storelog import CorruptLogError

DEFAULT_ENDPOINT = "http://127.0.0.1:8266"
DEFAULT_WRITE_KEY = "FIELDSTATIONKEY1"  # dev convenience; override in real use
DEFAULT_FIELD_LABELS = [s.label for s in sensors.SENSORS]

# `table` shows the sensors in this order, after the time column
TABLE_COLUMNS = tuple(sensors.BY_NAME[n] for n in ("temperature", "moisture", "pressure", "rain"))

SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


# Flags shared by the group and the commands: name -> (default, metavar, help)
SHARED_FLAGS = {
    "endpoint": (None, "URL", "Channel service base URL (default: self-contained "
                              f"for 'run', {DEFAULT_ENDPOINT} otherwise)."),
    "channel": (1, None, "Channel id."),
    "results": (20, None, "Number of feed entries to fetch."),
    "scenario": ("paper_hour", None, "Bundled scenario name or scenario file path."),
    "speed": ("max", None, "Time acceleration factor, or 'max' for no pacing."),
    "rules": (None, "PATH", "Alert rules file (default: built-in rules)."),
}


def _group_value(ctx, param, value):
    return ctx.obj[param.name] if value is None else value


def _shared_flags(*names: str, group: bool = False):
    """Declare the named shared flags. On a command they default to the
    group's value, so a flag after the command name wins over one before it."""
    def decorate(f):
        for name in reversed(names):
            default, metavar, help_text = SHARED_FLAGS[name]
            f = click.option(f"--{name}", default=default if group else None,
                             type=str if default is None else type(default),
                             metavar=metavar, help=help_text,
                             callback=None if group else _group_value)(f)
        return f
    return decorate


@click.group()
@_shared_flags(*SHARED_FLAGS, group=True)
@click.pass_context
def cli(ctx, **flags):
    """Desk-scale smart-agriculture telemetry stack."""
    ctx.obj = flags


def _parse_speed(speed: str) -> float | str:
    if speed == "max":
        return "max"
    try:
        value = float(speed)
    except ValueError:
        raise click.UsageError(f"--speed must be a number or 'max', got {speed!r}")
    if value <= 0:
        raise click.UsageError("--speed must be positive")
    return value


# ---------------------------------------------------------------------------
# serve


@cli.command()
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--port", default=8266, show_default=True)
@click.option("--data-dir", default="./channel_data", show_default=True,
              help="Persistence directory (append-only logs + registry).")
@click.option("--rate-limit", default=15.0, show_default=True,
              help="Minimum seconds between accepted writes per channel.")
@click.option("--write-key", default=DEFAULT_WRITE_KEY, show_default=True)
@click.option("--read-key", default=None)
@click.option("--name", default="field-station", show_default=True)
def serve(host, port, data_dir, rate_limit, write_key, read_key, name):
    """Start the channel service and block until interrupted."""
    service = ChannelService(data_dir=data_dir)
    if not service.channels():
        service.create_channel(name, DEFAULT_FIELD_LABELS, write_key=write_key,
                               read_key=read_key, rate_limit_s=rate_limit)
    server = httpd.ChannelHttpServer(service, host=host, port=port)
    for ch in service.channels():
        click.echo(f"channel {ch.id} '{ch.name}' write_key={ch.write_key} "
                   f"rate_limit={ch.rate_limit_s:g}s")
    click.echo(f"serving {server.endpoint} (data in {data_dir})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        service.close()


# ---------------------------------------------------------------------------
# run


def _summarize_feeds(feeds: list[dict]) -> list[str]:
    lines = []
    for s in sensors.SENSORS:
        texts = [e[f"field{s.field}"] for e in feeds if e.get(f"field{s.field}") is not None]
        if not s.analog:
            lines.append(f"{s.name}: n={len(texts)} wet={texts.count('1')}")
            continue
        if not texts:
            lines.append(f"{s.name}: no data")
            continue
        values = [float(t) for t in texts]
        mean = sum(values) / len(values)
        lines.append(f"{s.name}: n={len(values)} min={min(values):.2f} "
                     f"max={max(values):.2f} mean={mean:.3f}")
    return lines


@cli.command()
@_shared_flags("endpoint", "channel", "scenario", "speed")
@click.option("--write-key", default=DEFAULT_WRITE_KEY, show_default=True)
@click.option("--data-dir", default=None,
              help="Persistence dir for the self-contained service "
                   "(default: run fully in memory).")
@click.option("--duty-cycle/--no-duty-cycle", default=False, show_default=True,
              help="Re-plan the rain sensor's power from the pressure forecast.")
@click.option("--epoch", default=None, metavar="YYYY-MM-DDTHH:MM:SSZ",
              help="Timestamp of the first sample (default 2024-12-15T10:00:00Z).")
def run(endpoint, channel, scenario, speed, write_key, data_dir, duty_cycle, epoch):
    """Replay a scenario through the gateway into the channel service.

    With --endpoint, publishes to a running service; otherwise a
    self-contained service (rate limit 0) is created for the run.
    """
    spec = resolve_scenario(scenario)
    speed = _parse_speed(speed)
    epoch_dt = parse_timestamp(epoch) if epoch else pipeline.DEFAULT_EPOCH

    if endpoint is not None:
        client = HttpServiceClient(endpoint, write_key=write_key)
        service = None
    else:
        service = ChannelService(data_dir=data_dir, fsync=False)
        if not service.channels():
            service.create_channel("field-station", DEFAULT_FIELD_LABELS,
                                   write_key=write_key, rate_limit_s=0.0)
        client = LocalServiceClient(service, write_key=write_key)

    report = pipeline.run_pipeline(spec, client, epoch=epoch_dt,
                                   duty_cycle=duty_cycle, speed=speed)

    click.echo(f"scenario {scenario}: {report.cycles} cycles, "
               f"{report.acknowledged} acknowledged, {report.queued} queued, "
               f"{report.drops} dropped, {report.skipped} skipped")
    try:
        feeds = client.read_feeds(channel, results=8000)["feeds"]
    except (UnknownChannelError, ServiceUnavailable):
        feeds = []
    if feeds:
        for line in _summarize_feeds(feeds):
            click.echo(line)
    energy = " ".join(f"{name}={mj:.0f}mJ" for name, mj in report.energy_mj.items())
    click.echo(f"energy: {energy} (total {sum(report.energy_mj.values()):.0f}mJ)")
    if service is not None:
        service.close()


# ---------------------------------------------------------------------------
# table


@cli.command()
@_shared_flags("endpoint", "channel", "results")
def table(endpoint, channel, results):
    """Render the channel's recent history as a fixed-width table."""
    client = HttpServiceClient(endpoint or DEFAULT_ENDPOINT)
    doc = client.read_feeds(channel, results=results)
    rows = []
    for entry in doc["feeds"]:
        row = [entry["created_at"]]
        for s in TABLE_COLUMNS:
            value = entry.get(f"field{s.field}")
            row.append("--" if value is None else value)
        rows.append(row)

    headers = ["Time", *(s.label for s in TABLE_COLUMNS)]
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
              else len(headers[i]) for i in range(len(headers))]
    click.echo("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        click.echo("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


# ---------------------------------------------------------------------------
# plot


def sparkline(values: list[float]) -> str:
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return SPARK_BLOCKS[3] * len(values)
    span = hi - lo
    return "".join(SPARK_BLOCKS[min(7, int((v - lo) / span * 8))] for v in values)


def _fmt_forecast(value: float) -> str:
    text = f"{value:.4f}".rstrip("0").rstrip(".")
    return text if text else "0"


@cli.command()
@_shared_flags("endpoint", "channel", "results")
@click.option("--field", "field_index", type=click.IntRange(1, 8), default=1,
              show_default=True, help="Channel field to export.")
@click.option("--with-forecast", is_flag=True,
              help="Add a trailing moving-average forecast column.")
@click.option("--window", default=3, show_default=True,
              type=click.IntRange(1, 10_000), help="Forecast window (samples).")
@click.option("--out", default=None, metavar="PATH",
              help="Write the CSV export here instead of stdout.")
def plot(endpoint, channel, results, field_index, with_forecast, window, out):
    """Export one field as CSV (t,value[,forecast]) plus a terminal sparkline.

    The CSV goes to stdout (or --out); the sparkline goes to stderr so the
    export stays machine-readable.
    """
    client = HttpServiceClient(endpoint or DEFAULT_ENDPOINT)
    doc = client.read_field(channel, field_index, results=results)
    feeds = doc["feeds"]
    key = f"field{field_index}"

    header = "t,value,forecast" if with_forecast else "t,value"
    lines = [header]
    numeric: list[float] = []
    forecast_cells: dict[int, str] = {}
    if with_forecast:
        present = [(i, float(e[key])) for i, e in enumerate(feeds)
                   if e.get(key) is not None]
        series = [v for _, v in present]
        fc = analytics.moving_average(series, analytics.ForecastConfig(window=window))
        for j, mean in enumerate(fc.smoothed):
            row_index = present[fc.window - 1 + j][0]
            forecast_cells[row_index] = _fmt_forecast(mean)

    for i, entry in enumerate(feeds):
        value = entry.get(key)
        cell = "" if value is None else value
        if value is not None:
            numeric.append(float(value))
        if with_forecast:
            lines.append(f"{entry['created_at']},{cell},{forecast_cells.get(i, '')}")
        else:
            lines.append(f"{entry['created_at']},{cell}")

    text = "\n".join(lines) + "\n"
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)

    if numeric:
        label = doc["channel"].get(key, key)
        click.echo(f"{key} ({label})  min={min(numeric):g} max={max(numeric):g}",
                   err=True)
        click.echo(sparkline(numeric), err=True)


# ---------------------------------------------------------------------------
# watch-alerts


def _entry_to_reading(entry: dict):
    fields = {s.field: entry.get(f"field{s.field}") for s in sensors.SENSORS}
    return fields_to_reading(parse_timestamp(entry["created_at"]), fields)


@cli.command("watch-alerts")
@_shared_flags("endpoint", "channel", "rules")
@click.option("--poll", default=2.0, show_default=True,
              help="Seconds between feed polls.")
@click.option("--max-polls", default=None, type=int,
              help="Stop after this many polls (default: run forever).")
def watch_alerts(endpoint, channel, rules, poll, max_polls):
    """Poll the channel and print one line per triggered alert.

    Existing history is replayed through the rules on the first poll, then
    only new entries are evaluated; each sustained violation episode prints
    exactly once. Output lines: `ISO-time  RULE-ID  message`. Entries that
    drop out of the 8000-entry poll before it sees them are named on stderr
    as `warning: entries A..B not evaluated`.
    """
    engine = analytics.AlertEngine(analytics.default_rules() if rules is None
                                   else analytics.load_rules(rules))
    client = HttpServiceClient(endpoint or DEFAULT_ENDPOINT)
    last_seen = 0
    outage_warned = False
    backoff = max(poll, 0.5)

    for poll_index in count():
        try:
            doc = client.read_feeds(channel, results=8000)
        except ServiceUnavailable as exc:
            if max_polls is not None:
                raise
            if not outage_warned:
                click.echo(f"warning: service unreachable ({exc}); retrying",
                           err=True)
                outage_warned = True
            time.sleep(backoff)
            backoff = min(backoff * 2, 30.0)
            continue
        outage_warned = False
        backoff = max(poll, 0.5)

        for entry in doc["feeds"]:
            if entry["entry_id"] <= last_seen:
                continue
            if entry["entry_id"] > last_seen + 1:  # fell out of the polled window
                click.echo(f"warning: entries {last_seen + 1}..{entry['entry_id'] - 1}"
                           f" not evaluated", err=True)
            last_seen = entry["entry_id"]
            for event in engine.observe(_entry_to_reading(entry)):
                click.echo(f"{format_timestamp(event.triggered)}  "
                           f"{event.rule_id}  {event.message}")

        if max_polls is not None and poll_index + 1 >= max_polls:
            break
        time.sleep(poll)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.Abort:
        return 130
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except ServiceUnavailable as exc:
        click.echo(f"network error: {exc}", err=True)
        return 2
    except (ScenarioError, analytics.RulesError, UnknownChannelError,
            BadRequestError, AuthError, RateLimited, CorruptLogError,
            CorruptStateError, FileNotFoundError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return 3
    except OSError as exc:  # e.g. serve port already in use
        click.echo(f"network error: {exc}", err=True)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

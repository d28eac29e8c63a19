"""The process that holds the ChannelService during one benchmark round.

  python3 bench/host.py serve --data-dir DIR [--trace-out FILE]
      Builds what `agristack serve` builds (ChannelService on DIR with
      fsync on, one channel with rate limit 0, ChannelHttpServer), prints a
      JSON line {"endpoint", "recovery_s"} when it accepts requests, serves
      until its standard input closes, then prints {"peak_rss_mb"}.

  python3 bench/host.py edge --data-dir DIR --seed N --ticks N --reads N
                             --result-out FILE [--trace-out FILE]
      Builds what `agristack run --data-dir DIR` builds (ChannelService
      with fsync off, LocalServiceClient), prints a JSON line when ready,
      runs one replay round with duty cycling on, and writes its samples and
      acknowledged entries to FILE.

`recovery_s` is the ChannelService construction on DIR, timed here.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common


def _build_service(data_dir: str, fsync: bool):
    from agristack.cli import DEFAULT_FIELD_LABELS
    from agristack.service import ChannelService

    t0 = time.perf_counter()
    service = ChannelService(data_dir=data_dir, fsync=fsync)
    recovery_s = time.perf_counter() - t0
    if not service.channels():
        service.create_channel(common.CHANNEL_NAME, DEFAULT_FIELD_LABELS,
                               write_key=common.WRITE_KEY, rate_limit_s=0.0)
    return service, recovery_s


def _ready(doc: dict) -> None:
    print(json.dumps(doc), flush=True)


def serve(args, tracer) -> None:
    from agristack.httpd import ChannelHttpServer

    service, recovery_s = _build_service(args.data_dir, fsync=True)
    server = ChannelHttpServer(service).start()
    try:
        _ready({"endpoint": server.endpoint, "recovery_s": recovery_s})
        sys.stdin.read()
    finally:
        server.stop()
        service.close()
    if tracer is not None:
        tracer.dump(args.trace_out, "server")
    _ready({"peak_rss_mb": common.peak_rss_mb()})


def edge(args, tracer) -> None:
    from agristack.client import LocalServiceClient

    service, _ = _build_service(args.data_dir, fsync=False)
    client = LocalServiceClient(service, write_key=common.WRITE_KEY)
    labels = service.channel(common.CHANNEL_ID).fields
    _ready({"ready": True})
    try:
        samples, known = common.replay_round(client, args.ticks, args.seed,
                                             duty_cycle=True, labels=labels,
                                             reads=args.reads,
                                             read_pause_s=common.READ_PAUSE_S)
    finally:
        service.close()
    if tracer is not None:
        tracer.dump(args.trace_out, "client")
    samples.peak_rss_mb.append(common.peak_rss_mb())
    with open(args.result_out, "w", encoding="utf-8") as fh:
        json.dump({"samples": samples.as_dict(), "entries": known.entries}, fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("serve", "edge"))
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--ticks", type=int)
    parser.add_argument("--reads", type=int)
    parser.add_argument("--result-out")
    args = parser.parse_args()
    common.use_checkout_source()
    tracer = None
    if args.trace_out:
        from spans import Tracer
        tracer = Tracer().install()
    (serve if args.mode == "serve" else edge)(args, tracer)


if __name__ == "__main__":
    main()

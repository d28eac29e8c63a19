"""The benchmark's span tracer patches the program's public functions by
name; a rename must fail here rather than in the next traced benchmark run."""

from __future__ import annotations

from pathlib import Path

from agristack import (adc, analytics, client, gateway, httpd, pipeline,
                       service, storelog)

BENCH = Path(__file__).resolve().parents[1] / "bench"
OWNERS = (adc, analytics, client, gateway, httpd, pipeline, service, storelog,
          analytics.AlertEngine, client.HttpServiceClient,
          client.LocalServiceClient, gateway.EdgeGateway, gateway.Publisher,
          service.ChannelService, storelog.RecordLog)


def _namespaces() -> list[dict]:
    return [dict(vars(owner)) for owner in OWNERS]


def test_tracer_installs_and_uninstall_restores_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    before = _namespaces()
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = {f"{owner.__name__}.{name}"
                   for owner, old, new in zip(OWNERS, before, _namespaces())
                   for name in new if new[name] is not old.get(name)}
    finally:
        tracer.uninstall()
    assert {"agristack.pipeline.run_pipeline", "agristack.pipeline.simulate",
            "EdgeGateway.acquire_cycle", "Publisher.publish",
            "ChannelService.update", "agristack.storelog.os"} <= patched
    assert _namespaces() == before

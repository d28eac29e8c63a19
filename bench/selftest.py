"""The benchmark's own test.

  python3 bench/selftest.py

1. A tiny-size run of each workload, untraced and traced, prints every
   metric BENCHMARK.json names, with its unit, and no failed operation.
2. The output checks catch a stored entry that was altered, dropped or
   added after the run, and a read body that differs from what was written.
3. Without the program's source the benchmark exits non-zero and prints no
   result.

Exits 0 when every check holds; prints each failure otherwise.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import common

BENCH = common.ROOT / "bench"
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run_bench(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def tiny_runs(spec: dict) -> None:
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = run_bench(common.ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                            "--trace", str(trace), "--size", "tiny")
            if out.returncode != 0:
                check(False, f"{name} trace={trace} exits 0: {out.stderr[-400:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace={trace} emits every {key} metric with its unit")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{name} trace={trace} metric values are numbers")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{name} trace={trace} has failed_frac 0 "
                  f"({result['failed']}/{result['attempted']})")


def tampered_store() -> None:
    from agristack.service import ChannelService, parse_timestamp
    from agristack.storelog import RecordLog

    base = common.WORK / "selftest-store"
    shutil.rmtree(base, ignore_errors=True)
    labels = {1: "Temperature", 2: "Pressure", 3: "Moisture", 4: "Rain"}
    walk = common.FieldWalk(3)
    known = common.Known(labels)
    service = ChannelService(data_dir=base, fsync=False)
    service.create_channel(common.CHANNEL_NAME, list(labels.values()),
                           write_key=common.WRITE_KEY, rate_limit_s=0.0)
    for _ in range(50):
        created_at, fields = walk.next()
        known.add(service.update(common.WRITE_KEY, fields, parse_timestamp(created_at)),
                  created_at, fields)
    service.close()
    log_path = base / f"channel_{common.CHANNEL_ID}.log"
    pristine = RecordLog(log_path).replay()

    def verify() -> int:
        reopened = ChannelService(data_dir=base)
        try:
            return common.verify_reopened(reopened, known)
        finally:
            reopened.close()

    def rewrite(records: list[bytes]) -> None:
        log_path.unlink()
        log = RecordLog(log_path, fsync=False)
        for record in records:
            log.append(record)
        log.close()

    check(verify() == 0, "an untouched store passes the restart check")

    altered = list(pristine)
    doc = json.loads(altered[20])
    doc["f"]["1"] = doc["f"]["1"] + "0"     # same number, different bytes
    altered[20] = json.dumps(doc, separators=(",", ":")).encode()
    rewrite(altered)
    check(verify() > 0, "an entry whose field string was altered is caught")

    rewrite(pristine[:-1])
    check(verify() > 0, "a dropped acknowledged entry is caught")

    extra = json.loads(pristine[-1])
    extra["id"] += 1
    rewrite(pristine + [json.dumps(extra, separators=(",", ":")).encode()])
    check(verify() > 0, "an entry that was never acknowledged is caught")
    shutil.rmtree(base, ignore_errors=True)


def tampered_body() -> None:
    labels = {1: "Temperature", 2: "Pressure", 3: "Moisture", 4: "Rain"}
    walk = common.FieldWalk(4)
    known = common.Known(labels)
    for i in range(1, 200):
        known.add(i, *walk.next())

    class Client:
        """Answers every read from `known`, with one altered entry when asked."""

        def __init__(self, tamper: bool):
            self.tamper = tamper

        def _answer(self, doc: dict) -> dict:
            if self.tamper and doc["feeds"]:
                doc["feeds"][-1]["entry_id"] += 1
            return doc

        def read_feeds(self, channel_id, results=None, start=None, end=None):
            entries = known.window(start, end) if start else known.last(results)
            return self._answer(known.feed_doc(entries))

        def read_field(self, channel_id, field_index, results=None):
            return self._answer(known.feed_doc(known.last(results), only_field=field_index))

    for tamper in (False, True):
        samples = common.Samples()
        common.read_round(Client(tamper), known, random.Random(5), samples)
        if tamper:
            check(samples.failed == samples.attempted == 4,
                  "every read body with an altered entry is caught")
        else:
            check(samples.failed == 0 and samples.attempted == 4,
                  "faithful read bodies pass the read check")


def without_source() -> None:
    bare = common.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(common.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(bare, "--workload", "replay_http", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    last = out.stdout.strip().splitlines()[-1:] or [""]
    check(out.returncode != 0 and not last[0].startswith("{"),
          "without the program's source the run fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    common.use_checkout_source()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    tiny_runs(spec)
    tampered_store()
    tampered_body()
    without_source()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

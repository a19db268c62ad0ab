#!/usr/bin/env python
"""End-to-end smoke for the HTTP front, driven like CI drives it.

Starts ``photomosaic serve-http`` as a real subprocess on a free port
(with ``--event-log`` and ``--metrics``), submits three jobs through the
stdlib client, checks every event stream is ordered with exactly one
terminal DONE, exercises ``?from_seq`` resume, validates the Prometheus
``/metrics`` exposition, then sends SIGTERM and requires a graceful
drain (exit 0, final ``drained`` line), an event log holding exactly the
streamed events, and a metrics report counting three admitted, three
done jobs.

Usage: PYTHONPATH=src python scripts/http_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service.client import MosaicServiceClient  # noqa: E402

JOBS = [
    {"input": "portrait", "target": "sailboat", "size": 64, "tile_size": 8, "name": "a"},
    {"input": "peppers", "target": "sailboat", "size": 64, "tile_size": 8, "name": "b"},
    {"input": "barbara", "target": "sailboat", "size": 64, "tile_size": 8, "name": "c"},
]

EVENT_LOG = "events.ndjson"


def check_stream(events: list[dict]) -> None:
    assert [e["seq"] for e in events] == list(range(len(events))), events
    assert events[0]["kind"] == "admitted"
    assert [e["terminal"] for e in events].count(True) == 1
    assert events[-1]["payload"]["state"] == "DONE", events[-1]
    assert sum(e["kind"] == "phase" for e in events) >= 1


def check_metrics(text: str) -> None:
    lines = [l for l in text.splitlines() if l]
    names = {
        l.split()[2] for l in lines if l.startswith("# TYPE ")
    }
    for required in (
        "http_requests_total",
        "http_responses_2xx_total",
        "http_request_latency_seconds",
        "gateway_admitted",
        "jobs_done",
    ):
        assert required in names, f"missing {required} in /metrics"
    for line in lines:
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE ")), line
            continue
        name_part, _, value = line.rpartition(" ")
        float(value)  # every sample value must parse
        assert name_part, line
    samples = {
        l.rpartition(" ")[0]: float(l.rpartition(" ")[2])
        for l in lines
        if not l.startswith("#")
    }
    assert samples["gateway_admitted"] == len(JOBS)
    assert samples["jobs_done"] == len(JOBS)


def check_report(outdir: str, streamed: int) -> None:
    with open(os.path.join(outdir, EVENT_LOG), encoding="utf-8") as fh:
        logged = [json.loads(line) for line in fh]
    assert len(logged) == streamed, (len(logged), streamed)
    with open(os.path.join(outdir, "metrics.json"), encoding="utf-8") as fh:
        counters = json.load(fh)["counters"]
    assert counters["gateway_admitted"] == len(JOBS), counters
    assert counters["jobs_done"] == len(JOBS), counters


def main() -> int:
    outdir = "http_smoke_out"
    event_log = os.path.join(outdir, EVENT_LOG)
    if os.path.exists(event_log):
        os.remove(event_log)  # the gateway appends; start from an empty log
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve-http",
            "--port", "0", "--workers", "2", "--outdir", outdir,
            "--event-log", event_log,
            "--metrics", os.path.join(outdir, "metrics.json"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        listening = json.loads(process.stdout.readline())
        assert listening["kind"] == "listening", listening
        client = MosaicServiceClient(f"http://127.0.0.1:{listening['port']}")

        submitted = [client.submit(job) for job in JOBS]
        streams = {
            job["job_id"]: list(client.events(job["job_id"]))
            for job in submitted
        }
        for events in streams.values():
            check_stream(events)

        # Resume: re-fetch one stream's suffix and compare exactly.
        full = streams[submitted[0]["job_id"]]
        cut = len(full) // 2
        resumed = list(client.events(submitted[0]["job_id"], from_seq=cut))
        assert [e["seq"] for e in resumed] == [e["seq"] for e in full[cut:]]

        listing = client.jobs()
        assert sorted(j["name"] for j in listing) == ["a", "b", "c"]
        assert client.health()["status"] == "ok"
        check_metrics(client.metrics_text())

        process.send_signal(signal.SIGTERM)
        out, err = process.communicate(timeout=60)
        assert process.returncode == 0, f"exit {process.returncode}:\n{err}"
        final = json.loads(out.splitlines()[-1])
        assert final["kind"] == "drained", final
        assert final["jobs"] == len(JOBS), final
        check_report(outdir, sum(len(events) for events in streams.values()))
        print(
            "http smoke ok:",
            {jid: len(events) for jid, events in streams.items()},
        )
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()


if __name__ == "__main__":
    sys.exit(main())

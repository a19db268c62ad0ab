"""Graceful-drain tests for ``photomosaic serve-http``, over real processes.

The first SIGINT/SIGTERM is a drain request: stop taking new work, let
admitted jobs run to their terminal event, then exit 0 — not die
mid-job.  A second signal cancels the jobs still in flight, so their
streams end with ``CANCELLED`` and the process still exits cleanly.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

JOB = {
    "input": "portrait",
    "target": "sailboat",
    "size": 64,
    "tile_size": 8,
    "name": "drainee",
}


def spawn(*argv: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


def wait_until_refused(port: int, deadline: float = 10.0) -> None:
    """Block until the server stops accepting connections (drain began)."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
        except OSError:
            return
        time.sleep(0.01)
    raise AssertionError(f"port {port} still accepting after {deadline}s")


def finish(process: subprocess.Popen, timeout: float = 30.0) -> tuple[str, str]:
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        out, err = process.communicate()
        raise AssertionError(f"process did not exit; stderr:\n{err}")
    return out, err


class TestServeHttpDrain:
    def test_sigterm_drains_and_reports(self, tmp_path):
        process = spawn(
            "serve-http",
            "--port", "0",
            "--workers", "1",
            "--outdir", str(tmp_path / "out"),
        )
        try:
            listening = json.loads(process.stdout.readline())
            assert listening["kind"] == "listening"
            port = listening["port"]
            assert port > 0

            from repro.service.client import MosaicServiceClient

            client = MosaicServiceClient(f"http://127.0.0.1:{port}")
            job = client.submit(JOB)
            events = list(client.events(job["job_id"]))
            assert events[-1]["terminal"]
            assert events[-1]["payload"]["state"] == "DONE"

            process.send_signal(signal.SIGTERM)
            out, err = finish(process)
            assert process.returncode == 0, err
            records = [json.loads(line) for line in out.splitlines() if line]
            assert records[-1]["kind"] == "drained"
            assert records[-1]["jobs"] == 1
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    def test_second_sigint_cancels_in_flight_jobs(self, tmp_path):
        from repro.service.client import MosaicServiceClient

        process = spawn(
            "serve-http",
            "--port", "0",
            "--workers", "1",
            "--outdir", str(tmp_path / "out"),
        )
        try:
            port = json.loads(process.stdout.readline())["port"]
            client = MosaicServiceClient(f"http://127.0.0.1:{port}")
            # S = (256/8)^2 = 1024 tiles: still mid-2-opt at its first sweep.
            job = client.submit(dict(JOB, size=256, name="victim"))
            events = client.events(job["job_id"], reconnect=False)
            for event in events:
                if event["kind"] == "sweep":
                    break
            process.send_signal(signal.SIGINT)
            wait_until_refused(port)  # the first signal took effect
            process.send_signal(signal.SIGINT)
            terminal = [event for event in events if event["terminal"]]
            assert len(terminal) == 1
            assert terminal[0]["payload"]["state"] in ("CANCELLED", "DONE")

            out, err = finish(process)
            assert process.returncode == 0, err
            records = [json.loads(line) for line in out.splitlines() if line]
            assert records[-1]["kind"] == "drained"
            assert records[-1]["jobs"] == 1
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

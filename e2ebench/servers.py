"""Start, probe and stop the service's server processes.

A :class:`Front` is one deployment under test: a single ``serve-http``
process, or a ``serve-cluster`` coordinator plus one ``serve-node``.
Every process runs ``repro.cli`` through ``launch.py`` with the
service's default flags; only the bind port, output and cache
directories, the node id and (in traced runs) the span file are set.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

from repro.service.client import MosaicServiceClient

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

#: Every server process started and not yet reaped, for emergency kills.
LIVE: set[subprocess.Popen] = set()


def kill_all() -> None:
    for proc in list(LIVE):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        LIVE.discard(proc)


class Server:
    """One server process and the port it announced."""

    def __init__(self, role: str, args: list[str], directory: str, traced: bool) -> None:
        self.role = role
        self.spans_path = os.path.join(directory, f"spans-{role}.json") if traced else None
        command = [sys.executable, LAUNCH]
        if self.spans_path:
            command += ["--spans", self.spans_path]
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.log_path = os.path.join(directory, f"{role}.log")
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=log, stdin=subprocess.DEVNULL,
            )
        LIVE.add(self.proc)
        self.port = self._listening_port()

    def _listening_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                self.announce = json.loads(line)
                return int(self.announce["port"])
        self.stop()
        with open(self.log_path, encoding="utf-8", errors="replace") as fh:
            log = fh.read()[-2000:]
        raise RuntimeError(f"{self.role} did not announce its port:\n{log}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for {self.role}")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it overstays."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        LIVE.discard(self.proc)


def client(port: int) -> MosaicServiceClient:
    return MosaicServiceClient(f"http://127.0.0.1:{port}", timeout=60.0, stream_timeout=120.0)


def scrape(port: int) -> dict[str, float]:
    """Counter and gauge samples of one front's Prometheus ``/metrics``."""
    values = {}
    for line in client(port).metrics_text().splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            values[name] = float(value)
    return values


class Front:
    """The deployment a workload drives: ``"http"`` or ``"cluster"``."""

    def __init__(self, kind: str, directory: str, traced: bool) -> None:
        self.kind = kind
        self.directory = directory
        self.traced = traced
        self.servers: list[Server] = []
        os.makedirs(directory, exist_ok=True)

    @property
    def entry(self) -> Server:
        """The process clients submit to."""
        return self.servers[0]

    @property
    def worker(self) -> Server:
        """The process that runs the jobs."""
        return self.servers[-1]

    @property
    def outdir(self) -> str:
        return os.path.join(self.directory, "out")

    def start(self) -> float:
        """Spawn the processes; seconds until they answer ``/healthz`` ready."""
        started = time.perf_counter()
        if self.kind == "http":
            self.servers.append(Server(
                "http", ["serve-http", "--port", "0", "--outdir", self.outdir],
                self.directory, self.traced,
            ))
        else:
            coordinator = Server("coordinator", ["serve-cluster", "--port", "0"],
                                 self.directory, self.traced)
            self.servers.append(coordinator)
            self.servers.append(Server(
                "node",
                ["serve-node", "--coordinator", f"127.0.0.1:{coordinator.port}",
                 "--node-id", "node-1", "--outdir", self.outdir,
                 "--cache-dir", os.path.join(self.directory, "cache")],
                self.directory, self.traced,
            ))
        probe = client(self.entry.port)
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            health = probe.health()
            if health.get("status") == "ok" and (
                self.kind == "http" or health.get("nodes_up", 0) >= 1
            ):
                return time.perf_counter() - started
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.kind} front not ready: {health}")
            time.sleep(0.005)

    def stop(self) -> None:
        # Node first: it deregisters, so the coordinator drains without
        # declaring it dead.
        for server in reversed(self.servers):
            server.stop()
        self.servers = []

    def peak_rss_mb(self) -> dict[str, float]:
        """``VmHWM`` of each process, by role."""
        return {server.role: server.peak_rss_mb() for server in self.servers}

    def scrape(self) -> dict[str, dict[str, float]]:
        return {server.role: scrape(server.port) for server in self.servers}

    def summaries(self, jobs: dict[str, str]) -> dict[str, dict]:
        """Job summaries from the process that ran them, by job name.

        ``jobs`` maps job name to the entry front's job id.
        """
        if self.kind == "http":
            probe = client(self.entry.port)
            return {name: probe.job(job_id) for name, job_id in jobs.items()}
        return {
            job["name"]: job
            for job in client(self.worker.port).jobs()
            if job["name"] in jobs
        }

    def spans(self) -> list[dict]:
        """Spans the last started processes wrote when they stopped.

        Span ids are only unique within a process, so each id and parent
        id is prefixed with its process role.
        """
        spans = []
        for name in sorted(os.listdir(self.directory)):
            if name.startswith("spans-") and name.endswith(".json"):
                role = name[len("spans-"):-len(".json")]
                with open(os.path.join(self.directory, name), encoding="utf-8") as fh:
                    for span in json.load(fh):
                        span["id"] = f"{role}:{span['id']}"
                        if span["parent"] is not None:
                            span["parent"] = f"{role}:{span['parent']}"
                        spans.append(span)
        return spans

    def workers(self) -> int:
        """Worker threads of the job-running process, as it announced."""
        return int(self.worker.announce["workers"])

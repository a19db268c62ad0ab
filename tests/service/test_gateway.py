"""Tests for the async streaming job gateway.

Written against plain ``asyncio.run`` so the suite does not depend on an
asyncio pytest plugin: each test body is an async function executed
synchronously.  Timing-sensitive coordination goes through events and
scripted runners, never wall-clock sleeps with asserted durations.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.exceptions import AdmissionRejected, JobError
from repro.service import (
    JobSpec,
    JobState,
    MetricsRegistry,
    MosaicGateway,
    MosaicJobRunner,
    WorkerPool,
)


def spec(name: str = "j", **overrides) -> JobSpec:
    base = dict(input="portrait", target="sailboat", size=64, tile_size=8, name=name)
    base.update(overrides)
    return JobSpec(**base)


def _echo(job_spec: JobSpec) -> str:
    return job_spec.name


class GatedRunner:
    """Runner that blocks on a gate so tests control job lifetimes."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.started = threading.Event()

    def __call__(self, job_spec: JobSpec) -> str:
        self.started.set()
        assert self.gate.wait(timeout=10.0), "test forgot to open the gate"
        return job_spec.name


class SweepRunner:
    """Context-aware runner emitting sweep events until done or cancelled."""

    accepts_context = True

    def __init__(self, sweeps: int = 200) -> None:
        self.sweeps = sweeps
        self.first_sweep = threading.Event()

    def __call__(self, job_spec: JobSpec, ctx=None) -> str:
        for index in range(self.sweeps):
            if ctx is not None:
                ctx.check_cancelled()
                ctx.emit("sweep", {"sweep": index, "swaps": 0, "total": 0})
            self.first_sweep.set()
            time.sleep(0.001)  # give a cancel request a window to land
        return job_spec.name


def run_async(coro):
    return asyncio.run(coro)


class TestAdmission:
    def test_backpressure_rejects_beyond_bound(self):
        async def main():
            runner = GatedRunner()
            pool = WorkerPool(workers=1, runner=runner, seed=0)
            gateway = MosaicGateway(pool, max_pending=2)
            one = await gateway.submit(spec("a"))
            two = await gateway.submit(spec("b"))
            with pytest.raises(AdmissionRejected, match="admission queue full"):
                await gateway.submit(spec("c"))
            assert gateway.pending == 2
            runner.gate.set()
            await gateway.drain()
            # Slots freed: submission is accepted again.
            three = await gateway.submit(spec("c"))
            runner.gate.set()
            await gateway.aclose()
            pool.shutdown()
            for stream in (one, two, three):
                assert stream.record.state is JobState.DONE
            counters = pool.metrics.as_dict()["counters"]
            assert counters["gateway_admitted"] == 3
            assert counters["gateway_rejected"] == 1

        run_async(main())

    def test_submit_after_close_rejected(self):
        async def main():
            pool = WorkerPool(workers=1, runner=_echo, seed=0)
            gateway = MosaicGateway(pool)
            await gateway.aclose()
            with pytest.raises(JobError, match="closed"):
                await gateway.submit(spec())
            pool.shutdown()

        run_async(main())

    def test_invalid_bound_rejected(self):
        pool = WorkerPool(workers=1, runner=_echo, seed=0)
        with pytest.raises(JobError, match="max_pending"):
            MosaicGateway(pool, max_pending=0)
        pool.shutdown()


class TestEventStreams:
    def test_events_are_ordered_with_single_terminal(self):
        async def main():
            pool = WorkerPool(workers=2, runner=_echo, seed=0)
            async with MosaicGateway(pool, max_pending=8) as gateway:
                streams = [await gateway.submit(spec(f"j{i}")) for i in range(5)]
                per_job = [await stream.collect() for stream in streams]
            pool.shutdown()
            for stream, events in zip(streams, per_job):
                assert [e.seq for e in events] == list(range(len(events)))
                assert events[0].kind == "admitted"
                assert [e.terminal for e in events].count(True) == 1
                assert events[-1].terminal
                assert events[-1].state == "DONE"
                states = [e.state for e in events if e.kind == "state"]
                assert states == ["RUNNING", "DONE"]
                assert all(e.job_id == stream.job_id for e in events)

        run_async(main())

    def test_mosaic_job_streams_phase_and_sweep_events(self):
        async def main():
            pool = WorkerPool(
                workers=1, runner=MosaicJobRunner(), seed=0
            )
            async with MosaicGateway(pool, max_pending=2) as gateway:
                stream = await gateway.submit(spec())
                events = await stream.collect()
            pool.shutdown()
            kinds = [e.kind for e in events]
            phases = [e.payload["phase"] for e in events if e.kind == "phase"]
            assert "step2_error_matrix" in phases
            assert "step3_rearrangement" in phases
            assert kinds.count("sweep") >= 1
            # Sweep totals are monotone non-increasing (2-opt invariant,
            # observed live through the stream).
            totals = [e.payload["total"] for e in events if e.kind == "sweep"]
            assert totals == sorted(totals, reverse=True)
            assert stream.record.result.total_error == totals[-1]

        run_async(main())

    def test_retry_events_carry_attempt_and_delay(self):
        attempts = {"n": 0}

        def flaky(job_spec: JobSpec) -> str:
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        async def main():
            pool = WorkerPool(
                workers=1, runner=flaky, max_retries=3, backoff=0.001, seed=0
            )
            async with MosaicGateway(pool, max_pending=2) as gateway:
                stream = await gateway.submit(spec())
                events = await stream.collect()
            pool.shutdown()
            retries = [e for e in events if e.kind == "retry"]
            assert [e.payload["attempt"] for e in retries] == [1, 2]
            assert all(e.payload["delay"] > 0 for e in retries)
            assert all("transient" in e.payload["error"] for e in retries)
            states = [e.state for e in events if e.kind == "state"]
            assert states == [
                "RUNNING", "PENDING", "RUNNING", "PENDING", "RUNNING", "DONE",
            ]

        run_async(main())

    def test_event_log_is_valid_ndjson(self, tmp_path):
        log_path = tmp_path / "events.ndjson"

        async def main():
            pool = WorkerPool(workers=1, runner=_echo, seed=0)
            async with MosaicGateway(
                pool, max_pending=4, event_log=log_path
            ) as gateway:
                streams = [await gateway.submit(spec(f"j{i}")) for i in range(2)]
                collected = [await s.collect() for s in streams]
            pool.shutdown()
            return collected

        collected = run_async(main())
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert len(lines) == sum(len(events) for events in collected)
        for line in lines:
            assert set(line) == {"job_id", "seq", "kind", "terminal", "payload"}

    def test_stream_lag_metric_recorded(self):
        async def main():
            metrics = MetricsRegistry()
            pool = WorkerPool(workers=1, runner=_echo, metrics=metrics, seed=0)
            async with MosaicGateway(pool, max_pending=2) as gateway:
                await (await gateway.submit(spec())).collect()
            pool.shutdown()
            data = metrics.as_dict()
            assert data["histograms"]["gateway_stream_lag_seconds"]["count"] >= 2
            assert data["counters"]["gateway_events_streamed"] >= 3

        run_async(main())


class TestCancellation:
    def test_cancel_queued_job_emits_terminal_cancelled(self):
        async def main():
            runner = GatedRunner()
            pool = WorkerPool(workers=1, runner=runner, seed=0)
            async with MosaicGateway(pool, max_pending=4) as gateway:
                blocker = await gateway.submit(spec("blocker"))
                await asyncio.get_running_loop().run_in_executor(
                    None, runner.started.wait, 5.0
                )
                victim = await gateway.submit(spec("victim"))
                assert await gateway.cancel(victim.job_id) is True
                events = await victim.collect()
                runner.gate.set()
                await blocker.collect()
            pool.shutdown()
            assert events[-1].terminal
            assert events[-1].state == "CANCELLED"
            assert victim.record.state is JobState.CANCELLED
            # Never ran: no RUNNING event on the victim's stream.
            assert "RUNNING" not in [e.state for e in events]

        run_async(main())

    def test_cancel_in_flight_job_stops_mid_sweep(self):
        """The acceptance scenario: cancelling a RUNNING job interrupts
        the sweep loop and the stream ends with CANCELLED."""

        async def main():
            runner = SweepRunner(sweeps=10_000)
            pool = WorkerPool(workers=1, runner=runner, seed=0)
            async with MosaicGateway(pool, max_pending=2) as gateway:
                stream = await gateway.submit(spec("big"))
                events = []
                cancelled = False
                async for event in stream:
                    events.append(event)
                    if event.kind == "sweep" and not cancelled:
                        cancelled = True
                        assert await gateway.cancel(stream.job_id) is True
            pool.shutdown()
            assert events[-1].state == "CANCELLED"
            assert stream.record.state is JobState.CANCELLED
            sweeps = [e for e in events if e.kind == "sweep"]
            # Stopped early: nowhere near the 10k scripted sweeps.
            assert 1 <= len(sweeps) < 10_000
            assert pool.metrics.counter("jobs_cancelled").value == 1

        run_async(main())

    def test_cancel_in_flight_mosaic_job(self):
        """Same scenario through the real pipeline: a large mosaic job is
        cancelled from its first progress event and stops early."""

        async def main():
            pool = WorkerPool(workers=1, runner=MosaicJobRunner(), seed=0)
            async with MosaicGateway(pool, max_pending=2) as gateway:
                stream = await gateway.submit(
                    spec("big", size=256, tile_size=8)
                )
                events = []
                async for event in stream:
                    events.append(event)
                    if event.kind == "phase" and len(events) <= 4:
                        await gateway.cancel(stream.job_id)
                return events, stream

        events, stream = run_async(main())
        assert stream.record.state is JobState.CANCELLED
        assert events[-1].state == "CANCELLED"
        # The pipeline aborted before Step 3 could finish.
        assert "step3_rearrangement" not in [
            e.payload.get("phase") for e in events if e.kind == "phase"
        ]

    def test_cancel_unknown_job_returns_false(self):
        async def main():
            pool = WorkerPool(workers=1, runner=_echo, seed=0)
            async with MosaicGateway(pool) as gateway:
                assert await gateway.cancel("job-nope") is False
            pool.shutdown()

        run_async(main())


class TestDispatchInvariants:
    def test_no_events_after_terminal(self):
        """Late emissions (e.g. from a timed-out, abandoned attempt) are
        dropped, never appended to a finished stream."""

        async def main():
            pool = WorkerPool(workers=1, runner=_echo, seed=0)
            async with MosaicGateway(pool, max_pending=2) as gateway:
                stream = await gateway.submit(spec())
                events = await stream.collect()
                # Simulate a straggler emission arriving after DONE.
                gateway._dispatch(
                    stream.job_id, "sweep", {"sweep": 99}, time.perf_counter()
                )
                assert stream._queue.empty()
            pool.shutdown()
            assert events[-1].terminal
            assert pool.metrics.counter("gateway_events_dropped").value == 1

        run_async(main())

    def test_unadmitted_job_events_dropped(self):
        """Events for jobs submitted around the gateway don't leak in."""

        async def main():
            pool = WorkerPool(workers=1, runner=_echo, seed=0)
            async with MosaicGateway(pool, max_pending=2) as gateway:
                direct = pool.submit(spec("direct"))
                pool.join()
                gateway._dispatch(
                    direct.job_id, "state", {"state": "DONE"}, time.perf_counter()
                )
                assert gateway.pending == 0
            pool.shutdown()
            assert pool.metrics.counter("gateway_events_dropped").value == 1

        run_async(main())

    def test_drain_with_nothing_pending_returns(self):
        async def main():
            pool = WorkerPool(workers=1, runner=_echo, seed=0)
            gateway = MosaicGateway(pool)
            await asyncio.wait_for(gateway.drain(), timeout=1.0)
            pool.shutdown()

        run_async(main())

    def test_gateway_is_bound_to_one_event_loop(self):
        pool = WorkerPool(workers=1, runner=_echo, seed=0)
        gateway = MosaicGateway(pool, max_pending=2)

        async def first():
            await (await gateway.submit(spec())).collect()

        async def second():
            with pytest.raises(JobError, match="different event loop"):
                await gateway.submit(spec())

        asyncio.run(first())
        asyncio.run(second())  # a fresh loop must be rejected, not corrupt state
        pool.shutdown()

    def test_event_serialization_roundtrip(self):
        async def main():
            pool = WorkerPool(workers=1, runner=_echo, seed=0)
            async with MosaicGateway(pool, max_pending=2) as gateway:
                events = await (await gateway.submit(spec())).collect()
            pool.shutdown()
            for event in events:
                assert json.loads(event.to_json()) == json.loads(
                    json.dumps(event.to_dict(), default=str)
                )
            assert events[1].state == "RUNNING"
            assert events[0].state is None  # admitted events carry no state

        run_async(main())

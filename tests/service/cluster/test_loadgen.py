"""The seeded load generator against a one-node in-process cluster."""

from __future__ import annotations

from repro.service.cluster.loadgen import LoadConfig, LoadReport, run_load

from .conftest import TOKEN, MiniCluster, SweepRunner, run_async


def _load(runner_factory, **overrides) -> LoadReport:
    async def scenario():
        async with MiniCluster(nodes=1, runner_factory=runner_factory) as cluster:
            config = LoadConfig(
                base_url=cluster.base_url,
                token=TOKEN,
                clients=2,
                jobs_per_client=2,
                seed=7,
                stream_timeout=60.0,
                **overrides,
            )
            return await cluster.call(run_load, config)

    return run_async(scenario())


def test_every_job_completes_and_every_event_is_lag_stamped():
    report = _load(lambda index: SweepRunner(sweeps=3), cancel_fraction=0.0)
    summary = report.as_dict()
    assert summary["submitted"] == summary["completed"] == 4
    assert summary["cancelled"] == summary["failed"] == summary["errors"] == 0
    assert summary["events"] > 0
    # the coordinator stamps every replicated event with ``ts``
    assert summary["lag_samples"] == summary["events"]
    assert summary["stream_lag_p99_s"] is not None
    assert summary["jobs_per_second"] > 0


def test_seeded_cancels_land_mid_stream():
    """Jobs that would run for minutes end CANCELLED after a few events."""
    report = _load(
        lambda index: SweepRunner(sweeps=20000, dwell=0.01), cancel_fraction=1.0
    )
    assert report.submitted == report.cancelled == 4
    assert report.completed == report.failed == report.errors == 0


def test_empty_report_has_no_lag_and_no_rate():
    summary = LoadReport().as_dict()
    assert summary["jobs_per_second"] == 0.0
    assert summary["stream_lag_p50_s"] is None
    assert summary["lag_samples"] == 0

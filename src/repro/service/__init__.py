"""Mosaic job service: queued batch execution with caching and metrics.

This subsystem turns the one-shot pipeline into a servable workload:

* :mod:`repro.service.jobs` — the job model (specs, records, states,
  deterministic IDs);
* :mod:`repro.service.queue` — a thread-safe in-process priority queue;
* :mod:`repro.service.workers` — a worker pool (thread/process executors)
  with per-job timeouts, bounded retries with backoff, and graceful
  drain;
* :mod:`repro.service.cache` — content-addressed artifact caching
  (memory LRU, the two-tier :class:`CacheStack`) memoizing Step-1 tile
  grids and Step-2 error matrices;
* :mod:`repro.service.diskcache` — the disk-first store shared across
  thread *and* process workers (atomic writes, checksums, quarantine,
  cross-process LRU eviction);
* :mod:`repro.service.locks` — the cross-process file lock the disk
  store builds on;
* :mod:`repro.service.metrics` — counters/gauges/latency histograms with
  JSON export and a text summary;
* :mod:`repro.service.manifest` — the batch manifest format consumed by
  ``photomosaic batch``;
* :mod:`repro.service.gateway` — the asyncio streaming intake layer
  (bounded admission with typed backpressure, per-job event streams,
  cooperative cancellation, NDJSON event logs) that every network
  front submits through;
* :mod:`repro.service.http` — the HTTP/1.1 + WebSocket network front
  over the gateway (job submission, resumable event streams, Prometheus
  ``/metrics``, bearer auth, graceful drain) behind
  ``photomosaic serve-http``;
* :mod:`repro.service.client` — the stdlib client library for that
  front (submit / events with reconnect-resume / cancel);
* :mod:`repro.service.cluster` — the multi-node tier behind
  ``photomosaic serve-cluster`` / ``serve-node``: a coordinator that
  shards jobs across worker nodes with rendezvous hashing, replicates
  their event logs, detects node failures by heartbeat deadline and
  re-dispatches, plus a consistent-hashed cross-node cache tier.
  Imported lazily — ``from repro.service.cluster import ...`` — so the
  single-box service pays nothing for it.

See ``docs/service.md`` for the job lifecycle, cache keying scheme and
metrics schema.
"""

from __future__ import annotations

from repro.service.cache import (
    ArtifactCache,
    CacheBackend,
    CacheStack,
    CacheStats,
    StackStats,
    config_fingerprint,
    error_matrix_key,
    image_fingerprint,
    tile_grid_key,
)
from repro.exceptions import AdmissionRejected
from repro.service.diskcache import DiskCacheStats, DiskCacheStore
from repro.service.gateway import (
    GatewayEvent,
    JobStream,
    MosaicGateway,
    TERMINAL_STATES,
)
from repro.service.http import HttpFront, HttpFrontConfig, JobEventBroker
from repro.service.client import MosaicServiceClient
from repro.service.jobs import JOB_KINDS, JobRecord, JobSpec, JobState
from repro.service.locks import FileLock, LockTimeout
from repro.service.manifest import load_manifest, parse_manifest
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.queue import JobQueue
from repro.service.workers import (
    EXECUTOR_KINDS,
    JobContext,
    MosaicJobRunner,
    SystemClock,
    WorkerPool,
    resolve_image,
)

__all__ = [
    "ArtifactCache",
    "CacheBackend",
    "CacheStack",
    "CacheStats",
    "StackStats",
    "DiskCacheStats",
    "DiskCacheStore",
    "FileLock",
    "LockTimeout",
    "config_fingerprint",
    "image_fingerprint",
    "tile_grid_key",
    "error_matrix_key",
    "JOB_KINDS",
    "JobRecord",
    "JobSpec",
    "JobState",
    "load_manifest",
    "parse_manifest",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "JobQueue",
    "EXECUTOR_KINDS",
    "JobContext",
    "MosaicJobRunner",
    "SystemClock",
    "WorkerPool",
    "resolve_image",
    "AdmissionRejected",
    "GatewayEvent",
    "JobStream",
    "MosaicGateway",
    "TERMINAL_STATES",
    "HttpFront",
    "HttpFrontConfig",
    "JobEventBroker",
    "MosaicServiceClient",
]

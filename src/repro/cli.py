"""Command-line interface.

Subcommands
-----------
``generate``
    Produce one photomosaic from two images (paths or standard-image
    names) and write the output plus, optionally, the adjusted input.
``bench``
    Regenerate one or all of the paper's tables at the chosen profile.
``demo``
    Write a gallery of example outputs (the Figs. 2/7/8 analogues).
``export``
    Run every experiment and write the EXPERIMENTS.md report.
``video``
    Run the real-time video-mosaic scenario frame by frame.
``library build``
    Ingest a directory of images into a ``.npz`` tile-library index.
``mosaic``
    Compose a target from a tile library (many-to-one; see
    docs/library.md).
``batch``
    Run a JSON manifest of jobs through the service worker pool with the
    shared artifact cache, then write results and a metrics report
    (see docs/service.md).
``serve-http``
    Network mode: the streaming job gateway behind a dependency-free
    HTTP/1.1 + WebSocket server — submit jobs with ``POST /v1/jobs``,
    follow them via NDJSON or WebSocket event streams with
    ``?from_seq`` resume, cancel with ``DELETE``, scrape ``/metrics`` in
    Prometheus text format (see docs/service.md, "HTTP API").
``serve-cluster`` / ``serve-node``
    Multi-node mode: a coordinator that shards jobs across worker nodes,
    each node a ``serve-http`` stack that joins it (see docs/service.md,
    "Multi-node deployment").

``batch``, ``serve-http`` and ``serve-node`` build the same cache →
runner → worker pool stack from the same flags.

Examples::

    photomosaic generate --input portrait --target sailboat \
        --size 512 --tile-size 16 --algorithm parallel --output mosaic.png
    photomosaic bench --table 2
    photomosaic demo --outdir gallery/
    photomosaic batch --manifest jobs.json --outdir results/ --workers 4
    photomosaic serve-http --port 8765 --workers 2 --max-pending 8
    photomosaic serve-cluster --port 8700
    photomosaic serve-node --coordinator 127.0.0.1:8700 --cache-dir cache/
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.benchharness import report
from repro.imaging import (
    STANDARD_IMAGES,
    ensure_gray,
    load_image,
    save_image,
    standard_image,
)
from repro.mosaic import MosaicConfig, PhotomosaicGenerator

__all__ = ["main", "build_parser"]


def _resolve_image(spec: str, size: int):
    """Interpret ``spec`` as a standard-image name or a file path."""
    if spec in STANDARD_IMAGES:
        return standard_image(spec, size)
    if not os.path.exists(spec):
        raise SystemExit(
            f"error: {spec!r} is neither a file nor a standard image "
            f"({', '.join(STANDARD_IMAGES)})"
        )
    return ensure_gray(load_image(spec))


def _cmd_generate(args: argparse.Namespace) -> int:
    input_image = _resolve_image(args.input, args.size)
    target_image = _resolve_image(args.target, args.size)
    if input_image.shape != target_image.shape:
        raise SystemExit(
            f"error: input {input_image.shape} and target {target_image.shape} "
            "must have identical shapes (resize beforehand)"
        )
    config = MosaicConfig(
        tile_size=args.tile_size,
        algorithm=args.algorithm,
        metric=args.metric,
        solver=args.solver,
        histogram_match=not args.no_histogram_match,
        array_backend=args.backend,
        prune_sweeps=not args.no_prune,
        shortlist_top_k=args.shortlist_top_k,
        sketch=args.sketch,
        shortlist_seed=args.shortlist_seed,
    )
    result = PhotomosaicGenerator(config).generate(input_image, target_image)
    save_image(args.output, result.image)
    print(f"wrote {args.output}")
    print(f"algorithm       : {args.algorithm}")
    if "array_backend" in result.meta:
        print(f"array backend   : {result.meta['array_backend']}")
    print(f"tiles           : {result.permutation.shape[0]}")
    print(f"total error     : {result.total_error}")
    if result.sweeps is not None:
        print(f"sweeps (k)      : {result.sweeps}")
    if "pairs_skipped" in result.meta:
        evaluated = result.meta["pairs_evaluated"]
        skipped = result.meta["pairs_skipped"]
        print(f"pairs evaluated : {evaluated} ({skipped} pruned)")
    if "shortlist" in result.meta:
        shortlist = result.meta["shortlist"]
        frac = shortlist["pairs_evaluated"] / max(shortlist["pairs_total"], 1)
        print(
            f"shortlist       : top_k={shortlist['top_k']} "
            f"({frac:.1%} of pairs scored, "
            f"{shortlist['fallback']} fallback)"
        )
    for phase, seconds in result.timings.phases.items():
        print(f"{phase:<16}: {seconds:.4f}s")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    profile = args.profile
    tables = {
        "1": report.table1,
        "2": report.table2,
        "3": report.table3,
        "4": report.table4,
        "all": report.all_tables,
    }
    print(tables[args.table](profile))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    # Deferred import keeps CLI startup fast for the other subcommands.
    from repro.benchharness.workloads import PAPER_PAIRS

    os.makedirs(args.outdir, exist_ok=True)
    config = MosaicConfig(tile_size=args.size // 32, algorithm="parallel")
    generator = PhotomosaicGenerator(config)
    for input_name, target_name in PAPER_PAIRS:
        inp = standard_image(input_name, args.size)
        tgt = standard_image(target_name, args.size)
        result = generator.generate(inp, tgt)
        base = os.path.join(args.outdir, f"{input_name}_to_{target_name}")
        save_image(base + "_input.png", inp)
        save_image(base + "_target.png", tgt)
        save_image(base + "_mosaic.png", result.image)
        print(f"{input_name} -> {target_name}: error {result.total_error}, "
              f"k={result.sweeps}  ({base}_mosaic.png)")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.benchharness.export import generate_report

    report = generate_report(args.profile)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report)
    print(f"wrote {args.out}")
    return 0


def _cmd_video(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.mosaic.video import VideoMosaicSession

    input_image = _resolve_image(args.input, args.size)
    base_target = _resolve_image(args.target, args.size)
    session = VideoMosaicSession(input_image, args.tile_size)
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
    for index in range(args.frames):
        # Simple synthetic motion: drifting brightness over the target.
        shift = int(20 * np.sin(2 * np.pi * index / max(1, args.frames)))
        frame = np.clip(base_target.astype(int) + shift, 0, 255).astype(np.uint8)
        result = session.process_frame(frame)
        line = (
            f"frame {index:3d}: error {result.total_error:>10}  "
            f"k={result.sweeps}  "
            f"step3 {result.timings.get('step3_rearrangement') * 1000:6.1f} ms"
        )
        if args.outdir:
            path = os.path.join(args.outdir, f"frame_{index:03d}.png")
            save_image(path, result.image)
            line += f"  -> {path}"
        print(line)
    return 0


def _auth_token(args: argparse.Namespace) -> str | None:
    """``--auth-token``, else the ``PHOTOMOSAIC_TOKEN`` environment variable."""
    return args.auth_token or os.environ.get("PHOTOMOSAIC_TOKEN") or None


def _write_json(path: str, report: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _build_pool(args, metrics, *, wrap_disk=None, job_floor_seconds=0.0):
    """Cache → runner → :class:`WorkerPool` from the shared pool/cache flags.

    The one job-running stack behind ``batch``, ``serve-http`` and
    ``serve-node``.  With ``--cache-dir`` the cache is a
    :class:`CacheStack` (this process's LRU in front, one shared disk
    store behind — process workers pickle the stack and share artifacts
    through the store; see docs/service.md); ``wrap_disk`` wraps that
    disk store (a node puts it behind the cluster's cross-node tier).
    A positive ``job_floor_seconds`` paces every job to that minimum.
    """
    from repro.service import (
        ArtifactCache,
        CacheStack,
        DiskCacheStore,
        MosaicJobRunner,
        WorkerPool,
    )

    os.makedirs(args.outdir, exist_ok=True)
    cache = ArtifactCache(max_bytes=args.cache_mb * 2**20)
    if args.cache_dir:
        disk = DiskCacheStore(
            args.cache_dir, max_bytes=args.cache_budget * 2**20, metrics=metrics
        )
        cache = CacheStack(memory=cache, disk=wrap_disk(disk) if wrap_disk else disk)
    runner = MosaicJobRunner(
        cache=cache, outdir=args.outdir, default_backend=args.backend
    )
    if job_floor_seconds > 0:
        from repro.service.cluster import PacedRunner

        runner = PacedRunner(runner, job_floor_seconds)
    return WorkerPool(
        workers=args.workers,
        kind=args.executor,
        runner=runner,
        cache=cache,
        metrics=metrics,
        max_retries=args.retries,
        default_timeout=args.timeout,
        seed=args.seed,
    )


def _build_gateway(args, metrics, *, event_log=None, **pool_options):
    """:func:`_build_pool` behind a :class:`MosaicGateway` (``--max-pending``)."""
    from repro.service import MosaicGateway

    pool = _build_pool(args, metrics, **pool_options)
    return MosaicGateway(
        pool, max_pending=args.max_pending, metrics=metrics, event_log=event_log
    )


def _http_front_config(args: argparse.Namespace):
    """The :class:`HttpFrontConfig` of ``serve-http`` and ``serve-node``."""
    from repro.service.http import HttpFrontConfig

    return HttpFrontConfig(
        host=args.host,
        port=args.port,
        auth_token=_auth_token(args),
        max_body_bytes=args.max_body_kb * 1024,
        max_concurrent_streams=args.max_streams,
        retry_after=args.retry_after,
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    # Deferred import keeps CLI startup fast for the other subcommands.
    from repro.service import JobState, MetricsRegistry, load_manifest

    specs = load_manifest(args.manifest, seed=args.seed)
    metrics = MetricsRegistry()
    pool = _build_pool(args, metrics)
    records = pool.run(specs)
    pool.shutdown()

    for record in records:
        line = (
            f"{record.spec.name:<16} {record.state.value:<9} "
            f"attempts={record.attempts}"
        )
        if record.state is JobState.DONE:
            line += (
                f"  error={record.result.total_error}"
                f"  latency={record.latency:.3f}s"
            )
        elif record.error:
            line += f"  ({record.error})"
        print(line)

    cache_stats = pool.cache.stats
    if args.cache_dir:
        # Fold the (parent-process) memory-tier tallies into counters so
        # the JSON report carries them; the disk tier already ticks its
        # counters live through the registry.
        metrics.merge_counts(
            {
                "cache_mem_hits_total": cache_stats.memory.hits,
                "cache_mem_misses_total": cache_stats.memory.misses,
                "cache_mem_evictions_total": cache_stats.memory.evictions,
            }
        )
    report = metrics.as_dict(
        extra={
            "cache": cache_stats.as_dict(),
            "pool": {
                "workers": args.workers,
                "executor": args.executor,
                "seed": args.seed,
                "timings": pool.timings.as_dict(),
            },
            "jobs": [record.summary() for record in records],
        }
    )
    metrics_path = args.metrics or os.path.join(args.outdir, "metrics.json")
    _write_json(metrics_path, report)
    print()
    print(metrics.summary_table())
    print(f"cache hit rate  : {cache_stats.hit_rate:.3f}")
    # Artifact outcomes travel back with each job result, so this rate is
    # accurate even when lookups happened inside process workers (where
    # the parent's cache object never saw them).
    artifact_hits = report["counters"].get("cache_artifact_hits", 0)
    artifact_misses = report["counters"].get("cache_artifact_misses", 0)
    if artifact_hits + artifact_misses:
        rate = artifact_hits / (artifact_hits + artifact_misses)
        print(f"artifact hit rate: {rate:.3f} (all workers)")
    if args.cache_dir and cache_stats.disk is not None:
        print(
            f"disk cache      : {cache_stats.disk.entries} entries, "
            f"{cache_stats.disk.current_bytes / 2**20:.1f} MiB "
            f"(budget {args.cache_budget} MiB) at {args.cache_dir}"
        )
    print(f"wrote {metrics_path}")
    failed = sum(1 for record in records if record.state is JobState.FAILED)
    return 1 if failed else 0


def _install_drain_handlers(loop, on_first, on_second) -> None:
    """SIGINT/SIGTERM → graceful drain (twice → cooperative cancel).

    ``on_first`` runs on the first signal (stop intake, let running jobs
    finish so every stream still ends with its terminal event);
    ``on_second`` on any further signal (cancel in-flight jobs, which
    terminates streams with ``CANCELLED`` instead of tearing down the
    loop mid-event).  On platforms without ``add_signal_handler`` this
    is a no-op and Ctrl-C keeps its default behaviour.
    """
    import signal

    fired = {"count": 0}

    def handler() -> None:
        fired["count"] += 1
        if fired["count"] == 1:
            on_first()
        else:
            on_second()

    for signame in ("SIGINT", "SIGTERM"):
        signum = getattr(signal, signame, None)
        if signum is None:
            continue
        try:
            loop.add_signal_handler(signum, handler)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            return


async def _until_drain_signal(front, gateway) -> None:
    """Serve until the first drain signal; a second cancels in-flight jobs."""
    import asyncio

    from repro.service import JobState

    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()

    async def cancel_in_flight() -> None:
        for job in front.broker.jobs():
            if job["state"] in (JobState.PENDING.value, JobState.RUNNING.value):
                await gateway.cancel(job["job_id"])

    cancels: set[asyncio.Task] = set()  # the loop holds tasks only weakly

    def on_second_signal() -> None:
        task = loop.create_task(cancel_in_flight())
        cancels.add(task)
        task.add_done_callback(cancels.discard)

    _install_drain_handlers(
        loop, lambda: (front.begin_drain(), stopping.set()), on_second_signal
    )
    await stopping.wait()


async def _drain(front, gateway) -> None:
    # Drain order matters: finish (or cancel) the jobs first so event
    # streams reach their terminal events, then let the open HTTP
    # connections flush and close, then stop the workers.
    await gateway.aclose(drain=True)
    await front.broker.drain()
    await front.aclose()
    gateway.pool.shutdown()


def _cmd_serve_http(args: argparse.Namespace) -> int:
    # Deferred imports: asyncio + the http front only when serving.
    import asyncio
    import json

    from repro.service import MetricsRegistry
    from repro.service.http import HttpFront

    async def serve() -> int:
        metrics = MetricsRegistry()
        gateway = _build_gateway(args, metrics, event_log=args.event_log)
        config = _http_front_config(args)
        front = HttpFront(gateway, config=config, metrics=metrics)
        await front.start()
        # First stdout line: where we actually bound (--port 0 picks a
        # free port); scripts parse this to find the server.
        print(
            json.dumps(
                {
                    "kind": "listening",
                    "host": args.host,
                    "port": front.port,
                    "auth": bool(config.auth_token),
                    "workers": args.workers,
                    "max_pending": args.max_pending,
                }
            ),
            flush=True,
        )
        await _until_drain_signal(front, gateway)
        await _drain(front, gateway)
        if args.metrics:
            _write_json(
                args.metrics, metrics.as_dict(extra={"jobs": front.broker.jobs()})
            )
        print(json.dumps({"kind": "drained", "jobs": len(front.broker.jobs())}),
              flush=True)
        return 0

    return asyncio.run(serve())


def _cmd_serve_node(args: argparse.Namespace) -> int:
    """One cluster worker node: a serve-http stack that joins a coordinator."""
    import asyncio
    import json

    from repro.service import MetricsRegistry
    from repro.service.cluster import (
        CacheLeaseTable,
        ClusterCacheStore,
        ClusterNodeApp,
        NodeFront,
        PeerDirectory,
    )

    node_id = args.node_id or f"node-{os.getpid()}"
    coordinator_host, _, coordinator_port = args.coordinator.rpartition(":")
    if not coordinator_host or not coordinator_port.isdigit():
        print(
            f"--coordinator must be host:port, got {args.coordinator!r}",
            file=sys.stderr,
        )
        return 2

    async def serve() -> int:
        metrics = MetricsRegistry()
        config = _http_front_config(args)
        directory = PeerDirectory(node_id)
        gateway = _build_gateway(
            args,
            metrics,
            # Without --cache-dir there is no shared tier: the node
            # caches purely locally.
            wrap_disk=lambda disk: ClusterCacheStore(
                disk, directory, token=config.auth_token, metrics=metrics
            ),
            job_floor_seconds=args.job_floor_seconds,
        )
        front = NodeFront(
            gateway,
            node_id=node_id,
            directory=directory,
            cluster_cache=getattr(gateway.pool.cache, "disk", None),
            leases=CacheLeaseTable(ttl=args.lease_ttl),
            config=config,
            metrics=metrics,
        )
        await front.start()
        app = ClusterNodeApp(
            front,
            coordinator_host=coordinator_host,
            coordinator_port=int(coordinator_port),
            advertise_host=args.advertise_host,
            token=config.auth_token,
            heartbeat_interval=args.heartbeat_interval,
        )
        print(
            json.dumps(
                {
                    "kind": "listening",
                    "role": "node",
                    "node_id": node_id,
                    "host": args.host,
                    "port": front.port,
                    "coordinator": args.coordinator,
                    "auth": bool(config.auth_token),
                    "workers": args.workers,
                }
            ),
            flush=True,
        )
        await app.start()
        await _until_drain_signal(front, gateway)
        await app.stop()  # deregister first: no re-dispatch churn on drain
        await _drain(front, gateway)
        print(json.dumps({"kind": "drained", "node_id": node_id}), flush=True)
        return 0

    return asyncio.run(serve())


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    """The cluster coordinator front (see docs/service.md, multi-node)."""
    import asyncio
    import json

    from repro.service import MetricsRegistry
    from repro.service.cluster import ClusterCoordinator, CoordinatorConfig

    token = _auth_token(args)

    async def serve() -> int:
        metrics = MetricsRegistry()
        coordinator = ClusterCoordinator(
            config=CoordinatorConfig(
                host=args.host,
                port=args.port,
                auth_token=token,
                heartbeat_deadline=args.heartbeat_deadline,
                max_pending=args.max_pending,
                retry_after=args.retry_after,
            ),
            metrics=metrics,
        )
        await coordinator.start()
        print(
            json.dumps(
                {
                    "kind": "listening",
                    "role": "coordinator",
                    "host": args.host,
                    "port": coordinator.port,
                    "auth": bool(token),
                    "heartbeat_deadline": args.heartbeat_deadline,
                }
            ),
            flush=True,
        )
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        _install_drain_handlers(
            loop,
            lambda: (coordinator.begin_drain(), stopping.set()),
            lambda: stopping.set(),
        )
        await stopping.wait()
        await coordinator.aclose()
        if args.metrics:
            _write_json(args.metrics, metrics.as_dict())
        print(json.dumps({"kind": "drained", "role": "coordinator"}), flush=True)
        return 0

    return asyncio.run(serve())


def _library_cache(args):
    """Optional disk cache for library ingestion (``--cache-dir``)."""
    if not getattr(args, "cache_dir", None):
        return None
    from repro.service import DiskCacheStore

    return DiskCacheStore(args.cache_dir, max_bytes=args.cache_budget * 2**20)


def _cmd_library_build(args: argparse.Namespace) -> int:
    from repro.library import LibraryIndex

    index, stats = LibraryIndex.from_directory(
        args.source,
        tile_size=args.tile_size,
        thumb_size=args.thumb_size,
        sketch_grid=args.sketch_grid,
        cache=_library_cache(args),
    )
    index.save(args.output)
    print(f"library index   : {args.output}")
    print(f"images          : {index.size}")
    print(f"match tile      : {index.tile_size}x{index.tile_size}")
    print(f"render tile     : {index.thumb_size}x{index.thumb_size}")
    print(f"ingest hit rate : {stats.hit_rate:.3f} "
          f"({stats.hits} hits / {stats.misses} misses)")
    print(f"fingerprint     : {index.content_fingerprint()}")
    return 0


def _cmd_mosaic(args: argparse.Namespace) -> int:
    from repro.imaging import save_image
    from repro.library import LibraryConfig, LibraryIndex, LibraryMosaicEngine
    from repro.service.workers import resolve_image

    source = args.library
    tile_size = args.tile_size
    sketch_grid = args.sketch_grid
    thumb_size = args.thumb_size
    if source.endswith(".npz"):
        # Geometry lives in the index; deriving it here means a prebuilt
        # index "just works" without repeating the build-time flags.
        source = LibraryIndex.load(source)
        tile_size = source.tile_size
        thumb_size = source.thumb_size
        sketch_grid = source.sketch_grid
    config = LibraryConfig(
        tile_size=tile_size,
        thumb_size=thumb_size,
        sketch_grid=sketch_grid,
        metric=args.metric,
        top_k=args.top_k,
        clusters=args.clusters,
        repetition_penalty=args.penalty,
        assigner=args.assigner,
        refine_iters=args.refine_iters,
        color_adjust=args.color_adjust,
        out_size=args.out_size,
        array_backend=args.backend,
    )
    engine = LibraryMosaicEngine(config, cache=_library_cache(args))
    target = resolve_image(args.target, args.size)

    def observer(kind: str, payload: dict) -> None:
        if kind == "phase":
            extras = {
                k: v
                for k, v in payload.items()
                if k not in ("phase", "seconds") and not isinstance(v, float)
            }
            detail = " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
            print(f"  {payload['phase']:<10} {payload['seconds']:.3f}s  {detail}")

    result = engine.generate(source, target, seed=args.seed, observer=observer)
    save_image(args.output, result.image)
    lib = result.meta["library"]
    print(f"wrote {args.output} ({result.image.shape[0]}x{result.image.shape[1]})")
    print(f"total match cost: {result.total_error}")
    print(f"tiles used      : {lib['unique_tiles']} unique of "
          f"{lib['library_size']} (max reuse {lib['max_reuse']})")
    return 0


def _positive_int(text: str) -> int:
    """argparse ``type`` for counts and budgets that must be >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


# Flag groups shared through ``parents=``.  Each call builds a fresh
# parser: argparse shares action objects with its children, so a
# per-subcommand ``set_defaults`` on a shared instance would leak into
# every other subcommand.


def _pool_flags() -> argparse.ArgumentParser:
    """Worker-pool flags of the job-running commands."""
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("--outdir", default="serve_out", help="job outputs")
    group.add_argument("--workers", type=_positive_int, default=2)
    group.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="attempt executor (thread shares the in-memory cache and "
        "streams per-sweep progress)",
    )
    group.add_argument(
        "--retries", type=int, default=1,
        help="default extra attempts per job (a job can override it)",
    )
    group.add_argument(
        "--timeout", type=float, default=None,
        help="default per-attempt budget in seconds",
    )
    group.add_argument(
        "--seed", type=int, default=0,
        help="seeds the pool's backoff jitter streams (and, for batch, "
        "the per-job seeds) via repro.utils.rng, so a re-run replays exactly",
    )
    group.add_argument(
        "--backend", choices=("numpy", "cupy", "auto"), default=None,
        help="default array backend for every job that doesn't set its "
        "own 'backend' field",
    )
    return group


def _cache_flags() -> argparse.ArgumentParser:
    """Artifact-cache flags of the job-running commands."""
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument(
        "--cache-mb", type=_positive_int, default=256,
        help="in-memory cache budget (MiB)",
    )
    group.add_argument(
        "--cache-dir", default=None,
        help="shared disk cache root: artifacts persist across runs and are "
        "shared by process workers; on serve-node it also backs the "
        "cluster's shared cache tier (see docs/service.md)",
    )
    group.add_argument(
        "--cache-budget", type=_positive_int, default=2048,
        help="disk cache byte budget in MiB (LRU-evicted past this)",
    )
    return group


def _front_flags() -> argparse.ArgumentParser:
    """Bind, auth and admission flags of every network front."""
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("--host", default="127.0.0.1")
    group.add_argument(
        "--port", type=int,
        help="TCP port; 0 picks a free port (printed on the first "
        "stdout line as a JSON 'listening' record)",
    )
    group.add_argument(
        "--auth-token", default=None,
        help="static bearer token required on /v1/ routes (default: the "
        "PHOTOMOSAIC_TOKEN environment variable; unset = no auth); every "
        "process of a cluster must use the same token",
    )
    group.add_argument(
        "--max-pending", type=_positive_int, default=16,
        help="admission bound: jobs in flight before POST /v1/jobs "
        "answers 429 with Retry-After",
    )
    group.add_argument(
        "--retry-after", type=float, default=1.0,
        help="Retry-After hint (seconds) on 429/503 responses",
    )
    return group


def _stream_flags() -> argparse.ArgumentParser:
    """Connection limits of the fronts that serve job event streams."""
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument(
        "--max-streams", type=_positive_int, default=64,
        help="concurrent event streams before the route answers 503",
    )
    group.add_argument(
        "--max-body-kb", type=_positive_int, default=1024,
        help="request body limit in KiB (413 beyond it)",
    )
    return group


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="photomosaic",
        description="Photomosaic generation by rearranging subimages "
        "(reproduction of Yang, Ito & Nakano 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate one photomosaic")
    gen.add_argument("--input", required=True, help="input image path or standard name")
    gen.add_argument("--target", required=True, help="target image path or standard name")
    gen.add_argument("--output", default="mosaic.png", help="output file (.png/.bmp/.pgm)")
    gen.add_argument("--size", type=int, default=512, help="side for standard images")
    gen.add_argument("--tile-size", type=int, default=16, help="tile side M")
    gen.add_argument(
        "--algorithm",
        choices=("optimization", "approximation", "parallel"),
        default="parallel",
    )
    gen.add_argument("--metric", default="sad", help="cost metric name")
    gen.add_argument("--solver", default="scipy", help="assignment solver name")
    gen.add_argument(
        "--no-histogram-match",
        action="store_true",
        help="skip the Section II intensity adjustment",
    )
    gen.add_argument(
        "--backend",
        choices=("numpy", "cupy", "auto"),
        default="numpy",
        help="array backend for the Step-2/Step-3 hot paths: numpy, cupy "
        "(GPU, when installed), or auto (best available) — see "
        "docs/performance.md",
    )
    gen.add_argument(
        "--no-prune",
        action="store_true",
        help="disable active-pair sweep pruning (results are bit-identical "
        "either way; only useful for measuring the unpruned baseline)",
    )
    gen.add_argument(
        "--shortlist-top-k",
        type=int,
        default=0,
        help="sparse Step 2: exact-score only this many sketch-shortlisted "
        "candidate positions per tile (0 = full dense matrix; values >= "
        "the tile count reproduce the dense result bit for bit — see "
        "docs/performance.md)",
    )
    gen.add_argument(
        "--sketch",
        choices=("mean", "pyramid", "pca"),
        default="mean",
        help="sketch kind for shortlisting (never affects final costs, "
        "only which pairs get exact-scored)",
    )
    gen.add_argument(
        "--shortlist-seed",
        type=int,
        default=None,
        help="seed for the shortlister's k-means (fixed seed = "
        "bit-reproducible sparse runs)",
    )
    gen.set_defaults(func=_cmd_generate)

    bench = sub.add_parser("bench", help="regenerate the paper's tables")
    bench.add_argument("--table", choices=("1", "2", "3", "4", "all"), default="all")
    bench.add_argument("--profile", choices=("default", "full"), default=None)
    bench.set_defaults(func=_cmd_bench)

    demo = sub.add_parser("demo", help="write the example gallery")
    demo.add_argument("--outdir", default="gallery")
    demo.add_argument("--size", type=int, default=512)
    demo.set_defaults(func=_cmd_demo)

    export = sub.add_parser(
        "export", help="run all experiments and write EXPERIMENTS.md"
    )
    export.add_argument("--profile", choices=("default", "full"), default="default")
    export.add_argument("--out", default="EXPERIMENTS.md")
    export.set_defaults(func=_cmd_export)

    video = sub.add_parser(
        "video", help="run the real-time video-mosaic scenario"
    )
    video.add_argument("--input", default="portrait")
    video.add_argument("--target", default="sailboat")
    video.add_argument("--frames", type=int, default=8)
    video.add_argument("--size", type=int, default=256)
    video.add_argument("--tile-size", type=int, default=16)
    video.add_argument("--outdir", default=None, help="write frames here (optional)")
    video.set_defaults(func=_cmd_video)

    library = sub.add_parser(
        "library", help="manage tile libraries for many-to-one mosaics"
    )
    library_sub = library.add_subparsers(dest="library_command", required=True)
    build = library_sub.add_parser(
        "build", help="ingest a directory of images into a .npz library index"
    )
    build.add_argument("--source", required=True, help="directory of candidate images")
    build.add_argument("--output", default="library.npz", help="index output path")
    build.add_argument("--tile-size", type=int, default=8, help="match resolution M")
    build.add_argument(
        "--thumb-size", type=int, default=32,
        help="render resolution stored per image",
    )
    build.add_argument(
        "--sketch-grid", type=int, default=2,
        help="block-mean sketch side (must divide tile size)",
    )
    build.add_argument(
        "--cache-dir", default=None,
        help="disk cache root: per-image features are content-addressed "
        "here, so re-ingesting unchanged files is a pure cache read",
    )
    build.add_argument(
        "--cache-budget", type=int, default=2048,
        help="disk cache byte budget in MiB",
    )
    build.set_defaults(func=_cmd_library_build)

    mosaic = sub.add_parser(
        "mosaic",
        help="compose a target from a tile library (many-to-one; "
        "see docs/library.md)",
    )
    mosaic.add_argument(
        "--library", required=True,
        help="tile library: a directory of images or a .npz index from "
        "'library build' (the index carries its own geometry)",
    )
    mosaic.add_argument("--target", required=True, help="target image path or standard name")
    mosaic.add_argument("--output", default="mosaic.png", help="output file (.png/.bmp/.pgm)")
    mosaic.add_argument("--size", type=int, default=256, help="side for standard targets")
    mosaic.add_argument("--tile-size", type=int, default=8, help="match resolution M")
    mosaic.add_argument(
        "--thumb-size", type=int, default=32,
        help="render resolution (directory libraries only)",
    )
    mosaic.add_argument(
        "--sketch-grid", type=int, default=2,
        help="block-mean sketch side (directory libraries only)",
    )
    mosaic.add_argument("--metric", default="sad", help="cost metric name")
    mosaic.add_argument(
        "--top-k", type=int, default=16,
        help="exact-scored candidates kept per cell",
    )
    mosaic.add_argument(
        "--clusters", type=int, default=0,
        help="k-means clusters over the library (0 = ~sqrt(L))",
    )
    mosaic.add_argument(
        "--penalty", type=float, default=0.0,
        help="repetition penalty weight (0 = pure nearest tile)",
    )
    mosaic.add_argument(
        "--assigner", default="greedy",
        help="assignment solver: greedy or ep",
    )
    mosaic.add_argument(
        "--refine-iters", type=int, default=0,
        help="EP refinement budget (assigner=ep)",
    )
    mosaic.add_argument(
        "--color-adjust", choices=("none", "gain_offset", "histogram"),
        default="none", help="per-cell tile colour adjustment",
    )
    mosaic.add_argument(
        "--out-size", type=int, default=None,
        help="output side in pixels (rendered from the stored thumbs; "
        "default keeps the match resolution)",
    )
    mosaic.add_argument(
        "--backend", choices=("numpy", "cupy", "auto"), default="numpy",
        help="array backend for the exact-scoring hot path",
    )
    mosaic.add_argument("--seed", type=int, default=0, help="pipeline seed")
    mosaic.add_argument(
        "--cache-dir", default=None,
        help="disk cache root for content-addressed ingestion features",
    )
    mosaic.add_argument(
        "--cache-budget", type=int, default=2048,
        help="disk cache byte budget in MiB",
    )
    mosaic.set_defaults(func=_cmd_mosaic)

    batch = sub.add_parser(
        "batch",
        parents=[_pool_flags(), _cache_flags()],
        help="run a manifest of mosaic jobs through the worker pool",
    )
    batch.add_argument("--manifest", required=True, help="JSON job manifest")
    batch.add_argument(
        "--metrics", default=None,
        help="metrics JSON path (default: <outdir>/metrics.json)",
    )
    batch.set_defaults(func=_cmd_batch, outdir="batch_out", workers=4)

    serve_http = sub.add_parser(
        "serve-http",
        parents=[_front_flags(), _stream_flags(), _pool_flags(), _cache_flags()],
        help="serve the job gateway over HTTP/WebSocket "
        "(see docs/service.md, 'HTTP API')",
    )
    serve_http.add_argument(
        "--metrics", default=None,
        help="write a metrics JSON report here on drained exit",
    )
    serve_http.add_argument(
        "--event-log", default=None,
        help="append every streamed event to this NDJSON file",
    )
    serve_http.set_defaults(func=_cmd_serve_http, port=8765)

    serve_node = sub.add_parser(
        "serve-node",
        parents=[_front_flags(), _stream_flags(), _pool_flags(), _cache_flags()],
        help="serve one cluster worker node joined to a coordinator "
        "(see docs/service.md, 'Multi-node deployment')",
    )
    serve_node.add_argument(
        "--coordinator", required=True,
        help="coordinator address as host:port (from serve-cluster's "
        "'listening' line)",
    )
    serve_node.add_argument(
        "--node-id", default=None,
        help="stable node identity used for sharding and metrics "
        "(default: node-<pid>)",
    )
    serve_node.add_argument(
        "--advertise-host", default=None,
        help="host peers should dial (default: the --host bind address)",
    )
    serve_node.add_argument(
        "--heartbeat-interval", type=float, default=0.5,
        help="seconds between heartbeats to the coordinator",
    )
    serve_node.add_argument(
        "--lease-ttl", type=float, default=60.0,
        help="cross-node compute-lease TTL in seconds (a lease whose "
        "holder died is reclaimed after this long)",
    )
    serve_node.add_argument(
        "--job-floor-seconds", type=float, default=0.0,
        help="minimum wall-clock seconds per job (emulated duration for "
        "capacity benchmarking on small hosts; 0 = off)",
    )
    # Internal cache-replication PUTs carry full error matrices, hence
    # the node's much larger body limit.
    serve_node.set_defaults(func=_cmd_serve_node, port=0, max_body_kb=262144)

    serve_cluster = sub.add_parser(
        "serve-cluster",
        parents=[_front_flags()],
        help="serve the cluster coordinator (admission, sharding, "
        "replicated event logs; see docs/service.md)",
    )
    serve_cluster.add_argument(
        "--heartbeat-deadline", type=float, default=3.0,
        help="seconds without a heartbeat before a node is declared "
        "dead and its jobs re-dispatch",
    )
    serve_cluster.add_argument(
        "--metrics", default=None,
        help="write a metrics JSON report here on drained exit",
    )
    serve_cluster.set_defaults(func=_cmd_serve_cluster, port=8700, max_pending=256)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

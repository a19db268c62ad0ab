"""One-job benchmark of the mosaic service, end to end and layer by layer.

One run starts the real service as subprocesses, drives closed-loop job
traffic at it for ``--seconds`` from this process, checks every output
and prints every metric by name and unit; the last stdout line is the
JSON result.  Run from the repository root:

    python3 e2ebench/run.py --workload exact-s4096 --seed 1 --seconds 15 --trace 0

``--trace 1`` runs the workload twice, untraced and then with span
wrappers installed in the servers, and reports the per-layer metrics and
the tracing overhead.  Every run appends one record, with provenance, to
``e2ebench/_work/ledger.jsonl``.

    python3 e2ebench/run.py --sweep --seeds 1-10 [--workloads a,b] [--trace 0]
        [--runs 1] [--no-resume] [--dry-run]

runs one subprocess per missing (workload, seed, run) record, skipping
records the ledger already holds unless ``--no-resume``, and prints each
metric's median and quartile spread.  ``--self-check`` shows on a tiny
job that every correctness check passes clean output and fires on
corrupted output, and that the Step-1/2/3 span check passes a traced
tiny job and fires when one step's spans are missing.

``BENCHMARK.json`` names the workloads and the metrics with their units;
``layers.json`` maps each metric name to its definition and, for
per-layer metrics, its layer.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("e2ebench: no src/repro next to e2ebench/; run it from a repository checkout")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import servers  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, measured_pairs, pool_pair, warmup_pair, write_pairs,
)

from repro.imaging import load_image  # noqa: E402
from repro.imaging.histogram import match_histogram  # noqa: E402
from repro.service.client import BackpressureError  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Pipeline steps whose server-side ``timings`` the spans must match.
STEPS = ("step1_tiling", "step2_error_matrix", "step3_rearrangement")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
END_TO_END = BENCHMARK["end_to_end"]
PER_LAYER = BENCHMARK["per_layer"]
UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}
with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as _fh:
    _LAYERS = json.load(_fh)
for _kind in ("end_to_end", "per_layer"):
    if set(_LAYERS[_kind]) != {m["name"] for m in BENCHMARK[_kind]}:
        sys.exit(f"e2ebench: layers.json and BENCHMARK.json name different {_kind} metrics")
if {w["name"] for w in BENCHMARK["workloads"]} != set(WORKLOADS):
    sys.exit("e2ebench: BENCHMARK.json and workloads.py name different workloads")


def watchdog_seconds(seconds: float, trace: int) -> float:
    """Wall time after which a run kills its servers and exits 3: a
    margin over the longest run measured, which grows with the timed
    phase and doubles when the run also has a traced phase."""
    return (1 + trace) * (150.0 + 2.0 * seconds)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# -- one phase: set up, warm up, drive, collect -------------------------


def job_spec(workload, pair, name: str) -> dict:
    input_path, target_path = pair.paths(os.path.join(WORK, "inputs"))
    spec = {
        "name": name,
        "input": input_path,
        "target": target_path,
        "output": f"{name}.png",
        "size": workload.size,
        "tile_size": workload.tile,
        **workload.spec,
    }
    if workload.job_seed:
        spec["seed"] = pair.input_seed
    return spec


def run_job(probe, spec: dict) -> dict:
    """Submit one job and stream it to its terminal event."""
    record = {"name": spec["name"], "state": None, "error": None}
    record["t_post"] = time.perf_counter()
    try:
        job_id = probe.submit(spec)["job_id"]
        record["job_id"] = job_id
        record["t_submitted"] = time.perf_counter()
        for event in probe.events(job_id):
            record.setdefault("t_first_event", time.perf_counter())
            if event.get("terminal"):
                record["state"] = event["payload"].get("state")
                record["digest"] = event["payload"].get("result_digest")
        record["t_terminal"] = time.perf_counter()
    except BackpressureError as exc:
        record["state"], record["error"] = "REFUSED", str(exc)
    except Exception as exc:  # any client-side failure counts as a failed job
        record["state"], record["error"] = "ERROR", f"{type(exc).__name__}: {exc}"
    return record


def drive(front, workload, seed: int, seconds: float, label: str) -> list[dict]:
    """Closed loop: each client submits its next job after the last ends.

    A catalogue workload stops at the end of the first whole pass that
    ends after ``seconds``, so every run submits each pair equally often;
    a pool workload's clients stop submitting after ``seconds``.
    """
    jobs: list[dict] = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def submit(probe, pair, name: str) -> None:
        record = run_job(probe, job_spec(workload, pair, name))
        record["pair"] = pair
        with lock:
            jobs.append(record)

    def catalogue_client(index: int) -> None:
        probe = servers.client(front.entry.port)
        while True:
            for pair in measured_pairs(workload):
                submit(probe, pair, f"{label}-c{index}-{len(jobs)}")
            if time.perf_counter() >= deadline:
                return

    def pool_client(index: int) -> None:
        probe = servers.client(front.entry.port)
        count = 0
        while time.perf_counter() < deadline:
            submit(probe, pool_pair(workload, seed, index, count), f"{label}-c{index}-{count}")
            count += 1

    client = catalogue_client if workload.catalogue else pool_client
    threads = [threading.Thread(target=client, args=(i,)) for i in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return jobs


def run_phase(workload, seed: int, seconds: float, *, traced: bool, setups: int,
              directory: str) -> dict:
    """Set up the front ``setups`` times, warm up, drive, collect."""
    label = "traced" if traced else "plain"
    front = servers.Front(workload.front, os.path.join(directory, label), traced)
    phase: dict = {"label": label, "setup_samples": []}
    try:
        for attempt in range(setups):
            phase["setup_samples"].append(front.start())
            if attempt < setups - 1:
                front.stop()
        warm = warmup_pair(workload)
        started = time.perf_counter()
        warm_job = run_job(
            servers.client(front.entry.port),
            job_spec(workload, warm, f"{label}-warmup"),
        )
        warm_job["pair"] = warm
        phase["warmup_s"] = time.perf_counter() - started
        phase["warmup_peak_rss_mb"] = front.peak_rss_mb()
        before = front.scrape()
        jobs = drive(front, workload, seed, seconds, label)
        after = front.scrape()
        phase["peak_rss_mb"] = front.peak_rss_mb()
        phase["workers"] = front.workers()
        ids = {job["name"]: job["job_id"] for job in jobs + [warm_job] if "job_id" in job}
        summaries = front.summaries(ids)
    finally:
        front.stop()
    for job in jobs + [warm_job]:
        job["summary"] = summaries.get(job["name"], {"state": job["state"], "error": job["error"]})
    phase["jobs"], phase["warmup"] = jobs, warm_job
    phase["metrics_delta"] = {
        role: {name: after[role].get(name, 0.0) - before[role].get(name, 0.0)
               for name in after[role]}
        for role in after
    }
    phase["spans"] = front.spans() if traced else []
    phase["outdir"] = front.outdir
    return phase


# -- checks and metrics -------------------------------------------------


def check_phase(workload, phase: dict, optima, digests, source: str) -> None:
    """Run every correctness check; failures go on each job record.

    ``source`` is the digest of the source tree under test: a digest
    must repeat for one pair and config on one tree, not across trees.
    """
    inputs_dir = os.path.join(WORK, "inputs")
    config = json.dumps(
        {"size": workload.size, "tile": workload.tile, **workload.spec,
         "job_seed": workload.job_seed},
        sort_keys=True,
    )
    images: dict[str, np.ndarray] = {}
    matched: dict[str, np.ndarray] = {}

    def image(path):
        if path not in images:
            images[path] = np.asarray(load_image(path))
        return images[path]

    for job in phase["jobs"] + [phase["warmup"]]:
        pair, summary = job["pair"], job["summary"]
        input_path, target_path = pair.paths(inputs_dir)
        output_path = os.path.join(phase["outdir"], f"{job['name']}.png")
        output = image(output_path) if os.path.exists(output_path) else None
        if pair.id not in matched:
            matched[pair.id] = match_histogram(image(input_path), image(target_path))
        optimum = None
        if output is not None and summary.get("state") == "DONE":
            optimum = optima.get(matched[pair.id], image(target_path), workload.tile)
        failures = checks.check_output(
            summary, matched[pair.id], image(target_path), output,
            workload.tile, optimum, exact=workload.exact,
        )
        if summary.get("state") == "DONE":
            key = checks.pair_key(input_path, target_path, workload.tile)
            problem = digests.check(f"{source}|{key}|{config}", job.get("digest"))
            if problem:
                failures.append(problem)
            if summary.get("result_digest") != job.get("digest"):
                failures.append("digest: terminal event and job summary differ")
        job["optimum"], job["failures"] = optimum, failures


def ok_jobs(phase: dict) -> list[dict]:
    return [job for job in phase["jobs"] if not job["failures"]]


def timed_wall(jobs: list[dict]) -> float:
    """Seconds from the first POST to the last terminal event."""
    return max(j.get("t_terminal", j["t_post"]) for j in jobs) - min(j["t_post"] for j in jobs)


def end_to_end(phase: dict) -> dict[str, float]:
    jobs, good = phase["jobs"], ok_jobs(phase)
    wall = timed_wall(jobs)
    return {
        "setup_s": median(phase["setup_samples"]),
        "job_latency_p50_s": median([j["t_terminal"] - j["t_post"] for j in good]),
        "jobs_per_s": len(good) / wall if wall > 0 else 0.0,
        "error_ratio": float(np.mean(
            [j["summary"]["total_error"] / j["optimum"] for j in good]
        )) if good else 0.0,
        "peak_rss_mb": sum(phase["peak_rss_mb"].values()),
    }


def per_layer(phase: dict, plain: dict) -> dict[str, float]:
    """Per-layer metrics of the traced phase (see layers.json)."""
    jobs = phase["jobs"]
    n = len(jobs)
    names = {job["name"] for job in jobs}
    spans = [s for s in tracing.self_times(phase["spans"]) if s["job"] in names]

    def self_per_job(*prefixes) -> float:
        return sum(s["self"] for s in spans if s["name"].startswith(prefixes)) / n

    name_of = {s["id"]: s["name"] for s in spans}

    def count_per_job(prefix, count) -> float:
        """Mean per job of a count on the outermost spans named ``prefix*``
        (``solve_sparse`` calls ``solve``; only the outer call counts)."""
        return sum(
            s.get("counts", {}).get(count, 0) for s in spans
            if s["name"].startswith(prefix)
            and not name_of.get(s["parent"], "").startswith(prefix)
        ) / n

    dense = [s for s in spans if s["name"] == "cost.error_matrix"]
    dense_time = sum(s["self"] for s in dense)
    summaries = [job["summary"] for job in jobs]
    done = [s for s in summaries if s.get("state") == "DONE"]
    delta = phase["metrics_delta"]
    node = delta.get("node", {})

    def hit_ratio(steps) -> float:
        outcomes = [s.get("cache", {}).get(step) for s in done for step in steps]
        hits, misses = outcomes.count("hit"), outcomes.count("miss")
        return hits / (hits + misses) if hits + misses else 0.0

    def pair_share(summary) -> float:
        shortlist = summary.get("shortlist")
        if not shortlist:
            return 1.0
        return shortlist["pairs_evaluated"] / shortlist["pairs_total"]

    timed = [j for j in jobs if "t_terminal" in j]
    return {
        "http.submit_s": median([j["t_submitted"] - j["t_post"] for j in timed]),
        "http.first_event_s": median([j["t_first_event"] - j["t_post"] for j in timed]),
        "http.error_responses": sum(
            d.get("http_responses_4xx_total", 0) + d.get("http_responses_5xx_total", 0)
            for d in delta.values()
        ) + sum(1 for j in jobs if j["state"] in ("REFUSED", "ERROR")),
        "gateway.queue_wait_s": median([s["queue_wait_s"] for s in done]),
        "workers.busy_ratio": sum(s["latency_s"] - s["queue_wait_s"] for s in done)
        / (timed_wall(jobs) * phase["workers"]),
        "workers.retries": sum(s.get("attempts", 1) for s in summaries) - n,
        "cluster.overhead_s": median(
            [j["t_terminal"] - j["t_post"] - j["summary"]["latency_s"]
             for j in timed if j["summary"].get("latency_s") is not None]
        ),
        "cluster.rpc_per_job": node.get("http_requests_total", 0.0) / n,
        "cluster.replicated_events_per_job":
            delta.get("coordinator", {}).get("cluster_events_replicated_total", 0.0) / n,
        "cache.step1_hit_ratio": hit_ratio(("step1_input", "step1_target")),
        "cache.step2_hit_ratio": hit_ratio(("step2_matrix",)),
        "cache.lookup_s": self_per_job("cache."),
        "histogram.match_s": self_per_job("histogram."),
        "step1.split_s": self_per_job("tiles.split"),
        "step2.build_s": self_per_job("cost."),
        "step2.dense_pairs_per_s":
            sum(s["counts"]["pairs"] for s in dense) / dense_time if dense_time else 0.0,
        "step2.dense_bytes_computed": count_per_job("cost.error_matrix", "bytes"),
        "step2.sparse_pair_share": float(np.mean([pair_share(s) for s in done])),
        "step2.sparse_fallback": sum(s.get("shortlist", {}).get("fallback", 0) for s in done),
        "step3.rearrange_s": self_per_job("assignment.", "localsearch."),
        "step3.assign_iterations": count_per_job("assignment.", "iterations"),
        "step3.sweeps": count_per_job("localsearch.", "sweeps"),
        "step3.pairs_evaluated": count_per_job("localsearch.", "pairs"),
        "step3.swaps": count_per_job("localsearch.", "swaps"),
        "render.assemble_s": self_per_job("tiles.assemble"),
        "render.encode_s": self_per_job("imaging.save_image"),
        "render.bytes_written": count_per_job("imaging.save_image", "bytes"),
        "trace.overhead_s": end_to_end(phase)["job_latency_p50_s"]
        - end_to_end(plain)["job_latency_p50_s"],
    }


def check_step_times(spans: list[dict], jobs: list[tuple[str, dict]]) -> tuple[list[str], float]:
    """Span totals per step against the server's own ``timings``.

    ``jobs`` holds each job's name and reported ``timings``.  A step
    disagrees when the job's spans for it differ from the reported time
    by more than 2 ms or 10% of it, whichever is larger, or when the
    server timed a step that has no spans at all.  Returns the
    disagreements and the largest gap seen, in seconds.
    """
    totals = tracing.step_totals(spans)
    problems, worst = [], 0.0
    for name, timings in jobs:
        for step in STEPS:
            reported = timings.get(step)
            if reported is None:
                continue
            traced = totals.get(name, {}).get(step)
            gap = abs(reported - (traced or 0.0))
            worst = max(worst, gap)
            if traced is None or gap > max(0.002, 0.1 * reported):
                problems.append(
                    f"trace: {name} {step} spans {traced or 0.0:.4f}s vs "
                    f"server {reported:.4f}s"
                )
    return problems, worst


def trace_self_check() -> list[str]:
    """A tiny traced sparse 2-opt job: :func:`check_step_times` passes its
    spans and fires when one step's spans are missing."""
    from repro.imaging import save_image, synthetic_image
    from repro.service.cache import ArtifactCache
    from repro.service.jobs import JobSpec
    from repro.service.workers import MosaicJobRunner

    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    directory = os.path.join(WORK, f"self-check-{os.getpid()}")
    os.makedirs(directory, exist_ok=True)
    try:
        paths = []
        for image_seed in (1, 2):
            paths.append(os.path.join(directory, f"{image_seed}.png"))
            save_image(paths[-1], synthetic_image(64, seed=image_seed))
        spec = JobSpec(input=paths[0], target=paths[1], name="tiny", size=64,
                       tile_size=8, shortlist_top_k=8, seed=1)
        result = MosaicJobRunner(cache=ArtifactCache())(spec)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    jobs = [("tiny", result.timings.as_dict())]
    problems = [f"clean trace failed {p}" for p in check_step_times(recorder.spans, jobs)[0]]
    for step in STEPS:
        kept = [s for s in recorder.spans if tracing.step_of(s) != step]
        if not any(step in p for p in check_step_times(kept, jobs)[0]):
            problems.append(f"trace without {step} spans passed the step-time check")
    return problems


# -- provenance and ledger ----------------------------------------------


def provenance() -> dict:
    import scipy

    def git(*command) -> str:
        return subprocess.run(["git", *command], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()

    commit, dirty = None, None
    try:
        if os.path.samefile(git("rev-parse", "--show-toplevel"), ROOT):
            commit = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--", "src"))
    except (OSError, subprocess.CalledProcessError):
        pass  # not a git checkout: the source digest still identifies the code
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            digest.update(os.path.relpath(path, ROOT).encode() + fh.read())
    return {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def ledger_path() -> str:
    return os.path.join(WORK, "ledger.jsonl")


def read_ledger() -> list[dict]:
    if not os.path.exists(ledger_path()):
        return []
    with open(ledger_path(), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def record_key(workload: str, seed: int, run: int, trace: int) -> str:
    return f"{workload}/{seed}/{run}/{trace}"


def append_ledger(record: dict) -> None:
    with open(ledger_path(), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, default=str) + "\n")


# -- one run ------------------------------------------------------------


def job_row(job: dict) -> dict:
    summary = job["summary"]
    row = {
        "name": job["name"],
        "pair": job["pair"].id,
        "state": summary.get("state"),
        "total_error": summary.get("total_error"),
        "optimum": job.get("optimum"),
        "digest": job.get("digest"),
        "timings": summary.get("timings"),
        "cache": summary.get("cache"),
        "attempts": summary.get("attempts"),
        "queue_wait_s": summary.get("queue_wait_s"),
        "server_latency_s": summary.get("latency_s"),
        "failures": job.get("failures"),
    }
    if "t_terminal" in job:
        row["latency_s"] = job["t_terminal"] - job["t_post"]
    return row


def run_once(args) -> int:
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    run_index = args.run
    if run_index is None:
        taken = {r["run"] for r in read_ledger()
                 if (r["workload"], r["seed"], r["trace"]) == (workload.name, args.seed, args.trace)}
        run_index = max(taken, default=-1) + 1
    directory = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(directory, ignore_errors=True)
    write_pairs(measured_pairs(workload) + [warmup_pair(workload)],
                os.path.join(WORK, "inputs"))
    optima = checks.OptimumCache(os.path.join(WORK, "optima.json"))
    digests = checks.DigestBook(os.path.join(WORK, "digests.json"))
    origin = provenance()
    try:
        plain = run_phase(workload, args.seed, args.seconds, traced=False,
                          setups=1 if args.trace else SETUPS, directory=directory)
        check_phase(workload, plain, optima, digests, origin["source_sha256"])
        phases = [plain]
        if args.trace:
            traced = run_phase(workload, args.seed, args.seconds, traced=True,
                               setups=1, directory=directory)
            check_phase(workload, traced, optima, digests, origin["source_sha256"])
            phases.append(traced)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    digests.save()

    failures = [f"{job['name']}: {failure}"
                for phase in phases for job in phase["jobs"] + [phase["warmup"]]
                for failure in job["failures"]]
    attempted = sum(len(phase["jobs"]) for phase in phases)
    failed = sum(len(phase["jobs"]) - len(ok_jobs(phase)) for phase in phases)
    e2e = end_to_end(plain)
    layers, step_gap = {}, None
    if args.trace:
        layers = per_layer(traced, plain)
        problems, step_gap = check_step_times(
            traced["spans"],
            [(job["name"], job["summary"].get("timings") or {}) for job in traced["jobs"]],
        )
        failures += problems
    correct = not failures

    record = {
        "key": record_key(workload.name, args.seed, run_index, args.trace),
        "workload": workload.name,
        "seed": args.seed,
        "run": run_index,
        "trace": args.trace,
        "seconds": args.seconds,
        "front": workload.front,
        "clients": workload.clients,
        "provenance": origin,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "failed_ratio": failed / attempted,
        "end_to_end": e2e,
        "per_layer": layers,
        "step_time_max_gap_s": step_gap,
        "phases": [
            {
                "label": phase["label"],
                "setup_samples_s": phase["setup_samples"],
                "warmup_s": phase["warmup_s"],
                "peak_rss_mb": phase["peak_rss_mb"],
                "warmup_peak_rss_mb": phase["warmup_peak_rss_mb"],
                "jobs": [job_row(job) for job in phase["jobs"]],
                "warmup": job_row(phase["warmup"]),
                "metrics_delta": phase["metrics_delta"],
            }
            for phase in phases
        ],
    }
    append_ledger(record)

    print(f"{workload.name} seed={args.seed} run={run_index} front={workload.front} "
          f"jobs={len(plain['jobs'])} warmup_s={plain['warmup_s']:.3f}")
    for name, value in e2e.items():
        print(f"  {name:<34} {value:>14.6f} {UNITS[name]}")
    print(f"  {'failed_ratio':<34} {failed / attempted:>14.6f} ratio")
    for name, value in layers.items():
        print(f"  {name:<34} {value:>14.6f} {UNITS[name]}")
    for failure in failures:
        print(f"  FAILED {failure}")
    chosen = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }))
    return 0 if correct else 1


# -- sweep --------------------------------------------------------------


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high or low) + 1))
    return seeds


def sweep(args) -> int:
    """Run every missing (workload, seed, run) record as its own process."""
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    keys = [(w, s, r) for w in names for s in parse_seeds(args.seeds) for r in range(args.runs)]
    finished = set() if args.no_resume else {r["key"] for r in read_ledger()}
    for workload, seed, run in keys:
        key = record_key(workload, seed, run, args.trace)
        if key in finished:
            continue
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--run", str(run)]
        if args.dry_run:
            print("would run:", " ".join(command))
            continue
        started = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        print(f"{key}: exit {done.returncode} in {time.perf_counter() - started:.1f}s")
        if done.returncode != 0:
            print(done.stdout[-3000:], done.stderr[-3000:])
    if args.dry_run:
        return 0
    wanted = {record_key(w, s, r, args.trace) for w, s, r in keys}
    records = [r for r in read_ledger() if r["key"] in wanted]
    field = "per_layer" if args.trace else "end_to_end"
    for workload in names:
        rows = [r for r in records if r["workload"] == workload]
        print(f"{workload}: {len(rows)} records, "
              f"{sum(not r['correct'] for r in rows)} incorrect")
        for metric in (rows[0][field] if rows else {}):
            values = [r[field][metric] for r in rows]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
            spread = (q3 - q1) / mid if mid else 0.0
            print(f"  {metric:<34} median {mid:>12.5f}  iqr/median {spread:.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run", type=int, default=None,
                        help="run index in the ledger (default: the next free one)")
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--no-resume", action="store_true")
    parser.add_argument("--dry-run", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        problems = checks.self_check() + trace_self_check()
        for problem in problems:
            print(problem)
        print("self-check", "failed" if problems else "passed")
        return 1 if problems else 0
    if args.sweep:
        return sweep(args)
    if args.workload is None:
        parser.error("--workload is required")
    limit = watchdog_seconds(args.seconds, args.trace)
    watchdog = threading.Timer(limit, _abort, args=(limit,))
    watchdog.daemon = True
    watchdog.start()
    return run_once(args)


def _abort(limit: float) -> None:
    print(f"benchmark exceeded {limit:.0f}s; stopping", file=sys.stderr)
    servers.kill_all()
    os._exit(3)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    finally:
        servers.kill_all()

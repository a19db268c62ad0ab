"""In-memory layer spans around the service's public callables.

:func:`install` replaces each traced callable, at the name its caller
looks it up by, with a wrapper that records one span per call: name,
start, end, parent span, job and a few counts read from arguments or the
return value.  The job is the ``name`` of the spec the worker is running,
so server-side spans join the client's records by job name.  Spans stay
in memory until :meth:`SpanRecorder.dump` writes them as JSON.

:func:`self_times` and :func:`step_totals` turn a span list back into
per-layer self times and per-job Step-1/2/3 totals.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

#: Span names, grouped by the pipeline step whose server-side timing
#: (``timings`` in the job summary) they make up when called directly
#: by the generator.
STEP_OF_SPAN = {
    "tiles.split": "step1_tiling",
    "cache.image_fingerprint": "step1_tiling",
    "cost.error_matrix": "step2_error_matrix",
    "cost.sparse_error_matrix": "step2_error_matrix",
    "cost.to_dense": "step2_error_matrix",
    "assignment.solve": "step3_rearrangement",
    "assignment.solve_sparse": "step3_rearrangement",
    "localsearch.local_search_parallel": "step3_rearrangement",
    "localsearch.local_search_serial": "step3_rearrangement",
}
#: Cache keys start with the artifact kind; it names the step the lookup
#: belongs to.
STEP_OF_CACHE_KEY = {"tiles": "step1_tiling", "matrix": "step2_error_matrix"}
#: Helpers that belong to the layer that calls them: called inside
#: another layer's span (``solve_sparse`` densifies its sparse matrix),
#: their time is charged to that layer; called by the job itself, to
#: their own.
SHARED_SPANS = {"cost.to_dense"}


class SpanRecorder:
    """Thread-safe span list with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, *, job_of=None, counts_of=None):
        """``fn`` recording a span named ``name`` per call.

        ``job_of(args)`` names the job a root span starts; nested spans
        inherit their parent's job.  ``counts_of(args, result)`` returns
        a dict of counts stored on the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = {
                "id": next(self._ids),
                "parent": parent["id"] if parent else None,
                "name": name,
                "job": job_of(args) if job_of else (parent or {}).get("job"),
            }
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if counts_of is not None:
                span["counts"] = counts_of(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
        os.replace(tmp, path)


def _patch(recorder, owner, attr, name, **kwargs) -> None:
    setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), **kwargs))


def _dense_counts(args, result) -> dict:
    inputs, targets = args[0], args[1]
    return {
        "pairs": int(len(inputs)) * int(len(targets)),
        "bytes": int(inputs.nbytes) + int(targets.nbytes) + int(result.nbytes),
    }


def _sparse_counts(args, result) -> dict:
    return {"pairs": int(result.meta.get("pairs_evaluated", 0))}


def _solver_counts(args, result) -> dict:
    return {"iterations": int(result.iterations)}


def _search_counts(args, result) -> dict:
    return {
        "sweeps": int(result.sweeps),
        "swaps": int(sum(result.trace.swap_counts)),
        "pairs": int(result.meta.get("pairs_evaluated", 0)),
    }


def _cache_counts(args, result) -> dict:
    return {"artifact": str(args[1]).split("/", 1)[0]}


def _save_counts(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced callable of the job pipeline with ``recorder``."""
    import repro.imaging
    import repro.mosaic.generator as generator
    import repro.service.cache as cache
    from repro.assignment.base import AssignmentSolver
    from repro.cost.sparse import SparseErrorMatrix
    from repro.service.cache import ArtifactCache, CacheStack
    from repro.service.cluster.cache import ClusterCacheStore
    from repro.service.diskcache import DiskCacheStore
    from repro.service.workers import MosaicJobRunner
    from repro.tiles.grid import TileGrid

    _patch(recorder, MosaicJobRunner, "__call__", "job",
           job_of=lambda args: args[1].name)
    _patch(recorder, generator, "match_histogram", "histogram.match_histogram")
    _patch(recorder, cache, "image_fingerprint", "cache.image_fingerprint")
    _patch(recorder, TileGrid, "split", "tiles.split")
    _patch(recorder, TileGrid, "assemble", "tiles.assemble")
    _patch(recorder, generator, "error_matrix", "cost.error_matrix",
           counts_of=_dense_counts)
    _patch(recorder, generator, "sparse_error_matrix", "cost.sparse_error_matrix",
           counts_of=_sparse_counts)
    _patch(recorder, SparseErrorMatrix, "to_dense", "cost.to_dense")
    _patch(recorder, AssignmentSolver, "solve", "assignment.solve",
           counts_of=_solver_counts)
    _patch(recorder, AssignmentSolver, "solve_sparse", "assignment.solve_sparse",
           counts_of=_solver_counts)
    for search in ("local_search_parallel", "local_search_serial"):
        _patch(recorder, generator, search, f"localsearch.{search}",
               counts_of=_search_counts)
    for store in (ArtifactCache, CacheStack, DiskCacheStore, ClusterCacheStore):
        for method in ("get_or_compute", "contains"):
            _patch(recorder, store, method, f"cache.{method}",
                   counts_of=_cache_counts)
    _patch(recorder, repro.imaging, "save_image", "imaging.save_image",
           counts_of=_save_counts)


def self_times(spans: list[dict]) -> list[dict]:
    """Each span with ``self`` = its duration minus its children's.

    Children run on their parent's thread, inside its interval, so their
    durations never overlap and subtract directly.  A :data:`SHARED_SPANS`
    span inside another layer's span takes that span's name, so its time
    counts for the calling layer.
    """
    by_id = {span["id"]: span for span in spans}
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (
                child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    out = []
    for span in spans:
        parent = by_id.get(span["parent"])
        name = span["name"]
        if name in SHARED_SPANS and parent is not None and parent["name"] != "job":
            name = parent["name"]
        out.append({**span, "name": name,
                    "self": span["end"] - span["start"] - child_time.get(span["id"], 0.0)})
    return out


def step_of(span: dict) -> str | None:
    """The pipeline step a layer call made by the job itself belongs to."""
    step = STEP_OF_SPAN.get(span["name"])
    if step is None and span["name"].startswith("cache."):
        step = STEP_OF_CACHE_KEY.get(span.get("counts", {}).get("artifact"))
    return step


def step_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per job, the summed duration of each step's direct layer calls.

    A layer call the job span made directly is attributed to the step
    its name (or, for cache lookups, its artifact kind) belongs to, and
    adds its whole duration, nested calls included.  The totals are
    comparable with the server's own per-job ``timings``.
    """
    roots = {span["id"]: span["job"] for span in spans if span["name"] == "job"}
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        job = roots.get(span["parent"])
        if job is None:
            continue
        step = step_of(span)
        if step is not None:
            per_job = totals.setdefault(job, {})
            per_job[step] = per_job.get(step, 0.0) + span["end"] - span["start"]
    return totals

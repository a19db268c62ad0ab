"""The benchmark's workloads and the seeded image pairs they submit.

Every workload is closed loop: each client waits for its job's terminal
event before it submits the next.  Jobs name their images by path; the
pairs are ``synthetic_image`` files written once under the work
directory and reused by later runs, since the same seed always yields
the same pixels.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

#: Image seeds of the fixed pair sets: the catalogues (image files are
#: named by size as well as seed) and the S=1024 pool.
CATALOGUE_BASE = 4_096_000
POOL_BASE = 1_024_000
#: Index of the warm-up pair, past every measured pair.
WARMUP_INDEX = 99


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one front.

    Why each workload is in the benchmark is its ``why`` in
    ``BENCHMARK.json``.

    ``front`` is ``"http"`` (one ``serve-http`` process) or ``"cluster"``
    (``serve-cluster`` plus one ``serve-node`` with a disk cache).  The
    pairs are fixed, so that run-to-run spread measures the program and
    not the draw: one pair's assignment can take twice as long as
    another's.  A ``catalogue`` workload has one client that submits
    whole passes over its ``catalogue`` pairs, given by index, in that
    order whatever the seed: a job's time depends on the job the server
    ran before it, by up to 2 s with 2-opt at S=4096, so a seeded order
    would make the run's median follow the order.  A ``pool``
    workload's clients cycle, with repeats, through its ``pool`` pairs
    in one seeded order, each client starting at its own offset
    (:func:`pool_pair`).  The warm-up pair is never a
    measured pair.  A ``job_seed`` workload sends each pair's input
    image seed as the job ``seed``, so a pair's seeded work is the same
    in every run.
    """

    name: str
    front: str
    clients: int
    size: int
    tile: int
    spec: dict = field(default_factory=dict)
    catalogue: tuple[int, ...] = ()
    pool: int = 0
    exact: bool = False
    job_seed: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-s4096",
            front="http",
            clients=1,
            size=512,
            tile=8,
            spec={"algorithm": "optimization", "solver": "scipy", "metric": "sad"},
            # Pairs whose exact assignment takes about as long as each
            # other's, so that the median of a pass is not simply the
            # middle pair's time: LSA times range 2.2-6.3 s over the
            # first twelve pairs, and 2.8-3.1 s over these three.
            catalogue=(3, 5, 6),
            exact=True,
        ),
        Workload(
            name="service-s1024",
            front="cluster",
            clients=2,
            size=256,
            tile=8,
            pool=4,
        ),
        Workload(
            name="sparse-s1024",
            front="http",
            clients=1,
            size=256,
            tile=8,
            spec={"shortlist_top_k": 32},
            # Sixteen jobs of about 0.7 s: a run times one or two whole
            # passes, so its median is over 16-32 jobs.
            catalogue=tuple(range(16)),
            job_seed=True,
        ),
    )
}


@dataclass(frozen=True)
class Pair:
    """One (input, target) job input, by image seed."""

    id: str
    input_seed: int
    target_seed: int
    size: int

    def paths(self, directory: str) -> tuple[str, str]:
        return (
            os.path.join(directory, f"s{self.size}-{self.input_seed}.png"),
            os.path.join(directory, f"s{self.size}-{self.target_seed}.png"),
        )


def _pair(pid: str, base: int, index: int, size: int) -> Pair:
    return Pair(pid, base + 2 * index, base + 2 * index + 1, size)


def measured_pairs(workload: Workload) -> list[Pair]:
    """The fixed pairs a run submits, catalogue or pool."""
    if workload.catalogue:
        return [_pair(f"c{i}", CATALOGUE_BASE, i, workload.size)
                for i in workload.catalogue]
    return [_pair(f"p{i}", POOL_BASE, i, workload.size) for i in range(workload.pool)]


def pool_pair(workload: Workload, seed: int, client: int, index: int) -> Pair:
    """The pair a pool client submits as its ``index``-th job.

    Every client cycles through one seeded order of the pool, starting
    ``pool / clients`` pairs after the previous client.  Two clients in
    step therefore never run the same pair at once, and the same jobs
    miss the cache in every run, whatever the seed: only which pair
    holds which position changes.
    """
    pairs = measured_pairs(workload)
    random.Random(f"{workload.name}/{seed}").shuffle(pairs)
    offset = client * len(pairs) // workload.clients
    return pairs[(offset + index) % len(pairs)]


def warmup_pair(workload: Workload) -> Pair:
    """A pair outside the measured set, for the untimed warm-up job."""
    base = CATALOGUE_BASE if workload.catalogue else POOL_BASE
    return _pair("warm", base, WARMUP_INDEX, workload.size)


def write_pairs(pairs: list[Pair], directory: str) -> None:
    """Write each pair's images as PNG files, unless already there."""
    from repro.imaging import save_image, synthetic_image

    os.makedirs(directory, exist_ok=True)
    for pair in pairs:
        for image_seed, path in zip((pair.input_seed, pair.target_seed), pair.paths(directory)):
            if not os.path.exists(path):
                tmp = f"{path}.{os.getpid()}.tmp.png"
                save_image(tmp, synthetic_image(pair.size, seed=image_seed))
                os.replace(tmp, path)

"""Correctness checks run on every job, and the exact optimum.

Every finished job is checked against its inputs:

* ``state``       the terminal state is DONE;
* ``permutation`` the output's tiles are a permutation of the tiles of
  ``match_histogram(input, target)``;
* ``total``       SAD(output, target), which is Eq. (2) recomputed from
  the output, equals the reported ``total_error``;
* ``optimal``     the total is at least the exact optimum, and equals it
  on a workload that runs the exact optimisation path;
* ``digest``      ``result_digest`` is the same for every run of one pair
  and config on one source tree, within a run and across runs
  (:class:`DigestBook`).

The optimum is computed here, outside the program: a chunked NumPy SAD
matrix over the tiles of ``match_histogram(input, target)`` and the
target's tiles, solved with ``scipy.optimize.linear_sum_assignment``.
It depends only on those two images, never on a job's output, and
:class:`OptimumCache` keeps it under a hash of their pixels, so that
repeated runs do not pay for it again.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np


def tile_rows(image: np.ndarray, tile: int) -> np.ndarray:
    """``(S, tile*tile)`` rows of the image's tiles, in grid order."""
    n = image.shape[0] // tile
    rows = image.reshape(n, tile, n, tile).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(rows.reshape(n * n, tile * tile))


def sad_matrix(inputs: np.ndarray, targets: np.ndarray, chunk: int = 32) -> np.ndarray:
    """Dense SAD between every row of ``inputs`` and of ``targets``."""
    a = inputs.astype(np.int16)
    b = targets.astype(np.int16)
    out = np.empty((len(a), len(b)), dtype=np.int64)
    for start in range(0, len(a), chunk):
        diff = a[start:start + chunk, None, :] - b[None, :, :]
        np.abs(diff, out=diff)
        out[start:start + chunk] = diff.sum(axis=2, dtype=np.int32)
    return out


def exact_optimum(matched: np.ndarray, target: np.ndarray, tile: int) -> int:
    """Minimum Eq. (2) total over all placements of ``matched``'s tiles."""
    from scipy.optimize import linear_sum_assignment

    matrix = sad_matrix(tile_rows(matched, tile), tile_rows(target, tile))
    rows, cols = linear_sum_assignment(matrix)
    return int(matrix[rows, cols].sum())


def pair_key(input_path: str, target_path: str, tile: int) -> str:
    """Content key of one (input, target, tile) job input."""
    digest = hashlib.sha256()
    for path in (input_path, target_path):
        with open(path, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    digest.update(f"t{tile}".encode())
    return digest.hexdigest()[:24]


def optimum_key(matched: np.ndarray, target: np.ndarray, tile: int) -> str:
    """Key of one optimum: the pixels it is computed from, and the tile."""
    digest = hashlib.sha256()
    for image in (matched, target):
        digest.update(f"{image.dtype}{image.shape}".encode())
        digest.update(hashlib.sha256(np.ascontiguousarray(image).tobytes()).digest())
    digest.update(f"t{tile}".encode())
    return digest.hexdigest()[:24]


class _JsonBook:
    """A small JSON dict persisted under the benchmark's work directory."""

    def __init__(self, path: str | None) -> None:
        self.path = path
        self.data: dict = {}
        if path and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.data = json.load(fh)

    def save(self) -> None:
        if not self.path:
            return
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=0, sort_keys=True)
        os.replace(tmp, self.path)


class OptimumCache(_JsonBook):
    """Exact optima by :func:`optimum_key`, computed once per key."""

    def get(self, matched: np.ndarray, target: np.ndarray, tile: int) -> int:
        key = optimum_key(matched, target, tile)
        if key not in self.data:
            self.data[key] = exact_optimum(matched, target, tile)
            self.save()
        return int(self.data[key])


class DigestBook(_JsonBook):
    """First ``result_digest`` seen per key; later ones must match.

    The caller's key names the source tree, the pair and the config, so
    a change of the program starts a new book entry: the check enforces
    repeatability within one source tree, not equality across commits.
    """

    def check(self, key: str, digest: str | None) -> str | None:
        if not digest:
            return "digest: job reported no result_digest"
        first = self.data.setdefault(key, digest)
        if first != digest:
            return f"digest: {digest[:12]} differs from earlier {first[:12]}"
        return None


def check_output(
    summary: dict,
    matched: np.ndarray,
    target_image: np.ndarray,
    output_image: np.ndarray | None,
    tile: int,
    optimum: int | None,
    *,
    exact: bool,
) -> list[str]:
    """Failed checks of one job, as ``"<check>: <reason>"`` strings.

    ``matched`` is ``match_histogram(input, target)``, computed by the
    caller once per pair.
    """
    if summary.get("state") != "DONE":
        return [f"state: {summary.get('state')} ({summary.get('error')})"]
    if output_image is None or output_image.shape != target_image.shape:
        return ["permutation: output missing or of the wrong shape"]
    failures = []
    placed = np.sort(tile_rows(output_image, tile).view(f"V{tile * tile}").ravel())
    source = np.sort(tile_rows(matched, tile).view(f"V{tile * tile}").ravel())
    if not np.array_equal(placed, source):
        failures.append("permutation: output tiles are not the matched input's tiles")
    total = int(
        np.abs(output_image.astype(np.int64) - target_image.astype(np.int64)).sum()
    )
    reported = summary.get("total_error")
    if total != reported:
        failures.append(f"total: SAD(output, target)={total} != reported {reported}")
    if optimum is not None and reported is not None:
        if reported < optimum or (exact and reported != optimum):
            failures.append(f"optimal: reported {reported} vs optimum {optimum}")
    return failures


def self_check() -> list[str]:
    """Run every check on a tiny job, clean and deliberately corrupted.

    Returns the problems found: a clean job that fails a check, or a
    corruption that its check lets through.  Empty means every check
    passes clean output and fires on corrupted output.
    """
    from repro.imaging import synthetic_image
    from repro.imaging.histogram import match_histogram
    from repro.mosaic.config import MosaicConfig
    from repro.mosaic.generator import PhotomosaicGenerator

    tile = 8
    source, target = synthetic_image(64, seed=1), synthetic_image(64, seed=2)
    result = PhotomosaicGenerator(
        MosaicConfig(tile_size=tile, algorithm="optimization", solver="scipy")
    ).generate(source, target)
    output = np.asarray(result.image)
    clean = {"state": "DONE", "total_error": int(result.total_error)}
    matched = match_histogram(source, target)
    optimum = OptimumCache(None).get(matched, target, tile)

    def run(summary=clean, image=output, opt=optimum):
        return check_output(summary, matched, target, image, tile, opt, exact=True)

    problems = [f"clean job failed {failure}" for failure in run()]
    bright = output.copy()
    bright[0, 0] = bright[0, 0] ^ 1
    swapped = _first_worse_swap(output, target, tile, optimum)
    swapped_total = int(np.abs(swapped.astype(np.int64) - target).sum())
    corruptions = {
        "state": run(summary={"state": "FAILED", "error": "injected"}),
        "permutation": run(image=bright),
        "total": run(summary={**clean, "total_error": clean["total_error"] + 1}),
        "optimal": run(summary={**clean, "total_error": swapped_total}, image=swapped),
    }
    book = DigestBook(None)
    book.check("pair", "a" * 64)
    corruptions["digest"] = [book.check("pair", "b" * 64) or ""]
    for check, failures in corruptions.items():
        if not any(failure.startswith(f"{check}:") for failure in failures):
            problems.append(f"corrupted output passed the {check} check")
    return problems


def _first_worse_swap(output, target, tile, optimum) -> np.ndarray:
    """``output`` with its first tile swapped for the first other tile
    whose swap raises the total above the optimum."""
    for col in range(tile, output.shape[1], tile):
        swapped = output.copy()
        swapped[:tile, :tile] = output[:tile, col:col + tile]
        swapped[:tile, col:col + tile] = output[:tile, :tile]
        if np.abs(swapped.astype(np.int64) - target).sum() != optimum:
            return swapped
    raise RuntimeError("every swap of the first tile keeps the optimum")

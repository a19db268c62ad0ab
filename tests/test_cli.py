"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.imaging import read_png, write_png


class TestParser:
    def test_generate_defaults(self):
        args = build_parser().parse_args(
            ["generate", "--input", "portrait", "--target", "sailboat"]
        )
        assert args.algorithm == "parallel"
        assert args.tile_size == 16

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_table_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--table", "9"])


class TestGenerate:
    def test_standard_names(self, tmp_path, capsys):
        out = tmp_path / "m.png"
        code = main(
            [
                "generate",
                "--input",
                "portrait",
                "--target",
                "sailboat",
                "--size",
                "64",
                "--tile-size",
                "8",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert read_png(out).shape == (64, 64)
        captured = capsys.readouterr().out
        assert "total error" in captured

    def test_file_inputs(self, tmp_path, rng):
        a = tmp_path / "a.png"
        b = tmp_path / "b.png"
        write_png(a, rng.integers(0, 256, size=(32, 32)).astype(np.uint8))
        write_png(b, rng.integers(0, 256, size=(32, 32)).astype(np.uint8))
        out = tmp_path / "out.png"
        code = main(
            [
                "generate",
                "--input", str(a),
                "--target", str(b),
                "--tile-size", "8",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert out.exists()

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="neither"):
            main(
                [
                    "generate",
                    "--input", str(tmp_path / "nope.png"),
                    "--target", "sailboat",
                ]
            )

    def test_shape_mismatch_errors(self, tmp_path, rng):
        a = tmp_path / "a.png"
        write_png(a, rng.integers(0, 256, size=(32, 32)).astype(np.uint8))
        with pytest.raises(SystemExit, match="identical shapes"):
            main(
                [
                    "generate",
                    "--input", str(a),
                    "--target", "sailboat",
                    "--size", "64",
                ]
            )

    def test_optimization_algorithm(self, tmp_path, capsys):
        out = tmp_path / "m.png"
        code = main(
            [
                "generate",
                "--input", "peppers",
                "--target", "barbara",
                "--size", "64",
                "--tile-size", "8",
                "--algorithm", "optimization",
                "--solver", "jv",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert "sweeps" not in capsys.readouterr().out


class TestVideo:
    def test_runs_and_reports_frames(self, capsys):
        code = main(
            [
                "video",
                "--frames", "3",
                "--size", "64",
                "--tile-size", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("frame") == 3
        assert "k=" in out

    def test_writes_frames_when_outdir_given(self, tmp_path, capsys):
        code = main(
            [
                "video",
                "--frames", "2",
                "--size", "64",
                "--tile-size", "8",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        assert len(list(tmp_path.glob("frame_*.png"))) == 2


class TestExport:
    def test_writes_report(self, tmp_path, monkeypatch, capsys):
        import repro.benchharness.export as export_mod

        monkeypatch.setattr(export_mod, "paper_grid", lambda profile: [(64, 4)])
        out = tmp_path / "EXP.md"
        code = main(["export", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("# EXPERIMENTS")


class TestDemo:
    def test_writes_gallery(self, tmp_path, capsys):
        code = main(["demo", "--outdir", str(tmp_path), "--size", "64"])
        assert code == 0
        written = list(tmp_path.glob("*_mosaic.png"))
        assert len(written) == 4  # the four paper pairs


def write_manifest(path, jobs, defaults=None):
    data = {"jobs": jobs}
    data["defaults"] = defaults or {"target": "sailboat", "size": 64, "tile_size": 8}
    path.write_text(json.dumps(data))
    return path


class TestBatch:
    def shared_target_manifest(self, tmp_path):
        inputs = ["portrait", "peppers", "portrait", "barbara",
                  "portrait", "peppers", "baboon", "portrait"]
        jobs = [{"input": name} for name in inputs]
        jobs[0]["output"] = "first.png"
        return write_manifest(tmp_path / "jobs.json", jobs)

    def test_batch_completes_with_cache_hits(self, tmp_path, capsys):
        manifest = self.shared_target_manifest(tmp_path)
        outdir = tmp_path / "out"
        code = main(
            ["batch", "--manifest", str(manifest), "--outdir", str(outdir),
             "--workers", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("DONE") == 8
        assert (outdir / "first.png").exists()
        report = json.loads((outdir / "metrics.json").read_text())
        # The acceptance bar: ≥8 jobs sharing one target, hit rate > 0.5.
        assert report["cache"]["hit_rate"] > 0.5
        assert report["counters"]["jobs_done"] == 8
        assert len(report["jobs"]) == 8
        assert all(j["state"] == "DONE" for j in report["jobs"])
        assert report["histograms"]["queue_wait_seconds"]["count"] == 8

    def test_batch_is_reproducible_for_a_seed(self, tmp_path, capsys):
        manifest = self.shared_target_manifest(tmp_path)

        def run(outdir):
            code = main(
                ["batch", "--manifest", str(manifest), "--outdir", str(outdir),
                 "--workers", "2", "--seed", "42"]
            )
            assert code == 0
            report = json.loads((outdir / "metrics.json").read_text())
            return [(j["job_id"], j.get("total_error")) for j in report["jobs"]]

        first = run(tmp_path / "a")
        capsys.readouterr()
        second = run(tmp_path / "b")
        assert first == second

    def test_failing_job_sets_exit_code(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path / "jobs.json",
            [{"input": "portrait"}, {"input": "no-such-file.png", "max_retries": 0}],
        )
        code = main(
            ["batch", "--manifest", str(manifest), "--outdir", str(tmp_path / "out"),
             "--workers", "1", "--retries", "0"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "DONE" in out  # the good job still completed

    def test_bad_manifest_raises_job_error(self, tmp_path):
        from repro.exceptions import JobError

        manifest = write_manifest(tmp_path / "jobs.json", [{"inptu": "portrait"}])
        with pytest.raises(JobError, match="inptu"):
            main(["batch", "--manifest", str(manifest)])

    def test_metrics_path_override(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path / "jobs.json", [{"input": "portrait"}])
        metrics_path = tmp_path / "custom_metrics.json"
        code = main(
            ["batch", "--manifest", str(manifest), "--outdir", str(tmp_path / "out"),
             "--metrics", str(metrics_path), "--workers", "1"]
        )
        assert code == 0
        assert metrics_path.exists()


class TestSeedPlumbing:
    """Every randomised component must route through repro.utils.rng so
    batch jobs are reproducible (no direct entropy calls elsewhere)."""

    def test_no_direct_numpy_entropy_outside_rng_module(self):
        import pathlib

        import repro

        src_root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in src_root.rglob("*.py"):
            if path.name == "rng.py" and path.parent.name == "utils":
                continue
            text = path.read_text(encoding="utf-8")
            for needle in ("default_rng(", "np.random.seed", "random.Random("):
                if needle in text:
                    offenders.append(f"{path.relative_to(src_root)}: {needle}")
        assert not offenders, (
            "randomness must route through repro.utils.rng.make_rng/spawn_seeds: "
            + "; ".join(offenders)
        )

    def test_batch_parser_exposes_seed(self):
        args = build_parser().parse_args(
            ["batch", "--manifest", "jobs.json", "--seed", "7"]
        )
        assert args.seed == 7

    def test_batch_seed_defaults_to_zero(self):
        args = build_parser().parse_args(["batch", "--manifest", "jobs.json"])
        assert args.seed == 0


# Flag -> default of every service subcommand, as they stood before the
# shared ``parents=`` flag groups replaced the per-command copies.  The
# groups must change no flag and no default.
SERVICE_FLAG_DEFAULTS = {
    "batch": {
        "--manifest": None,
        "--outdir": "batch_out",
        "--workers": 4,
        "--executor": "thread",
        "--retries": 1,
        "--timeout": None,
        "--metrics": None,
        "--cache-mb": 256,
        "--cache-dir": None,
        "--cache-budget": 2048,
        "--seed": 0,
        "--backend": None,
    },
    "serve-http": {
        "--host": "127.0.0.1",
        "--port": 8765,
        "--auth-token": None,
        "--outdir": "serve_out",
        "--workers": 2,
        "--executor": "thread",
        "--max-pending": 16,
        "--max-streams": 64,
        "--max-body-kb": 1024,
        "--retry-after": 1.0,
        "--retries": 1,
        "--timeout": None,
        "--metrics": None,
        "--event-log": None,
        "--cache-mb": 256,
        "--cache-dir": None,
        "--cache-budget": 2048,
        "--seed": 0,
        "--backend": None,
    },
    "serve-node": {
        "--coordinator": None,
        "--node-id": None,
        "--advertise-host": None,
        "--host": "127.0.0.1",
        "--port": 0,
        "--auth-token": None,
        "--heartbeat-interval": 0.5,
        "--lease-ttl": 60.0,
        "--job-floor-seconds": 0.0,
        "--outdir": "serve_out",
        "--workers": 2,
        "--executor": "thread",
        "--max-pending": 16,
        "--max-streams": 64,
        "--max-body-kb": 262144,
        "--retry-after": 1.0,
        "--retries": 1,
        "--timeout": None,
        "--cache-mb": 256,
        "--cache-dir": None,
        "--cache-budget": 2048,
        "--seed": 0,
        "--backend": None,
    },
    "serve-cluster": {
        "--host": "127.0.0.1",
        "--port": 8700,
        "--auth-token": None,
        "--heartbeat-deadline": 3.0,
        "--max-pending": 256,
        "--retry-after": 1.0,
        "--metrics": None,
    },
}

#: Arguments each subcommand needs before it parses at all.
REQUIRED_ARGS = {
    "batch": ["--manifest", "jobs.json"],
    "serve-http": [],
    "serve-node": ["--coordinator", "127.0.0.1:8700"],
    "serve-cluster": [],
}

#: Counts and budgets that only make sense >= 1.
POSITIVE_INT_FLAGS = (
    "--workers", "--max-pending", "--max-streams", "--max-body-kb",
    "--cache-mb", "--cache-budget",
)


def _subparser(name):
    import argparse

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


class TestServiceParserContract:
    @pytest.mark.parametrize("command", sorted(SERVICE_FLAG_DEFAULTS))
    def test_flags_and_defaults_pinned(self, command):
        parser = _subparser(command)
        table = {
            max(action.option_strings, key=len): parser.get_default(action.dest)
            for action in parser._actions
            if action.option_strings and action.dest != "help"
        }
        assert table == SERVICE_FLAG_DEFAULTS[command]

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--workers", "1"],
            ["batch", "--manifest", "jobs.json", "--spill-dir", "spill"],
        ],
        ids=["serve", "batch-spill-dir"],
    )
    def test_removed_entry_points_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command,flag",
        [
            (command, flag)
            for command, flags in SERVICE_FLAG_DEFAULTS.items()
            for flag in POSITIVE_INT_FLAGS
            if flag in flags
        ],
    )
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_counts_are_usage_errors(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED_ARGS[command], flag, value])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

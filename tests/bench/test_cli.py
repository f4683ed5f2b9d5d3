"""Tests for the interactive figure CLI."""

import json

import pytest

from repro.__main__ import FIGURES, main
from repro.bench.figures import ANALYTIC, SWEEPS, TRACE_SCENARIOS


class TestCli:
    def test_fig2a_prints_table(self, capsys):
        assert main(["bench", "fig2a"]) == 0
        out = capsys.readouterr().out
        assert "Fig 2a" in out
        assert "125" in out

    def test_table1_with_f(self, capsys):
        assert main(["bench", "table1", "--f", "2"]) == 0
        out = capsys.readouterr().out
        assert "2f+1 = 5" in out

    def test_fig5a_models(self, capsys):
        assert main(["bench", "fig5a", "--sizes", "4", "8"]) == 0
        out = capsys.readouterr().out
        assert "Kauri" in out and "Basil" in out

    def test_small_sweep_runs(self, capsys):
        assert main(["bench", "fig6c", "--sizes", "4", "--tasks", "20", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "OsirisBFT" in out and "ZFT" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig99"])

    def test_every_registered_figure_has_runner(self):
        assert set(FIGURES) == set(ANALYTIC) | set(SWEEPS)
        for name, fn in ANALYTIC.items():
            assert callable(fn), name
        for name, (title, build) in SWEEPS.items():
            assert title and callable(build), name


class _Args:
    """Minimal argparse stand-in for spec builders."""

    def __init__(self, figure, sizes=(4, 8), tasks=20, seed=1):
        self.figure = figure
        self.sizes = list(sizes)
        self.tasks = tasks
        self.seed = seed


class TestSweepSpecs:
    def test_grid_figures_sweep_systems_per_size(self):
        for fig in ("fig5b", "fig6a", "fig6b", "fig6c", "fig5c", "fig5d"):
            _, build = SWEEPS[fig]
            spec = build(_Args(fig))
            assert [(p.system, p.n) for p in spec.points] == [
                ("zft", 4), ("osiris", 4), ("rcp", 4),
                ("zft", 8), ("osiris", 8), ("rcp", 8),
            ], fig

    def test_grid_skips_rcp_on_tiny_clusters(self):
        _, build = SWEEPS["fig5b"]
        spec = build(_Args("fig5b", sizes=(2,)))
        assert [p.system for p in spec.points] == ["zft", "osiris"]

    def test_anomaly_profile_reaches_workload_params(self):
        for fig, profile in (
            ("fig5b", "fig5b"), ("fig6a", "LH"),
            ("fig6b", "HL"), ("fig6c", "MM"),
        ):
            _, build = SWEEPS[fig]
            spec = build(_Args(fig, tasks=33, seed=7))
            for p in spec.points:
                params = dict(p.workload_params)
                assert p.workload == "anomaly"
                assert params["profile"] == profile
                assert params["n_tasks"] == 33
                assert params["seed"] == 7

    def test_fig7b_is_fault_level_sweep(self):
        _, build = SWEEPS["fig7b"]
        spec = build(_Args("fig7b"))
        assert [(p.system, p.f) for p in spec.points] == [
            ("osiris", 1), ("osiris", 2), ("osiris", 3), ("osiris", 4),
            ("rcp", 1), ("rcp", 2),
        ]
        assert all(p.n == 32 for p in spec.points)

    def test_jobs_flag_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig5b", "--jobs", "0"])


class TestJsonArtifact:
    def test_json_artifact_written(self, tmp_path, capsys):
        path = tmp_path / "BENCH_sweep.json"
        assert main(
            [
                "bench", "fig5b", "--sizes", "4", "--tasks", "8",
                "--no-cache", "--out", str(path),
            ]
        ) == 0
        doc = json.loads(path.read_text())
        assert doc["spec"]["name"] == "fig5b"
        assert doc["jobs"] == 1
        assert doc["cache"] == {"hits": 0, "misses": 3}
        assert len(doc["points"]) == 3
        for entry in doc["points"]:
            assert entry["result"]["tasks_completed"] == 8
            assert entry["cached"] is False
            assert entry["wall_seconds"] > 0
        assert "artifact" in capsys.readouterr().out

    def test_second_run_hits_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_EXP_CACHE_DIR", str(tmp_path / "cache"))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["bench", "fig5b", "--sizes", "4", "--tasks", "8", "--out"]
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["cache"] == {"hits": 0, "misses": 3}
        assert db["cache"] == {"hits": 3, "misses": 0}
        assert [p["result"] for p in da["points"]] == [
            p["result"] for p in db["points"]
        ]

    def test_jobs4_artifact_bit_identical_to_serial(self, tmp_path, capsys):
        serial, fanned = tmp_path / "serial.json", tmp_path / "jobs4.json"
        base = ["bench", "fig5b", "--sizes", "4", "8", "--tasks", "8", "--no-cache"]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(base + ["--jobs", "4", "--out", str(fanned)]) == 0
        ds = json.loads(serial.read_text())
        df = json.loads(fanned.read_text())
        assert [p["result"] for p in ds["points"]] == [
            p["result"] for p in df["points"]
        ]
        assert [p["point"] for p in ds["points"]] == [
            p["point"] for p in df["points"]
        ]


class TestTraceSubcommand:
    def test_trace_writes_jsonl_and_chrome_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "t")
        rc = main(
            [
                "bench", "trace",
                "--scenario", "synthetic",
                "--n", "8",
                "--tasks", "12",
                "--out", prefix,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        jsonl = (tmp_path / "t.jsonl").read_text().splitlines()
        assert jsonl and all(json.loads(line)["kind"] for line in jsonl)
        doc = json.loads((tmp_path / "t.chrome.json").read_text())
        assert doc["traceEvents"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "trace", "--scenario", "nope"])

    def test_every_registered_scenario_has_runner(self):
        for name, fn in TRACE_SCENARIOS.items():
            assert callable(fn), name

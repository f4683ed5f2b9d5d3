"""`python -m repro mc` exit codes and output contracts."""

import json

from repro.__main__ import main as mc_main


class TestExplore:
    def test_clean_model_exits_zero(self, capsys):
        assert mc_main(["mc", "explore", "--n", "3", "--tasks", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_json_mode_reports_stats(self, capsys):
        assert (
            mc_main(["mc", "explore", "--n", "3", "--tasks", "1", "--json"]) == 0
        )
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["stats"]["violations"] == 0
        assert payload["stats"]["complete"] is True
        assert payload["model"]["n"] == 3

    def test_bad_model_exits_two(self, capsys):
        assert mc_main(["mc", "explore", "--n", "9"]) == 2
        assert mc_main(["mc", "explore", "--fault", "no-colon"]) == 2
        assert mc_main(["mc", "explore", "--fault", "output:spurious-reports"]) == 2


class TestStats:
    def test_stats_reports_reduction_ratio(self, capsys):
        assert mc_main(["mc", "stats", "--n", "3", "--tasks", "1", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        stats = payload["stats"]
        assert stats["reduction_ratio"] > 2.0
        assert stats["tree_size"] > stats["transitions"]
        assert stats["states"] > 0

    def test_stats_plain_output_names_every_counter(self, capsys):
        assert mc_main(["mc", "stats", "--n", "3", "--tasks", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("states", "transitions", "reduction_ratio",
                     "stutter_commits", "sleep_skips"):
            assert name in out


class TestReplay:
    def test_malformed_reproducer_exits_two(self, capsys):
        assert mc_main(["mc", "replay", "not json"]) == 2
        assert mc_main(["mc", "replay", json.dumps({"kind": "other"})]) == 2
        assert mc_main(["mc", "replay", "@/no/such/file.json"]) == 2

    def test_non_reproducing_trace_exits_one(self, capsys, tmp_path):
        # a clean model never fires the claimed invariant
        rep = {
            "kind": "mc-reproducer",
            "model": {"n": 3, "tasks": 1},
            "invariants": ["output-failure"],
            "details": [],
            "trace": [],
        }
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(rep))
        assert mc_main(["mc", "replay", f"@{path}"]) == 1
        assert "NOT reproduced" in capsys.readouterr().out

"""``python -m repro <command>`` is the one command line: one parser
over every package, one deployment-flag table and one error convention."""

import importlib.util
import subprocess
import sys

import pytest

from repro.__main__ import _COMMANDS, main
from repro.adversary.library import BUILTIN


class TestDispatch:
    def test_no_args_prints_usage_and_fails(self, capsys):
        assert main([]) == 2
        assert "usage: python -m repro" in capsys.readouterr().out

    def test_explicit_help_succeeds(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in _COMMANDS:
            assert name in out

    def test_unknown_command_fails(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(_COMMANDS))
    def test_each_subcommand_forwards_to_a_real_cli(self, name, capsys):
        # --help is handled by the command's subparser: SystemExit(0)
        # proves the command has a real parser, not a stub
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out  # the command printed its help


class TestServeRunAdmissionFlags:
    """``serve run`` forwards every admission value it was given, so an
    explicit 0 fails the range check instead of meaning "off"."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        from repro.serve.gateway import Gateway

        def refuse(self):
            raise AssertionError("the gateway would have started")

        monkeypatch.setattr(Gateway, "start", refuse)

    @pytest.mark.parametrize(
        "flag, knob",
        [("--admission-queue", "admission_queue"),
         ("--admission-rate", "admission_rate")],
    )
    def test_explicit_zero_fails_loudly(self, no_fork, flag, knob, capsys):
        assert main(["serve", "run", flag, "0", "--duration", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and knob in err

    def test_omitted_flags_leave_admission_off(self, monkeypatch):
        from repro import api

        seen = []

        class Served(Exception):
            pass

        def fake_serve(spec, **kwargs):
            seen.append(spec)
            raise Served

        monkeypatch.setattr(api, "serve", fake_serve)
        with pytest.raises(Served):
            main(["serve", "run", "--duration", "0"])
        with pytest.raises(Served):
            main(["serve", "run", "--admission-queue", "3"])
        assert seen[0].config == ()
        assert seen[1].config == (("admission_queue", 3),)


class TestOneEntryPoint:
    @pytest.mark.parametrize("name", sorted(_COMMANDS))
    def test_no_per_package_main(self, name):
        assert importlib.util.find_spec(f"repro.{name}.__main__") is None

    def test_help_loads_nothing_beyond_the_package(self):
        # every handler imports what it runs lazily; the parser alone
        # must not pull in any subsystem
        probe = (
            "import runpy, sys\n"
            "sys.argv = ['repro', '--help']\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro')),"
            " file=sys.stderr)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
        )
        assert "usage: python -m repro" in out.stdout
        assert out.stderr.strip() == "['repro']"

    def test_parser_names_the_bench_registries(self):
        # the names live in the parser so that --help imports nothing
        from repro.__main__ import FIGURES, TRACES
        from repro.bench.figures import ANALYTIC, SWEEPS, TRACE_SCENARIOS

        assert set(FIGURES) == set(ANALYTIC) | set(SWEEPS)
        assert set(TRACES) == set(TRACE_SCENARIOS)


class TestLiveCampaigns:
    """``live run``/``live crossval --campaign`` take every name the
    campaign library lists, through the one resolver."""

    @pytest.fixture
    def specs(self, monkeypatch):
        from repro.live import crossval

        seen = []

        class Ran(Exception):
            pass

        def capture(spec, time_scale):
            seen.append(spec)
            raise Ran

        monkeypatch.setattr(crossval, "cross_validate", capture)

        def spec_for(*argv):
            with pytest.raises(Ran):
                main(["live", "crossval", *argv])
            return seen[-1]

        return spec_for

    @pytest.mark.parametrize("name", sorted(BUILTIN))
    def test_every_builtin_resolves(self, specs, name):
        spec = specs("--campaign", name)
        default = BUILTIN[name]()
        assert spec.campaign.name == default.name
        assert spec.campaign.triggers == default.triggers
        assert spec.backend == "des" and spec.sanitize

    def test_at_retimes_the_campaign(self, specs):
        spec = specs("--campaign", "fig7a", "--at", "3")
        assert [phase.at for phase in spec.campaign.phases] == [3.0]
        spec = specs("--campaign", "silent-minority")
        assert [phase.at for phase in spec.campaign.phases] == [0.5]

    def test_unknown_campaign_is_an_error(self, capsys):
        assert main(["live", "crossval", "--campaign", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown campaign")

    def test_live_only_rejections_are_errors(self, capsys):
        # trigger campaigns are DES-only: the live spec refuses them
        assert main(["live", "run", "--campaign", "turncoat"]) == 2
        assert "DES-only" in capsys.readouterr().err

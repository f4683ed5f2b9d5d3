"""The unified ``python -m repro <subcommand>`` dispatcher forwards to
the per-package CLIs and fails loudly on anything else."""

import pytest

from repro.__main__ import _COMMANDS, main


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
        # --help is handled by each sub-CLI's argparse: SystemExit(0)
        # proves the forward resolved an actual parser, not a stub
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out  # the sub-CLI printed its help


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
    def test_explicit_zero_fails_loudly(self, no_fork, flag, knob):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError, match=knob):
            main(["serve", "run", flag, "0", "--duration", "0"])

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

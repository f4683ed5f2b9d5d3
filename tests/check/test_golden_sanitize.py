"""The sanitizer is observational: enabling it must not perturb a single
byte of the golden fig5 traces, while still checking the whole run."""

import hashlib
import io
import json
import pathlib

import pytest

from repro import api
from repro.bench import anomaly_bench
from repro.obs import JsonlTraceSink

FIXTURES = pathlib.Path(__file__).parent.parent / "obs" / "fixtures"


def sanitized_run(system, fixture):
    expected = json.loads((FIXTURES / fixture).read_text())
    buf = io.StringIO()
    spec = api.DeploymentSpec(
        workload=anomaly_bench(
            "MM", n_tasks=expected["n_tasks"], seed=expected["seed"]
        ),
        n=8,
        system=system,
        seed=expected["seed"],
        sinks=[JsonlTraceSink(buf)],
    )
    return expected, buf, api.run(spec.with_(sanitize=True))


class TestGoldenSanitize:
    def test_sanitized_run_is_byte_identical_and_clean(self):
        expected, buf, result = sanitized_run("osiris", "fig5_mm_n8.json")
        text = buf.getvalue()
        assert len(text.splitlines()) == expected["lines"]
        assert (
            hashlib.sha256(text.encode()).hexdigest() == expected["sha256"]
        ), (
            "sanitize=True perturbed the trace — the checkers must stay "
            "purely observational"
        )
        report = result.extra["sanitizer_report"]
        assert result.sanitizer_violations == 0
        assert report.ok, report.summary()
        # and it actually looked at the run, not just waved it through
        assert report.transfers_checked > 0
        assert report.spans_checked > 0
        assert report.banks_audited > 0
        assert report.outputs_recomputed == expected["n_tasks"]

    @pytest.mark.parametrize("system", ["zft", "rcp"])
    def test_sanitized_baseline_run_is_byte_identical_and_clean(self, system):
        """A baseline gets the link and CPU audits; the conservation
        audit, which recomputes OsirisBFT's verified output, is skipped."""
        expected, buf, result = sanitized_run(system, f"{system}_mm_n8.json")
        text = buf.getvalue()
        assert len(text.splitlines()) == expected["lines"]
        assert hashlib.sha256(text.encode()).hexdigest() == expected["sha256"]
        report = result.extra["sanitizer_report"]
        assert result.sanitizer_violations == 0
        assert report.ok, report.summary()
        assert report.transfers_checked > 0
        assert report.spans_checked > 0
        assert report.banks_audited > 0
        assert report.outputs_recomputed == 0

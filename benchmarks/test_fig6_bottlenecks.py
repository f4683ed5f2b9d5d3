"""Figure 6 + Sec 7.2 — bottleneck analysis and dynamic role-switching.

6a-c: scalability of the LH / HL / MM anomaly workloads; Sec 7.2's
profiling claims (HL is CPU-bound with high executor utilization; LH/MM
push far more bytes to OP than HL).  6d: dynamic role-switching vs
static sub-cluster counts.  6e: throughput-latency as the task
submission rate sweeps from light to overload.
"""

import pytest

from repro import api
from repro.api import DeploymentSpec
from repro.bench import print_figure, print_series, print_table
from repro.exp import SweepSpec

NS = (4, 8, 16, 32)
SEED = 1
DEADLINE = 3000.0


def _pair_grid(name, profile, n_tasks=240):
    """ZFT vs OsirisBFT across NS for one anomaly profile."""
    return SweepSpec.grid(
        name,
        "anomaly",
        {"profile": profile, "n_tasks": n_tasks, "seed": SEED},
        sizes=NS,
        systems=("zft", "osiris"),
        seed=SEED,
        deadline=DEADLINE,
    )


def _assert_gap_narrows(res):
    gap4 = res[("zft", 4)].throughput / max(res[("osiris", 4)].throughput, 1e-9)
    gap32 = res[("zft", 32)].throughput / max(
        res[("osiris", 32)].throughput, 1e-9
    )
    assert gap32 <= gap4 * 1.15, (gap4, gap32)


class TestFig6aLh:
    SPEC = _pair_grid("fig6a", "LH")

    @pytest.fixture(scope="class")
    def res(self, run_spec):
        return run_spec(self.SPEC).by()

    def test_fig6a_lh(self, run_once, res):
        results = run_once(lambda: res)
        print_figure(
            "Fig 6a: LH (3-hop paths — low CPU, high output)",
            [results[k] for k in sorted(results)],
        )
        _assert_gap_narrows(results)


class TestFig6bHl:
    SPEC = _pair_grid("fig6b", "HL")

    @pytest.fixture(scope="class")
    def res(self, run_spec):
        return run_spec(self.SPEC).by()

    def test_fig6b_hl(self, run_once, res):
        results = run_once(lambda: res)
        print_figure(
            "Fig 6b: HL (6-cliques — high CPU, low output)",
            [results[k] for k in sorted(results)],
        )
        _assert_gap_narrows(results)


class TestFig6cMm:
    SPEC = _pair_grid("fig6c", "MM")

    @pytest.fixture(scope="class")
    def res(self, run_spec):
        return run_spec(self.SPEC).by()

    def test_fig6c_mm(self, run_once, res):
        results = run_once(lambda: res)
        print_figure(
            "Fig 6c: MM (dense size-6 — medium CPU & output)",
            [results[k] for k in sorted(results)],
        )
        _assert_gap_narrows(results)


class TestSec72Profiles:
    """Sec 7.2: per-workload CPU vs network profiles at n=32."""

    SPEC = SweepSpec.of(
        "sec72",
        [
            DeploymentSpec(
                system=system,
                workload="anomaly",
                workload_params={"profile": wl, "n_tasks": 240, "seed": SEED},
                n=32,
                seed=SEED,
                deadline=DEADLINE,
                label=f"{wl}-{system}",
            )
            for wl in ("LH", "HL", "MM")
            for system in ("zft", "osiris")
        ],
    )

    @pytest.fixture(scope="class")
    def profiles(self, run_spec):
        flat = run_spec(self.SPEC).by(
            lambda p: (dict(p.workload_params)["profile"], p.system)
        )
        return {
            wl: {"zft": flat[(wl, "zft")], "osiris": flat[(wl, "osiris")]}
            for wl in ("LH", "HL", "MM")
        }

    def test_sec72_profiles(self, run_once, profiles):
        prof = run_once(lambda: profiles)
        rows = [
            (
                wl,
                f"{prof[wl]['osiris'].executor_utilization * 100:.0f}%",
                f"{prof[wl]['osiris'].op_bandwidth / 1e6:.1f} MB/s",
                f"{prof[wl]['zft'].op_bandwidth / 1e6:.1f} MB/s",
            )
            for wl in ("LH", "MM", "HL")
        ]
        print_table(
            "Sec 7.2 profiling at n=32",
            ["workload", "Osiris exec CPU", "Osiris OP-link", "ZFT OP-link"],
            rows,
        )
        # the bottleneck structure: high-output workloads move an order
        # of magnitude more bytes to OP than HL, in both systems
        for system in ("osiris", "zft"):
            assert (
                prof["LH"][system].op_bandwidth
                > 5 * prof["HL"][system].op_bandwidth
            )
            assert (
                prof["MM"][system].op_bandwidth
                > 5 * prof["HL"][system].op_bandwidth
            )
        # HL keeps executors busier than the output-bound workloads
        assert (
            prof["HL"]["osiris"].executor_utilization
            >= prof["LH"]["osiris"].executor_utilization * 0.8
        )


def _fig6d_point(label, k, dynamic):
    return DeploymentSpec(
        system="osiris",
        workload="two_phase",
        workload_params={
            "n_tasks": 400, "records_light": 2, "records_heavy": 40
        },
        n=14,
        k=k,
        seed=SEED,
        deadline=DEADLINE,
        config={
            "role_switching": dynamic,
            "role_switch_interval": 0.5,
            "switch_patience": 2,
            "switch_cooldown": 3,
        },
        label=label,
    )


class TestFig6dRoleSwitching:
    """Dynamic role-switching vs static sub-cluster counts (n=14).

    The workload has a verification-light first phase and a
    verification-heavy second phase, so no static k is right throughout —
    the regime where the paper's dynamic policy earns its +11% mean /
    +31% peak.  Our whole-cluster lending at n=14 moves capacity in 21%
    steps, so we assert *adaptivity* (switches in both directions,
    throughput inside the static envelope) rather than strict dominance;
    see EXPERIMENTS.md for the measured deltas.
    """

    N = 14
    TASKS = 400

    SPEC = SweepSpec.of(
        "fig6d",
        [
            _fig6d_point(f"static k={k}", k, dynamic=False)
            for k in (1, 2, 3, 4)
        ] + [_fig6d_point("dynamic", 4, dynamic=True)],
    )

    @pytest.fixture(scope="class")
    def res(self):
        # in-process runs: the dynamic point's cluster is inspected for
        # the role-switch timeline below
        return {p.label: api.run(p) for p in self.SPEC.points}

    def test_fig6d_role_switching(self, run_once, res):
        results = run_once(lambda: res)
        rows = [
            (name, f"{r.throughput:.0f} rec/s", f"{r.peak_throughput:.0f} peak")
            for name, r in results.items()
        ]
        print_table(
            "Fig 6d: static k vs dynamic role-switching",
            ["configuration", "mean throughput", "peak"],
            rows,
        )
        cluster = results["dynamic"].extra["cluster"]
        series = cluster.metrics.throughput_series()
        print_series("Fig 6d: dynamic throughput trace", series, "rec/s")
        statics = [
            r.throughput for name, r in results.items() if name != "dynamic"
        ]
        dyn = results["dynamic"].throughput
        # within the static envelope, clearly above the worst static
        assert dyn >= 0.75 * max(statics), (dyn, max(statics))
        assert dyn > min(statics)
        # adaptivity: the policy lent clusters out AND recalled them
        switches = cluster.metrics.role_switches
        assert any(to_exec for _, _, to_exec in switches)
        assert any(not to_exec for _, _, to_exec in switches)


class TestFig6eThroughputLatency:
    """Throughput-latency as offered load sweeps 3 decades (n=32)."""

    RATES = (5.0, 20.0, 80.0)

    # same task set at every rate: only arrival intensity changes, like
    # the paper's 100→100K tasks/sec sweep
    SPEC = SweepSpec.of(
        "fig6e",
        [
            DeploymentSpec(
                system="osiris",
                workload="anomaly",
                workload_params={
                    "profile": wl,
                    "n_tasks": 300,
                    "rate": rate,
                    "seed": SEED,
                },
                n=32,
                seed=SEED,
                deadline=DEADLINE,
                label=f"{wl}@{rate}",
            )
            for wl in ("LH", "HL", "MM")
            for rate in (5.0, 20.0, 80.0)
        ],
    )

    @pytest.fixture(scope="class")
    def res(self, run_spec):
        return run_spec(self.SPEC).by(
            lambda p: (
                dict(p.workload_params)["profile"],
                dict(p.workload_params)["rate"],
            )
        )

    def test_fig6e_throughput_latency(self, run_once, res):
        results = run_once(lambda: res)
        rows = [
            (
                wl,
                f"{rate}/s",
                f"{r.throughput:.0f} rec/s",
                f"{r.mean_latency:.2f} s",
            )
            for (wl, rate), r in sorted(results.items())
        ]
        print_table(
            "Fig 6e: throughput vs latency under increasing load (n=32)",
            ["workload", "offered rate", "throughput", "mean latency"],
            rows,
        )
        for wl in ("LH", "HL", "MM"):
            lat = [results[(wl, r)].mean_latency for r in self.RATES]
            thr = [results[(wl, r)].throughput for r in self.RATES]
            # latency grows with load...
            assert lat[-1] >= lat[0]
            # ...and throughput does not collapse
            assert thr[-1] >= thr[0] * 0.8

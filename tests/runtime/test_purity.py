"""Protocol cores are substrate-free: no module under ``repro.core``,
``repro.consensus`` or ``repro.baselines`` may import the DES kernel or
the simulated network.
Binding to a substrate happens exclusively in ``repro.runtime`` (DesHost
and the deployment builder).  Heavy or unrelated dependencies load only
where they are used: SciPy on the planning app's first LP, numpy where
arrays are built (the DES's RNG streams, the anomaly graph, the video
and planning apps), and neither numpy nor the protocol cores in the
serve client."""

import ast
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro.baselines
import repro.consensus
import repro.core

FORBIDDEN_PREFIXES = ("repro.sim", "repro.net.links")


def module_files(package):
    root = pathlib.Path(package.__file__).parent
    return sorted(root.glob("*.py"))


def run_fresh(code):
    """Run ``code`` in a new interpreter, so ``sys.modules`` starts empty."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def imported_names(path):
    """Names imported anywhere in the module, at any nesting level."""
    tree = ast.parse(path.read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.append(node.module)
    return out


class TestCorePurity:
    def test_no_kernel_or_link_imports_in_protocol_modules(self):
        offenders = []
        for package in (repro.core, repro.consensus, repro.baselines):
            for path in module_files(package):
                for name in imported_names(path):
                    if name.startswith(FORBIDDEN_PREFIXES):
                        offenders.append(f"{path.name}: {name}")
        assert offenders == [], (
            "protocol modules must stay substrate-free; "
            f"found {offenders}"
        )

    def test_core_package_imports_without_runtime_backends(self):
        """Importing the protocol packages must not drag in the DES; the
        deploy shim resolves lazily on attribute access only."""
        run_fresh(
            "import sys; import repro.core, repro.consensus; "
            "assert 'repro.sim.kernel' not in sys.modules, 'kernel leaked'; "
            "assert 'repro.net.links' not in sys.modules, 'links leaked'"
        )

    def test_live_node_loads_no_baseline_or_des_backend(self):
        """A plan imports a baseline only to build its cores, so a live
        OsirisBFT node loads none until its wire registry is built; that
        imports the baselines' messages (with their cores and plans) but
        no DES module."""
        run_fresh(
            textwrap.dedent(
                """
                import sys
                import repro.runtime.plan, repro.live.host
                from repro.runtime import codec

                assert "repro.baselines" not in sys.modules
                assert "RcpAssign" in codec.registered_types()
                for name in ("repro.runtime.des", "repro.obs.metrics"):
                    assert name not in sys.modules, name
                """
            )
        )

    def test_obs_package_leaves_the_metrics_hub_unloaded(self):
        """Every live child imports ``repro.obs`` through its events
        module; the metrics hub is a parent-side sink and must not come
        with the package."""
        run_fresh(
            "import sys; import repro.obs, repro.live.host; "
            "assert 'repro.obs.metrics' not in sys.modules, 'hub leaked'; "
            "assert 'repro.obs.stats' not in sys.modules, 'stats leaked'"
        )


class TestLazyDependencies:
    @pytest.mark.parametrize(
        "module", ["repro.api", "repro.bench", "repro.apps.planning"]
    )
    def test_import_loads_no_scipy(self, module):
        run_fresh(
            f"import sys; import {module}; "
            "leaked = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not leaked, leaked[:5]"
        )

    def test_first_lp_loads_scipy_from_both_call_sites(self):
        """Non-vacuity for the case above: the solver and the verifier
        both reach the one helper that imports SciPy, and the verdict is
        the one recorded before the import moved (knapsack-12: optimal at
        -132 after 83 node LPs; 42 leaves, one LP re-solve)."""
        run_fresh(
            textwrap.dedent(
                """
                import sys
                from repro.apps.planning import branch_bound, certificates
                from repro.apps.planning import instance_suite

                assert "scipy" not in sys.modules
                calls = []

                def counted(site, fn):
                    def call(*args):
                        calls.append(site)
                        return fn(*args)
                    return call

                branch_bound.solve_lp = counted("solve", branch_bound.solve_lp)
                certificates.solve_lp = counted("verify", certificates.solve_lp)
                inst = instance_suite(20)[12]
                assert inst.name == "knapsack-12", inst.name
                r = branch_bound.BranchAndBoundSolver().solve(inst)
                assert (r.status, r.objective, r.lp_solves) == ("optimal", -132.0, 83)
                out = certificates.CertificateVerifier().verify_optimal(
                    inst, r.x, r.objective, r.certificate
                )
                assert out == certificates.VerifyOutcome(True, "ok", 42, 1), out
                assert calls.count("solve") == 83, calls.count("solve")
                assert calls.count("verify") == 1, calls.count("verify")
                assert "scipy.optimize" in sys.modules
                """
            )
        )

    @pytest.mark.parametrize(
        "statement",
        [
            "import repro.api",
            "import repro.bench",
            "import repro.live",
            # the gateway's import set: importing repro.serve alone
            # loaded no numpy before either
            "import repro.serve; from repro.api import serve",
            # the import set of the benchmark's drivers
            "from repro.apps.anomaly import AnomalyApp, anomaly_workload, "
            "link_update_stream, make_link_task; "
            "import repro.bench.workloads, repro.bench.scenarios",
        ],
    )
    def test_import_loads_no_numpy(self, statement):
        run_fresh(
            f"import sys; {statement}; "
            "leaked = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'); "
            "assert not leaked, leaked[:5]"
        )

    def test_arrays_still_load_numpy_where_they_are_built(self):
        """Non-vacuity for the case above: building a DES deployment
        (its RNG streams) and an anomaly app's graph state each load
        numpy."""
        run_fresh(
            textwrap.dedent(
                """
                import sys
                from repro import api

                assert "numpy" not in sys.modules
                api.build(api.DeploymentSpec(
                    workload="synthetic", workload_params={"n_tasks": 4}, n=4
                ))
                assert "numpy" in sys.modules, "api.build loaded no numpy"
                """
            )
        )
        run_fresh(
            textwrap.dedent(
                """
                import sys
                from repro.apps.anomaly import AnomalyApp, clique

                assert "numpy" not in sys.modules
                app = AnomalyApp([(0, 1), (1, 2), (0, 2)], clique(3))
                app.initial_state()
                assert "numpy" in sys.modules, "graph state loaded no numpy"
                """
            )
        )

    def test_reseed_leaves_numpy_unloaded_and_seeds_it_per_node(self):
        """A live child reseeds the global generators from (seed, pid);
        numpy's only if the parent had loaded it."""
        run_fresh(
            textwrap.dedent(
                """
                import sys
                from repro.live.host import _reseed

                _reseed(7, "v0")
                assert "numpy" not in sys.modules, "_reseed loaded numpy"

                import numpy as np

                _reseed(7, "v0")
                first = np.random.random()
                _reseed(7, "v0")
                assert np.random.random() == first
                _reseed(7, "v1")
                assert np.random.random() != first
                """
            )
        )

    def test_serve_client_loads_no_numpy_or_cores(self):
        run_fresh(
            "import sys; import repro.serve.client; "
            "assert 'numpy' not in sys.modules, 'numpy leaked'; "
            "assert 'repro.core.verifier' not in sys.modules, 'cores leaked'"
        )

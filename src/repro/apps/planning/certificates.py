"""Certificate verification for Motion Planning records.

The verifier-side counterpart of the solver's proofs — the analogue of
SCIP's built-in proof validation [21] that the paper's verification
operators call.  Verification never *searches*: it walks the certificate
tree, accumulating the branching box, and checks each leaf:

* **bound / incumbent leaves** — weak duality.  Given multipliers
  y, μ_l, μ_u ≥ 0 with ``c + Aᵀy − μ_l + μ_u = 0``, every feasible x in
  the leaf box [l, u] satisfies::

      c·x = (μ_l − μ_u − Aᵀy)·x ≥ μ_l·l − μ_u·u − y·b

  so ``μ_l·l − μ_u·u − y·b ≥ obj − tol`` proves no better point exists
  in that box — a handful of dense dot products.
* **infeasible / resolve leaves** — one LP re-solve of the leaf box
  (still no tree search; the paper's point is avoiding re-computation,
  not avoiding every LP).

Plus the global checks: the branching tree partitions the root domain
(so the leaves cover everything) and the claimed solution is feasible,
integral and matches the claimed objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.planning.branch_bound import CertNode
from repro.apps.planning.mip import MipInstance, solve_lp

__all__ = ["CertificateVerifier", "VerifyOutcome"]

_TOL = 1e-5


@dataclass(frozen=True)
class VerifyOutcome:
    """Verification verdict plus the work counter for the cost model."""

    ok: bool
    reason: str
    leaves_checked: int
    lp_resolves: int


class CertificateVerifier:
    """Checks optimality/infeasibility certificates against an instance."""

    def __init__(self, max_lp_resolves: int = 64) -> None:
        self.max_lp_resolves = max_lp_resolves

    # ------------------------------------------------------------ public
    def verify_optimal(
        self, inst: MipInstance, x, objective: float, cert: CertNode
    ) -> VerifyOutcome:
        """Check a claimed optimal solution + certificate."""
        x = np.asarray(x, dtype=float)
        if not inst.is_feasible(x):
            return VerifyOutcome(False, "solution-infeasible", 0, 0)
        if abs(inst.objective(x) - objective) > 1e-4:
            return VerifyOutcome(False, "objective-mismatch", 0, 0)
        return self._walk(inst, cert, objective)

    def verify_infeasible(
        self, inst: MipInstance, cert: CertNode
    ) -> VerifyOutcome:
        """Check a claimed infeasibility certificate: every leaf of the
        partition must itself be (LP-)infeasible."""
        return self._walk(inst, cert, objective=None)

    # ----------------------------------------------------------- tree walk
    def _walk(self, inst: MipInstance, cert: CertNode, objective):
        state = {"leaves": 0, "resolves": 0}
        ok, reason = self._check_node(
            inst,
            cert,
            inst.lower.copy().astype(float),
            inst.upper.copy().astype(float),
            objective,
            state,
        )
        return VerifyOutcome(ok, reason, state["leaves"], state["resolves"])

    def _check_node(self, inst, node, lower, upper, objective, state):
        if node is None:
            return False, "missing-node"
        if node.kind == "branch":
            i = node.branch_var
            if not 0 <= i < inst.n_vars or not inst.integer[i]:
                return False, "bad-branch-var"
            val = node.branch_val
            if val != np.floor(val):
                return False, "bad-branch-val"
            up_l = upper.copy()
            up_l[i] = min(up_l[i], val)
            lo_r = lower.copy()
            lo_r[i] = max(lo_r[i], val + 1.0)
            ok, reason = self._check_node(
                inst, node.left, lower, up_l, objective, state
            )
            if not ok:
                return ok, reason
            return self._check_node(
                inst, node.right, lo_r, upper, objective, state
            )

        state["leaves"] += 1
        if (lower > upper).any():
            return True, "ok"  # empty box: vacuously covered
        if node.kind in ("bound", "incumbent") and node.duals is not None:
            if objective is None:
                # an infeasibility claim cannot contain feasible leaves
                return False, "feasible-leaf-in-infeasible-claim"
            return self._check_dual_bound(
                inst, node.duals, lower, upper, objective
            )
        if node.kind in ("infeasible", "resolve", "bound", "incumbent"):
            return self._resolve_leaf(inst, lower, upper, objective, state)
        return False, f"unknown-leaf-kind-{node.kind}"

    # ------------------------------------------------------------- checks
    @staticmethod
    def _check_dual_bound(inst, duals, lower, upper, objective):
        y = np.asarray(duals["y"], dtype=float)
        mu_l = np.asarray(duals["mu_l"], dtype=float)
        mu_u = np.asarray(duals["mu_u"], dtype=float)
        if (
            y.shape != (inst.n_constraints,)
            or mu_l.shape != (inst.n_vars,)
            or mu_u.shape != (inst.n_vars,)
        ):
            return False, "dual-shape"
        if (y < -_TOL).any() or (mu_l < -_TOL).any() or (mu_u < -_TOL).any():
            return False, "dual-sign"
        stationarity = inst.c + inst.a_ub.T @ y - mu_l + mu_u
        if np.abs(stationarity).max() > 1e-4:
            return False, "dual-stationarity"
        # unbounded box directions with nonzero multiplier make the bound -inf
        finite_l = np.isfinite(lower)
        finite_u = np.isfinite(upper)
        if (mu_l[~finite_l] > _TOL).any() or (mu_u[~finite_u] > _TOL).any():
            return False, "dual-unbounded-direction"
        bound = (
            float(mu_l[finite_l] @ lower[finite_l])
            - float(mu_u[finite_u] @ upper[finite_u])
            - float(y @ inst.b_ub)
        )
        if bound < objective - 1e-3:
            return False, "bound-too-weak"
        return True, "ok"

    def _resolve_leaf(self, inst, lower, upper, objective, state):
        if state["resolves"] >= self.max_lp_resolves:
            return False, "too-many-resolves"
        state["resolves"] += 1
        res = solve_lp(inst, lower, upper)
        if res.status == 2:
            return True, "ok"
        if objective is None:
            return False, "leaf-actually-feasible"
        if res.status != 0:
            return False, f"lp-status-{res.status}"
        if res.fun < objective - 1e-3:
            return False, "better-point-exists"
        return True, "ok"

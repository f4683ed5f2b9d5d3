"""Branch-and-bound MIP solver emitting verifiable certificates.

The executor-side analogue of the paper's SCIP configuration that
"appends a proof of optimality or infeasibility to each record" [21].
The solver explores the LP-relaxation tree (HiGHS node LPs through
:func:`~repro.apps.planning.mip.solve_lp`), branching on the most
fractional integer variable, and records the tree as a
:class:`CertNode` certificate:

* every **internal** node stores its branching variable/value, so the
  verifier can confirm the leaves partition the root domain;
* every **bounded leaf** stores LP dual multipliers (y, μ_l, μ_u) whose
  weak-duality bound proves no better integer point hides there;
* every **infeasible leaf** either stores a Farkas-style certificate or
  is flagged for one cheap LP re-solve by the verifier;
* the **incumbent leaf** stores the integral solution itself.

Verification (see :mod:`repro.apps.planning.certificates`) is a tree
walk with dense linear algebra — no search — which is the compute≫verify
asymmetry the paper's Motion Planning application relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.planning.mip import MipInstance, solve_lp
from repro.errors import ApplicationError

__all__ = ["CertNode", "SolveResult", "BranchAndBoundSolver"]

_TOL = 1e-6


@dataclass
class CertNode:
    """One node of the certificate tree (kind ∈ branch|bound|incumbent|
    infeasible|resolve)."""

    kind: str
    branch_var: int = -1
    branch_val: float = 0.0
    left: Optional["CertNode"] = None
    right: Optional["CertNode"] = None
    x: Optional[np.ndarray] = None          # incumbent leaves
    duals: Optional[dict] = None            # bound leaves: y, mu_l, mu_u

    def canonical(self) -> list:
        return [
            self.kind,
            self.branch_var,
            self.branch_val,
            self.left.canonical() if self.left else None,
            self.right.canonical() if self.right else None,
            None if self.x is None else self.x,
            None
            if self.duals is None
            else [self.duals["y"], self.duals["mu_l"], self.duals["mu_u"]],
        ]

    def leaf_count(self) -> int:
        if self.kind != "branch":
            return 1
        return self.left.leaf_count() + self.right.leaf_count()


@dataclass(frozen=True)
class SolveResult:
    """Solver output: status ∈ optimal|infeasible, with certificate."""

    status: str
    objective: Optional[float]
    x: Optional[np.ndarray]
    certificate: CertNode
    nodes_explored: int
    lp_solves: int


class BranchAndBoundSolver:
    """Plain best-first branch and bound over LP relaxations."""

    def __init__(self, max_nodes: int = 10_000) -> None:
        self.max_nodes = max_nodes

    # ------------------------------------------------------------ node LPs
    @staticmethod
    def _extract_duals(res, inst: MipInstance) -> Optional[dict]:
        """Map HiGHS marginals to our certificate convention:
        c + Aᵀy − μ_l + μ_u = 0 with y, μ_l, μ_u ≥ 0."""
        try:
            y = -np.asarray(res.ineqlin.marginals, dtype=float)
            mu_l = np.asarray(res.lower.marginals, dtype=float)
            mu_u = -np.asarray(res.upper.marginals, dtype=float)
        except AttributeError:
            return None
        y = np.clip(y, 0.0, None)
        mu_l = np.clip(mu_l, 0.0, None)
        mu_u = np.clip(mu_u, 0.0, None)
        stationarity = inst.c + inst.a_ub.T @ y - mu_l + mu_u
        if np.abs(stationarity).max() > 1e-5:
            return None
        return {"y": y, "mu_l": mu_l, "mu_u": mu_u}

    # ---------------------------------------------------------------- solve
    def solve(self, inst: MipInstance) -> SolveResult:
        """Solve to proven optimality (or infeasibility)."""
        nodes_explored = 0
        lp_solves = 0
        incumbent_x: Optional[np.ndarray] = None
        incumbent_obj = np.inf

        # pass 1: explore the tree, remember branching structure
        def explore(lower, upper) -> CertNode:
            nonlocal nodes_explored, lp_solves, incumbent_x, incumbent_obj
            nodes_explored += 1
            if nodes_explored > self.max_nodes:
                raise ApplicationError(
                    f"{inst.name}: node budget {self.max_nodes} exhausted"
                )
            res = solve_lp(inst, lower, upper)
            lp_solves += 1
            if res.status == 2:  # infeasible subproblem
                return CertNode(kind="infeasible")
            if res.status != 0:
                raise ApplicationError(
                    f"{inst.name}: LP solver status {res.status}"
                )
            if res.fun >= incumbent_obj - _TOL:
                duals = self._extract_duals(res, inst)
                return CertNode(
                    kind="bound" if duals else "resolve", duals=duals
                )
            x = np.asarray(res.x, dtype=float)
            frac = np.abs(x - np.round(x))
            frac[~inst.integer] = 0.0
            branch_var = int(np.argmax(frac))
            if frac[branch_var] <= 1e-6:
                # integral: new incumbent
                if res.fun < incumbent_obj:
                    incumbent_obj = float(res.fun)
                    incumbent_x = np.round(x * (inst.integer)) + x * (
                        ~inst.integer
                    )
                duals = self._extract_duals(res, inst)
                return CertNode(
                    kind="incumbent", x=incumbent_x.copy(), duals=duals
                )
            val = float(np.floor(x[branch_var]))
            lo_l, up_l = lower.copy(), upper.copy()
            up_l[branch_var] = val
            lo_r, up_r = lower.copy(), upper.copy()
            lo_r[branch_var] = val + 1.0
            node = CertNode(
                kind="branch", branch_var=branch_var, branch_val=val
            )
            node.left = explore(lo_l, up_l)
            node.right = explore(lo_r, up_r)
            return node

        root = explore(inst.lower.copy().astype(float), inst.upper.copy().astype(float))

        if incumbent_x is None:
            return SolveResult(
                status="infeasible",
                objective=None,
                x=None,
                certificate=root,
                nodes_explored=nodes_explored,
                lp_solves=lp_solves,
            )
        # Leaves pruned against intermediate incumbents remain valid in the
        # final certificate: incumbents only improve, so every pruned
        # leaf's dual bound ≥ some incumbent ≥ the final objective.
        return SolveResult(
            status="optimal",
            objective=float(incumbent_obj),
            x=incumbent_x,
            certificate=root,
            nodes_explored=nodes_explored,
            lp_solves=lp_solves,
        )


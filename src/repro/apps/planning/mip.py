"""Mixed Integer Program instances and generators.

Motion Planning (Sec 7, "Applications") solves MIPs drawn from a set of
107 standard instances; output failures "can lead to human harm", which
is why certificates matter.  We cannot ship MIPLIB offline, so
:func:`instance_suite` generates a deterministic family of small
knapsack / assignment / covering / planning instances with the same
*role*: heterogeneous solve times, occasional infeasibility, and a
compute≫verify asymmetry once certificates are attached.

All instances are minimization problems::

    min c·x   s.t.  A_ub x ≤ b_ub,   l ≤ x ≤ u,   x_i ∈ ℤ for i ∈ I
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ApplicationError

__all__ = ["MipInstance", "instance_suite", "solve_lp"]


@dataclass(frozen=True)
class MipInstance:
    """An immutable MIP instance."""

    name: str
    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer: np.ndarray  # bool mask

    def __post_init__(self) -> None:
        n = len(self.c)
        if self.a_ub.shape != (len(self.b_ub), n):
            raise ApplicationError(
                f"A_ub shape {self.a_ub.shape} inconsistent with "
                f"c ({n}) / b_ub ({len(self.b_ub)})"
            )
        if len(self.lower) != n or len(self.upper) != n or len(self.integer) != n:
            raise ApplicationError("bounds/mask length mismatch")
        if (self.lower > self.upper).any():
            raise ApplicationError("lower bound exceeds upper bound")

    @property
    def n_vars(self) -> int:
        return len(self.c)

    @property
    def n_constraints(self) -> int:
        return len(self.b_ub)

    def canonical(self) -> list:
        return [
            self.name,
            self.c,
            self.a_ub,
            self.b_ub,
            self.lower,
            self.upper,
            self.integer.astype(np.int8),
        ]

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Constraint + bound + integrality check for a candidate point."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_vars,):
            return False
        if (self.a_ub @ x > self.b_ub + tol).any():
            return False
        if (x < self.lower - tol).any() or (x > self.upper + tol).any():
            return False
        frac = np.abs(x[self.integer] - np.round(x[self.integer]))
        return bool((frac <= 1e-5).all())

    def objective(self, x: np.ndarray) -> float:
        return float(self.c @ np.asarray(x, dtype=float))


def solve_lp(inst: MipInstance, lower, upper):
    """The LP relaxation of ``inst`` over the box [lower, upper], by HiGHS.

    SciPy is imported here, on the first solve, not at module load: only
    this application uses it, and every other process that imports the
    package (DES runs, live nodes, the serve gateway) would otherwise
    load its ~300 modules for nothing.
    """
    from scipy.optimize import linprog

    return linprog(
        inst.c,
        A_ub=inst.a_ub,
        b_ub=inst.b_ub,
        bounds=list(zip(lower, upper)),
        method="highs",
    )


def _knapsack(rng: np.random.Generator, n: int, idx: int) -> MipInstance:
    """0/1 knapsack as minimization of negated value."""
    values = rng.integers(5, 40, size=n).astype(float)
    weights = rng.integers(3, 25, size=n).astype(float)
    capacity = float(weights.sum() * rng.uniform(0.3, 0.6))
    return MipInstance(
        name=f"knapsack-{idx}",
        c=-values,
        a_ub=weights[None, :],
        b_ub=np.array([capacity]),
        lower=np.zeros(n),
        upper=np.ones(n),
        integer=np.ones(n, dtype=bool),
    )


def _assignment(rng: np.random.Generator, k: int, idx: int) -> MipInstance:
    """k×k assignment with ≤-form side constraints (conflict-resolution
    flavor of the air-traffic formulations [62])."""
    cost = rng.uniform(1, 20, size=(k, k))
    n = k * k
    rows = []
    b = []
    for i in range(k):  # each agent at most one slot, and at least one
        row = np.zeros(n)
        row[i * k : (i + 1) * k] = 1.0
        rows.append(row)
        b.append(1.0)
        rows.append(-row)
        b.append(-1.0)
    for j in range(k):  # each slot at most one agent
        col = np.zeros(n)
        col[j::k] = 1.0
        rows.append(col)
        b.append(1.0)
    return MipInstance(
        name=f"assign-{idx}",
        c=cost.ravel(),
        a_ub=np.array(rows),
        b_ub=np.array(b),
        lower=np.zeros(n),
        upper=np.ones(n),
        integer=np.ones(n, dtype=bool),
    )


def _covering(rng: np.random.Generator, n: int, m: int, idx: int) -> MipInstance:
    """Set covering: every element covered by ≥1 chosen set."""
    cost = rng.integers(1, 15, size=n).astype(float)
    cover = (rng.random((m, n)) < 0.3).astype(float)
    for r in range(m):  # ensure coverable
        if cover[r].sum() == 0:
            cover[r, rng.integers(0, n)] = 1.0
    return MipInstance(
        name=f"cover-{idx}",
        c=cost,
        a_ub=-cover,
        b_ub=-np.ones(m),
        lower=np.zeros(n),
        upper=np.ones(n),
        integer=np.ones(n, dtype=bool),
    )


def _infeasible(rng: np.random.Generator, n: int, idx: int) -> MipInstance:
    """Deliberately contradictory constraints (x·1 ≤ a and x·1 ≥ a+Δ)."""
    ones = np.ones(n)
    a = float(rng.integers(2, 5))
    return MipInstance(
        name=f"infeasible-{idx}",
        c=rng.uniform(1, 5, size=n),
        a_ub=np.vstack([ones, -ones]),
        b_ub=np.array([a, -(a + n + 1.0)]),
        lower=np.zeros(n),
        upper=np.ones(n),
        integer=np.ones(n, dtype=bool),
    )


def instance_suite(
    count: int = 107, seed: int = 0, infeasible_every: int = 20
) -> list[MipInstance]:
    """Deterministic suite mirroring the paper's 107 MIP instances."""
    rng = np.random.default_rng(seed)
    out: list[MipInstance] = []
    for i in range(count):
        if infeasible_every and i % infeasible_every == infeasible_every - 1:
            out.append(_infeasible(rng, int(rng.integers(4, 9)), i))
        else:
            kind = i % 3
            if kind == 0:
                out.append(_knapsack(rng, int(rng.integers(8, 16)), i))
            elif kind == 1:
                out.append(_assignment(rng, int(rng.integers(3, 5)), i))
            else:
                out.append(
                    _covering(
                        rng,
                        int(rng.integers(8, 14)),
                        int(rng.integers(6, 12)),
                        i,
                    )
                )
    return out

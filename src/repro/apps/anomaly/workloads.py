"""Synthetic graph generators and the paper's workload mixes.

The paper evaluates on Orkut (3M vertices) and Amazon Products; at
simulation scale we substitute power-law graphs with matching *shape*
knobs — the workloads are defined by their CPU-cost / output-size ratio
(Sec 7.2), which the pattern choice controls:

* **MM** (medium CPU, medium output)  — dense size-6 pattern;
* **LH** (low CPU, high output)       — 3-hop paths;
* **HL** (high CPU, low output)       — 6-cliques.

``power_law_graph`` is a Barabási–Albert-style preferential-attachment
generator seeded for reproducibility; ``link_update_stream`` produces
the paper's "1K tasks per second" style update streams, biased toward
dense regions so pattern matches actually occur.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.apps.anomaly.app import make_link_task
from repro.core.tasks import Task
from repro.errors import BenchmarkError

__all__ = ["power_law_graph", "link_update_stream", "anomaly_workload"]


def power_law_graph(
    n: int, m: int, seed: int = 0
) -> list[tuple[int, int]]:
    """Barabási–Albert preferential attachment: n vertices, m edges each.

    Returns the edge list; degree distribution is power-law, giving the
    dense cores where clique-like patterns live (the reason the paper's
    Orkut queries are expensive).
    """
    if n <= m:
        raise BenchmarkError(f"need n > m (n={n}, m={m})")
    import numpy as np

    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    # seed clique of m+1 vertices so early attachments have targets
    targets: list[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            edges.append((u, v))
            targets.extend((u, v))
    for u in range(m + 1, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            # preferential attachment: sample endpoints of existing edges
            chosen.add(int(targets[rng.integers(0, len(targets))]))
        for v in chosen:
            edges.append((u, v))
            targets.extend((u, v))
    return edges


def link_update_stream(
    base_edges: list[tuple[int, int]],
    n_tasks: int,
    rate: float,
    seed: int = 0,
    dense_bias: float = 0.7,
    start_time: float = 0.0,
    max_degree: Optional[int] = None,
) -> Iterator[tuple[float, Task]]:
    """Stream of link-insertion tasks at ``rate`` tasks/second.

    With probability ``dense_bias`` a new link connects two endpoints of
    existing edges (closing wedges → creating pattern instances);
    otherwise it is uniform random.  Links are fresh (not in the base
    graph), mimicking the paper's continuous link-update feed.

    ``max_degree`` throttles links into already-saturated hubs: without
    it a long stream keeps densifying one core until single tasks carry
    an unbounded fraction of the total work, which makes capacity
    measurements hostage to one straggler.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    existing = set((min(u, v), max(u, v)) for u, v in base_edges)
    degree: dict[int, int] = {}
    for a, b in existing:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    endpoints = np.array(
        [x for e in base_edges for x in e], dtype=np.int64
    )
    n_vertices = int(endpoints.max()) + 1 if len(endpoints) else 2
    period = 1.0 / rate
    made = 0
    attempts = 0
    while made < n_tasks:
        attempts += 1
        if attempts > 100 * n_tasks + 100:
            raise BenchmarkError("could not generate enough fresh links")
        if rng.random() < dense_bias and len(endpoints):
            u = int(endpoints[rng.integers(0, len(endpoints))])
            v = int(endpoints[rng.integers(0, len(endpoints))])
        else:
            u = int(rng.integers(0, n_vertices))
            v = int(rng.integers(0, n_vertices))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in existing:
            continue
        if max_degree is not None and (
            degree.get(u, 0) >= max_degree or degree.get(v, 0) >= max_degree
        ):
            continue
        existing.add(key)
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
        at = start_time + made * period
        yield at, make_link_task(made, u, v, op="add", compute=True)
        made += 1


def anomaly_workload(
    workload: str,
    n_vertices: int = 300,
    attach: int = 8,
    seed: int = 0,
):
    """Build (base_edges, pattern) for a named paper workload.

    ``workload`` ∈ {"MM", "LH", "HL", "fig5b"}; see module docstring.
    """
    from repro.apps.anomaly.patterns import clique, clique_minus, dense_six, path

    base = power_law_graph(n_vertices, attach, seed=seed)
    patterns = {
        "MM": dense_six(),
        "LH": path(3),
        "HL": clique(6),
        "fig5b": clique_minus(6, 2),
    }
    if workload not in patterns:
        raise BenchmarkError(f"unknown workload {workload!r}")
    return base, patterns[workload]

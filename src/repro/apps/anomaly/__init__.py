"""Anomaly Detection: streaming pattern matching on a dynamic network.

The graph and matcher classes resolve on first access: they build numpy
arrays, and importing the package for its task factories (as a live
deployment does) must not load numpy.
"""

from importlib import import_module

from repro.apps.anomaly.app import AnomalyApp, make_link_task
from repro.apps.anomaly.patterns import (
    Pattern,
    clique,
    clique_minus,
    cycle,
    dense_six,
    path,
    star,
)
from repro.apps.anomaly.workloads import (
    anomaly_workload,
    link_update_stream,
    power_law_graph,
)

__all__ = [
    "AnomalyApp",
    "CountOutput",
    "EdgeAnchoredMatcher",
    "GraphView",
    "MatchOutput",
    "MultiVersionGraph",
    "Pattern",
    "anomaly_workload",
    "clique",
    "clique_minus",
    "cycle",
    "dense_six",
    "link_update_stream",
    "make_link_task",
    "path",
    "power_law_graph",
    "star",
]

#: name -> the module that defines it, imported on first access
_LAZY = {
    "GraphView": "repro.apps.anomaly.graph",
    "MultiVersionGraph": "repro.apps.anomaly.graph",
    "CountOutput": "repro.apps.anomaly.matcher",
    "EdgeAnchoredMatcher": "repro.apps.anomaly.matcher",
    "MatchOutput": "repro.apps.anomaly.matcher",
}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(home), name)

"""Comparison systems: ZFT (no fault tolerance), RCP (replicated
computation), and Kauri/Basil state-store cost models."""

from repro.baselines.rcp import plan_rcp_cluster, rcp_parallel_tasks
from repro.baselines.store_models import (
    basil_updates_per_sec,
    kauri_updates_per_sec,
)
from repro.baselines.zft import plan_zft_cluster

__all__ = [
    "basil_updates_per_sec",
    "kauri_updates_per_sec",
    "plan_rcp_cluster",
    "plan_zft_cluster",
    "rcp_parallel_tasks",
]

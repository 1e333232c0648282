"""Analytical traffic models: hot-spot degree, patterns, reporting."""

from .hsd import (
    BatchedHSDReport,
    HSDReport,
    batched_sequence_hsd,
    down_port_destination_counts,
    sequence_hsd,
    stage_link_loads,
    stage_max_hsd,
    walk_flow_links,
)
from .levels import (
    LevelProfile,
    link_classes,
    sequence_level_profile,
    stage_level_profile,
)
from .report import render_series, render_table
from .traffic import (
    OrderSweepResult,
    fixed_shift_pattern,
    random_order_sweep,
    sweep_placements,
)

__all__ = [
    "BatchedHSDReport",
    "HSDReport",
    "LevelProfile",
    "OrderSweepResult",
    "batched_sequence_hsd",
    "link_classes",
    "sequence_level_profile",
    "stage_level_profile",
    "down_port_destination_counts",
    "fixed_shift_pattern",
    "random_order_sweep",
    "sweep_placements",
    "render_series",
    "render_table",
    "sequence_hsd",
    "stage_link_loads",
    "stage_max_hsd",
    "walk_flow_links",
]

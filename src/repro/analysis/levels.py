"""Per-level contention breakdown.

``stage_max_hsd`` says *whether* a stage blocks; operators also want to
know *where*: host injection, leaf up-links, spine up-links, or the
down paths.  This module classifies every directed link by
``(from-level, to-level)`` and reports loads per class -- e.g. the
adversarial ring shows up as pure leaf-up-link contention, while random
recursive doubling also loads the upper tiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.cps import CPS
from ..fabric.lft import ForwardingTables
from .hsd import _case_blocks, stage_link_loads

__all__ = ["link_classes", "LevelProfile", "stage_level_profile",
           "sequence_level_profile"]


def link_classes(tables: ForwardingTables) -> dict[str, np.ndarray]:
    """Boolean masks over global port ids, keyed by readable class names
    like ``"up 0->1"`` (host injection) or ``"down 2->1"``."""
    fab = tables.fabric
    lvl = fab.node_level
    src = lvl[fab.port_owner]
    dst = np.where(fab.peer_node >= 0, lvl[fab.peer_node], -1)
    classes: dict[str, np.ndarray] = {}
    for a in np.unique(src):
        for b in np.unique(dst[src == a]):
            if b < 0:
                continue
            direction = "up" if b > a else "down"
            mask = (src == a) & (dst == b)
            classes[f"{direction} {int(a)}->{int(b)}"] = mask
    return classes


@dataclass(frozen=True)
class LevelProfile:
    """Max link load per link class, per stage."""

    classes: tuple[str, ...]
    stage_max: np.ndarray  # (num_stages, num_classes)

    def worst_by_class(self) -> dict[str, int]:
        if not len(self.stage_max):
            return {c: 0 for c in self.classes}
        worst = self.stage_max.max(axis=0)
        return {c: int(v) for c, v in zip(self.classes, worst)}

    def hottest_class(self) -> str:
        by = self.worst_by_class()
        return max(by, key=by.get)


def stage_level_profile(
    tables: ForwardingTables, src: np.ndarray, dst: np.ndarray
) -> dict[str, int]:
    """Max flows per link class for one stage."""
    loads = stage_link_loads(tables, src, dst)
    return {
        name: int(loads[mask].max()) if mask.any() else 0
        for name, mask in link_classes(tables).items()
    }


def sequence_level_profile(
    tables: ForwardingTables, cps: CPS, rank_to_port: np.ndarray
) -> LevelProfile:
    """Per-stage, per-class max loads for a whole sequence (stages
    without flows are skipped).  A route fault raises the
    ``ValueError`` of the first faulty stage's walk."""
    classes = link_classes(tables)  # every class has a link
    rows = [np.empty((0, len(classes)), dtype=np.int64)]
    placement = np.asarray(rank_to_port, dtype=np.int64)[None, :]
    for blk in _case_blocks(tables, cps, placement):
        blk.raise_fault()
        loads = blk.loads[blk.flows[:, 0] > 0, 0]
        rows.append(np.array([loads[:, m].max(axis=1)
                              for m in classes.values()], dtype=np.int64
                             ).reshape(len(classes), len(loads)).T)
    return LevelProfile(classes=tuple(classes),
                        stage_max=np.concatenate(rows))

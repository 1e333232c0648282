"""Cross-pass helpers shared by the analyzer's passes.

These used to live as private functions inside ``routing_lint.py`` and
were imported underscore-and-all by other passes; they are promoted here
so every pass (routing lint, enumerating certifier, symbolic certifier)
depends on one public, documented surface.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..fabric.lft import Routes
from ..fabric.model import Fabric
from .diagnostics import Loc

__all__ = ["link_loc", "sample_pairs", "colliding_pairs_payload",
           "valley_hops", "MAX_COUNTEREXAMPLE_PAIRS"]

#: cap on colliding pairs listed per counterexample; the payload records
#: ``total_pairs``/``pairs_truncated`` so the cap is never silent.
MAX_COUNTEREXAMPLE_PAIRS = 8


def link_loc(fab: Fabric, gp: int, **extra: Any) -> Loc:
    """Structured location of a directed link (source global port id)."""
    owner = int(fab.port_owner[gp])
    return Loc(switch=fab.node_names[owner], gport=int(gp),
               port=int(fab.local_port(gp)), **extra)


def sample_pairs(n: int, sample: int | None, seed: int = 0
                 ) -> tuple[np.ndarray, np.ndarray]:
    """All (src, dst), src != dst, or a deterministic random subset."""
    src = np.repeat(np.arange(n, dtype=np.int64), n)
    dst = np.tile(np.arange(n, dtype=np.int64), n)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if sample is not None and sample < len(src):
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(src), size=sample, replace=False)
        idx.sort()
        src, dst = src[idx], dst[idx]
    return src, dst


def valley_hops(fab: Fabric, routes: Routes) -> np.ndarray:
    """``(R, H)`` mask over ``routes.links``: the hops that ascend a
    level after an earlier hop of the same route descended one (an
    up*/down* valley, deadlock-prone under credit flow control)."""
    links = routes.links
    g = np.maximum(links, 0)  # padding reads port 0; masked below
    lvl = fab.node_level
    lvl_from = lvl[fab.port_owner[g]]
    lvl_to = lvl[fab.peer_node[g]]
    down = lvl_to < lvl_from
    descended = np.cumsum(down, axis=1) - down
    return (links >= 0) & (lvl_to > lvl_from) & (descended > 0)


def colliding_pairs_payload(src: np.ndarray, dst: np.ndarray,
                            on_link: np.ndarray,
                            max_pairs: int = MAX_COUNTEREXAMPLE_PAIRS,
                            ) -> dict[str, Any]:
    """Counterexample payload fields for flows sharing one link.

    ``on_link`` indexes into the stage's ``src``/``dst`` arrays.  The
    listed pairs are capped at ``max_pairs``; ``total_pairs`` and
    ``pairs_truncated`` make the cap explicit in the diagnostic data and
    certificate JSON.
    """
    total = int(len(on_link))
    pairs = [[int(src[f]), int(dst[f])] for f in on_link[:max_pairs]]
    return {
        "colliding_pairs": pairs,
        "total_pairs": total,
        "pairs_truncated": total > len(pairs),
    }

"""D-Mod-K routing for PGFTs/RLFTs -- the paper's equation (1).

The closed form: a switch at level ``l`` routes *up* toward destination
``j`` through up-port ordinal

    ``Q_{l+1}(j) = floor(j / W_l) mod (w_{l+1} * p_{l+1})``

with ``W_l = w_1 * ... * w_l``.  The parent reached has w-digit
``Q mod w_{l+1}`` and the parallel cable used is ``Q // w_{l+1}``.

Descending, the child sub-tree is forced by ``j``'s m-digit ``a_l(j)``;
D-Mod-K picks the parallel cable ``k_l(j) = Q_l(j) // w_l`` -- i.e. the
down path to ``j`` retraces, level by level, exactly the cables the
up-routing rule dedicates to ``j``.  This makes the reverse path unique
(paper lemma 5: a single top switch carries all traffic to ``j``) and
gives every down port a single destination (theorem 2).

Partially-populated jobs ("Cont.-X" in Table 3) need the routing to
"match the MPI communication patterns": eq. (1) is applied to the
destination's **dense rank within the active set** instead of its raw
end-port index.  Active end-ports keep consecutive ranks, so every
lemma of the appendix goes through unchanged on the rank axis (a window
of at most ``K`` *consecutive ranks* still spreads over distinct
up-ports), restoring HSD = 1 for arbitrary random exclusions.  Pass the
active set via ``active=``; the full population is the identity ranking.

The module offers both the *closed form* (cheap scalar/ndarray
functions, used by property tests) and the materialised forwarding
tables consumed by the analysis and simulation layers.
"""

from __future__ import annotations

import numpy as np

from ..fabric.lft import ForwardingTables
from ..fabric.model import Fabric
from ..topology.spec import PGFTSpec
from .base import build_pgft_tables

__all__ = [
    "q_up",
    "q_profile",
    "down_parallel_k",
    "route_dmodk",
    "DModKRouter",
    "dense_ranks",
]


def q_up(spec: PGFTSpec, level: int, dest: np.ndarray | int) -> np.ndarray:
    """``Q_level(dest)``: up-port ordinal used at level ``level-1`` toward
    ``dest`` (paper eq. 1).  ``level`` ranges ``1..h``.

    ``dest`` is the routing index -- the end-port index for full
    populations, or the dense active rank for job-aware routing.
    """
    spec._check_level(level)
    dest = np.asarray(dest, dtype=np.int64)
    return (dest // spec.W(level - 1)) % (spec.w[level - 1] * spec.p[level - 1])


def down_parallel_k(spec: PGFTSpec, level: int, dest: np.ndarray | int) -> np.ndarray:
    """Parallel-cable ordinal ``k_level(dest) = Q_level(dest) // w_level``
    used when descending from level ``level`` toward ``dest``."""
    return q_up(spec, level, dest) // spec.w[level - 1]


def q_profile(spec: PGFTSpec, dest: np.ndarray | int) -> np.ndarray:
    """All routing residues at once: ``Q_1(dest) .. Q_h(dest)``.

    Returns shape ``(h,) + dest.shape``; row ``l-1`` holds
    ``Q_l(dest) = floor(dest / W_{l-1}) mod (w_l * p_l)`` -- the complete
    residue-class signature eq. (1) assigns to a routing index.  The
    symbolic certifier reasons over these rows instead of materialised
    tables: two destinations share every up cable iff their profiles
    agree, so congruence on the profile *is* link identity.
    """
    dest = np.asarray(dest, dtype=np.int64)
    Wp = spec.W_prefix()
    out = np.empty((spec.h,) + dest.shape, dtype=np.int64)
    for level in range(1, spec.h + 1):
        out[level - 1] = (dest // Wp[level - 1]) % (
            spec.w[level - 1] * spec.p[level - 1])
    return out


def dense_ranks(num_endports: int, active: np.ndarray | None) -> np.ndarray:
    """Routing index per end-port: identity, or the dense rank within a
    sorted ``active`` subset (inactive ports borrow the rank of the next
    active port -- they carry no job traffic, only reachability)."""
    if active is None:
        return np.arange(num_endports, dtype=np.int64)
    active = np.unique(np.asarray(active, dtype=np.int64))
    if len(active) == 0:
        raise ValueError("active set must not be empty")
    if active[0] < 0 or active[-1] >= num_endports:
        raise ValueError("active set references end-ports outside the fabric")
    return np.searchsorted(active, np.arange(num_endports)).astype(np.int64)


def route_dmodk(fabric: Fabric, active: np.ndarray | None = None) -> ForwardingTables:
    """Materialise D-Mod-K forwarding tables for a PGFT fabric.

    ``active`` (optional) lists the end-ports occupied by the job; the
    routing then spreads by dense active rank (job-aware D-Mod-K),
    keeping partially-populated collectives congestion-free.
    """
    spec = fabric.spec
    if spec is None:
        raise ValueError("D-Mod-K needs a PGFT-structured fabric")
    rank = dense_ranks(spec.num_endports, active)

    def up_choice(level: int, sw: np.ndarray, dest: np.ndarray) -> np.ndarray:
        return q_up(spec, level + 1, rank[dest])

    def down_parallel(level: int, sw: np.ndarray, dest: np.ndarray) -> np.ndarray:
        return down_parallel_k(spec, level, rank[dest])

    def host_choice(dest: np.ndarray) -> np.ndarray:
        return q_up(spec, 1, rank[dest])

    return build_pgft_tables(fabric, up_choice, down_parallel, host_choice)


class DModKRouter:
    """Callable router object (handy where a named engine is reported)."""

    name = "dmodk"

    def __init__(self, active: np.ndarray | None = None):
        self.active = active

    def __call__(self, fabric: Fabric) -> ForwardingTables:
        return route_dmodk(fabric, self.active)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "DModKRouter()"

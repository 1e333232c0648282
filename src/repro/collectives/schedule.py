"""Turning logical CPS into physical end-port traffic.

A CPS talks about MPI *ranks*; the network sees *end-ports*.  The glue
is a placement vector ``rank_to_port`` (from :mod:`repro.ordering`):
``rank_to_port[r]`` is the end-port index hosting rank ``r``.  Jobs may
occupy a subset of the fabric (partially populated trees, the paper's
"Cont.-X" cases); ranks beyond the job size simply do not exist.

Two consumers:

* the HSD engine takes :func:`stage_flows` -- per stage ``(src_port,
  dst_port)`` arrays;
* the fluid/packet simulators take :func:`port_sequences` -- per
  end-port ordered destination lists, which is exactly how the paper's
  OMNeT++ model drives traffic ("end-ports progress through their
  destinations sequence independently").
"""

from __future__ import annotations

import numpy as np

from .cps import CPS, Stage

__all__ = ["stage_flows", "case_flows", "port_sequences", "validate_placement"]


def validate_placement(rank_to_port: np.ndarray, num_endports: int,
                       num_ranks: int | None = None) -> np.ndarray:
    """Sanity-check a placement vector and return it as int64."""
    r2p = np.asarray(rank_to_port, dtype=np.int64)
    if r2p.ndim != 1:
        raise ValueError("rank_to_port must be 1-D")
    if num_ranks is not None and len(r2p) != num_ranks:
        raise ValueError(f"placement has {len(r2p)} ranks, expected {num_ranks}")
    if len(np.unique(r2p)) != len(r2p):
        raise ValueError("placement maps two ranks to the same end-port")
    if r2p.min(initial=0) < 0 or (len(r2p) and r2p.max() >= num_endports):
        raise ValueError("placement references end-ports outside the fabric")
    return r2p


def _pair_flows(pairs: np.ndarray, rank_to_port: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physical flows of rank ``pairs`` under a placement, or under every
    row of a placement matrix (row-major), plus the mask of pairs kept."""
    r2p = np.asarray(rank_to_port, dtype=np.int64)
    # Ranks past the placement read a trailing -1 slot: like the slots
    # marked -1 (physical placements of partial jobs), they do not exist.
    L = r2p.shape[-1]
    slots = np.concatenate([r2p, np.full(r2p.shape[:-1] + (1,), -1)], axis=-1)
    src = slots[..., np.minimum(pairs[:, 0], L)]
    dst = slots[..., np.minimum(pairs[:, 1], L)]
    keep = (src != dst) & (src >= 0) & (dst >= 0)
    return src[keep], dst[keep], keep


def stage_flows(stage: Stage, rank_to_port: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Physical ``(src_ports, dst_ports)`` of one stage under a placement.

    Pairs whose ranks exceed the placement length, or whose slot is
    ``-1`` (physical placements of partially-populated jobs), are
    dropped -- this is how partial runs skip non-existent partners.
    """
    src, dst, _ = _pair_flows(stage.pairs, rank_to_port)
    return src, dst


def case_flows(cps: CPS, rank_to_port: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`stage_flows` of every stage at once: stage-major
    ``(src_ports, dst_ports, stage_ids)`` whose stage-``s`` slice equals
    ``stage_flows(cps.stages[s], rank_to_port)``."""
    sizes = [len(st) for st in cps.stages]
    src, dst, keep = _pair_flows(cps.all_pairs(), rank_to_port)
    stage = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    return src, dst, stage[keep]


def port_sequences(cps: CPS, rank_to_port: np.ndarray,
                   num_endports: int) -> list[list[int]]:
    """Per-end-port destination sequences for the whole CPS.

    ``result[p]`` lists, in stage order, the destination end-port of
    every message end-port ``p`` sends.  Ports that do not participate
    in a stage simply have no entry for it (asynchronous progression --
    the simulator lets each port move to its next message when the
    previous one finished).
    """
    seqs: list[list[int]] = [[] for _ in range(num_endports)]
    for st in cps:
        src, dst = stage_flows(st, rank_to_port)
        for s, d in zip(src.tolist(), dst.tolist()):
            seqs[s].append(d)
    return seqs

"""Data-flow semantics of collective algorithms.

The paper decomposes a collective into its permutation sequence (CPS)
plus *message content*.  This module supplies the content half: it
executes a CPS stage by stage over abstract data sets and checks that
the algorithm actually computes its collective.  That turns "binomial
is a broadcast" from a naming convention into a verified property --
and catches sequencing bugs (e.g. a mis-ordered proxy stage) that the
purely structural HSD analysis cannot see.

The model: every rank owns a set of *chunk ids*.  Sending transfers
(a copy of) the sender's current set; reductions are modelled by set
union, which is exact for verifying coverage/completeness properties
(who ends up holding which contributions).

Verification helpers return ``(ok, message)`` so tests and tools can
report precisely what is missing.
"""

from __future__ import annotations

from .cps import CPS

__all__ = [
    "run_dataflow",
    "verify_broadcast",
    "verify_allgather",
    "verify_gather",
    "verify_reduce",
    "verify_allreduce",
]


def run_dataflow(cps: CPS, initial: list[set[int]] | None = None,
                 num_ranks: int | None = None) -> list[set[int]]:
    """Execute the CPS over chunk sets.

    ``initial[r]`` is rank ``r``'s starting set; by default every rank
    starts with its own chunk ``{r}``.  Within a stage all sends read
    the *pre-stage* state (MPI exchanges are concurrent), then all
    receives merge.
    """
    n = num_ranks if num_ranks is not None else cps.num_ranks
    state: list[set[int]] = (
        [set(s) for s in initial] if initial is not None
        else [{r} for r in range(n)]
    )
    if len(state) != n:
        raise ValueError(f"initial state has {len(state)} ranks, expected {n}")
    for stage in cps:
        snapshot = [frozenset(s) for s in state]
        for src, dst in stage.pairs:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(
                    f"stage {stage.label!r} references rank outside 0..{n-1}"
                )
            state[int(dst)] |= snapshot[int(src)]
    return state


def verify_broadcast(cps: CPS, root: int = 0) -> tuple[bool, str]:
    """Every rank ends up holding the root's chunk."""
    n = cps.num_ranks
    final = run_dataflow(cps, initial=[{root} if r == root else set()
                                       for r in range(n)])
    missing = [r for r in range(n) if root not in final[r]]
    if missing:
        return False, f"ranks missing the root chunk: {missing[:10]}"
    return True, "broadcast complete"


def verify_allgather(cps: CPS) -> tuple[bool, str]:
    """Every rank ends up holding every rank's chunk."""
    n = cps.num_ranks
    final = run_dataflow(cps)
    want = set(range(n))
    for r, have in enumerate(final):
        if have != want:
            missing = sorted(want - have)[:10]
            return False, (
                f"rank {r} holds {len(have)}/{n} chunks; missing {missing}"
            )
    return True, "allgather complete"


def verify_gather(cps: CPS, root: int = 0) -> tuple[bool, str]:
    """The root ends up holding every rank's chunk."""
    n = cps.num_ranks
    final = run_dataflow(cps)
    missing = sorted(set(range(n)) - final[root])
    if missing:
        return False, f"root {root} missing chunks {missing[:10]}"
    return True, "gather complete"


def verify_reduce(cps: CPS, root: int = 0) -> tuple[bool, str]:
    """Reduction coverage: the root's final set contains every
    contribution exactly (set-union models a commutative reduction)."""
    return verify_gather(cps, root)


def verify_allreduce(cps: CPS) -> tuple[bool, str]:
    """Every rank holds every contribution (allreduce coverage)."""
    return verify_allgather(cps)

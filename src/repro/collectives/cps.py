"""Collective Permutation Sequences (CPS) -- paper section III, Table 2.

A CPS is the *communication-pattern half* of an MPI collective
algorithm: for each stage, the set of (source-rank, destination-rank)
pairs that exchange a message, with the payload abstracted away.  The
paper's key observations, all enforced/verified here and in the test
suite:

1. every stage has **constant displacement**: ``(dst - src) mod N`` is
   the same for all pairs of the stage (bidirectional stages have the
   two opposite displacements);
2. every CPS is either **unidirectional** (displacement always
   "positive", i.e. one direction per stage) or **bidirectional**
   (each pair appears with its reverse in the same stage);
3. the **Shift** CPS -- one stage per displacement ``1..N-1`` -- is a
   superset of every unidirectional CPS.

Stages hold directed sends as an ``(k, 2)`` int64 array of
``(src, dst)`` rank pairs.  All ranks are *logical* (0-based MPI ranks);
mapping ranks onto physical end-ports is the job of
:mod:`repro.ordering` and :mod:`repro.collectives.schedule`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Stage",
    "CPS",
    "shift",
    "sampled_shift",
    "ring",
    "binomial",
    "tournament",
    "dissemination",
    "recursive_doubling",
    "recursive_halving",
    "pairwise_exchange",
    "by_name",
    "CPS_NAMES",
]


def _pairs(src, dst) -> np.ndarray:
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    return np.stack([src, dst], axis=1)


@dataclass(frozen=True)
class Stage:
    """One communication stage: directed (src, dst) rank pairs."""

    pairs: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        p = np.asarray(self.pairs, dtype=np.int64)
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError(f"pairs must be (k, 2), got {p.shape}")
        object.__setattr__(self, "pairs", p)

    @property
    def sources(self) -> np.ndarray:
        return self.pairs[:, 0]

    @property
    def destinations(self) -> np.ndarray:
        return self.pairs[:, 1]

    def __len__(self) -> int:
        return len(self.pairs)

    def is_permutation(self) -> bool:
        """Each rank sends at most once and receives at most once."""
        s, d = self.pairs[:, 0], self.pairs[:, 1]
        return len(np.unique(s)) == len(s) and len(np.unique(d)) == len(d)

    def constant_displacement(self, num_ranks: int) -> int | None:
        """The stage's single displacement ``(dst - src) mod num_ranks``,
        or ``None`` when the stage is empty or mixes displacements.

        Paper observation 1: global-collective stages are constant-
        displacement permutations; the symbolic certifier exploits the
        structure (all of a stage's flows share one residue family) and
        this is the extraction hook for it.
        """
        if len(self.pairs) == 0:
            return None
        d = np.unique((self.pairs[:, 1] - self.pairs[:, 0]) % num_ranks)
        return int(d[0]) if len(d) == 1 else None

    def reversed(self) -> "Stage":
        return Stage(self.pairs[:, ::-1].copy(), label=self.label + "^R")


@dataclass(frozen=True)
class CPS:
    """A named sequence of stages over ``num_ranks`` logical ranks."""

    name: str
    num_ranks: int
    stages: tuple[Stage, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.stages)

    def __iter__(self):
        return iter(self.stages)

    def all_pairs(self) -> np.ndarray:
        """Concatenation of every stage's pairs (with repetition)."""
        if not self.stages:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate([st.pairs for st in self.stages], axis=0)

    def total_messages(self) -> int:
        return sum(len(st) for st in self.stages)

    def __repr__(self) -> str:
        return f"CPS({self.name!r}, N={self.num_ranks}, stages={len(self.stages)})"


def _log2_stages(n: int) -> int:
    """Number of power-of-two stages needed to span ``n`` ranks."""
    return max(1, math.ceil(math.log2(n))) if n > 1 else 0


# ---------------------------------------------------------------------------
# Unidirectional CPS
# ---------------------------------------------------------------------------

def shift(n: int, displacements: range | None = None) -> CPS:
    """Shift CPS: stage ``s`` sends ``i -> (i+s) mod n`` for every rank,
    ``s = 1..n-1`` (Table 2).  The superset of all unidirectional CPS."""
    _check_n(n)
    i = np.arange(n, dtype=np.int64)
    disp = displacements if displacements is not None else range(1, n)
    stages = tuple(
        Stage(_pairs(i, (i + s) % n), label=f"s={s}") for s in disp
    )
    return CPS("shift", n, stages)


def sampled_shift(n: int, max_stages: int = 64) -> CPS:
    """Shift CPS sampled down for large fabrics: every displacement when
    ``n - 1 <= max_stages``, else displacements ``1, 1 + step, ...`` at
    the uniform stride ``step = (n - 1) // max_stages`` (keeps sweeps
    tractable without biasing the per-stage HSD statistics)."""
    if max_stages < 1:
        raise ValueError(f"max_stages must be >= 1, got {max_stages}")
    if n - 1 <= max_stages:
        return shift(n)
    return shift(n, displacements=range(1, n, (n - 1) // max_stages))


def ring(n: int, repeats: int = 1) -> CPS:
    """Ring CPS: every stage sends ``i -> (i+1) mod n``.

    ``repeats`` replays the same permutation (a ring all-gather performs
    it ``n-1`` times).
    """
    _check_n(n)
    i = np.arange(n, dtype=np.int64)
    st = Stage(_pairs(i, (i + 1) % n), label="+1")
    return CPS("ring", n, (st,) * repeats)


def binomial(n: int, direction: str = "scatter") -> CPS:
    """Binomial-tree CPS: stage ``s`` sends ``i -> i + 2**s`` for
    ``0 <= i < 2**s`` with ``i + 2**s < n`` (Table 2).

    ``direction="scatter"`` (root fans out, e.g. broadcast) or
    ``"gather"`` (arrows reversed, e.g. reduce/gather).
    """
    _check_n(n)
    if direction not in ("scatter", "gather"):
        raise ValueError(f"direction must be scatter|gather, got {direction!r}")
    stages = []
    for s in range(_log2_stages(n)):
        i = np.arange(min(1 << s, n), dtype=np.int64)
        i = i[i + (1 << s) < n]
        st = Stage(_pairs(i, i + (1 << s)), label=f"s={s}")
        stages.append(st.reversed() if direction == "gather" else st)
    if direction == "gather":
        stages.reverse()
    return CPS(f"binomial-{direction}", n, tuple(stages))


def tournament(n: int) -> CPS:
    """Tournament CPS: stage ``s`` sends ``i + 2**s -> i`` for ranks with
    ``i mod 2**(s+1) == 0`` (Table 2) -- the pairwise elimination
    bracket used by gather/reduce trees."""
    _check_n(n)
    stages = []
    for s in range(_log2_stages(n)):
        i = np.arange(0, n, 1 << (s + 1), dtype=np.int64)
        i = i[i + (1 << s) < n]
        stages.append(Stage(_pairs(i + (1 << s), i), label=f"s={s}"))
    return CPS("tournament", n, tuple(stages))


def dissemination(n: int) -> CPS:
    """Dissemination CPS: stage ``s`` sends ``i -> (i + 2**s) mod n`` for
    every rank (Table 2) -- the barrier/allgather (Bruck) pattern."""
    _check_n(n)
    i = np.arange(n, dtype=np.int64)
    stages = tuple(
        Stage(_pairs(i, (i + (1 << s)) % n), label=f"s={s}")
        for s in range(_log2_stages(n))
    )
    return CPS("dissemination", n, stages)


# ---------------------------------------------------------------------------
# Bidirectional CPS
# ---------------------------------------------------------------------------

def _xor_stage(n: int, mask: int, label: str) -> Stage:
    i = np.arange(n, dtype=np.int64)
    j = i ^ mask
    keep = j < n
    return Stage(_pairs(i[keep], j[keep]), label=label)


def recursive_doubling(n: int, nonpow2: str = "mask") -> CPS:
    """Recursive-Doubling CPS: stage ``s`` exchanges ``i <-> i XOR 2**s``
    (Table 2).  Bidirectional: both directions appear in each stage.

    Non-power-of-two handling (section VI):

    * ``"mask"``  -- Table 2 as written: pairs with a partner ``>= n``
      are simply dropped;
    * ``"proxy"`` -- the MPI practice: a *pre* stage folds ranks above
      the largest power of two onto proxies, the XOR stages run on the
      power-of-two core, and a *post* stage unfolds the result (the
      paper's eqs. 3-4; built in :mod:`repro.collectives.nonpow2`).
    """
    _check_n(n)
    if nonpow2 == "proxy":
        from .nonpow2 import with_proxy_stages

        return with_proxy_stages(n, reverse=False)
    if nonpow2 != "mask":
        raise ValueError(f"nonpow2 must be mask|proxy, got {nonpow2!r}")
    stages = tuple(
        _xor_stage(n, 1 << s, label=f"s={s}") for s in range(_log2_stages(n))
    )
    return CPS("recursive-doubling", n, stages)


def recursive_halving(n: int, nonpow2: str = "mask") -> CPS:
    """Recursive-Halving CPS: the same exchanges as recursive doubling
    played in reverse stage order (reduce-scatter's pattern)."""
    _check_n(n)
    if nonpow2 == "proxy":
        from .nonpow2 import with_proxy_stages

        return with_proxy_stages(n, reverse=True)
    if nonpow2 != "mask":
        raise ValueError(f"nonpow2 must be mask|proxy, got {nonpow2!r}")
    stages = tuple(
        _xor_stage(n, 1 << s, label=f"s={s}")
        for s in reversed(range(_log2_stages(n)))
    )
    return CPS("recursive-halving", n, stages)


def pairwise_exchange(n: int, variant: str = "displacement") -> CPS:
    """Pairwise-Exchange CPS (large-message all-to-all).

    ``variant="displacement"`` (default): stage ``s = 1..n-1`` sends to
    ``(i+s) mod n`` while receiving from ``(i-s) mod n`` -- as a
    directed pattern this coincides with the Shift CPS stages, which is
    why the paper can fold it into the constant-displacement framework.

    ``variant="xor"``: the MVAPICH power-of-two implementation pairing
    ``i <-> i XOR s``.  Note that for masks that are *not* powers of two
    this violates the paper's constant-displacement observation -- kept
    here as the real-world reference and exercised by the ablation
    benchmarks.
    """
    _check_n(n)
    if variant == "xor":
        if n & (n - 1):
            raise ValueError("xor pairwise exchange needs a power-of-two n")
        stages = tuple(_xor_stage(n, s, label=f"s={s}") for s in range(1, n))
        return CPS("pairwise-exchange-xor", n, stages)
    if variant != "displacement":
        raise ValueError(f"variant must be displacement|xor, got {variant!r}")
    return CPS("pairwise-exchange", n, shift(n).stages)


CPS_NAMES = {
    "shift": shift,
    "ring": ring,
    "binomial": binomial,
    "tournament": tournament,
    "dissemination": dissemination,
    "recursive-doubling": recursive_doubling,
    "recursive-halving": recursive_halving,
    "pairwise-exchange": pairwise_exchange,
}


def by_name(name: str, n: int, **kwargs) -> CPS:
    """Instantiate a CPS by table-2 name."""
    try:
        factory = CPS_NAMES[name]
    except KeyError:
        raise ValueError(
            f"unknown CPS {name!r}; known: {sorted(CPS_NAMES)}"
        ) from None
    return factory(n, **kwargs)


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"a CPS needs at least 2 ranks, got {n}")

"""Symbolic contention-freedom verification (``SYM0xx``).

The enumerating certifier (:mod:`repro.check.certify`) decides the
paper's section-VI claim by materialising D-Mod-K forwarding tables and
walking every stage's flows through them -- O(S * N) table memory and
O(flows * hops) walks.  This module decides the *same* question from
the closed form alone.

The appendix lemmas make every link of a D-Mod-K route a pure function
of modular arithmetic on the endpoints.  With ``r = rho(y)`` the routing
index of destination ``y`` (``y`` itself for full populations, its dense
active rank for job-aware Cont.-X routing), eq. (1) gives the residue
profile ``Q_l(r) = floor(r / W_{l-1}) mod (w_l * p_l)``, and:

* the flow ``x -> y`` turns around at its **split level**
  ``L = min { l : floor(x / M_l) == floor(y / M_l) }`` (nearest common
  ancestor level);
* the up-path switch at level ``l < L`` has w-digits
  ``e_i = Q_i(r) mod w_i`` (i = 1..l) and m-digits ``floor(x / M_l)``;
  its up link toward ``y`` leaves through up-port ordinal ``Q_{l+1}(r)``;
* the down-path switch at level ``l <= L`` has the same w-digits and
  m-digits ``floor(y / M_l)`` (lemma 5: the down path is a function of
  the destination alone); its down link uses local port
  ``a_l(y) + k_l(r) * m_l`` with ``a_l(y) = floor(y / M_{l-1}) mod m_l``
  and ``k_l(r) = Q_l(r) // w_l``.

Because the canonical fabric (:func:`repro.fabric.build_fabric`) lays
nodes and ports out in exactly the mixed-radix order of these digits,
the formulas above evaluate directly to **global port ids identical to
the enumerated walk's** -- :func:`symbolic_flow_links` is a drop-in twin
of :func:`repro.analysis.hsd.walk_flow_links` that needs no tables and
no fabric, only the ``PGFTSpec``.  Verdicts, offending links and even
argmax tie-breaks therefore agree bit for bit with the enumerating
certifier, which is what the differential engine
(:class:`EngineAgreementPass`, ``--engine both``) checks.

Grouping flows by their residue signature is what makes re-verification
*incremental*: a placement/active-set delta perturbs only the flows
whose pairs or routing indices changed (:meth:`SymbolicCertifier.recertify`),
and repaired cable losses only the flows whose residue profile maps
onto a dead cable (:meth:`SymbolicCertifier.recertify_link_failure`,
the fault-space sweep's engine).

A case is one flat :class:`CaseState` keyed by stage: eq. (1) runs
over all stages' flows at once, a placement delta is one multiset
difference over the whole case, and all refuted stages'
counterexamples come out of one sort-based pass.  A link-failure delta
reads a lookup index over the whole case's traversal, built on the
first such call and cached on the state.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any

import numpy as np

from ..analysis.hsd import walk_flow_links
from ..collectives.cps import CPS
from ..collectives.schedule import case_flows
from ..fabric.lft import ForwardingTables
from ..fabric.model import build_fabric
from ..routing.dmodk import dense_ranks, q_profile
from ..runtime.cache import active_digest, cps_digest, spec_digest
from ..topology.spec import PGFTSpec
from .certify import CERTIFICATE_VERSION, placement_digest
from .common import colliding_pairs_payload
from .diagnostics import Diagnostic, DiagnosticReport, Loc
from .passes import CheckContext, CheckPass

__all__ = [
    "split_levels",
    "symbolic_flow_links",
    "symbolic_class_loads",
    "symbolic_stage_max",
    "decode_link",
    "symbolic_link_loc",
    "canonical_peer",
    "SymbolicResult",
    "IncrementalStats",
    "SymbolicCertifier",
    "SymbolicContentionPass",
    "EngineAgreementPass",
]

_UNSET = object()

#: flows per closed-form evaluation block of a whole case: big enough to
#: amortise NumPy call overhead over many small stages, small enough to
#: keep the temporaries cache-sized on big stages
_BLOCK = 1 << 15


# ----------------------------------------------------------------------
# Closed-form link arithmetic
# ----------------------------------------------------------------------
def split_levels(spec: PGFTSpec, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Nearest-common-ancestor level of each flow: the smallest ``l``
    with ``floor(src / M_l) == floor(dst / M_l)`` (``src != dst``
    assumed).  Agreement is monotone in ``l``, so the level is one plus
    the number of disagreeing prefixes."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    Mp = spec.M_prefix()
    L = np.ones(src.shape, dtype=np.int64)
    for level in range(1, spec.h):
        L += (src // Mp[level]) != (dst // Mp[level])
    return L


def symbolic_flow_links(
    spec: PGFTSpec, src: np.ndarray, dst: np.ndarray,
    ridx: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form twin of :func:`repro.analysis.hsd.walk_flow_links`.

    Returns ``(flow_idx, gports)``: for every directed link a D-Mod-K
    route ``src[i] -> dst[i]`` would traverse on the canonical fabric,
    the flow index and the link's global port id -- the *same* ids the
    enumerated walk produces, computed from eq. (1) without tables.
    ``ridx`` is the routing-index vector (``dense_ranks``); ``None``
    means the identity (fully populated) ranking.  Flows with
    ``src == dst`` contribute nothing.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src/dst shape mismatch")
    idx = np.flatnonzero(src != dst)
    if len(idx) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    x = src[idx]
    y = dst[idx]
    r = y if ridx is None else np.asarray(ridx, dtype=np.int64)[y]

    h = spec.h
    Mp = spec.M_prefix()
    Wp = spec.W_prefix()
    Q = q_profile(spec, r)                       # (h, n); row l-1 = Q_l(r)
    L = split_levels(spec, x, y)

    # Cumulative w-digit packs: epacks[l] = sum_{i=1..l} e_i * W_{i-1},
    # the w-digit block shared by the level-l switches on both legs.
    epacks = np.zeros((h + 1, len(x)), dtype=np.int64)
    for level in range(1, h + 1):
        epacks[level] = epacks[level - 1] + (
            Q[level - 1] % spec.w[level - 1]) * Wp[level - 1]

    flows: list[np.ndarray] = []
    ports: list[np.ndarray] = []

    # Up leg: the host link, then switch up links at levels 1..L-1.
    flows.append(idx)
    ports.append(x * spec.up_ports_at(0) + Q[0])
    for level in range(1, h):
        on = L > level
        if not on.any():
            continue
        s = epacks[level][on] + (x[on] // Mp[level]) * Wp[level]
        flows.append(idx[on])
        ports.append(spec.port_level_base(level) + s * spec.ports_at(level)
                     + spec.down_ports_at(level) + Q[level][on])

    # Down leg: switch down links at levels L..1 (lemma 5 retrace).
    for level in range(1, h + 1):
        on = L >= level
        if not on.any():
            continue
        s = epacks[level][on] + (y[on] // Mp[level]) * Wp[level]
        a = (y[on] // Mp[level - 1]) % spec.m[level - 1]
        k = Q[level - 1][on] // spec.w[level - 1]
        flows.append(idx[on])
        ports.append(spec.port_level_base(level) + s * spec.ports_at(level)
                     + a + k * spec.m[level - 1])

    return np.concatenate(flows), np.concatenate(ports)


def _sparse_loads(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys + multiplicities (sparse per-link loads).
    Sort-based like the other set kernels: NumPy's hash-based integer
    ``unique``/``isin`` paths are far slower than a plain sort here."""
    s = np.sort(np.asarray(keys, dtype=np.int64))
    first = np.ones(len(s), dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    if len(starts) == len(s):   # all distinct: the contention-free case
        return s, np.ones(len(s), dtype=np.int64)
    return s[starts], np.diff(starts, append=len(s))


def symbolic_class_loads(
    spec: PGFTSpec, src: np.ndarray, dst: np.ndarray,
    flow_class: np.ndarray, num_classes: int | None = None,
    ridx: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-traffic-class sparse link loads of one stage, from eq. (1).

    :func:`symbolic_flow_links` partitioned by traffic class:
    ``flow_class[i]`` is the class of flow ``i``, and the result is
    ``(links, loads)`` where ``links`` lists the distinct global port
    ids any flow traverses (sorted) and ``loads[c, k]`` counts class-
    ``c`` flows crossing ``links[k]``.  Summing over classes recovers
    :func:`_sparse_loads` of the unpartitioned stage.  This is what
    lets the isolation analyzer *statically* prove per-class
    contention-freedom (``loads[c].max() <= 1`` for class ``c``'s own
    collective) and read off cross-class interference (class-``b`` load
    on links where class ``a`` is present) without tables or
    simulation.
    """
    flow_class = np.asarray(flow_class, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    if flow_class.shape != src.shape:
        raise ValueError("flow_class/src shape mismatch")
    C = int(num_classes) if num_classes is not None \
        else int(flow_class.max()) + 1 if len(flow_class) else 1
    if len(flow_class) and (flow_class.min() < 0 or flow_class.max() >= C):
        raise ValueError("flow_class references a class index out of range")
    flow_idx, gports = symbolic_flow_links(spec, src, dst, ridx)
    links = _sparse_loads(gports)[0]
    if len(links) == 0:
        return links, np.zeros((C, 0), dtype=np.int64)
    col = np.searchsorted(links, gports)
    keys = flow_class[flow_idx] * len(links) + col
    loads = np.bincount(keys, minlength=C * len(links)).reshape(C, len(links))
    return links, loads


def symbolic_stage_max(spec: PGFTSpec, src: np.ndarray, dst: np.ndarray,
                       ridx: np.ndarray | None = None) -> int:
    """Maximum per-link flow count of one synchronous stage, from the
    closed form (equals :func:`repro.analysis.hsd.stage_max_hsd` on
    canonical D-Mod-K tables)."""
    _, gports = symbolic_flow_links(spec, src, dst, ridx)
    _, counts = _sparse_loads(gports)
    return int(counts.max()) if len(counts) else 0


# ----------------------------------------------------------------------
# Link decoding (diagnostics without a fabric)
# ----------------------------------------------------------------------
def decode_link(spec: PGFTSpec, gport: int) -> dict[str, Any]:
    """Name the directed link behind a canonical global port id.

    Returns owner name (matching the canonical fabric's default names),
    level, local port and direction -- enough to render a ``Loc``
    without ever building the fabric.
    """
    gport = int(gport)
    host_ports = spec.num_endports * spec.up_ports_at(0)
    if 0 <= gport < host_ports:
        up0 = spec.up_ports_at(0)
        return {"owner": f"H{gport // up0:04d}", "level": 0,
                "port": gport % up0, "direction": "up"}
    for level in spec.iter_levels():
        base = spec.port_level_base(level)
        span = spec.switches_at(level) * spec.ports_at(level)
        if base <= gport < base + span:
            local = (gport - base) % spec.ports_at(level)
            index = (gport - base) // spec.ports_at(level)
            ordinal = spec.switch_level_base(level) + index
            down = local < spec.down_ports_at(level)
            return {"owner": f"SW{level}-{ordinal:04d}", "level": level,
                    "port": local, "direction": "down" if down else "up"}
    raise ValueError(f"global port {gport} outside the canonical fabric "
                     f"of {spec}")


def symbolic_link_loc(spec: PGFTSpec, gport: int,
                      **extra: Any) -> Loc:
    """``Loc`` of a directed link, derived purely from the spec."""
    d = decode_link(spec, gport)
    return Loc(switch=d["owner"], gport=int(gport), port=d["port"],
               level=d["level"], **extra)


def canonical_peer(spec: PGFTSpec, gport: int) -> int:
    """Far-end global port id of a cable, from the connection rule alone
    (equals ``fabric.port_peer[gport]`` on the canonical fabric).

    Paper Fig. 5: cable ``k`` joins up-port ``e + k*w_l`` of the lower
    node to down-port ``a + k*m_l`` of the upper node, the two nodes'
    digit vectors agreeing everywhere but position ``l``.
    """
    d = decode_link(spec, gport)
    level = d["level"]
    Wp = spec.W_prefix()
    if d["direction"] == "up":
        # ordinal of the lower node within its level
        if level == 0:
            low, q = gport // spec.up_ports_at(0), d["port"]
        else:
            base = spec.port_level_base(level)
            low = (gport - base) // spec.ports_at(level)
            q = d["port"] - spec.down_ports_at(level)
        m_up, w_up = spec.m[level], spec.w[level]
        e, k = q % w_up, q // w_up
        wpack, mrest = low % Wp[level], low // Wp[level]
        a = mrest % m_up
        upper = wpack + e * Wp[level] + (mrest // m_up) * Wp[level + 1]
        return (spec.port_level_base(level + 1)
                + upper * spec.ports_at(level + 1) + a + k * m_up)
    # down port at switch level >= 1: peer is the lower node's up port
    base = spec.port_level_base(level)
    sw = (gport - base) // spec.ports_at(level)
    r = d["port"]
    m_l, w_l = spec.m[level - 1], spec.w[level - 1]
    a, k = r % m_l, r // m_l
    wpack, mrest = sw % Wp[level], sw // Wp[level]
    e = wpack // Wp[level - 1]
    q = e + k * w_l
    lower = wpack % Wp[level - 1] + (a + mrest * m_l) * Wp[level - 1]
    if level == 1:
        return lower * spec.up_ports_at(0) + q
    return (spec.port_level_base(level - 1)
            + lower * spec.ports_at(level - 1)
            + spec.down_ports_at(level - 1) + q)


# ----------------------------------------------------------------------
# Certifier with incremental state
# ----------------------------------------------------------------------
@dataclass
class CaseState:
    """Everything :meth:`SymbolicCertifier.recertify` needs to re-verify
    only what a delta touched, flat over the whole case.

    ``src``/``dst``/``stage`` list every stage's flows, stage-major;
    ``link_keys`` are the sorted distinct ``stage * num_ports + gport``
    links they cross, ``link_counts`` the flows per link.  The first
    :meth:`SymbolicCertifier.recertify_link_failure` call on a state
    caches the lookup index it needs on the state.
    """

    cps: CPS
    placement: np.ndarray
    active: np.ndarray | None
    ridx: np.ndarray
    num_ports: int
    src: np.ndarray
    dst: np.ndarray
    stage: np.ndarray
    link_keys: np.ndarray
    link_counts: np.ndarray
    _link_index: _LinkIndex | None = field(
        default=None, init=False, repr=False, compare=False)

    @cached_property
    def cps_digest(self) -> str:
        """Digest of :attr:`cps`, hashed once per state."""
        return cps_digest(self.cps)


@dataclass
class IncrementalStats:
    """How much work an incremental re-certification actually did."""

    stages_touched: int = 0
    stages_total: int = 0
    flows_recomputed: int = 0
    flows_total: int = 0


@dataclass
class SymbolicResult:
    """Verdict of one (CPS, placement) case under the symbolic engine."""

    maxima: list[int]
    violations: list[dict[str, Any]]
    total_flows: int

    @property
    def max_link_load(self) -> int:
        return max(self.maxima, default=0)

    @property
    def refuted(self) -> bool:
        return self.max_link_load > 1

    @property
    def verdict(self) -> str:
        if self.refuted:
            return "refuted"
        return "vacuous" if self.total_flows == 0 else "contention-free"


_Pair = tuple[np.ndarray, np.ndarray]


def _member(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``np.isin(values, table)`` for a sorted ``table``, by bisection."""
    if len(table) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.minimum(np.searchsorted(table, values), len(table) - 1)
    return table[pos] == values


def _surplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask over sorted ``a`` of the multiset difference ``a - b``
    (``b`` sorted): the ``k``-th copy of a value is surplus iff ``b``
    holds fewer than ``k`` copies of it."""
    if len(a) == len(b) and np.array_equal(a, b):
        return np.zeros(len(a), dtype=bool)
    occ = np.arange(len(a)) - np.searchsorted(a, a, side="left")
    have = (np.searchsorted(b, a, side="right")
            - np.searchsorted(b, a, side="left"))
    return occ >= have


def _concat(parts: Iterable[_Pair]) -> _Pair:
    items = list(parts)
    if not items:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return (np.concatenate([a for a, _ in items]),
            np.concatenate([b for _, b in items]))


def _case_links(spec: PGFTSpec, src: np.ndarray, dst: np.ndarray,
                stage: np.ndarray, ridx: np.ndarray) -> Iterator[_Pair]:
    """Lazy :func:`symbolic_flow_links` of stage-major flows, one
    ``(flow_idx, gports)`` pair per stage-aligned ``~_BLOCK``-flow block."""
    F = len(stage)
    bounds = np.r_[np.flatnonzero(np.r_[True, stage[1:] != stage[:-1]]), F]
    cuts = _sparse_loads(np.r_[
        bounds[np.searchsorted(bounds, np.arange(0, F, _BLOCK))], F])[0]
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        fi, gp = symbolic_flow_links(spec, src[lo:hi], dst[lo:hi], ridx)
        yield fi + lo, gp


def _block_loads(blocks: Iterable[_Pair], stage: np.ndarray,
                 num_ports: int) -> _Pair:
    """Sparse link loads of :func:`_case_links` blocks (stage-aligned, so
    their sorted loads concatenate sorted)."""
    return _concat([_sparse_loads(stage[fi] * num_ports + gp)
                    for fi, gp in blocks])


def _stage_maxima(state: CaseState) -> _Pair:
    """Stage segments of the sorted ``link_keys`` (stage ``s`` owns
    ``seg[s]:seg[s + 1]``) and each stage's maximum link count."""
    num_stages = len(state.cps.stages)
    seg = np.searchsorted(state.link_keys,
                          np.arange(num_stages + 1) * state.num_ports)
    used = seg[:-1] < seg[1:]
    maxima = np.zeros(num_stages, dtype=np.int64)
    maxima[used] = np.maximum.reduceat(state.link_counts, seg[:-1][used])
    return seg, maxima


def _apply_delta(keys: np.ndarray, counts: np.ndarray,
                 sub: _Pair, add: _Pair) -> _Pair:
    """Merge sparse link-load deltas into a sparse (keys, counts)
    summary: ``sub`` loads leave, ``add`` loads arrive."""
    (su, sc), (au, ac) = sub, add
    if len(su) == 0 and len(au) == 0:
        return keys, counts
    delta = _sparse_loads(np.concatenate([su, au]))[0]
    net = np.zeros(len(delta), dtype=np.int64)
    net[np.searchsorted(delta, au)] += ac
    net[np.searchsorted(delta, su)] -= sc
    pos = np.searchsorted(keys, delta)
    old = _member(delta, keys)
    counts = counts.copy()
    counts[pos[old]] += net[old]
    keys = np.insert(keys, pos[~old], delta[~old])
    counts = np.insert(counts, pos[~old], net[~old])
    keep = counts > 0
    return keys[keep], counts[keep]


class SymbolicCertifier:
    """Stateful symbolic engine: full certification plus incremental
    re-certification under placement, active-set and link-failure deltas.

    The returned :class:`CaseState` is the residue-class summary; feed it
    back to :meth:`recertify` with a changed placement/active set to have
    only the touched flows recomputed.
    """

    def __init__(self, spec: PGFTSpec,
                 active: np.ndarray | None = None) -> None:
        self.spec = spec
        self.active = None if active is None else np.unique(
            np.asarray(active, dtype=np.int64))
        self.ridx = dense_ranks(spec.num_endports, self.active)

    # -- full pass ------------------------------------------------------
    def certify(self, cps: CPS, placement: np.ndarray,
                ) -> tuple[SymbolicResult, CaseState]:
        """Certify one case; the returned state feeds the incremental
        re-certifiers."""
        placement = np.asarray(placement, dtype=np.int64)
        src, dst, stage = case_flows(cps, placement)
        num_ports = self.spec.num_ports
        keys, counts = _block_loads(
            _case_links(self.spec, src, dst, stage, self.ridx),
            stage, num_ports)
        state = CaseState(
            cps=cps, placement=placement.copy(), active=self.active,
            ridx=self.ridx, num_ports=num_ports, src=src, dst=dst,
            stage=stage, link_keys=keys, link_counts=counts)
        return self._verdict(state), state

    def _links(self, state: CaseState, stages: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form traversal of the flows of the flagged stages."""
        sel = np.flatnonzero(stages[state.stage])
        fi, gp = _concat(_case_links(self.spec, state.src[sel],
                                     state.dst[sel], state.stage[sel],
                                     state.ridx))
        return sel[fi], gp

    def _verdict(self, state: CaseState,
                 traverse: Callable[[np.ndarray], _Pair] | None = None,
                 ) -> SymbolicResult:
        """Per-stage maxima and every refuted stage's counterexample;
        ``traverse(stages)`` covers the flagged stages' flows."""
        P = state.num_ports
        keys, counts = state.link_keys, state.link_counts
        seg, maxima = _stage_maxima(state)
        violations: list[dict[str, Any]] = []
        bad = maxima > 1
        if bad.any():
            # keys are sorted, so each refuted stage's first maximal
            # count names its lowest offending gport -- the same link the
            # enumerated certifier's dense argmax reports
            worst = np.array([
                keys[seg[s] + int(np.argmax(counts[seg[s]:seg[s + 1]]))]
                for s in np.flatnonzero(bad).tolist()], dtype=np.int64)
            fi, gp = (traverse or partial(self._links, state))(bad)
            entry = state.stage[fi] * P + gp
            on = _member(entry, worst)
            F = len(state.src)
            # the flows on each worst link, grouped by link, ascending
            flows = _sparse_loads(np.searchsorted(worst, entry[on]) * F
                                  + fi[on])[0]
            cuts = np.searchsorted(flows, np.arange(len(worst) + 1) * F)
            for j, key in enumerate(worst.tolist()):
                s = key // P
                violations.append({
                    "stage": s, "stage_label": state.cps.stages[s].label,
                    "gport": key % P, "link_load": int(maxima[s]),
                    **colliding_pairs_payload(
                        state.src, state.dst,
                        flows[cuts[j]:cuts[j + 1]] - j * F),
                })
        return SymbolicResult(maxima=maxima.tolist(), violations=violations,
                              total_flows=len(state.src))

    # -- placement / active-set deltas ---------------------------------
    def recertify(self, state: CaseState,
                  placement: np.ndarray | None = None,
                  active: Any = _UNSET,
                  ) -> tuple[SymbolicResult, CaseState, IncrementalStats]:
        """Re-certify after a delta, recomputing only touched flows.

        ``placement`` replaces the rank->port vector (``None`` keeps the
        old one); ``active`` replaces the job's active end-port set
        (omit to keep, pass ``None`` for fully populated).  Flows whose
        (stage, src, dst) key survives the delta with an unchanged
        destination routing index keep their residue classes -- their
        links are carried over from ``state`` instead of being
        recomputed.
        """
        N = self.spec.num_endports
        new_placement = state.placement if placement is None else \
            np.asarray(placement, dtype=np.int64)
        if active is _UNSET:
            new_active, new_ridx = state.active, state.ridx
        else:
            new_active = None if active is None else np.unique(
                np.asarray(active, dtype=np.int64))
            new_ridx = dense_ranks(N, new_active)
        src, dst, stage = case_flows(state.cps, new_placement)
        old = np.sort((state.stage * N + state.src) * N + state.dst)
        new = np.sort((stage * N + src) * N + dst)
        # a surviving flow whose destination re-ranked still moves
        moved = state.ridx != new_ridx
        sub = old[_surplus(old, new) | moved[old % N]]
        add = new[_surplus(new, old) | moved[new % N]]
        P = state.num_ports
        cold = 2 * len(sub) > len(old)
        if cold:  # most flows moved: recounting the new case is cheaper
            blocks = list(_case_links(self.spec, src, dst, stage, new_ridx))
            keys, counts = _block_loads(blocks, stage, P)
        else:
            keys, counts = _apply_delta(
                state.link_keys, state.link_counts,
                self._key_loads(sub, state.ridx, P),
                self._key_loads(add, new_ridx, P))
        new_state = CaseState(
            cps=state.cps, placement=new_placement.copy(),
            active=new_active, ridx=new_ridx, num_ports=P,
            src=src, dst=dst, stage=stage, link_keys=keys,
            link_counts=counts)
        stats = IncrementalStats(
            stages_touched=len(_sparse_loads(
                np.concatenate([sub, add]) // (N * N))[0]),
            stages_total=len(state.cps.stages),
            flows_recomputed=len(sub) + len(add), flows_total=len(src))
        result = self._verdict(new_state,
                               (lambda _: _concat(blocks)) if cold else None)
        return result, new_state, stats

    def _key_loads(self, flow_keys: np.ndarray, ridx: np.ndarray,
                   num_ports: int) -> _Pair:
        """Sparse link loads of flows given as sorted ``(stage, src,
        dst)`` keys."""
        N = self.spec.num_endports
        stage, pair = np.divmod(flow_keys, N * N)
        src, dst = np.divmod(pair, N)
        return _block_loads(_case_links(self.spec, src, dst, stage, ridx),
                            stage, num_ports)

    # -- link failures ---------------------------------------------------
    def recertify_link_failure(self, state: CaseState,
                               repaired_tables: ForwardingTables,
                               dead_gports: Any,
                               ) -> tuple[SymbolicResult, IncrementalStats]:
        """Re-certify after cable removals healed by
        :func:`repro.routing.repair.repair_tables`.

        Only the flows whose closed-form path crossed a dead cable are
        walked through the repaired tables; every other flow keeps its
        eq.-(1) links (the repair re-points exactly the entries that
        became dead, so live paths are untouched).  ``repaired_tables``
        must be the repair of canonical D-Mod-K tables for this spec and
        active set; ``dead_gports`` may name either end of each cable.

        The first call on a state builds the whole case's traversal
        once and caches a lookup index on it, so every later call is a
        pure delta: dead-cable lookups, one batched walk of the detoured
        flows and sparse count arithmetic.  Exact on any healthy case,
        refuted or not.  ``SymbolicResult.violations`` holds the first
        refuted stage's counterexample only (its lowest gport at the
        maximum): the unaffected flows whose healthy path already used
        that link plus the detoured flows whose repaired path lands on
        it (repair locality guarantees those are all of them).
        """
        ix = state._link_index
        if ix is None:
            ix = state._link_index = _LinkIndex(self.spec, state)
        P = state.num_ports
        keys, counts = state.link_keys, state.link_counts
        dead = np.atleast_1d(np.asarray(dead_gports, dtype=np.int64))
        peer = ix.peer[dead]
        dead = _sparse_loads(np.concatenate([dead, peer[peer >= 0]]))[0]
        # the flows whose healthy path crossed a dead cable
        aff = _sparse_loads(ix.g_flow[_expand(ix.g_off[dead],
                                              ix.g_off[dead + 1])])[0]
        aff_stage = state.stage[aff]
        stats = IncrementalStats(
            stages_touched=len(_sparse_loads(aff_stage)[0]),
            stages_total=len(ix.old_max), flows_recomputed=len(aff),
            flows_total=len(state.src))
        maxima = ix.old_max.copy()
        uk = d_stage = new_c = wfi = wg = np.empty(0, dtype=np.int64)
        if len(aff):
            # links those flows used (the subtraction side of the delta)
            lens = ix.f_off[aff + 1] - ix.f_off[aff]
            sub_key = (np.repeat(aff_stage, lens) * P
                       + ix.f_g[_expand(ix.f_off[aff], ix.f_off[aff + 1])])
            # one batched walk of every detoured flow through the repair
            wfi, wg = walk_flow_links(repaired_tables, state.src[aff],
                                      state.dst[aff])
            add_key = aff_stage[wfi] * P + wg
            # sparse count update on the union of delta links
            uk = _sparse_loads(np.concatenate([sub_key, add_key]))[0]
            pos = np.minimum(np.searchsorted(keys, uk), len(keys) - 1)
            old_c = np.where(keys[pos] == uk, counts[pos], 0)
            new_c = old_c - np.bincount(np.searchsorted(uk, sub_key),
                                        minlength=len(uk))
            new_c += np.bincount(np.searchsorted(uk, add_key),
                                 minlength=len(uk))
            d_stage = uk // P
            ts = _sparse_loads(d_stage)[0]
            dmax = np.zeros(len(maxima), dtype=np.int64)
            np.maximum.at(dmax, d_stage, new_c)
            # a touched stage keeps its old maximum iff some link at it
            # lies outside the delta; otherwise rescan the stage's other
            # links
            moved = np.bincount(d_stage[old_c == ix.old_max[d_stage]],
                                minlength=len(maxima))
            kept = ix.n_at_max[ts] > moved[ts]
            maxima[ts] = np.maximum(dmax[ts], ix.old_max[ts] * kept)
            for s in ts[~kept].tolist():
                lo, hi = ix.seg[s], ix.seg[s + 1]
                rest = counts[lo:hi][~_member(keys[lo:hi], uk)]
                maxima[s] = max(maxima[s], rest.max(initial=0))
        violations: list[dict[str, Any]] = []
        bad = np.flatnonzero(maxima > 1)
        if len(bad):
            s = int(bad[0])
            top = int(maxima[s])
            at_top = uk[(d_stage == s) & (new_c == top)]
            if top <= ix.old_max[s]:   # untouched links may hold it too
                lo, hi = ix.seg[s], ix.seg[s + 1]
                rest = keys[lo:hi][counts[lo:hi] == top]
                at_top = np.concatenate([at_top, rest[~_member(rest, uk)]])
            gp = int(at_top.min() % P)
            # colliding flows: healthy users of the link minus detoured
            # flows, plus detoured flows whose repaired walk lands on it
            old_flows = ix.g_flow[ix.g_off[gp]:ix.g_off[gp + 1]]
            old_flows = old_flows[state.stage[old_flows] == s]
            new_hit = aff[wfi[(wg == gp) & (aff_stage[wfi] == s)]]
            on_link = _sparse_loads(np.concatenate(
                [old_flows[~_member(old_flows, aff)], new_hit]))[0]
            violations.append({
                "stage": s, "stage_label": state.cps.stages[s].label,
                "gport": gp, "link_load": top,
                **colliding_pairs_payload(state.src, state.dst, on_link),
            })
        return SymbolicResult(maxima=maxima.tolist(), violations=violations,
                              total_flows=len(state.src)), stats


def _expand(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``lo[i]:hi[i]``."""
    lens = hi - lo
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offs = np.cumsum(lens) - lens
    return np.repeat(lo - offs, lens) + np.arange(total, dtype=np.int64)


class _LinkIndex:
    """Lookups a link-failure delta needs, built once per case state.

    The whole case's closed-form traversal in two CSR views -- by gport
    (dead cable -> crossing flows) and by flow (flow -> its links) --
    plus each stage's key segment in ``link_keys``, its maximum, how
    many of its links carry that maximum, and the canonical cable peer
    of every port.
    """

    def __init__(self, spec: PGFTSpec, state: CaseState) -> None:
        P = state.num_ports
        F = len(state.src)
        fi, gp = _concat(_case_links(spec, state.src, state.dst,
                                     state.stage, state.ridx))
        by_g = np.argsort(gp, kind="stable")
        self.g_flow = fi[by_g]
        self.g_off = np.r_[0, np.cumsum(np.bincount(gp, minlength=P))]
        self.f_g = gp[np.argsort(fi, kind="stable")]
        self.f_off = np.r_[0, np.cumsum(np.bincount(fi, minlength=F))]
        self.seg, self.old_max = _stage_maxima(state)
        stage = state.link_keys // P
        at_max = state.link_counts == self.old_max[stage]
        self.n_at_max = np.bincount(stage[at_max],
                                    minlength=len(self.old_max))
        self.peer = build_fabric(spec).port_peer


# ----------------------------------------------------------------------
# Pipeline passes
# ----------------------------------------------------------------------
class SymbolicContentionPass(CheckPass):
    """Closed-form certification: same verdicts and certificate schema
    as :class:`~repro.check.certify.ContentionCertifierPass`, no tables.

    Certificates carry ``certificate_kind: "symbolic"`` and bind to the
    *spec*, CPS, placement and active-set digests (there are no tables
    to digest; for the canonical fabric the spec determines them).
    """

    name = "symbolic-certify"
    needs_schedule = True

    def __init__(self, active: np.ndarray | None = None) -> None:
        self.active = active

    def run(self, ctx: CheckContext, report: DiagnosticReport) -> None:
        spec = ctx.fabric.spec
        if spec is None:
            report.add(Diagnostic(
                code="SYM010",
                message="fabric carries no PGFT spec; the symbolic engine "
                        "reasons over the closed form and cannot run"))
            return
        if ctx.routing_name not in ("", "dmodk"):
            report.add(Diagnostic(
                code="SYM010",
                message=f"tables under test come from "
                        f"{ctx.routing_name!r}, not D-Mod-K; the symbolic "
                        "engine would certify the wrong routing"))
            return
        active = self.active if self.active is not None else ctx.active
        certifier = SymbolicCertifier(spec, active)
        certificates = ctx.artifacts.setdefault("certificates", [])
        stage_loads: dict[str, list[int]] = {}
        ctx.artifacts["symbolic_stage_max"] = stage_loads
        for case in ctx.schedule:
            result, _ = certifier.certify(case.cps, case.placement)
            stage_loads[case.name()] = list(result.maxima)
            if result.refuted:
                for v in result.violations:
                    pairs = v["colliding_pairs"]
                    report.add(Diagnostic(
                        code="SYM001",
                        message=(f"{case.name()}: stage {v['stage']} "
                                 f"({v['stage_label'] or 'unlabelled'}) "
                                 f"places {v['link_load']} concurrent flows "
                                 f"on one directed link (closed-form proof); "
                                 f"colliding (src, dst) end-ports: {pairs}"
                                 + (f" (+{v['total_pairs'] - len(pairs)} more)"
                                    if v["pairs_truncated"] else "")),
                        loc=symbolic_link_loc(spec, v["gport"],
                                              stage=v["stage"]),
                        data={"case": case.name(), "stage": v["stage"],
                              "link_load": v["link_load"],
                              "gport": v["gport"],
                              "colliding_pairs": pairs,
                              "total_pairs": v["total_pairs"],
                              "pairs_truncated": v["pairs_truncated"]},
                    ))
                continue
            if result.total_flows == 0:
                report.add(Diagnostic(
                    code="SYM002",
                    message=f"{case.name()}: schedule produced no flows; "
                            "certificate would be vacuous"))
                continue
            certificates.append({
                "kind": "contention-freedom-certificate",
                "version": CERTIFICATE_VERSION,
                "certificate_kind": "symbolic",
                "case": case.name(),
                "topology": str(spec),
                "num_endports": int(spec.num_endports),
                "routing": "dmodk",
                "spec_digest": spec_digest(spec),
                "cps": case.cps.name,
                "cps_digest": cps_digest(case.cps),
                "num_stages": len(case.cps.stages),
                "num_flows": int(result.total_flows),
                "placement_digest": placement_digest(case.placement),
                "active_digest": active_digest(spec.num_endports,
                                               certifier.active),
                "max_link_load": int(result.max_link_load),
                "verdict": "contention-free",
            })


class EngineAgreementPass(CheckPass):
    """Differential validation (``--engine both``): the enumerating and
    symbolic certifiers must agree on every per-stage maximum link load
    and on the offending link of every refuted stage; any divergence is
    a ``SYM090`` error."""

    name = "differential"
    needs_schedule = True

    def run(self, ctx: CheckContext, report: DiagnosticReport) -> None:
        enum = ctx.artifacts.get("certifier_stage_max")
        sym = ctx.artifacts.get("symbolic_stage_max")
        if enum is None or sym is None:
            return  # one of the engines did not run; nothing to compare
        compared = 0
        for case in sorted(sym):
            if case not in enum:
                continue
            compared += 1
            if enum[case] != sym[case]:
                report.add(Diagnostic(
                    code="SYM090",
                    message=(f"{case}: per-stage maximum link loads differ "
                             f"between engines (enumerated {enum[case]}, "
                             f"symbolic {sym[case]})"),
                    data={"case": case, "enumerated": enum[case],
                          "symbolic": sym[case]},
                ))
        e_links = {(d.data["case"], d.data["stage"]): d.data["gport"]
                   for d in report.by_code("CFC001")}
        s_links = {(d.data["case"], d.data["stage"]): d.data["gport"]
                   for d in report.by_code("SYM001")}
        for key in sorted(set(e_links) & set(s_links)):
            if e_links[key] != s_links[key]:
                case, stage = key
                report.add(Diagnostic(
                    code="SYM090",
                    message=(f"{case}: stage {stage} counterexample names "
                             f"different links (enumerated gport "
                             f"{e_links[key]}, symbolic {s_links[key]})"),
                    data={"case": case, "stage": stage,
                          "enumerated_gport": e_links[key],
                          "symbolic_gport": s_links[key]},
                ))
        ctx.artifacts["differential_cases"] = compared

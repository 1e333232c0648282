"""Traffic-class isolation against its stage-by-stage reference.

:class:`~repro.check.isolation.IsolationPass` counts every class's
flows of a whole case at once, in stage-aligned blocks of sparse
``(stage, link, class)`` cells, healthy and on each repaired table.
``tests/isolation_reference.py`` keeps the pass it replaced: one loop
over the aligned stages with a one-stage per-class count.  Over small
PGFT/RLFT fabrics, random node-type maps of one to three classes (some
with fewer than two active members), active sets, several CPS and
stage budgets, D-Mod-K and type-aware routing, both engines, hostile
tables and sampled single-cable faults, both passes must publish the
same ``isolation`` artifact and certificates, emit the same diagnostics
(message, ``loc`` and ``data``) and raise the same route-fault error.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import CheckContext, DiagnosticReport, IsolationPass
from repro.fabric import NodeTypeMap, build_fabric
from repro.routing import route_dmodk, route_typeaware
from repro.topology import pgft

from .. import isolation_reference as ref
from .test_routing_properties import _hostile
from .test_topology_properties import cbb_specs, pgft_specs

CPS = ["shift", "ring", "binomial", "dissemination", "recursive-doubling",
       "tournament"]


def _outcome(pass_cls, fabric, tables, routing, active, kw):
    ctx = CheckContext(fabric=fabric, tables=tables, routing_name=routing,
                       active=active)
    report = DiagnosticReport(max_diags_per_code=1000)
    try:
        pass_cls(**kw).run(ctx, report)
        error = None
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        error = (type(exc).__name__, str(exc))
    return error, json.dumps([report.to_json(), ctx.artifacts],
                             sort_keys=True, default=repr)


def _assert_same(fabric, tables, routing, active, kw):
    got = _outcome(IsolationPass, fabric, tables, routing, active, kw)
    want = _outcome(ref.IsolationPass, fabric, tables, routing, active, kw)
    assert got == want


@st.composite
def isolation_cases(draw):
    spec = draw(st.one_of(pgft_specs(max_levels=3, max_digit=4),
                          cbb_specs(max_levels=2)))
    N = spec.num_endports
    if not 2 <= N <= 64:
        return None
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    C = draw(st.integers(1, 3))
    type_of = rng.integers(C, size=N)
    if C > 1 and draw(st.booleans()):
        # the last class gets at most one member
        type_of[type_of == C - 1] = 0
        type_of[rng.integers(N)] = C - 1 if draw(st.booleans()) else 0
    types = NodeTypeMap(tuple(f"t{c}" for c in range(C)), type_of)
    active = None
    if draw(st.booleans()):
        k = draw(st.integers(1, N))
        active = np.sort(rng.choice(N, size=k, replace=False))
    fab = build_fabric(spec)
    routing = draw(st.sampled_from(["dmodk", "typeaware"]))
    tables = route_typeaware(fab, types, active) if routing == "typeaware" \
        else route_dmodk(fab, active)
    edit = draw(st.sampled_from(["none", "none", "dead", "minus1", "loop",
                                 "valley"]))
    if edit != "none":
        tables = _hostile(tables, edit, rng) or tables
    if not draw(st.integers(0, 3)):
        tables = None
    kw = dict(types=types,
              cps_name=draw(st.sampled_from(CPS)),
              max_stages=draw(st.integers(1, 8)),
              bound=draw(st.one_of(st.none(), st.integers(0, 2))),
              engine=draw(st.sampled_from(["auto", "symbolic",
                                           "enumerate"])),
              fault_units=draw(st.sampled_from([None, "cable"])),
              fault_samples=draw(st.integers(1, 4)))
    return fab, tables, routing, active, kw


@given(isolation_cases())
@settings(max_examples=200, deadline=None)
def test_isolation_equals_reference(case):
    if case is None:
        return
    _assert_same(*case)


RLFT16 = pgft(2, [4, 4], [1, 4], [1, 1])
N324 = pgft(2, [18, 18], [1, 9], [1, 2])
DEEP = pgft(3, [4, 4, 4], [1, 4, 4], [1, 1, 1])


@pytest.mark.parametrize("engine", ["symbolic", "enumerate"])
@pytest.mark.parametrize("cps", CPS)
@pytest.mark.parametrize("seed", range(3))
def test_random_typing_equals_reference(seed, cps, engine):
    """Two randomly mixed classes under type-blind D-Mod-K on a 3-level
    fabric: several refuted classes, loads above two."""
    rng = np.random.default_rng(seed)
    types = NodeTypeMap(("a", "b"), rng.integers(2, size=DEEP.num_endports))
    fab = build_fabric(DEEP)
    _assert_same(fab, route_dmodk(fab), "dmodk", None,
                 dict(types=types, cps_name=cps, engine=engine,
                      max_stages=8))


@pytest.mark.parametrize("edit", ["dead", "minus1", "loop", "valley"])
@pytest.mark.parametrize("seed", range(6))
def test_hostile_tables_equal_reference(seed, edit):
    """Route faults behind refuted classes: the ISO001 findings of the
    stages before the first faulty one, then that stage's error."""
    rng = np.random.default_rng(seed)
    types = NodeTypeMap(("a", "b"), rng.integers(2, size=DEEP.num_endports))
    fab = build_fabric(DEEP)
    tables = _hostile(route_dmodk(fab), edit, rng)
    for cps in CPS:
        _assert_same(fab, tables, "dmodk", None,
                     dict(types=types, cps_name=cps, engine="enumerate",
                          max_stages=8))


@pytest.mark.parametrize("engine", ["symbolic", "enumerate"])
@pytest.mark.parametrize("routing", ["typeaware", "dmodk"])
@pytest.mark.parametrize("spec,counts,faults", [
    (RLFT16, {"storage": 1}, 64),
    (N324, {"storage": 2}, 4),
])
def test_typed_fabrics_equal_reference(spec, counts, faults, routing,
                                       engine):
    """The CI fabrics, every RLFT16 cable fault and a degraded n324."""
    fab = build_fabric(spec)
    types = NodeTypeMap.staggered(spec, counts)
    tables = route_typeaware(fab, types) if routing == "typeaware" \
        else route_dmodk(fab)
    _assert_same(fab, tables, routing, None,
                 dict(types=types, engine=engine, max_stages=16, bound=1,
                      fault_units="cable", fault_samples=faults))

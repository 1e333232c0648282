"""The link-load kernel walks a block of stages at once.

``sequence_hsd`` and the enumerating certifier used to walk the tables
once per stage; on the paper's 324-node cluster a full shift is 323
stages.  Both now walk once per block of stages.
"""

import numpy as np
import pytest

import repro.analysis.hsd as hsd
from repro.check import CheckContext, DiagnosticReport
from repro.check.certify import ContentionCertifierPass
from repro.check.passes import ScheduleCase
from repro.collectives import shift
from repro.fabric import ForwardingTables, build_fabric
from repro.ordering import random_order
from repro.routing import route_dmodk
from repro.topology import paper_topologies

N = 324


@pytest.fixture(scope="module")
def tables():
    return route_dmodk(build_fabric(paper_topologies()["n324"]))


@pytest.fixture
def walks(monkeypatch):
    calls = []
    walk = ForwardingTables.flow_routes

    def spy(self, src, dst):
        calls.append(len(src))
        return walk(self, src, dst)

    monkeypatch.setattr(ForwardingTables, "flow_routes", spy)
    return calls


def _blocks():
    """Walks a full n324 shift takes: whole stages of 324 flows, at most
    ``_BLOCK_FLOWS`` flows per walk."""
    per_walk = max(1, hsd._BLOCK_FLOWS // N)
    return -(-(N - 1) // per_walk)


def test_sequence_hsd_walks_once_per_block(tables, walks):
    rep = hsd.sequence_hsd(tables, shift(N), random_order(N, seed=3))
    assert len(rep.stage_max) == N - 1
    assert len(walks) < N - 1
    assert len(walks) == _blocks()
    assert sum(walks) == N * (N - 1)


def test_certifier_walks_once_per_block(tables, walks):
    ctx = CheckContext(fabric=tables.fabric, tables=tables, schedule=[
        ScheduleCase(shift(N), random_order(N, seed=3))])
    report = DiagnosticReport()
    ContentionCertifierPass().run(ctx, report)
    assert report.by_code("CFC001")
    assert len(walks) < N - 1
    assert len(walks) == _blocks()
    maxima = ctx.artifacts["certifier_stage_max"]["shift"]
    assert np.array_equal(maxima, hsd.sequence_hsd(
        tables, shift(N), random_order(N, seed=3)).stage_max)

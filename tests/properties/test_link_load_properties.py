"""The link-load kernel against its stage-by-stage reference.

Every table-side flows-per-link count -- ``stage_link_loads``,
``stage_class_link_loads``, ``stage_max_hsd``, ``sequence_hsd``,
``batched_sequence_hsd``, ``sequence_level_profile``,
``link_byte_loads`` and the enumerating certifier -- is a view over one
kernel that walks a block of stages at once and counts keyed cells with
one ``bincount``.  ``tests/hsd_reference.py`` keeps the bodies that walk
and count one stage at a time.  On generated tables (every router,
repaired or hostile: dead cables, ``-1`` entries, loops, valleys), every
CPS, partial and batched placements and block sizes down to one flow,
both sides must return the same loads and maxima, emit the same
``CFC001``/``RTE001`` diagnostics and raise the same errors.
"""

import dataclasses
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.hsd as hsd
from repro.analysis import (
    batched_sequence_hsd,
    link_classes,
    sequence_hsd,
    sequence_level_profile,
    sweep_placements,
)
from repro.check import CheckContext, DiagnosticReport
from repro.check.certify import ContentionCertifierPass
from repro.check.passes import ScheduleCase
from repro.collectives import CPS_NAMES, by_name
from repro.fabric import ForwardingTables, build_fabric
from repro.ordering import random_order
from repro.routing import route_dmodk, route_minhop, route_random
from repro.routing.repair import REPAIR_STRATEGIES, repair_tables
from repro.sim.metrics import link_byte_loads
from repro.topology import pgft

from .. import hsd_reference as ref
from .test_routing_properties import _hostile
from .test_topology_properties import cbb_specs, pgft_specs


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    elif dataclasses.is_dataclass(want):
        assert type(got) is type(want)
        for f in dataclasses.fields(want):
            _assert_same(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    else:
        assert type(got) is type(want) and got == want


@st.composite
def table_cases(draw):
    """Small PGFT/RLFT tables from every router, repaired or with one
    hostile edit (a dead cable, a ``-1`` entry, a loop or a valley)."""
    spec = draw(st.one_of(pgft_specs(max_levels=3, max_digit=3),
                          cbb_specs(max_levels=2)))
    fab = build_fabric(spec)
    if not 2 <= fab.num_endports <= 36:
        return None
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    router = draw(st.sampled_from(["dmodk", "minhop", "random", "repair"]))
    if router == "minhop":
        tables = route_minhop(fab)
    elif router == "random":
        tables = route_random(fab, seed=int(rng.integers(1000)))
    elif router == "repair":
        live = np.flatnonzero(fab.port_peer >= 0)
        g = int(live[rng.integers(len(live))])
        tables = repair_tables(
            route_dmodk(fab), fab.with_failed_cables([g]),
            strategy=draw(st.sampled_from(sorted(REPAIR_STRATEGIES)))).tables
    else:
        tables = route_dmodk(fab)
    edit = draw(st.sampled_from(["none", "dead", "minus1", "loop",
                                 "valley"]))
    fab = tables.fabric
    live_down = (fab.port_peer >= 0) & ~fab.port_goes_up()
    upper = np.flatnonzero(fab.node_level >= 2)
    if edit == "valley" and not (len(upper) and all(
            live_down[fab.ports_of(int(v))].any() for v in upper)):
        edit = "none"  # some switch above the leaves has no child left
    if edit != "none":
        tables = _hostile(tables, edit, rng) or tables
    return tables


@contextmanager
def _blocks(flows, cells):
    with mock.patch.object(hsd, "_BLOCK_FLOWS", flows), \
            mock.patch.object(hsd, "_BLOCK_CELLS", cells):
        yield


@st.composite
def block_sizes(draw):
    """From one flow and one cell per block (a stage per walk) up to the
    package's bounds."""
    return (draw(st.sampled_from([1, 5, 40, hsd._BLOCK_FLOWS])),
            draw(st.sampled_from([1, 500, hsd._BLOCK_CELLS])))


@st.composite
def sequence_cases(draw):
    """Tables, any CPS over up to ``N`` ranks, and 1-8 placement rows:
    permutations of end-ports, possibly shorter than the CPS (ranks past
    a row do not exist) and with ``-1`` slots."""
    tables = draw(table_cases())
    if tables is None:
        return None
    N = tables.fabric.num_endports
    cps = by_name(draw(st.sampled_from(sorted(CPS_NAMES))),
                  draw(st.one_of(st.just(N), st.integers(2, N))))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    L = draw(st.one_of(st.just(cps.num_ranks),
                       st.integers(1, cps.num_ranks)))
    placements = np.stack([rng.permutation(N)[:L]
                           for _ in range(draw(st.integers(1, 8)))])
    if draw(st.integers(0, 2)) == 0:
        placements[rng.random(placements.shape) < 0.2] = -1
    return tables, cps, placements


@st.composite
def stage_cases(draw):
    """Tables and one stage of arbitrary flows, self flows included,
    with class keys and byte weights."""
    tables = draw(table_cases())
    if tables is None:
        return None
    N = tables.fabric.num_endports
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    F = draw(st.integers(0, 3 * N))
    src = rng.integers(N, size=F)
    dst = rng.integers(N, size=F)
    C = draw(st.integers(1, 4))
    flow_class = rng.integers(C, size=F)
    size = rng.choice([0.0, 1.0, 2048.0, 1e6 / 3], size=F)
    return tables, src, dst, flow_class, C, size


def _sequences(N, src, dst, size):
    seqs = [[] for _ in range(N)]
    for s, d, b in zip(src.tolist(), dst.tolist(), size.tolist()):
        seqs[s].append((d, b))
    return seqs


class TestLinkLoadKernel:

    @given(stage_cases(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_stage_views_equal_reference(self, case, switch_only):
        if case is None:
            return
        tables, src, dst, flow_class, C, size = case
        for name, args in [
                ("stage_link_loads", (tables, src, dst)),
                ("stage_max_hsd", (tables, src, dst, switch_only)),
                ("stage_class_link_loads", (tables, src, dst, flow_class)),
                ("stage_class_link_loads", (tables, src, dst, flow_class,
                                            C + 1))]:
            _assert_same(_outcome(getattr(hsd, name), *args),
                         _outcome(getattr(ref, name), *args))
        seqs = _sequences(tables.fabric.num_endports, src, dst, size)
        _assert_same(_outcome(link_byte_loads, tables, seqs),
                     _outcome(ref.link_byte_loads, tables, seqs))

    @given(sequence_cases(), block_sizes(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_sequence_views_equal_reference(self, case, blocks, switch_only):
        if case is None:
            return
        tables, cps, placements = case
        want = _outcome(ref.batched_sequence_hsd, tables, cps, placements,
                        switch_only)
        with _blocks(*blocks):
            got = _outcome(batched_sequence_hsd, tables, cps, placements,
                           switch_only)
            rows = [(_outcome(sequence_hsd, tables, cps, p, switch_only),
                     _outcome(sequence_level_profile, tables, cps, p))
                    for p in placements]
        _assert_same(got, want)
        if got[0] == "ok":
            _assert_same(got[1].avg_max, ref.batched_avg_max(want[1]))
        for p, (hsd_row, level_row) in zip(placements, rows):
            _assert_same(hsd_row, _outcome(ref.sequence_hsd, tables, cps, p,
                                           switch_only))
            if not link_classes(tables):
                # every cable dead: the reference cannot shape zero
                # classes; the kernel's profile is empty
                assert level_row[0] != "ok" \
                    or level_row[1].stage_max.shape == (0, 0)
                continue
            _assert_same(level_row, _outcome(ref.sequence_level_profile,
                                             tables, cps, p))

    @given(sequence_cases(), block_sizes())
    @settings(max_examples=200, deadline=None)
    def test_certifier_equals_reference(self, case, blocks):
        if case is None:
            return
        tables, cps, placements = case

        def run(certifier):
            ctx = CheckContext(fabric=tables.fabric, tables=tables,
                               routing_name="any", schedule=[
                                   ScheduleCase(cps, p, label=f"row{t}")
                                   for t, p in enumerate(placements)])
            report = DiagnosticReport()
            certifier.run(ctx, report)
            return ([(d.code, d.message, d.severity, d.loc, d.data)
                     for d in report], report.counts, ctx.artifacts)

        want = run(ref.ReferenceCertifierPass())
        with _blocks(*blocks):
            got = run(ContentionCertifierPass())
        assert got == want


def _certify_report(certifier, tables, cases):
    ctx = CheckContext(fabric=tables.fabric, tables=tables, schedule=cases)
    report = DiagnosticReport()
    certifier.run(ctx, report)
    return [(d.code, d.message, d.loc, d.data) for d in report], ctx.artifacts


class TestFixedCases:
    """Cases the generated ones reach rarely: a fault in an earlier stage
    of a later placement row, and a hot link crossed at several hop
    depths (so hop-major order is not flow order)."""

    # seeds whose -1 entry faults an earlier stage in a later row first
    @pytest.mark.parametrize("seed", [12, 13, 19, 23, 25])
    @pytest.mark.parametrize("name", ["shift", "dissemination",
                                      "recursive-doubling"])
    def test_batched_fault_is_first_faulty_stage(self, seed, name):
        fab = build_fabric(pgft(2, [4, 4], [1, 2], [1, 2]))
        rng = np.random.default_rng(seed)
        sw = route_dmodk(fab).switch_out.copy()
        sw[rng.integers(fab.num_switches), rng.integers(16)] = -1
        tables = ForwardingTables(fab, sw)
        cps = by_name(name, 16)
        placements = sweep_placements(16, 16, 4, seed=seed)
        want = _outcome(ref.batched_sequence_hsd, tables, cps, placements)
        for blocks in [(40, hsd._BLOCK_CELLS),
                       (hsd._BLOCK_FLOWS, hsd._BLOCK_CELLS)]:
            with _blocks(*blocks):
                got = _outcome(batched_sequence_hsd, tables, cps, placements)
            _assert_same(got, want)

    @pytest.mark.parametrize("spec, router_seed, name, order_seed", [
        (pgft(3, [2, 2, 2], [1, 2, 2], [1, 1, 1]), 1, "shift", 1),
        (pgft(3, [2, 2, 2], [1, 2, 2], [1, 1, 1]), 1, "dissemination", 5),
        (pgft(3, [3, 3, 3], [1, 3, 3], [1, 1, 1]), 0, "shift", 1),
    ])
    def test_certifier_pairs_in_hop_major_order(self, spec, router_seed,
                                                name, order_seed):
        tables = route_random(build_fabric(spec), seed=router_seed)
        n = tables.fabric.num_endports
        cases = [ScheduleCase(by_name(name, n),
                              random_order(n, seed=order_seed))]
        got = _certify_report(ContentionCertifierPass(), tables, cases)
        assert got == _certify_report(ref.ReferenceCertifierPass(), tables,
                                      cases)
        assert got[0] and got[0][0][0] == "CFC001"

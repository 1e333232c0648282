"""FLT0xx fault-schedule lint: every code fires; clean schedules pass."""

import numpy as np

from repro.check import CheckContext, FaultSchedulePass, run_check
from repro.faults import FaultEvent, FaultSchedule
from repro.faults.schedule import FLAKY, LINK_DOWN, LINK_UP, SWITCH_DOWN


def _sw_up_gport(fab):
    up = np.flatnonzero(fab.port_goes_up()
                        & (fab.port_owner >= fab.num_endports)
                        & (fab.port_peer >= 0))
    return int(up[0])


def _lint(tables, faults):
    ctx = CheckContext.for_tables(tables, faults=faults)
    return run_check(ctx, only={"faults"}, certify=False)


class TestEachCode:
    def test_flt001_gport_out_of_range(self, fig1_tables):
        faults = FaultSchedule(events=(
            FaultEvent(time=1.0, kind=LINK_DOWN, gport=10**6),))
        res = _lint(fig1_tables, faults)
        assert res.report.codes() == ["FLT001"]

    def test_flt002_unwired_port(self, fig1_tables):
        # Kill a cable first so the fabric has a wire-less port, then
        # lint a schedule naming it against the degraded fabric.
        fab = fig1_tables.fabric
        gp = _sw_up_gport(fab)
        degraded = fab.with_failed_cables([gp])
        from repro.routing.repair import repair_tables

        rep = repair_tables(fig1_tables, degraded)
        faults = FaultSchedule(events=(
            FaultEvent(time=1.0, kind=LINK_DOWN, gport=gp),))
        res = _lint(rep.tables, faults)
        assert res.report.codes() == ["FLT002"]

    def test_flt003_node_out_of_range(self, fig1_tables):
        faults = FaultSchedule(events=(
            FaultEvent(time=1.0, kind=SWITCH_DOWN, node=10**6),))
        res = _lint(fig1_tables, faults)
        assert res.report.codes() == ["FLT003"]

    def test_flt004_switch_down_on_host(self, fig1_tables):
        faults = FaultSchedule(events=(
            FaultEvent(time=1.0, kind=SWITCH_DOWN, node=0),))
        res = _lint(fig1_tables, faults)
        assert res.report.codes() == ["FLT004"]

    def test_flt005_link_up_noop(self, fig1_tables):
        gp = _sw_up_gport(fig1_tables.fabric)
        faults = FaultSchedule(events=(
            FaultEvent(time=1.0, kind=LINK_UP, gport=gp),))
        res = _lint(fig1_tables, faults)
        assert res.report.codes() == ["FLT005"]

    def test_flt006_redundant_down(self, fig1_tables):
        gp = _sw_up_gport(fig1_tables.fabric)
        faults = FaultSchedule(events=(
            FaultEvent(time=1.0, kind=LINK_DOWN, gport=gp),
            FaultEvent(time=2.0, kind=LINK_DOWN, gport=gp),))
        res = _lint(fig1_tables, faults)
        assert res.report.codes() == ["FLT006"]

    def test_flt006_dead_switch_cable(self, fig1_tables):
        fab = fig1_tables.fabric
        node = fab.num_endports
        gp = next(int(g) for g in fab.ports_of(node)
                  if fab.port_peer[g] >= 0)
        faults = FaultSchedule(events=(
            FaultEvent(time=1.0, kind=SWITCH_DOWN, node=node),
            FaultEvent(time=2.0, kind=LINK_UP, gport=gp),))
        res = _lint(fig1_tables, faults)
        assert res.report.codes() == ["FLT006"]

    def test_flt007_shadowed_flaky(self, fig1_tables):
        gp = _sw_up_gport(fig1_tables.fabric)
        faults = FaultSchedule(events=(
            FaultEvent(time=1.0, kind=LINK_DOWN, gport=gp),
            FaultEvent(time=5.0, kind=FLAKY, gport=gp, until=8.0, loss=0.5),))
        res = _lint(fig1_tables, faults)
        assert res.report.codes() == ["FLT007"]

    def test_flaky_before_death_not_shadowed(self, fig1_tables):
        gp = _sw_up_gport(fig1_tables.fabric)
        faults = FaultSchedule(events=(
            FaultEvent(time=1.0, kind=FLAKY, gport=gp, until=8.0, loss=0.5),
            FaultEvent(time=5.0, kind=LINK_DOWN, gport=gp),
            FaultEvent(time=20.0, kind=LINK_UP, gport=gp),))
        res = _lint(fig1_tables, faults)
        assert res.report.codes() == []


class TestPipelineWiring:
    def test_clean_schedule_no_findings(self, fig1_tables):
        fab = fig1_tables.fabric
        faults = FaultSchedule.random(fab, seed=2, horizon=200.0, mtbf=40.0)
        res = _lint(fig1_tables, faults)
        assert len(res.report) == 0
        assert "faults" in res.passes_run

    def test_skipped_without_schedule(self, fig1_tables):
        ctx = CheckContext.for_tables(fig1_tables)
        res = run_check(ctx, only={"faults"}, certify=False)
        assert "faults" not in res.passes_run

    def test_needs_faults_flag(self):
        assert FaultSchedulePass.needs_faults is True

    def test_random_schedules_lint_clean(self, fig1_tables):
        """The generator only draws faults that exist on the fabric, so
        FLT001/002/003 never fire on its output (warnings like FLT006
        redundancy can legitimately occur)."""
        fab = fig1_tables.fabric
        for seed in range(10):
            faults = FaultSchedule.random(fab, seed=seed, horizon=300.0,
                                          mtbf=20.0)
            res = _lint(fig1_tables, faults)
            assert not res.report.has_errors

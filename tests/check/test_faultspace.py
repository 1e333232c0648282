"""Fault-space static analyzer (RQL0xx): enumeration completeness,
incremental-vs-cold engine equivalence, quality scoring, the pipeline
pass and the SARIF emitter.

The load-bearing claims: (1) the enumerator covers *every* single
cable and switch of a fabric, (2) the incremental delta engine and
cold re-certification produce bit-identical records, and (3) adding
the fault-space machinery left the text/JSON CLI outputs of ordinary
runs untouched.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.check import (
    CheckContext,
    ScheduleCase,
    enumerate_fault_units,
    flow_valleys,
    prepare_fault_cases,
    run_check,
    sample_fault_combos,
    sweep_fault_space,
    up_port_spread,
)
from repro.check.cli import main as check_main
from repro.check.diagnostics import CODES
from repro.check.faultspace import (
    FAULT_UNIT_KINDS,
    SWEEP_ENGINES,
    certify_prepared,
)
from repro.check.sarif import (
    FAMILY_ANCHORS,
    SARIF_VERSION,
    build_line_map,
    dumps_sarif,
    to_sarif,
)
from repro.collectives import shift
from repro.fabric import ForwardingTables, build_fabric
from repro.ordering import topology_order
from repro.routing import route_dmodk
from repro.topology import paper_topologies, pgft

SMALL_SPEC = "2; 4,4; 1,4; 1,1"    # 16 end-ports, 4 leaves + 4 spines


@pytest.fixture(scope="module")
def small():
    fab = build_fabric(pgft(2, [4, 4], [1, 4], [1, 1]))
    tables = route_dmodk(fab)
    return fab, tables, shift(fab.num_endports), \
        topology_order(fab.num_endports)


class TestEnumeration:
    def test_small_fabric_counts(self, small):
        fab, _, _, _ = small
        cables = enumerate_fault_units(fab, units="cable")
        switches = enumerate_fault_units(fab, units="switch")
        both = enumerate_fault_units(fab, units="both")
        # 16 host uplinks + 4 leaves x 4 spines = 32 cables; 8 switches.
        assert len(cables) == 32
        assert len(switches) == 8
        assert len(both) == 40

    def test_labels_unique_and_kinds(self, small):
        fab, _, _, _ = small
        units = enumerate_fault_units(fab)
        assert len({u.label for u in units}) == len(units)
        assert {u.kind for u in units} <= set(FAULT_UNIT_KINDS)
        for u in units:
            if u.kind == "cable":
                assert len(u.gports) == 2
                assert fab.port_peer[u.gports[0]] == u.gports[1]
            else:
                assert u.node >= fab.num_endports
                assert len(u.gports) >= 2

    def test_exclude_host_cables(self, small):
        fab, _, _, _ = small
        N = fab.num_endports
        sw = enumerate_fault_units(fab, units="cable",
                                   include_host_cables=False)
        assert len(sw) == 16
        for u in sw:
            assert all(int(fab.port_owner[g]) >= N for g in u.gports)

    def test_n324_single_fault_space_complete(self):
        """The paper fabric's whole single-fault space: every one of the
        648 cables and 27 switches is enumerated exactly once."""
        fab = build_fabric(paper_topologies()["n324"])
        cables = enumerate_fault_units(fab, units="cable")
        switches = enumerate_fault_units(fab, units="switch")
        assert len(cables) == 648
        assert len(switches) == 27
        assert len(enumerate_fault_units(fab)) == 675
        # Every live cable is covered: the units' gport pairs partition
        # the set of connected ports.
        covered = sorted(g for u in cables for g in u.gports)
        assert covered == sorted(np.flatnonzero(fab.port_peer >= 0).tolist())

    def test_bad_units_rejected(self, small):
        fab, _, _, _ = small
        with pytest.raises(ValueError, match="cable"):
            enumerate_fault_units(fab, units="nodes")


class TestSampling:
    def test_k1_is_exhaustive(self, small):
        fab, _, _, _ = small
        units = enumerate_fault_units(fab, units="cable")
        combos = sample_fault_combos(units, max_faults=1, samples=99)
        assert combos == tuple((u,) for u in units)

    def test_deterministic_and_distinct(self, small):
        fab, _, _, _ = small
        units = enumerate_fault_units(fab, units="cable")
        a = sample_fault_combos(units, max_faults=3, samples=8, seed=7)
        b = sample_fault_combos(units, max_faults=3, samples=8, seed=7)
        assert a == b
        keys = [tuple(u.label for u in c) for c in a]
        assert len(set(keys)) == len(keys)
        # exhaustive k=1 layer + 8 samples each at k=2 and k=3
        assert len(a) == len(units) + 16
        assert all(len(c) <= 3 for c in a)

    def test_seed_changes_samples(self, small):
        fab, _, _, _ = small
        units = enumerate_fault_units(fab, units="cable")
        a = sample_fault_combos(units, max_faults=2, samples=8, seed=0)
        b = sample_fault_combos(units, max_faults=2, samples=8, seed=1)
        assert a != b


class TestStaticQuality:
    def test_healthy_dmodk_meets_spread_bound(self, small):
        _, tables, _, _ = small
        for _node, _live, mx, bound in up_port_spread(tables):
            assert mx <= bound

    def test_healthy_routes_have_no_valleys(self, small):
        fab, tables, _, _ = small
        n = fab.num_endports
        src, dst = np.divmod(np.arange(n * n), n)
        assert len(flow_valleys(tables, src, dst)) == 0

    def test_looping_flow_raises_like_the_walker(self):
        """A flow caught in a forwarding loop has no valley verdict: it
        raises the walker's error instead of being judged mid-loop."""
        from repro.analysis import walk_flow_links
        from repro.fabric import ForwardingTables

        fab = build_fabric(paper_topologies()["n16-pgft"])
        base = route_dmodk(fab)
        sw = base.switch_out.copy()
        # host 5's leaf bounces dest 5 back toward its parent, which
        # sends it straight down again
        leaf = int(fab.peer_node[fab.port_start[5]])
        sw[leaf - fab.num_endports, 5] = next(
            g for g in fab.ports_of(leaf) if fab.port_goes_up()[g])
        looped = ForwardingTables(fab, sw, base.host_up)
        src, dst = np.array([0]), np.array([5])
        with pytest.raises(ValueError, match="routing loop"):
            walk_flow_links(looped, src, dst)
        with pytest.raises(ValueError, match="routing loop"):
            flow_valleys(looped, src, dst)

    def test_swsw_fault_keeps_reachability_and_scores(self, small):
        fab, tables, _, _ = small
        unit = enumerate_fault_units(fab, units="cable",
                                     include_host_cables=False)[0]
        p, = prepare_fault_cases(tables, [(unit,)], strategy="balanced")
        assert p.repair.ok
        # 4 destination groups over 3 surviving up ports: pigeonhole
        # forces a doubled link somewhere.
        assert p.worst_multiplicity >= 2
        assert p.label == unit.label

    def test_host_cable_fault_loses_exactly_that_host(self, small):
        fab, tables, _, _ = small
        host_units = [u for u in enumerate_fault_units(fab, units="cable")
                      if any(int(fab.port_owner[g]) < fab.num_endports
                             for g in u.gports)]
        assert len(host_units) == 16
        p, = prepare_fault_cases(tables, [(host_units[3],)])
        assert len(p.repair.unreachable) == 1


class TestEngines:
    def test_incremental_matches_cold_bit_for_bit(self, small):
        fab, tables, cps, order = small
        units = enumerate_fault_units(fab, units="cable")
        prepared = prepare_fault_cases(tables, [(u,) for u in units],
                                       strategy="balanced")
        inc = certify_prepared(tables, prepared, cps, order,
                               engine="incremental")
        cold = certify_prepared(tables, prepared, cps, order, engine="cold")
        assert len(inc.records) == len(cold.records) == 32
        for a, b in zip(inc.records, cold.records):
            assert a.verdict == b.verdict, a.label
            assert a.stage_maxima == b.stage_maxima, a.label
            assert a.violation == b.violation, a.label
        assert inc.stages_touched > 0 and inc.flows_recomputed > 0

    def test_refuted_record_carries_counterexample(self, small):
        fab, tables, cps, order = small
        unit = enumerate_fault_units(fab, units="cable",
                                     include_host_cables=False)[0]
        prepared = prepare_fault_cases(tables, [(unit,)])
        res = certify_prepared(tables, prepared, cps, order)
        r, = res.records
        assert r.verdict == "refuted"
        v = r.violation
        assert v is not None and v["link_load"] >= 2
        assert v["stage"] == r.stage_maxima.index(max(r.stage_maxima))
        assert v["colliding_pairs"], "counterexample must name pairs"
        assert v["total_pairs"] >= len(v["colliding_pairs"])

    def test_leaf_switch_fault_is_disconnected_not_crash(self, small):
        """Killing a leaf switch (all of its hosts' only uplink) must
        yield a 'disconnected' record, never an exception."""
        fab, tables, cps, order = small
        N = fab.num_endports
        leaf = next(u for u in enumerate_fault_units(fab, units="switch")
                    if int(fab.node_level[u.node]) == 1)
        prepared = prepare_fault_cases(tables, [(leaf,)])
        res = certify_prepared(tables, prepared, cps, order)
        r, = res.records
        assert r.verdict == "disconnected"
        assert len(r.unreachable) == 4     # the leaf's whole host group
        assert all(h < N for h in r.unreachable)

    def test_unknown_engine_rejected(self, small):
        fab, tables, cps, order = small
        with pytest.raises(ValueError, match="engine"):
            certify_prepared(tables, [], cps, order, engine="warm")
        assert set(SWEEP_ENGINES) == {"incremental", "cold"}

    def test_sweep_driver_end_to_end(self, small):
        _, tables, cps, order = small
        res = sweep_fault_space(tables, cps, order, units="cable",
                                strategy="balanced")
        assert len(res.records) == 32
        counts = res.verdict_counts()
        assert counts == {"disconnected": 16, "refuted": 16}
        assert res.to_json()["num_faults"] == 32


class TestFaultSpacePass:
    def _run(self, small, **fs):
        fab, tables, cps, order = small
        ctx = CheckContext.for_tables(
            tables, routing_name="dmodk",
            schedule=[ScheduleCase(cps, order, label="shift/topology")])
        return run_check(ctx, fault_space=fs)

    def test_off_by_default(self, small):
        fab, tables, cps, order = small
        ctx = CheckContext.for_tables(
            tables, routing_name="dmodk",
            schedule=[ScheduleCase(cps, order, label="shift/topology")])
        result = run_check(ctx)
        assert "faultspace" not in result.artifacts
        assert not any(c.startswith("RQL") for c in result.report.counts)

    def test_emits_rql_codes_and_artifact(self, small):
        result = self._run(small, units="cable")
        sweep = result.artifacts["faultspace"]["shift/topology"]
        assert sweep["num_faults"] == 32
        codes = set(result.report.counts)
        # host cables disconnect (RQL002), sw-sw cables break the
        # certificate (RQL020) and the spread bound (RQL010), and the
        # sweep always summarises (RQL090).
        assert {"RQL002", "RQL010", "RQL020", "RQL090"} <= codes
        assert result.report.exit_code() == 1   # warnings, no errors

    def test_records_match_direct_sweep(self, small):
        fab, tables, cps, order = small
        result = self._run(small, units="cable")
        direct = sweep_fault_space(tables, cps, order, units="cable")
        assert result.artifacts["faultspace"]["shift/topology"] == \
            direct.to_json()

    def test_specless_fabric_gets_a_cold_sweep(self, small):
        """Without a PGFT spec there is no closed form to recertify
        from: the pass sweeps such a fabric with the cold engine (it
        used to skip the sweep with an RQL090 note)."""
        fab, tables, cps, order = small
        bare = ForwardingTables(
            fabric=dataclasses.replace(fab, spec=None),
            switch_out=tables.switch_out, host_up=tables.host_up)
        ctx = CheckContext.for_tables(
            bare, routing_name="dmodk",
            schedule=[ScheduleCase(cps, order, label="shift/topology")])
        result = run_check(ctx, fault_space={"units": "cable"})
        sweep = result.artifacts["faultspace"]["shift/topology"]
        assert sweep["engine"] == "cold"
        prepared = prepare_fault_cases(
            tables, [(u,) for u in enumerate_fault_units(fab, units="cable")])
        cold = certify_prepared(tables, prepared, cps, order, engine="cold")
        assert sweep == cold.to_json()
        assert sweep_fault_space(bare, cps, order,
                                 units="cable").to_json() == sweep


class TestCli:
    def _json_run(self, capsys, *extra):
        rc = check_main(["--spec", SMALL_SPEC, "--cps", "shift",
                         "--order", "topology", *extra])
        return rc, capsys.readouterr().out

    def test_json_output_unchanged_without_fault_space(self, capsys):
        """The legacy JSON surface is bit-stable: no fault-space key
        appears unless the sweep was requested."""
        rc, out = self._json_run(capsys, "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert sorted(payload) == ["certificates", "diagnostics",
                                   "passes", "summary", "tool", "version"]

    def test_json_alias_agrees_with_format(self, capsys):
        _, via_flag = self._json_run(capsys, "--json")
        _, via_format = self._json_run(capsys, "--format", "json")
        assert via_flag == via_format

    def test_fault_space_json_payload(self, capsys):
        rc, out = self._json_run(capsys, "--format", "json",
                                 "--fault-space", "--fault-units", "cable")
        assert rc == 1      # RQL warnings
        sweep = json.loads(out)["faultspace"]["shift/topology"]
        assert sweep["num_faults"] == 32
        assert all(r["verdict"] in ("contention-free", "refuted",
                                    "disconnected")
                   for r in sweep["records"])

    def test_sarif_output_parses(self, capsys):
        rc, out = self._json_run(capsys, "--format", "sarif",
                                 "--fault-space", "--fault-units", "cable")
        assert rc == 1
        doc = json.loads(out)
        assert doc["version"] == SARIF_VERSION
        run, = doc["runs"]
        rules = {r["id"] for r in
                 run["tool"]["driver"]["rules"]}
        assert rules <= set(CODES)
        assert any(r.startswith("RQL") for r in rules)
        assert len(run["results"]) > 0


class TestSarifEmitter:
    def test_shape_and_rule_indexing(self, small):
        fab, tables, cps, order = small
        ctx = CheckContext.for_tables(
            tables, routing_name="dmodk",
            schedule=[ScheduleCase(cps, order, label="shift/topology")])
        result = run_check(ctx, fault_space={"units": "cable"})
        doc = to_sarif(result, artifact_uri="small.topo")
        run, = doc["runs"]
        rules = run["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == sorted({r["id"] for r in rules})
        assert len(run["results"]) == len(result.report.diagnostics)
        for res in run["results"]:
            rule = rules[res["ruleIndex"]]
            assert rule["id"] == res["ruleId"]
            assert res["level"] in ("error", "warning", "note")
            phys = res["locations"][0]["physicalLocation"]
            assert phys["artifactLocation"]["uri"] == "small.topo"
            region = phys["region"]
            assert region["startLine"] >= 1 and region["startColumn"] == 1

    def test_rules_link_checks_md(self, small):
        fab, tables, cps, order = small
        ctx = CheckContext.for_tables(
            tables, routing_name="dmodk",
            schedule=[ScheduleCase(cps, order, label="shift/topology")])
        result = run_check(ctx, fault_space={"units": "cable"})
        run, = to_sarif(result)["runs"]
        for rule in run["tool"]["driver"]["rules"]:
            assert rule["helpUri"].endswith(
                f"docs/CHECKS.md#{FAMILY_ANCHORS[rule['id'][:3]]}")

    def test_every_code_family_has_anchor(self):
        assert {c[:3] for c in CODES} == set(FAMILY_ANCHORS)

    def test_line_map_resolves_switch_regions(self, small):
        from repro.fabric.topofile import dumps as dump_topo
        fab, tables, cps, order = small
        text = dump_topo(fab)
        lines = build_line_map(text)
        assert lines  # every hca/switch declaration mapped
        name, lineno = next(iter(sorted(lines.items())))
        assert text.splitlines()[lineno - 1].split()[1] == name
        ctx = CheckContext.for_tables(
            tables, routing_name="dmodk",
            schedule=[ScheduleCase(cps, order, label="shift/topology")])
        result = run_check(ctx, fault_space={"units": "cable"})
        run, = to_sarif(result, line_map=lines)["runs"]
        located = [res for res in run["results"]
                   if res["locations"][0]["physicalLocation"]
                   ["region"]["startLine"] > 1]
        assert located, "no finding resolved to a declaration line"

    def test_dumps_round_trips(self, small):
        fab, tables, cps, order = small
        ctx = CheckContext.for_tables(tables, routing_name="dmodk")
        result = run_check(ctx)
        doc = json.loads(dumps_sarif(result))
        assert doc["version"] == SARIF_VERSION
        assert doc["runs"][0]["properties"]["summary"]["exit_code"] == 0

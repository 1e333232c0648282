"""Symbolic certification engine (SYM0xx): closed form vs enumeration.

The load-bearing claim is bit-for-bit equivalence with the enumerating
certifier -- same per-stage maxima, same offending global port ids, same
argmax tie-breaks -- across topology shapes, placements, CPS families
and partial populations.  Everything else (incremental modes, the
differential pass, CLI plumbing) builds on that equivalence.
"""

import numpy as np
import pytest

from repro.analysis.hsd import walk_flow_links
from repro.check import (
    CheckContext,
    ScheduleCase,
    SymbolicCertifier,
    canonical_peer,
    run_check,
    symbolic_flow_links,
)
from repro.check.symbolic import EngineAgreementPass, decode_link
from repro.collectives.cps import (
    binomial,
    dissemination,
    recursive_doubling,
    ring,
    shift,
)
from repro.collectives.schedule import stage_flows
from repro.fabric import build_fabric
from repro.fabric.lft import ForwardingTables
from repro.ordering import random_order, topology_order, topology_subset
from repro.ordering.adversarial import adversarial_ring_order
from repro.routing import route_dmodk
from repro.routing.dmodk import dense_ranks
from repro.routing.repair import repair_tables
from repro.topology import pgft

TOPOLOGIES = {
    "rlft2": pgft(2, [4, 4], [1, 4], [1, 1]),
    "fig1": pgft(2, [4, 4], [1, 2], [1, 2]),
    "deep": pgft(3, [2, 2, 2], [1, 2, 2], [1, 1, 1]),
    "oblong": pgft(3, [3, 2, 4], [1, 3, 2], [1, 1, 1]),   # non-pow2 N=24
    "multirail": pgft(2, [4, 3], [2, 4], [2, 3]),          # p_1 = 2 hosts
}

CPS_FACTORIES = {
    "shift": shift,
    "ring": ring,
    "dissemination": dissemination,
    "recursive-doubling": recursive_doubling,
    "binomial": binomial,
}


def link_multisets(flow_idx, gports, num_flows):
    """Per-flow sorted link lists -- order-insensitive path comparison."""
    out = [[] for _ in range(num_flows)]
    for f, g in zip(flow_idx.tolist(), gports.tolist()):
        out[f].append(g)
    return [sorted(links) for links in out]


def enumerated_maxima(tables, cps, placement):
    """The enumerating certifier's per-stage maxima, dense-counted."""
    maxima = []
    for st in cps:
        src, dst = stage_flows(st, placement)
        if len(src) == 0:
            maxima.append(0)
            continue
        _, gports = walk_flow_links(tables, src, dst)
        loads = np.zeros(tables.fabric.num_ports, dtype=np.int64)
        np.add.at(loads, gports, 1)
        maxima.append(int(loads.max()))
    return maxima


# ----------------------------------------------------------------------
# Closed form == table walk, link for link
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_flow_links_match_table_walk(name):
    spec = TOPOLOGIES[name]
    tables = route_dmodk(build_fabric(spec))
    n = spec.num_endports
    src, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    fi_w, gp_w = walk_flow_links(tables, src, dst)
    fi_s, gp_s = symbolic_flow_links(spec, src, dst)
    assert link_multisets(fi_s, gp_s, len(src)) == \
        link_multisets(fi_w, gp_w, len(src))


@pytest.mark.parametrize("name", ["rlft2", "deep", "multirail"])
def test_flow_links_match_under_partial_population(name):
    spec = TOPOLOGIES[name]
    n = spec.num_endports
    active = topology_subset(n, n // 4, seed=7)
    tables = route_dmodk(build_fabric(spec), active=active)
    ridx = dense_ranks(n, active)
    rng = np.random.default_rng(1)
    src = rng.choice(active, size=60)
    dst = rng.choice(active, size=60)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    fi_w, gp_w = walk_flow_links(tables, src, dst)
    fi_s, gp_s = symbolic_flow_links(spec, src, dst, ridx)
    assert link_multisets(fi_s, gp_s, len(src)) == \
        link_multisets(fi_w, gp_w, len(src))


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_canonical_peer_matches_fabric(name):
    spec = TOPOLOGIES[name]
    fab = build_fabric(spec)
    for gp in range(fab.num_ports):
        assert canonical_peer(spec, gp) == int(fab.port_peer[gp]), gp


@pytest.mark.parametrize("name", ["rlft2", "deep"])
def test_decode_link_names_match_fabric(name):
    spec = TOPOLOGIES[name]
    fab = build_fabric(spec)
    for gp in range(fab.num_ports):
        d = decode_link(spec, gp)
        owner = int(fab.port_owner[gp])
        assert d["owner"] == fab.node_names[owner]
        assert d["port"] == gp - int(fab.port_start[owner])


def test_decode_link_rejects_out_of_range():
    spec = TOPOLOGIES["rlft2"]
    with pytest.raises(ValueError, match="outside"):
        decode_link(spec, build_fabric(spec).num_ports)


# ----------------------------------------------------------------------
# Cross-validation matrix: every (order, CPS) verdict and counterexample
# ----------------------------------------------------------------------
def _order(kind, spec, n):
    if kind == "topology":
        return topology_order(n)
    if kind == "reversed":
        return topology_order(n)[::-1].copy()
    if kind == "random":
        return random_order(n, seed=5)
    try:
        return adversarial_ring_order(spec)
    except ValueError:
        pytest.skip("no adversarial order for this shape")


@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
@pytest.mark.parametrize("order_kind",
                         ["topology", "reversed", "random", "adversarial"])
@pytest.mark.parametrize("cps_name", sorted(CPS_FACTORIES))
def test_engines_agree(topo, order_kind, cps_name):
    """The whole matrix: both engines, same maxima, same counterexample
    links, SYM090 silent.  Covers pow2 and non-pow2 rank counts,
    contention-free and refuted cases alike."""
    spec = TOPOLOGIES[topo]
    tables = route_dmodk(build_fabric(spec))
    n = spec.num_endports
    order = _order(order_kind, spec, n)
    cps = CPS_FACTORIES[cps_name](n)
    case = ScheduleCase(cps, order, f"{cps_name}/{order_kind}")
    ctx = CheckContext.for_tables(tables, routing_name="dmodk",
                                  schedule=[case])
    result = run_check(ctx, only={"certify", "symbolic-certify",
                                  "differential"}, engine="both")
    assert "SYM090" not in result.report.codes(), result.report.render_text()
    enum = result.artifacts["certifier_stage_max"][case.name()]
    sym = result.artifacts["symbolic_stage_max"][case.name()]
    assert enum == sym
    assert result.artifacts["differential_cases"] == 1
    e_cfc = {d.data["stage"]: d.data for d in result.report.by_code("CFC001")}
    s_sym = {d.data["stage"]: d.data for d in result.report.by_code("SYM001")}
    assert set(e_cfc) == set(s_sym)
    for stage, e in e_cfc.items():
        s = s_sym[stage]
        assert e["gport"] == s["gport"]
        assert e["link_load"] == s["link_load"]
        assert e["colliding_pairs"] == s["colliding_pairs"]
        assert e["total_pairs"] == s["total_pairs"]
    if max(enum, default=0) <= 1 and sum(enum):
        kinds = {c["certificate_kind"] for c in result.certificates}
        assert kinds == {"enumerated", "symbolic"}


@pytest.mark.parametrize("topo", ["rlft2", "deep", "oblong"])
@pytest.mark.parametrize("excl", [1, 3])
def test_engines_agree_contx_partial_population(topo, excl):
    """Cont.-X: job-aware D-Mod-K on a partially populated tree; both
    engines must still coincide (dense active ranks drive eq. (1))."""
    spec = TOPOLOGIES[topo]
    n = spec.num_endports
    active = topology_subset(n, excl, seed=excl)
    tables = route_dmodk(build_fabric(spec), active=active)
    order = np.sort(np.asarray(active, dtype=np.int64))
    cases = [ScheduleCase(shift(len(order)), order, "shift/contx"),
             ScheduleCase(dissemination(len(order)), order, "diss/contx")]
    ctx = CheckContext.for_tables(tables, routing_name="dmodk",
                                  schedule=cases)
    result = run_check(ctx, only={"certify", "symbolic-certify",
                                  "differential"}, engine="both",
                       symbolic_active=active)
    assert "SYM090" not in result.report.codes(), result.report.render_text()
    assert result.artifacts["certifier_stage_max"] == \
        result.artifacts["symbolic_stage_max"]
    e_cfc = {(d.data["case"], d.data["stage"]): d.data["gport"]
             for d in result.report.by_code("CFC001")}
    s_sym = {(d.data["case"], d.data["stage"]): d.data["gport"]
             for d in result.report.by_code("SYM001")}
    assert e_cfc == s_sym
    # Either verdict is fine (a wrapped displacement mod n_active can
    # legitimately collide); what matters is that certificates come in
    # matched enumerated/symbolic pairs when the case is clean.
    by_kind = {"enumerated": set(), "symbolic": set()}
    for c in result.certificates:
        by_kind[c["certificate_kind"]].add(c["case"])
    assert by_kind["enumerated"] == by_kind["symbolic"]


# ----------------------------------------------------------------------
# Symbolic-only pipeline (no tables at all)
# ----------------------------------------------------------------------
def test_symbolic_engine_runs_without_tables():
    spec = TOPOLOGIES["rlft2"]
    fab = build_fabric(spec)
    n = spec.num_endports
    ctx = CheckContext(fabric=fab, tables=None, routing_name="dmodk",
                       schedule=[ScheduleCase(shift(n), topology_order(n),
                                              "shift/topology")])
    result = run_check(ctx, engine="symbolic")
    assert result.exit_code() == 0, result.report.render_text()
    assert "certify" not in result.passes_run      # needs tables, skipped
    assert "symbolic-certify" in result.passes_run
    (cert,) = result.certificates
    assert cert["certificate_kind"] == "symbolic"
    assert cert["version"] == 2
    assert cert["verdict"] == "contention-free"
    for key in ("spec_digest", "cps_digest", "placement_digest",
                "active_digest"):
        assert key in cert
    assert "tables_digest" not in cert


def test_symbolic_counterexample_loc_names_real_switch():
    spec = TOPOLOGIES["rlft2"]
    fab = build_fabric(spec)
    n = spec.num_endports
    order = random_order(n, seed=4)
    ctx = CheckContext(fabric=fab, tables=None, routing_name="dmodk",
                       schedule=[ScheduleCase(shift(n), order, "shift/rand")])
    result = run_check(ctx, engine="symbolic")
    assert result.exit_code() == 2
    diags = result.report.by_code("SYM001")
    assert diags
    d = diags[0]
    gp = d.data["gport"]
    assert d.loc.switch == fab.node_names[int(fab.port_owner[gp])]
    assert d.loc.stage == d.data["stage"]
    assert d.data["total_pairs"] == d.data["link_load"]
    assert d.data["pairs_truncated"] == (d.data["total_pairs"] > 8)
    assert len(d.data["colliding_pairs"]) == min(d.data["total_pairs"], 8)


def test_sym002_vacuous_schedule():
    spec = TOPOLOGIES["rlft2"]
    n = spec.num_endports
    ctx = CheckContext(fabric=build_fabric(spec), routing_name="dmodk",
                       schedule=[ScheduleCase(
                           shift(n), np.full(n, -1, dtype=np.int64),
                           "shift/empty")])
    result = run_check(ctx, engine="symbolic")
    assert "SYM002" in result.report.codes()
    assert result.exit_code() == 0
    assert result.certificates == []


def test_sym010_wrong_routing_or_missing_spec():
    from repro.routing import route_random
    spec = TOPOLOGIES["rlft2"]
    fab = build_fabric(spec)
    n = spec.num_endports
    sched = [ScheduleCase(ring(n), topology_order(n), "ring")]
    tables = route_random(fab, seed=0)
    ctx = CheckContext.for_tables(tables, routing_name="random",
                                  schedule=sched)
    result = run_check(ctx, only={"symbolic-certify"}, engine="symbolic")
    assert "SYM010" in result.report.codes()
    assert result.certificates == []

    bare = build_fabric(spec)
    bare.spec = None
    ctx = CheckContext(fabric=bare, routing_name="dmodk", schedule=sched)
    result = run_check(ctx, only={"symbolic-certify"}, engine="symbolic")
    assert "SYM010" in result.report.codes()


def test_sym090_fires_on_forged_disagreement():
    """The differential pass itself: feed it artifacts that disagree."""
    spec = TOPOLOGIES["rlft2"]
    ctx = CheckContext(fabric=build_fabric(spec))
    ctx.artifacts["certifier_stage_max"] = {"c": [1, 2]}
    ctx.artifacts["symbolic_stage_max"] = {"c": [1, 1]}
    from repro.check.diagnostics import DiagnosticReport
    report = DiagnosticReport()
    EngineAgreementPass().run(ctx, report)
    assert "SYM090" in report.codes()
    assert ctx.artifacts["differential_cases"] == 1


def test_differential_pass_silent_when_one_engine_missing():
    spec = TOPOLOGIES["rlft2"]
    ctx = CheckContext(fabric=build_fabric(spec))
    ctx.artifacts["symbolic_stage_max"] = {"c": [1]}
    from repro.check.diagnostics import DiagnosticReport
    report = DiagnosticReport()
    EngineAgreementPass().run(ctx, report)
    assert len(report) == 0


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        run_check(CheckContext(fabric=build_fabric(TOPOLOGIES["rlft2"])),
                  engine="quantum")


# ----------------------------------------------------------------------
# Incremental re-certification
# ----------------------------------------------------------------------
class TestIncremental:
    def test_placement_delta_matches_full_recompute(self):
        spec = TOPOLOGIES["rlft2"]
        n = spec.num_endports
        cert = SymbolicCertifier(spec)
        order = topology_order(n)
        _, state = cert.certify(shift(n), order)
        swapped = order.copy()
        swapped[[2, 9]] = swapped[[9, 2]]
        res, new_state, stats = cert.recertify(state, placement=swapped)
        full, _ = cert.certify(shift(n), swapped)
        assert res.maxima == full.maxima
        assert res.verdict == full.verdict
        assert stats.flows_recomputed < stats.flows_total
        assert stats.stages_touched <= stats.stages_total
        # the returned state must itself be a valid baseline
        res2, _, stats2 = cert.recertify(new_state, placement=order)
        base, _ = cert.certify(shift(n), order)
        assert res2.maxima == base.maxima

    def test_noop_delta_touches_nothing(self):
        spec = TOPOLOGIES["deep"]
        n = spec.num_endports
        cert = SymbolicCertifier(spec)
        _, state = cert.certify(dissemination(n), topology_order(n))
        res, _, stats = cert.recertify(state)
        assert stats.stages_touched == 0
        assert stats.flows_recomputed == 0
        full, _ = cert.certify(dissemination(n), topology_order(n))
        assert res.maxima == full.maxima

    def test_active_set_delta_matches_fresh_certifier(self):
        spec = TOPOLOGIES["rlft2"]
        n = spec.num_endports
        active = np.arange(n - 2, dtype=np.int64)
        cert = SymbolicCertifier(spec, active)
        order = np.r_[active, [-1, -1]]
        cps = dissemination(n)
        _, state = cert.certify(cps, order)
        shrunk = active[:-1]
        order2 = np.r_[shrunk, [-1, -1, -1]]
        res, _, stats = cert.recertify(state, placement=order2, active=shrunk)
        fresh = SymbolicCertifier(spec, shrunk)
        full, _ = fresh.certify(cps, order2)
        assert res.maxima == full.maxima
        assert stats.flows_recomputed < stats.flows_total

    @pytest.mark.parametrize("name", ["rlft2", "deep"])
    def test_link_failure_matches_repaired_walk(self, name):
        spec = TOPOLOGIES[name]
        fab = build_fabric(spec)
        n = spec.num_endports
        tables = route_dmodk(fab)
        cert = SymbolicCertifier(spec)
        cps = shift(n)
        _, state = cert.certify(cps, topology_order(n))
        # kill one level-1 up cable (redundant spine; repairable)
        dead = [int(fab.port_start[n] + spec.down_ports_at(1) + 1)]
        fab_d = fab.with_failed_cables(dead)
        stale = ForwardingTables(
            fabric=fab_d, switch_out=tables.switch_out.copy(),
            host_up=None if tables.host_up is None
            else tables.host_up.copy())
        rep = repair_tables(stale, fab_d)
        assert rep.ok
        res, stats = cert.recertify_link_failure(state, rep.tables, dead)
        ref = enumerated_maxima(rep.tables, cps, topology_order(n))
        assert res.maxima == ref
        assert stats.flows_recomputed < stats.flows_total
        # rerouted flows now share links: the degradation is visible
        assert res.max_link_load >= 2
        assert res.violations

    def test_link_failure_dead_peer_names_same_cable(self):
        """Naming either end of the cable selects the same flows."""
        spec = TOPOLOGIES["rlft2"]
        fab = build_fabric(spec)
        n = spec.num_endports
        tables = route_dmodk(fab)
        cert = SymbolicCertifier(spec)
        _, state = cert.certify(shift(n), topology_order(n))
        up_end = int(fab.port_start[n] + spec.down_ports_at(1) + 1)
        down_end = canonical_peer(spec, up_end)
        fab_d = fab.with_failed_cables([up_end])
        stale = ForwardingTables(
            fabric=fab_d, switch_out=tables.switch_out.copy(),
            host_up=None if tables.host_up is None
            else tables.host_up.copy())
        rep = repair_tables(stale, fab_d)
        res_a, _ = cert.recertify_link_failure(state, rep.tables, [up_end])
        res_b, _ = cert.recertify_link_failure(state, rep.tables, [down_end])
        assert res_a.maxima == res_b.maxima


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestCli:
    def test_engine_symbolic_certifies_table_free(self, tmp_path, capsys):
        import json

        from repro.check.cli import main
        cert_out = str(tmp_path / "certs.json")
        rc = main(["--spec", "2; 4,4; 1,4; 1,1", "--engine", "symbolic",
                   "--cps", "shift,ring", "--order", "topology",
                   "--cert-out", cert_out])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[symbolic]" in out
        certs = json.loads(open(cert_out).read())
        assert {c["certificate_kind"] for c in certs} == {"symbolic"}
        assert len(certs) == 2

    def test_engine_both_agrees_and_refutes_random(self, capsys):
        from repro.check.cli import main
        rc = main(["--spec", "2; 4,4; 1,4; 1,1", "--engine", "both",
                   "--cps", "shift", "--order", "random"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "CFC001" in out and "SYM001" in out
        assert "SYM090" not in out

    def test_exclude_contx(self, capsys):
        from repro.check.cli import main
        rc = main(["--spec", "2; 4,4; 1,4; 1,1", "--engine", "both",
                   "--cps", "ring", "--exclude", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[enumerated]" in out and "[symbolic]" in out

    def test_symbolic_rejects_foreign_routing(self):
        from repro.check.cli import main
        with pytest.raises(SystemExit, match="symbolic"):
            main(["--spec", "2; 4,4; 1,4; 1,1", "--engine", "symbolic",
                  "--routing", "random", "--cps", "ring"])
        with pytest.raises(SystemExit, match="both"):
            main(["--spec", "2; 4,4; 1,4; 1,1", "--engine", "both",
                  "--routing", "minhop", "--cps", "ring"])

    def test_exclude_must_leave_an_active_port(self):
        from repro.check.cli import main
        with pytest.raises(SystemExit, match="exclude"):
            main(["--spec", "2; 4,4; 1,4; 1,1", "--cps", "ring",
                  "--exclude", "16"])

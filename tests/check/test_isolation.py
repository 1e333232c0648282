"""Traffic-class isolation analyzer (ISO0xx): per-class certificates,
cross-class interference bounds, engine agreement and the CLI.

The acceptance claims: the analyzer statically certifies per-class
contention-freedom for typed n324 under type-aware routing, reports a
cross-class interference bound the dynamics never exceed (see
``tests/experiments``), and flags a *real* ISO violation -- not a
crash -- when the same fabric is routed with type-blind D-Mod-K.
"""

import json

import numpy as np
import pytest

from repro.check import (
    CheckContext,
    IsolationPass,
    routing_ranks,
    run_check,
)
from repro.check.cli import main as check_main
from repro.check.isolation import ISOLATION_ENGINES
from repro.fabric import NodeTypeMap, build_fabric
from repro.fabric.topofile import save as save_topo
from repro.routing import route_dmodk, route_typeaware, typed_ranks
from repro.topology import pgft

RLFT16 = pgft(2, [4, 4], [1, 4], [1, 1])
N324 = pgft(2, [18, 18], [1, 9], [1, 2])


def _typed_fabric(spec, counts):
    fab = build_fabric(spec)
    fab.node_types = NodeTypeMap.staggered(spec, counts)
    return fab


def _iso(ctx, **kw):
    return run_check(ctx, only={"isolation"}, isolation=kw)


def codes_of(result):
    return {d.code for d in result.report}


class TestCertification:
    def test_typeaware_n324_certifies_both_classes(self):
        fab = _typed_fabric(N324, {"storage": 2})
        ctx = CheckContext(fabric=fab, tables=None,
                           routing_name="typeaware")
        result = _iso(ctx, engine="symbolic", max_stages=16)
        assert result.exit_code() == 0
        assert codes_of(result) == {"ISO090"}
        certs = result.certificates
        assert {c["case"] for c in certs} == {
            "isolation/shift/compute", "isolation/shift/storage"}
        for c in certs:
            assert c["certificate_kind"] == "symbolic"
            assert c["verdict"] == "contention-free"
            assert c["max_link_load"] == 1
            assert c["cross_class_interference"] <= 1
            assert c["types_digest"]
        iso = result.artifacts["isolation"]
        assert iso["per_class_worst"] == {"compute": 1, "storage": 1}
        assert iso["cross_class_bound"] == 1

    def test_dmodk_same_fabric_flags_real_violation(self):
        fab = _typed_fabric(N324, {"storage": 2})
        ctx = CheckContext(fabric=fab, tables=None, routing_name="dmodk")
        result = _iso(ctx, engine="symbolic")
        assert result.exit_code() == 2
        assert "ISO001" in codes_of(result)     # a counterexample, not a crash
        assert "ISO011" in codes_of(result)     # non-consecutive class ranks
        d = next(d for d in result.report if d.code == "ISO001")
        assert d.loc.switch is not None and d.loc.stage is not None
        assert d.data["colliding_pairs"]        # colliding flows listed

    def test_small_fixture_reproduces_refutation(self):
        fab = _typed_fabric(RLFT16, {"storage": 1})
        ctx = CheckContext(fabric=fab, tables=route_dmodk(fab),
                           routing_name="dmodk")
        result = _iso(ctx)
        assert result.exit_code() == 2
        assert "ISO001" in codes_of(result)

    def test_iso090_summary_always_present(self):
        for routing in ("typeaware", "dmodk"):
            fab = _typed_fabric(RLFT16, {"storage": 1})
            tables = (route_typeaware(fab) if routing == "typeaware"
                      else route_dmodk(fab))
            ctx = CheckContext(fabric=fab, tables=tables,
                               routing_name=routing)
            assert "ISO090" in codes_of(_iso(ctx))


class TestEngineAgreement:
    @pytest.mark.parametrize("spec,counts", [
        (RLFT16, {"storage": 1}),
        (N324, {"storage": 2}),
    ])
    @pytest.mark.parametrize("routing", ["typeaware", "dmodk"])
    def test_symbolic_matches_enumerate(self, spec, counts, routing):
        fab = _typed_fabric(spec, counts)
        tables = (route_typeaware(fab) if routing == "typeaware"
                  else route_dmodk(fab))
        ctx_sym = CheckContext(fabric=fab, tables=None,
                               routing_name=routing)
        ctx_enum = CheckContext(fabric=fab, tables=tables,
                                routing_name=routing)
        sym = _iso(ctx_sym, engine="symbolic", max_stages=8)
        enum = _iso(ctx_enum, engine="enumerate", max_stages=8)
        s, e = sym.artifacts["isolation"], enum.artifacts["isolation"]
        assert s["per_class_worst"] == e["per_class_worst"]
        assert s["cross_class_bound"] == e["cross_class_bound"]
        assert s["max_combined_load"] == e["max_combined_load"]
        assert sym.exit_code() == enum.exit_code()

    def test_auto_prefers_symbolic_then_enumerate(self):
        fab = _typed_fabric(RLFT16, {"storage": 1})
        # spec + dmodk-family routing -> symbolic
        ctx = CheckContext(fabric=fab, tables=None, routing_name="typeaware")
        assert _iso(ctx).artifacts["isolation"]["engine"] == "symbolic"
        # non-closed-form routing but materialised tables -> enumerate
        tables = route_typeaware(fab)
        ctx = CheckContext(fabric=fab, tables=tables, routing_name="minhop")
        r = _iso(ctx, check_conformance=False)
        assert r.artifacts["isolation"]["engine"] == "enumerate"


class TestDiagnostics:
    def test_iso010_untyped_fabric_falls_back_uniform(self):
        fab = build_fabric(RLFT16)
        ctx = CheckContext(fabric=fab, tables=None, routing_name="dmodk")
        result = _iso(ctx)
        assert "ISO010" in codes_of(result)
        assert result.exit_code() == 1

    def test_iso002_vacuous_class(self):
        fab = build_fabric(RLFT16)
        fab.node_types = NodeTypeMap.from_ports(
            RLFT16.num_endports, {"storage": np.array([5])})
        ctx = CheckContext(fabric=fab, tables=None, routing_name="typeaware")
        result = _iso(ctx)
        assert "ISO002" in codes_of(result)
        # the singleton class is skipped entirely: no schedule, no
        # certificate, no load accounting (the 15-member compute class
        # is genuinely contended -- partial population voids theorem 1
        # -- which the analyzer reports separately as ISO001)
        iso = result.artifacts["isolation"]
        assert "storage" not in iso["per_class_worst"]
        assert not any("storage" in c["case"] for c in result.certificates)
        assert "ISO001" in codes_of(result)

    def test_iso012_declared_bound_exceeded(self):
        fab = _typed_fabric(N324, {"storage": 2})
        ctx = CheckContext(fabric=fab, tables=None, routing_name="typeaware")
        result = _iso(ctx, engine="symbolic", max_stages=8, bound=0)
        assert "ISO012" in codes_of(result)
        # bound satisfied -> silent
        ok = _iso(CheckContext(fabric=fab, tables=None,
                               routing_name="typeaware"),
                  engine="symbolic", max_stages=8, bound=1)
        assert "ISO012" not in codes_of(ok)

    def test_iso020_tables_contradict_claimed_routing(self):
        fab = _typed_fabric(RLFT16, {"storage": 1})
        ctx = CheckContext(fabric=fab, tables=route_dmodk(fab),
                           routing_name="typeaware")
        result = _iso(ctx, engine="enumerate")
        assert "ISO020" in codes_of(result)

    def test_iso030_degraded_regression(self):
        fab = _typed_fabric(RLFT16, {"storage": 1})
        ctx = CheckContext(fabric=fab, tables=route_typeaware(fab),
                           routing_name="typeaware")
        result = _iso(ctx, engine="enumerate", fault_units="cable",
                      fault_samples=3)
        iso = result.artifacts["isolation"]
        assert len(iso["degraded"]) == 3
        verdicts = {r["verdict"] for r in iso["degraded"]}
        assert verdicts <= {"isolated", "regressed", "disconnected"}
        if "regressed" in verdicts:
            assert "ISO030" in codes_of(result)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown isolation engine"):
            IsolationPass(engine="quantum")
        assert set(ISOLATION_ENGINES) == {"auto", "symbolic", "enumerate"}


class TestRoutingRanks:
    def test_typeaware_uses_typed_ranks(self):
        types = NodeTypeMap.staggered(RLFT16, {"storage": 1})
        ridx, known = routing_ranks("typeaware", 16, types)
        assert known
        assert np.array_equal(ridx, typed_ranks(16, types))

    def test_dmodk_identity(self):
        types = NodeTypeMap.uniform(16)
        ridx, known = routing_ranks("dmodk", 16, types)
        assert known and ridx is None

    def test_unknown_routing_not_known(self):
        _, known = routing_ranks("minhop", 16, NodeTypeMap.uniform(16))
        assert not known


class TestCli:
    def _run(self, capsys, *argv):
        rc = check_main(list(argv))
        return rc, capsys.readouterr().out

    def test_typeaware_symbolic_certifies(self, capsys):
        rc, out = self._run(
            capsys, "--topo", "n324", "--types", "staggered:storage=2",
            "--routing", "typeaware", "--engine", "symbolic",
            "--isolation", "--max-shift-stages", "16")
        assert rc == 0
        assert "CERTIFIED" in out
        assert "isolation/shift/compute" in out
        assert "isolation/shift/storage" in out
        assert "SYM010" not in out      # general certifier stays quiet

    def test_dmodk_symbolic_refutes(self, capsys):
        rc, out = self._run(
            capsys, "--topo", "n324", "--types", "staggered:storage=2",
            "--routing", "dmodk", "--engine", "symbolic",
            "--isolation", "--max-shift-stages", "16")
        assert rc == 2
        assert "ISO001" in out

    def test_json_payload_carries_isolation(self, capsys):
        rc, out = self._run(
            capsys, "--spec", "2; 4,4; 1,4; 1,1",
            "--types", "staggered:storage=1",
            "--routing", "typeaware", "--engine", "symbolic",
            "--isolation", "--iso-bound", "1", "--json")
        assert rc == 0
        iso = json.loads(out)["isolation"]
        assert iso["cross_class_bound"] <= 1
        assert set(iso["per_class_worst"]) == {"compute", "storage"}

    def test_sarif_iso_rules_have_helpuri_and_regions(self, capsys,
                                                      tmp_path):
        topofile = tmp_path / "rlft16.topo"
        save_topo(build_fabric(RLFT16), topofile)
        rc, out = self._run(
            capsys, "--topofile", str(topofile),
            "--types", "staggered:storage=1",
            "--routing", "dmodk", "--isolation", "--format", "sarif")
        assert rc == 2
        run, = json.loads(out)["runs"]
        rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        assert "ISO001" in rules
        assert rules["ISO001"]["helpUri"].endswith(
            "docs/CHECKS.md#iso0xx--traffic-class-isolation")
        iso001 = [r for r in run["results"] if r["ruleId"] == "ISO001"]
        assert iso001
        region = iso001[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] > 1   # resolved to the switch line

    def test_bad_types_layout_rejected(self, capsys):
        with pytest.raises(SystemExit, match="--types"):
            check_main(["--topo", "n324", "--types", "staggered:storage=99",
                        "--isolation"])

    def test_symbolic_gate_still_rejects_other_routings(self, capsys):
        with pytest.raises(SystemExit, match="symbolic"):
            check_main(["--topo", "n324", "--routing", "minhop",
                        "--engine", "symbolic", "--isolation"])

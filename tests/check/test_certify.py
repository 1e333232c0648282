"""Contention-freedom certification (CFC0xx) and certificate binding."""

import numpy as np
import pytest

from repro.check import (
    CheckContext,
    ScheduleCase,
    placement_digest,
    run_check,
)
from repro.check.cli import main as check_main
from repro.collectives.cps import dissemination, ring, shift
from repro.fabric import build_fabric
from repro.ordering import random_order, topology_order
from repro.routing import route_dmodk, route_random
from repro.runtime.cache import tables_digest
from repro.topology import pgft

TOPOLOGIES = {
    "rlft2": pgft(2, [4, 4], [1, 4], [1, 1]),
    "fig1": pgft(2, [4, 4], [1, 2], [1, 2]),
    "deep": pgft(3, [2, 2, 2], [1, 2, 2], [1, 1, 1]),
}


def certify(tables, cases, routing_name="dmodk"):
    ctx = CheckContext.for_tables(tables, routing_name=routing_name,
                                  schedule=cases)
    return run_check(ctx)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_dmodk_topology_order_certifies(name):
    """Paper section VI: D-Mod-K + ordered placement is contention-free
    for every CPS -- on every topology shape."""
    tables = route_dmodk(build_fabric(TOPOLOGIES[name]))
    n = tables.fabric.num_endports
    order = topology_order(n)
    cases = [ScheduleCase(cps, order, f"{cps.name}/topology")
             for cps in (shift(n), ring(n), dissemination(n))]
    result = certify(tables, cases)
    assert result.exit_code() == 0, result.report.render_text()
    certs = result.certificates
    assert len(certs) == len(cases)
    for cert, case in zip(certs, cases):
        assert cert["verdict"] == "contention-free"
        assert cert["max_link_load"] == 1
        assert cert["case"] == case.label
        assert cert["routing"] == "dmodk"
        assert cert["num_endports"] == n
        assert cert["tables_digest"] == tables_digest(tables)
        assert cert["placement_digest"] == placement_digest(order)
        assert cert["num_stages"] == len(case.cps.stages)


def test_reversed_order_still_certifies():
    """Reversing the ranks negates every displacement but keeps it
    constant per stage, so contention freedom survives."""
    tables = route_dmodk(build_fabric(TOPOLOGIES["rlft2"]))
    n = tables.fabric.num_endports
    order = topology_order(n)[::-1].copy()
    result = certify(tables, [ScheduleCase(shift(n), order, "shift/rev")])
    assert result.exit_code() == 0
    assert result.certificates[0]["verdict"] == "contention-free"


def test_random_order_refuted_with_counterexample():
    tables = route_dmodk(build_fabric(TOPOLOGIES["rlft2"]))
    n = tables.fabric.num_endports
    order = random_order(n, seed=4)
    result = certify(tables, [ScheduleCase(shift(n), order, "shift/rand")])
    assert result.exit_code() == 2
    assert result.certificates == []
    diags = result.report.by_code("CFC001")
    assert diags
    d = diags[0].data
    assert d["link_load"] >= 2
    assert len(d["colliding_pairs"]) == min(d["link_load"], 8)
    assert d["total_pairs"] == d["link_load"]
    assert d["pairs_truncated"] == (d["total_pairs"] > 8)
    assert diags[0].loc.stage == d["stage"]
    assert diags[0].loc.switch is not None


def test_counterexample_truncation_is_explicit():
    """A >8-way collision keeps the exact pair count: the payload says
    how many pairs exist and that the listing is truncated (no silent
    cap)."""
    from repro.collectives.cps import CPS, Stage
    tables = route_dmodk(build_fabric(TOPOLOGIES["rlft2"]))
    n = tables.fabric.num_endports
    # ten senders converge on end-port 0: its host down-link carries 10
    pairs = np.stack([np.arange(1, 11), np.zeros(10, dtype=np.int64)], axis=1)
    cps = CPS("incast", n, (Stage(pairs, label="incast"),))
    result = certify(tables, [ScheduleCase(cps, topology_order(n), "incast")])
    (diag,) = result.report.by_code("CFC001")
    d = diag.data
    assert d["link_load"] == 10
    assert d["total_pairs"] == 10
    assert d["pairs_truncated"] is True
    assert len(d["colliding_pairs"]) == 8
    assert "(+2 more)" in diag.message


def test_random_routing_refuted():
    """Random routing breaks shift even under ordered placement."""
    fab = build_fabric(TOPOLOGIES["rlft2"])
    tables = route_random(fab, seed=3)
    n = fab.num_endports
    order = topology_order(n)
    result = certify(tables,
                     [ScheduleCase(shift(n), order, "shift/topology")],
                     routing_name="random")
    assert "CFC001" in result.report.codes()
    assert result.certificates == []


def test_ring_survives_random_routing():
    """Empirical caveat: ring's +1 displacement stays single-path even
    under random up-port choice, so use shift/dissemination to probe
    routing faults."""
    fab = build_fabric(TOPOLOGIES["rlft2"])
    tables = route_random(fab, seed=3)
    n = fab.num_endports
    result = certify(tables,
                     [ScheduleCase(ring(n), topology_order(n), "ring")],
                     routing_name="random")
    assert "CFC001" not in result.report.codes()


def test_empty_schedule_is_vacuous_cfc002():
    tables = route_dmodk(build_fabric(TOPOLOGIES["rlft2"]))
    n = tables.fabric.num_endports
    order = np.full(n, -1, dtype=np.int64)
    result = certify(tables, [ScheduleCase(shift(n), order, "shift/empty")])
    assert "CFC002" in result.report.codes()
    assert result.exit_code() == 0
    assert result.certificates == []


def test_stage_maxima_artifact_published():
    tables = route_dmodk(build_fabric(TOPOLOGIES["rlft2"]))
    n = tables.fabric.num_endports
    result = certify(tables,
                     [ScheduleCase(shift(n), topology_order(n), "shift")])
    maxima = result.artifacts["certifier_stage_max"]["shift"]
    assert len(maxima) == len(shift(n).stages)
    assert max(maxima) == 1


def test_placement_digest_distinguishes_orders():
    n = 16
    a = placement_digest(topology_order(n))
    b = placement_digest(topology_order(n)[::-1].copy())
    assert a != b
    assert a == placement_digest(topology_order(n))


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_cli_rejects_non_positive_shift_budget(budget, capsys):
    """A usage error, not a ``ZeroDivisionError`` or a zero-stage shift."""
    with pytest.raises(SystemExit) as exc:
        check_main(["--topo", "n324", "--cps", "shift",
                    "--max-shift-stages", budget])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"--max-shift-stages: must be >= 1, got {budget}" in err

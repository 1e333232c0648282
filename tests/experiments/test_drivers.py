"""Experiment drivers: every table/figure regenerates and asserts the
paper's qualitative claim in its own output."""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments import (
    ablation,
    contention_free,
    failures,
    fig1,
    fig2,
    fig3,
    isolation,
    multijob,
    ring_adversarial,
    table1,
    table3,
)


class TestFig1:
    def test_run(self):
        out = fig1.run(num_random_orders=3)
        assert "congestion-free" in out
        assert "blocking" in out or "lucky" in out

    def test_routing_aware_row_always_clean(self):
        out = fig1.run(num_random_orders=1)
        aware = next(l for l in out.splitlines() if "routing-aware" in l)
        assert "congestion-free" in aware


class TestFig2:
    def test_fluid_small(self):
        out = fig2.run(topo="n16-pgft", sizes_kb=(64,), shift_stages=8)
        assert "shift/random" in out
        assert "ordered" in out

    def test_packet_model(self):
        out = fig2.run(topo="n16-pgft", sizes_kb=(16, 64),
                       shift_stages=8, model="packet", credits=4)
        assert "packet model" in out

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            fig2.run(model="quantum")

    def test_no_silent_topology_downgrade(self):
        # The packet model used to swap n324 for n16-pgft behind the
        # user's back; now the requested fabric is the simulated fabric.
        out = fig2.run(topo="n324", sizes_kb=(16,), shift_stages=2,
                       model="packet", credits=4)
        assert "18,18" in out      # n324 = PGFT(2; 18,18; 1,9; 1,2)
        assert "4,4" not in out    # n16-pgft = PGFT(2; 4,4; 1,2; 1,2)

    def test_reference_engine_warns_above_validated_size(self, monkeypatch):
        monkeypatch.setattr(fig2, "REFERENCE_ENGINE_VALIDATED_PORTS", 8)
        with pytest.warns(RuntimeWarning, match="validated size"):
            fig2.run(topo="n16-pgft", sizes_kb=(16,), shift_stages=2,
                     model="packet", credits=4, engine="reference")

    def test_vector_engine_no_warning(self, recwarn):
        fig2.run(topo="n16-pgft", sizes_kb=(16,), shift_stages=2,
                 model="packet", credits=4, engine="vector")
        assert not [w for w in recwarn.list
                    if issubclass(w.category, RuntimeWarning)]


class TestFig3:
    def test_shape(self):
        out = fig3.run(topos=("n128",), num_orders=3, max_shift_stages=12)
        lines = [l for l in out.splitlines() if l.startswith("n128")]
        assert len(lines) == 6  # six collectives
        vals = {l.split()[2]: float(l.split()[3]) for l in lines}
        assert vals["ring"] > vals["binomial"]
        assert vals["shift"] > vals["tournament"]

    def test_runtime_summary_line(self):
        out = fig3.run(topos=("n128",), num_orders=2, max_shift_stages=8)
        assert out.splitlines()[-1].startswith("runtime | jobs=1 cache=off")

    def test_warm_cache_recomputes_nothing(self, tmp_path):
        kwargs = dict(topos=("n128",), num_orders=2, max_shift_stages=8,
                      use_cache=True, cache_dir=tmp_path)
        cold = fig3.run(**kwargs)
        warm = fig3.run(**kwargs)
        assert "hits=0 misses=6 stores=6" in cold.splitlines()[-1]
        assert "hits=6 misses=0 stores=0" in warm.splitlines()[-1]
        # Identical rows either way.
        strip = lambda s: s.split("runtime |")[0]  # noqa: E731
        assert strip(cold) == strip(warm)

    @pytest.mark.slow
    def test_jobs_flag_matches_serial(self, tmp_path):
        a = fig3.run(topos=("n128",), num_orders=3, max_shift_stages=8)
        b = fig3.run(topos=("n128",), num_orders=3, max_shift_stages=8,
                     jobs=2)
        strip = lambda s: s.split("runtime |")[0]  # noqa: E731
        assert strip(a) == strip(b)


class TestTables:
    def test_table1(self):
        out = table1.run()
        assert "8 (paper: 8)" in out
        assert "True" in out

    def test_table3_proposed_always_one(self):
        out = table3.run(cases=(("n16-pgft", 0), ("n16-pgft", 3)),
                         num_random_orders=2, max_shift_stages=8)
        rows = [l for l in out.splitlines()
                if l.startswith("n16")]
        assert rows
        for row in rows:
            assert "1.000" in row  # proposed avg HSD column

    def test_table3_cache_roundtrip(self, tmp_path):
        kwargs = dict(cases=(("n16-pgft", 0),), num_random_orders=2,
                      max_shift_stages=8, use_cache=True,
                      cache_dir=tmp_path)
        cold = table3.run(**kwargs)
        warm = table3.run(**kwargs)
        assert "misses=0" in warm.splitlines()[-1]
        strip = lambda s: s.split("runtime |")[0]  # noqa: E731
        assert strip(cold) == strip(warm)


class TestRingAdversarial:
    def test_collapse_and_reference(self):
        out = ring_adversarial.run(topo="n16-pgft", message_kb=64, repeats=2)
        assert "adversarial" in out
        assert "topology-aware" in out
        # Adversarial normalized percentage is far below the reference.
        rows = {l.split()[0]: l for l in out.splitlines()
                if l.startswith(("adversarial", "topology-aware"))}
        adv = float(rows["adversarial"].split()[2])
        ref = float(rows["topology-aware"].split()[2])
        assert adv < ref / 2


class TestContentionFree:
    def test_ordered_reaches_ideal(self):
        out = contention_free.run(topo="n16-pgft", message_kb=32)
        lines = [l for l in out.splitlines() if l.startswith("shift")]
        ordered = next(l for l in lines if "ordered" in l)
        rand = next(l for l in lines if "random" in l)
        assert float(ordered.split()[2]) > float(rand.split()[2])


class TestAblation:
    def test_four_sections(self):
        out = ablation.run(topo="n16-pgft", max_shift_stages=8)
        assert out.count("Ablation") == 4
        assert "dmodk" in out and "random-router" in out
        assert "ftree-counting" in out
        assert "3-level" in out

    @pytest.mark.slow
    def test_jobs_flag_matches_serial(self):
        a = ablation.run(topo="n16-pgft", max_shift_stages=8)
        b = ablation.run(topo="n16-pgft", max_shift_stages=8, jobs=2)
        strip = lambda s: s.split("runtime |")[0]  # noqa: E731
        assert strip(a) == strip(b)


class TestFailures:
    def test_degradation_table(self):
        out = failures.run(topo="rlft2-max36", failures=(0, 1, 4),
                           max_shift_stages=8)
        lines = [l.split() for l in out.splitlines()
                 if l and l[0].isdigit()]
        assert len(lines) == 3
        zero, one, four = lines
        assert zero[2] == "1"                 # healthy: HSD 1
        assert int(one[2]) >= 2               # one failure: local bump
        assert float(four[3]) >= float(one[3])


class TestDegradation:
    def test_refuted_healthy_shift_reports_nothing_certified(self):
        # At n128 the Cont.-92 shift already contends on the healthy
        # fabric: the table still renders, with nothing certified.
        from repro.experiments import degradation

        out = degradation.run(topo="n128", failures=(1,), samples=2,
                              max_shift_stages=8)
        assert "already contends on the healthy fabric" in out
        one = next(l.split() for l in out.splitlines()
                   if l.startswith("1 "))
        assert one[5:7] == ["0.00", "0.00"]


class TestLatency:
    def test_ordered_holds_cut_through(self):
        from repro.experiments import latency

        out = latency.run(topo="n16-pgft", message_kb=32)
        ordered = next(l for l in out.splitlines() if l.startswith("ordered"))
        rand = next(l for l in out.splitlines() if l.startswith("random"))
        # max / zero-load column: ordered ~1.0, random well above.
        assert float(ordered.split()[-1]) < 1.1
        assert float(rand.split()[-1]) > 1.5


class TestGenerations:
    def test_overprovisioning_masks_contention(self):
        from repro.experiments import generations

        out = generations.run(topo="n16-pgft", message_kb=64,
                              shift_stages=8)
        over = next(l for l in out.splitlines()
                    if l.startswith("overprovisioned"))
        qdr = next(l for l in out.splitlines() if l.startswith("QDR"))
        # random/ordered ratio: ~1.0 with 3x headroom, well below on QDR.
        assert float(over.split()[-1]) > 0.97
        assert float(qdr.split()[-1]) < 0.8


class TestMultijob:
    def test_isolation_row(self):
        out = multijob.run(topo="rlft2-max36", job_units=(2, 3),
                           message_kb=64)
        concurrent = next(l for l in out.splitlines()
                          if l.startswith("all concurrent"))
        assert " 1 " in concurrent  # combined worst HSD == 1


class TestIsolation:
    def test_dynamics_never_exceed_static_bounds(self):
        # the acceptance claim: for BOTH routings the per-link flow
        # accounting and the fluid slowdown stay within the static
        # certificates the analyzer reported
        for routing in isolation.ROUTINGS:
            m = isolation.measure(topo="n324", storage_per_leaf=2,
                                  routing=routing, max_stages=8,
                                  message_kb=16)
            for name, worst in m["dynamic_worst"].items():
                assert worst <= m["static_worst"][name], (routing, name)
            assert m["dynamic_combined"] <= m["max_combined_load"], routing
            assert m["dynamic_within_static"], routing
            assert m["slowdown"] <= m["max_combined_load"] + 0.05, routing

    def test_typeaware_isolates_where_dmodk_contends(self):
        ta = isolation.measure(topo="n324", storage_per_leaf=2,
                               routing="typeaware", max_stages=8,
                               message_kb=16)
        dm = isolation.measure(topo="n324", storage_per_leaf=2,
                               routing="dmodk", max_stages=8,
                               message_kb=16)
        assert max(ta["static_worst"].values()) == 1
        assert max(dm["static_worst"].values()) > 1
        # the dynamics agree: the contended class pays solo bandwidth
        assert min(dm["solo_normbw"].values()) < min(ta["solo_normbw"].values())

    def test_packet_spot_check_runs(self):
        m = isolation.measure(topo="n324", storage_per_leaf=2,
                              routing="typeaware", max_stages=4,
                              message_kb=16, packet_stages=2)
        assert m["packet_normbw"] is not None and m["packet_normbw"] > 0

    def test_report_renders_verdict(self):
        out = isolation.run(topo="n324", storage_per_leaf=2, max_stages=4,
                            message_kb=16, packet_stages=0)
        assert "dynamics never exceed the static certificates" in out
        assert "typeaware" in out and "dmodk" in out


class TestCli:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig1", "fig2", "fig3", "table1", "table3",
            "ring-adversarial", "contention-free", "ablation", "multijob",
            "failures", "degradation", "latency", "generations", "chaos",
            "isolation",
        }

    def test_list(self, capsys):
        from repro.experiments import main

        main(["list"])
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

"""Chaos harness: byte-for-byte reproducibility and no silent data loss.

The 500-scenario sweep below is the acceptance gate of the robustness
milestone: across hundreds of seeded mid-collective failure scripts,
every collective either completes with semantically correct data or
raises :class:`DeliveryError` naming the exact lost messages.  A
scenario that *completes* with *wrong* data is silent data loss and
fails the suite immediately.
"""

import pytest

from repro.experiments import chaos
from repro.runtime import ParallelSweeper

ARGS = dict(topo="n16-pgft", collective="allreduce", horizon=120.0,
            sweep_delay=25.0, words=16, max_retries=4)


def _scenario(seed, mtbf):
    return chaos.run_scenario(
        ARGS["topo"], seed, ARGS["collective"], mtbf, ARGS["horizon"],
        ARGS["sweep_delay"], ARGS["words"], ARGS["max_retries"])


class TestDeterminism:
    def test_scenarios_byte_for_byte(self):
        """Identical seeds reproduce identical chaos results."""
        for seed in (0, 7, 123, 4096):
            a = _scenario(seed, mtbf=25.0)
            b = _scenario(seed, mtbf=25.0)
            assert a == b  # float-exact tuple equality

    def test_campaign_table_reproducible(self):
        sweeper = ParallelSweeper(jobs=1)
        kw = dict(topo="n16-pgft", campaign=6, seed=3, mtbf=(40.0,),
                  collective="allreduce", horizon=120.0, sweep_delay=25.0,
                  words=16, max_retries=4)
        a = chaos.run(sweeper=sweeper, **kw)
        b = chaos.run(sweeper=sweeper, **kw)
        assert a == b
        assert "Chaos campaign" in a

    def test_unknown_collective_rejected(self):
        with pytest.raises(SystemExit, match="unknown collective"):
            chaos.run(collective="teleport", sweeper=ParallelSweeper(jobs=1))


class TestNoSilentDataLoss:
    """Acceptance: >= 500 seeded chaos scenarios, zero silent loss."""

    SCENARIOS = 500

    def test_500_seeded_scenarios(self):
        outcomes = {"ok": 0, "delivery_error": 0}
        # Harsh regime: MTBF well under the collective's runtime, so a
        # large fraction of scenarios take real mid-collective damage.
        for seed in range(self.SCENARIOS):
            mtbf = (10.0, 25.0, 60.0)[seed % 3]
            (completed, sem_ok, df, retrans, dropped, repairs,
             recovery, time_us, lost) = _scenario(seed, mtbf)
            if completed:
                assert sem_ok == 1.0, (
                    f"SILENT DATA LOSS at seed {seed} (mtbf={mtbf}): "
                    f"collective completed with wrong data")
                assert df == 1.0 and lost == 0.0
                outcomes["ok"] += 1
            else:
                # Loud failure: the exact losses were named.
                assert lost > 0.0 and df < 1.0
                outcomes["delivery_error"] += 1
        assert sum(outcomes.values()) == self.SCENARIOS
        # The regime must actually bite: some scenarios retried or
        # failed loudly, otherwise this test proves nothing.
        assert outcomes["delivery_error"] > 0
        assert outcomes["ok"] > 0

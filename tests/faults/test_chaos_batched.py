"""Batched chaos campaigns: the analytic screen is exact.

``chaos.run(batch=True)`` prices the collective's stage schedule once
through the mega-batch engine, then resolves every scenario whose
fault windows provably cannot touch the plan with pure interval
algebra.  The contract: a screened-fast verdict is the *exact*
:func:`chaos.run_scenario` tuple, and the campaign table is
byte-identical to the unbatched run.
"""

from repro.experiments import chaos
from repro.faults import FaultSchedule
from repro.runtime import ParallelSweeper

ARGS = dict(topo="n16-pgft", horizon=300.0, sweep_delay=50.0,
            words=64, max_retries=4)


class TestScreenExactness:
    def test_screened_tuples_match_run_scenario(self):
        """Every fast verdict equals the per-scenario engine, float-exact."""
        for collective in ("allreduce", "broadcast"):
            plan = chaos._batched_plan(ARGS["topo"], collective,
                                       ARGS["words"])
            assert plan is not None
            fast = 0
            for seed in range(40):
                mtbf = (500.0, 60.0)[seed % 2]
                sched = FaultSchedule.random(plan.fab, seed=seed,
                                             horizon=ARGS["horizon"],
                                             mtbf=mtbf)
                verdict = chaos._screen_scenario(plan, sched,
                                                 ARGS["sweep_delay"])
                if verdict is None:
                    continue
                fast += 1
                ref = chaos.run_scenario(
                    ARGS["topo"], seed, collective, mtbf, ARGS["horizon"],
                    ARGS["sweep_delay"], ARGS["words"],
                    ARGS["max_retries"])
                assert tuple(verdict) == tuple(ref), (collective, seed)
            # the screen must actually resolve something, or the fast
            # path is dead weight
            assert fast > 10, collective

    def test_campaign_table_identical_to_unbatched(self):
        kw = dict(topo="n16-pgft", campaign=10, seed=3,
                  mtbf=(200.0, 40.0), collective="allreduce",
                  horizon=300.0, sweep_delay=50.0, words=64,
                  max_retries=4)
        plain = chaos.run(sweeper=ParallelSweeper(jobs=1), **kw)
        batched = chaos.run(sweeper=ParallelSweeper(jobs=1), batch=True,
                            batch_check=2, **kw)
        strip = lambda s: s.split("\nbatched:")[0].split("runtime |")[0]  # noqa: E731
        assert strip(plain).split("runtime |")[0].rstrip() \
            in batched  # same table body, extra mode line
        assert "resolved analytically" in batched

"""Public API surface: everything advertised imports and works."""

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version():
    assert repro.__version__.count(".") == 2


def test_docstring_example_runs():
    # The example from the package docstring, verbatim in spirit.
    from repro import (
        build_fabric,
        route_dmodk,
        sequence_hsd,
        shift,
        topology_order,
        two_level,
    )

    spec = two_level(18, 18, 9, parallel=2)
    tables = route_dmodk(build_fabric(spec))
    rep = sequence_hsd(tables, shift(324, displacements=range(1, 20)),
                       topology_order(324))
    assert rep.congestion_free


def test_end_to_end_story():
    """The complete pipeline every consumer walks."""
    spec = repro.rlft_max(4, 2)
    fabric = repro.build_fabric(spec)
    tables = repro.route_dmodk(fabric)
    n = spec.num_endports

    # Analysis says congestion-free...
    hsd = repro.sequence_hsd(tables, repro.shift(n),
                             repro.topology_order(n))
    assert hsd.congestion_free

    # ...simulation agrees (full bandwidth)...
    wl = repro.cps_workload(repro.shift(n), repro.topology_order(n),
                            n, 262144.0)
    res = repro.FluidSimulator(tables).run_sequences(wl)
    assert res.normalized_bandwidth > 0.95

    # ...and the bad ordering shows the paper's degradation.
    wl_bad = repro.cps_workload(repro.shift(n),
                                repro.random_order(n, seed=1), n, 262144.0)
    bad = repro.FluidSimulator(tables).run_sequences(wl_bad)
    assert bad.normalized_bandwidth < res.normalized_bandwidth * 0.85

"""Text rendering helpers."""

import numpy as np

from repro.analysis import stage_link_loads
from repro.fabric import (
    build_fabric,
    render_levels,
    render_link_loads,
    render_route,
)
from repro.topology import pgft


def test_render_levels_rows(fig1_fabric):
    text = render_levels(fig1_fabric)
    lines = text.splitlines()
    assert len(lines) == 3  # L2, L1, hosts
    assert lines[0].startswith("   L2")
    assert "hosts" in lines[-1]


def test_render_levels_abbreviates_wide_rows():
    fab = build_fabric(pgft(2, [18, 18], [1, 9], [1, 2]))
    text = render_levels(fab, max_width=60)
    assert "324 nodes" in text


def test_render_route_endpoints(fig1_tables):
    text = render_route(fig1_tables, 0, 9)
    assert text.startswith("H0000")
    assert text.endswith("H0009")
    assert "SW" in text


def test_render_route_local(fig1_tables):
    assert "(local)" in render_route(fig1_tables, 3, 3)


def test_render_link_loads_sorted(fig1_tables):
    fab = fig1_tables.fabric
    n = fab.num_endports
    src = np.arange(n)
    loads = stage_link_loads(fig1_tables, src, (src + 4) % n)
    text = render_link_loads(fab, loads)
    counts = [int(line.split()[0]) for line in text.splitlines()]
    assert counts == sorted(counts, reverse=True)
    assert all(c >= 1 for c in counts)


def test_render_link_loads_empty():
    fab = build_fabric(pgft(1, [4], [1], [1]))
    assert "no loaded links" in render_link_loads(
        fab, np.zeros(fab.num_ports, dtype=int))

"""Fabric data model ("mini-ibdm"): wired nodes/ports, forwarding tables
and a topology file format."""

from .lft import ForwardingTables, Routes
from .model import ENDPORT, SWITCH, Fabric, build_fabric
from .nodetypes import DEFAULT_TYPE, NodeTypeMap, parse_types
from .render import render_levels, render_link_loads, render_route
from .topofile import TopoFileError, dumps, load, loads, save

__all__ = [
    "DEFAULT_TYPE",
    "ENDPORT",
    "NodeTypeMap",
    "SWITCH",
    "Fabric",
    "ForwardingTables",
    "Routes",
    "TopoFileError",
    "build_fabric",
    "parse_types",
    "dumps",
    "load",
    "loads",
    "render_levels",
    "render_link_loads",
    "render_route",
    "save",
]

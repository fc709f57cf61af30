"""Routing functions.

The paper's simulations use dimension-ordered (XY) routing -- an
``R -> p`` routing function (the most general possible for deterministic
routing, footnote 14): the route computation returns a single output
*port*; the candidate output VCs are all the VCs of that port, and the
VC allocator chooses among them.

All routing functions here are topology-aware: on a torus they take the
shorter way around each ring (minimal routing, ties broken toward
EAST/SOUTH).  ``o1turn`` commits each packet to XY or YX order at
injection (load-balancing adversarial patterns like transpose) and
relies on the O1TURN VC classes in :mod:`repro.sim.dateline` for
deadlock freedom.  Routers do not call these per head: each builds its
whole routing decision once, as :func:`build_route_table`.
"""

from __future__ import annotations

from typing import Callable

from .topology import EAST, LOCAL, Mesh, NORTH, SOUTH, WEST

#: A routing function maps (mesh, current node, destination) -> output port.
RoutingFunction = Callable[[Mesh, int, int], int]


def _x_step(topo: Mesh, x: int, dx: int) -> int:
    """Port for one productive X hop (shortest way around on a torus)."""
    if not topo.has_wrap_links:
        return EAST if x < dx else WEST
    forward = (dx - x) % topo.k
    backward = (x - dx) % topo.k
    return EAST if forward <= backward else WEST


def _y_step(topo: Mesh, y: int, dy: int) -> int:
    """Port for one productive Y hop (shortest way around on a torus)."""
    if not topo.has_wrap_links:
        return SOUTH if y < dy else NORTH
    forward = (dy - y) % topo.k   # SOUTH is increasing y
    backward = (y - dy) % topo.k
    return SOUTH if forward <= backward else NORTH


def dimension_order_route(mesh: Mesh, node: int, destination: int) -> int:
    """XY dimension-order routing: correct X first, then Y, then eject."""
    if node == destination:
        return LOCAL
    x, y = mesh.coordinates(node)
    dx, dy = mesh.coordinates(destination)
    if x != dx:
        return _x_step(mesh, x, dx)
    return _y_step(mesh, y, dy)


def yx_route(mesh: Mesh, node: int, destination: int) -> int:
    """YX dimension-order routing (the transposed variant)."""
    if node == destination:
        return LOCAL
    x, y = mesh.coordinates(node)
    dx, dy = mesh.coordinates(destination)
    if y != dy:
        return _y_step(mesh, y, dy)
    return _x_step(mesh, x, dx)


def route_path(
    mesh: Mesh, source: int, destination: int,
    routing: RoutingFunction = dimension_order_route,
) -> list:
    """Full port sequence from source to ejection (for tests/analysis)."""
    if source == destination:
        return [LOCAL]
    path = []
    node = source
    for _ in range(2 * mesh.k + 1):
        port = routing(mesh, node, destination)
        path.append(port)
        if port == LOCAL:
            return path
        node = mesh.neighbor(node, port)
        if node is None:
            raise AssertionError("routing function walked off the mesh")
    raise AssertionError("routing function did not converge")


def productive_ports(mesh: Mesh, node: int, destination: int) -> list:
    """Minimal (productive) output ports toward a destination.

    On a mesh this is one or two ports (one per uncorrected dimension);
    the basis of minimal adaptive routing.  Returns ``[LOCAL]`` at the
    destination.
    """
    if node == destination:
        return [LOCAL]
    x, y = mesh.coordinates(node)
    dx, dy = mesh.coordinates(destination)
    ports = []
    if x != dx:
        ports.append(_x_step(mesh, x, dx))
    if y != dy:
        ports.append(_y_step(mesh, y, dy))
    return ports


def build_route_table(name: str, mesh: Mesh, node: int) -> tuple:
    """``node``'s routing decision for every destination, as one table.

    Entry ``destination`` is, by routing function:

    * ``"xy"`` / ``"yx"``: the output port;
    * ``"o1turn"``: the ``(xy port, yx port)`` pair, indexed by the
      packet's committed order (``o1turn_choice(packet) == "yx"``);
    * ``"adaptive"``: the ``(productive ports, DOR port)`` pair;
      ``ports[0]`` is the DOR port whenever two ports are productive
      (X is corrected first in both).
    """
    destinations = range(mesh.num_nodes)
    if name == "xy":
        return tuple(dimension_order_route(mesh, node, d) for d in destinations)
    if name == "yx":
        return tuple(yx_route(mesh, node, d) for d in destinations)
    if name == "o1turn":
        return tuple(
            (dimension_order_route(mesh, node, d), yx_route(mesh, node, d))
            for d in destinations
        )
    if name == "adaptive":
        return tuple(
            (
                tuple(productive_ports(mesh, node, d)),
                dimension_order_route(mesh, node, d),
            )
            for d in destinations
        )
    raise ValueError(f"unknown routing function {name!r}")

"""Tests for dimension-ordered routing."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.routing import (
    build_route_table,
    dimension_order_route,
    productive_ports,
    route_path,
    yx_route,
)
from repro.sim.topology import EAST, LOCAL, Mesh, NORTH, SOUTH, Torus, WEST

k8 = Mesh(8)
nodes = st.integers(min_value=0, max_value=63)


class TestDimensionOrderRouting:
    def test_eject_at_destination(self):
        assert dimension_order_route(k8, 5, 5) == LOCAL

    def test_x_first(self):
        src = k8.node_at(1, 1)
        dst = k8.node_at(5, 5)
        assert dimension_order_route(k8, src, dst) == EAST
        dst_west = k8.node_at(0, 5)
        assert dimension_order_route(k8, src, dst_west) == WEST

    def test_y_after_x_aligned(self):
        src = k8.node_at(3, 1)
        assert dimension_order_route(k8, src, k8.node_at(3, 5)) == SOUTH
        assert dimension_order_route(k8, src, k8.node_at(3, 0)) == NORTH

    @given(nodes, nodes)
    def test_path_length_is_manhattan_distance(self, src, dst):
        path = route_path(k8, src, dst)
        assert path[-1] == LOCAL
        assert len(path) - 1 == k8.hop_distance(src, dst)

    @given(nodes, nodes)
    def test_path_reaches_destination(self, src, dst):
        node = src
        for port in route_path(k8, src, dst):
            if port == LOCAL:
                break
            node = k8.neighbor(node, port)
        assert node == dst

    @given(nodes, nodes)
    def test_no_turns_back_into_x(self, src, dst):
        """Dimension order: once the route leaves X for Y it never returns."""
        path = route_path(k8, src, dst)
        seen_y = False
        for port in path:
            if port in (NORTH, SOUTH):
                seen_y = True
            if port in (EAST, WEST):
                assert not seen_y

    @given(nodes, nodes)
    def test_deterministic(self, src, dst):
        assert route_path(k8, src, dst) == route_path(k8, src, dst)


class TestYXRouting:
    @given(nodes, nodes)
    def test_yx_reaches_destination(self, src, dst):
        node = src
        for port in route_path(k8, src, dst, yx_route):
            if port == LOCAL:
                break
            node = k8.neighbor(node, port)
        assert node == dst

    @given(nodes, nodes)
    def test_yx_first_moves_vertical(self, src, dst):
        sx, sy = k8.coordinates(src)
        dx, dy = k8.coordinates(dst)
        port = yx_route(k8, src, dst)
        if sy != dy:
            assert port in (NORTH, SOUTH)
        elif sx != dx:
            assert port in (EAST, WEST)
        else:
            assert port == LOCAL


class TestBuildRouteTable:
    """A router's ``_route_table`` is the routing function, tabulated:
    every entry agrees with the function it replaces."""

    @pytest.mark.parametrize("topo", [Mesh(4), Torus(4)], ids=["mesh", "torus"])
    @pytest.mark.parametrize(
        "name, route", [("xy", dimension_order_route), ("yx", yx_route)]
    )
    def test_static_tables_match_route_functions(self, topo, name, route):
        for node in topo.nodes():
            table = build_route_table(name, topo, node)
            assert table == tuple(
                route(topo, node, dest) for dest in range(topo.num_nodes)
            )

    def test_o1turn_entries_are_xy_yx_pairs(self):
        k4 = Mesh(4)
        for node in k4.nodes():
            table = build_route_table("o1turn", k4, node)
            for dest in range(k4.num_nodes):
                assert table[dest] == (
                    dimension_order_route(k4, node, dest),
                    yx_route(k4, node, dest),
                )

    def test_adaptive_entries_are_productive_ports_and_dor(self):
        k4 = Mesh(4)
        for node in k4.nodes():
            table = build_route_table("adaptive", k4, node)
            for dest in range(k4.num_nodes):
                ports, dor_port = table[dest]
                assert ports == tuple(productive_ports(k4, node, dest))
                assert dor_port == dimension_order_route(k4, node, dest)
                # RC relies on the DOR port coming first.
                assert ports[0] == dor_port

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_route_table("chaotic", k8, 0)

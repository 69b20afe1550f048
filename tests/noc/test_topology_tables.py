"""Construction-time topology tables against coordinate arithmetic.

``MeshTopology`` answers every structural query from tables it fills once
at construction.  These tests hold those tables to a reference that lives
here and recomputes each answer the slow way — node id to coordinate, add
the direction's unit step, then bounds-check (mesh) or wrap (torus) — over
2D and 3D meshes and tori, including the degenerate extents 1 and 2 where a
torus wrap link lands on the node itself or where both directions of an
axis reach the same neighbor.  They also pin that tables stay out of the
pickled state, which a ``Simulator`` checkpoint carries.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.topology import Mesh3D, MeshTopology, Torus3D, TorusTopology
from repro.types import Direction

# -- the reference -----------------------------------------------------------


def ref_coordinates(shape, node):
    coords = []
    for extent in shape:
        coords.append(node % extent)
        node //= extent
    return tuple(coords)


def ref_node(shape, coords):
    node = 0
    for axis in reversed(range(len(shape))):
        node = node * shape[axis] + coords[axis]
    return node


_STEP = {
    Direction.EAST: (0, 1),
    Direction.WEST: (0, -1),
    Direction.NORTH: (1, 1),
    Direction.SOUTH: (1, -1),
    Direction.UP: (2, 1),
    Direction.DOWN: (2, -1),
}


def ref_neighbor(shape, torus, node, direction):
    if direction not in _STEP:
        return None
    axis, sign = _STEP[direction]
    if axis >= len(shape):
        return None
    coords = list(ref_coordinates(shape, node))
    coords[axis] += sign
    if torus:
        coords[axis] %= shape[axis]
    elif not 0 <= coords[axis] < shape[axis]:
        return None
    return ref_node(shape, coords)


def ref_arrival_port(shape, torus, node, direction):
    if ref_neighbor(shape, torus, node, direction) is None:
        return None
    return direction.opposite


def ref_distance(shape, torus, a, b):
    total = 0
    for ca, cb, extent in zip(
        ref_coordinates(shape, a), ref_coordinates(shape, b), shape
    ):
        d = abs(ca - cb)
        total += min(d, extent - d) if torus else d
    return total


def build(shape, torus):
    cls = TorusTopology if torus else MeshTopology
    return cls(shape=shape)


def assert_matches_reference(topology, shape, torus):
    wired = [d for d in Direction if d in _STEP and _STEP[d][0] < len(shape)]
    n = topology.num_nodes
    assert n == len(list(topology.nodes()))
    for node in range(n):
        assert tuple(topology.coordinates_of(node)) == ref_coordinates(shape, node)
        for direction in Direction:
            assert topology.neighbor(node, direction) == ref_neighbor(
                shape, torus, node, direction
            ), (node, direction)
            assert topology.arrival_port(node, direction) == ref_arrival_port(
                shape, torus, node, direction
            ), (node, direction)
        linked = [
            d for d in wired if ref_neighbor(shape, torus, node, d) is not None
        ]
        assert topology.connected_directions(node) == linked
        assert topology.edge_directions(node) == [
            d for d in wired if d not in linked
        ]
        for other in range(n):
            assert topology.distance(node, other) == ref_distance(
                shape, torus, node, other
            )


def assert_same_answers(a, b):
    """Every lookup on ``a`` equals the same lookup on ``b``."""
    assert a.shape == b.shape and a.axis_latency == b.axis_latency
    assert list(a.nodes()) == list(b.nodes())
    assert a.directions == b.directions
    for node in a.nodes():
        assert a.coordinates_of(node) == b.coordinates_of(node)
        assert a.connected_directions(node) == b.connected_directions(node)
        assert a.edge_directions(node) == b.edge_directions(node)
        for direction in Direction:
            assert a.neighbor(node, direction) == b.neighbor(node, direction)
            assert a.arrival_port(node, direction) == b.arrival_port(
                node, direction
            )
        for direction in a.directions + (Direction.LOCAL,):
            assert a.link_latency(node, direction) == b.link_latency(
                node, direction
            )
        for other in a.nodes():
            assert a.distance(node, other) == b.distance(node, other)
            assert a.minimal_directions(node, other) == b.minimal_directions(
                node, other
            )


shapes = st.lists(st.integers(1, 4), min_size=2, max_size=3).map(tuple)


# -- equivalence ---------------------------------------------------------------


class TestTablesMatchArithmetic:
    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, torus=st.booleans())
    def test_every_lookup_matches_the_reference(self, shape, torus):
        assert_matches_reference(build(shape, torus), shape, torus)

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 3), (2, 2), (2, 1, 2), (1, 1, 1), (2, 2, 2)]
    )
    @pytest.mark.parametrize("torus", [False, True])
    def test_degenerate_extents(self, shape, torus):
        assert_matches_reference(build(shape, torus), shape, torus)

    def test_torus_extent_one_wraps_onto_itself(self):
        ring = TorusTopology(shape=(1, 3))
        assert ring.neighbor(0, Direction.EAST) == 0
        assert ring.neighbor(0, Direction.WEST) == 0
        assert ring.arrival_port(0, Direction.EAST) is Direction.WEST

    def test_torus_extent_two_reaches_one_neighbor_both_ways(self):
        stack = Torus3D(2, 2, 2)
        for node in stack.nodes():
            assert stack.neighbor(node, Direction.UP) == stack.neighbor(
                node, Direction.DOWN
            )
            assert stack.neighbor(node, Direction.UP) != node


class TestOutOfRangeNodes:
    @settings(max_examples=30, deadline=None)
    @given(
        shape=shapes,
        torus=st.booleans(),
        offset=st.integers(0, 50),
        negative=st.booleans(),
    )
    def test_out_of_range_ids_raise(self, shape, torus, offset, negative):
        topology = build(shape, torus)
        # Negative ids must not wrap through Python's negative indexing.
        node = -1 - offset if negative else topology.num_nodes + offset
        lookups = [
            lambda: topology.coordinates_of(node),
            lambda: topology.connected_directions(node),
            lambda: topology.edge_directions(node),
            lambda: topology.distance(node, 0),
            lambda: topology.distance(0, node),
            lambda: topology.minimal_directions(node, 0),
        ]
        for direction in Direction:
            lookups.append(lambda d=direction: topology.neighbor(node, d))
            lookups.append(lambda d=direction: topology.arrival_port(node, d))
        for lookup in lookups:
            with pytest.raises(ValueError):
                lookup()


# -- pickled state -------------------------------------------------------------

#: ``len(pickle.dumps(topology))`` before the tables existed; a pickle may
#: never grow past these (checkpoints carry the topology).
TABLE_FREE_PICKLE_BYTES = [
    (lambda: MeshTopology(shape=(8, 8)), 168),
    (lambda: TorusTopology(shape=(5, 5)), 169),
    (lambda: Mesh3D(4, 4, 4), 182),
    (lambda: Torus3D(3, 3, 3), 183),
    (lambda: MeshTopology(shape=(4, 4, 4), link_latency=(1, 1, 2)), 188),
]


class TestPickledState:
    @pytest.mark.parametrize("make, ceiling", TABLE_FREE_PICKLE_BYTES)
    def test_unpickled_topology_answers_alike(self, make, ceiling):
        original = make()
        restored = pickle.loads(pickle.dumps(original))
        assert type(restored) is type(original)
        assert_same_answers(restored, original)

    @pytest.mark.parametrize("make, ceiling", TABLE_FREE_PICKLE_BYTES)
    def test_pickle_carries_no_tables(self, make, ceiling):
        assert len(pickle.dumps(make())) <= ceiling

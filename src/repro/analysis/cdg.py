"""Channel-dependency-graph construction and deadlock-freedom verification.

Dally & Seitz's classic criterion: a routing function is deadlock-free on a
network iff its *channel dependency graph* (CDG) is acyclic.  The CDG has
one vertex per directed inter-router channel; there is an edge ``c1 -> c2``
when some packet, travelling toward some destination, can hold channel
``c1`` while requesting channel ``c2`` at the router joining them.

Construction is *reachability-aware*: dependencies are only recorded along
(channel, destination) states a packet can actually reach under the routing
function, starting from every possible injection point.  Naively pairing
every input channel with every candidate output would fabricate turns the
routing function never takes (e.g. a south-travelling XY packet turning
east) and falsely flag XY as deadlock-prone.

Virtual channels: the paper's VA lets a packet claim *any* VC of the
physical channel the routing function selected ("the routing function
returns all VCs of a single PC", Figure 12).  With such unrestricted VC
allocation, VCs provide no deadlock protection — every VC of a PC carries
exactly the same dependency set, so the CDG is built at physical-channel
granularity and a cycle among PCs proves a reachable VC-level deadlock for
any ``num_vcs``.  A routing function using VC classes as escape channels
(datelines) would need a VC-granular graph; none of the repo's routing
functions does.

The graph is built over the generic :class:`~repro.noc.topology.PortGraph`
surface — nodes, ports, ``neighbor`` and ``arrival_port`` — not over 2-D
mesh coordinates, so the same construction certifies meshes, tori, and
arbitrary :class:`~repro.noc.topology.GraphTopology` instances (degraded
graphs, chiplet hierarchies, test fixtures) without modification.

The verifier is exercised by ``repro lint`` (rule ``NOC004``), by the
``repro verify`` certification engine, and directly by tests: XY and
west-first must verify clean on a mesh, fully-adaptive and torus XY must
be flagged with a concrete witness cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.noc.flit import Flit
from repro.noc.routing import RoutingFunction, SourceRouting
from repro.noc.topology import PortGraph
from repro.types import Direction, FlitType


class Channel(NamedTuple):
    """A directed inter-router channel (one physical link direction).

    ``src``/``dst`` are node ids and ``direction`` is the port label the
    channel leaves ``src`` through — :class:`~repro.types.Direction` on a
    mesh, any sortable label on a generic port graph.
    """

    src: Any
    dst: Any
    direction: Any

    def describe(self, topology: Optional[PortGraph] = None) -> str:
        port = getattr(self.direction, "name", None) or str(self.direction)
        return (
            f"{node_text(topology, self.src)}->{node_text(topology, self.dst)}"
            f" via {port}"
        )


def node_text(topology: Optional[PortGraph], node: Any) -> str:
    """A node as report text: its coordinates on a topology that has them,
    every axis included (``(x,y)`` in 2D, ``(x,y,z)`` on a 3D stack), else
    the bare node id."""
    coordinates_of = getattr(topology, "coordinates_of", None)
    if coordinates_of is None:
        return str(node)
    return "(" + ",".join(str(v) for v in coordinates_of(node)) + ")"


def probe_header(dst: Any) -> Flit:
    """A minimal header flit for interrogating a routing function about
    destination ``dst``.  The static-analysis passes route on ``(node,
    dst)`` (plus the arrival port when port-aware) and never on the source,
    so one probe serves every query toward ``dst``."""
    return Flit(-1, 0, FlitType.HEAD, -1, dst)


@dataclass
class ChannelDependencyGraph:
    """The CDG of a (topology, routing function) pair.

    Build with :meth:`build`; query with :meth:`find_cycle` or the edge
    accessors.  ``num_vcs`` is carried for reporting — see the module
    docstring for why it does not change the graph.
    """

    topology: PortGraph
    num_vcs: int = 1
    _edges: Dict[Channel, Set[Channel]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        topology: PortGraph,
        routing_fn: RoutingFunction,
        num_vcs: int = 1,
    ) -> "ChannelDependencyGraph":
        """Construct the CDG by forward traversal from every (src, dst) pair.

        Raises :class:`ValueError` for source routing, whose routes live in
        the packets rather than in a statically analyzable function.
        """
        if isinstance(routing_fn, SourceRouting):
            raise ValueError(
                "source routing has no static routing relation; the CDG is "
                "a property of the packets, not of the network"
            )
        graph = cls(topology, num_vcs)
        port_aware = getattr(routing_fn, "port_aware", False)
        for dst in topology.nodes():
            if port_aware:
                graph._trace_destination_port_aware(routing_fn, dst)
            else:
                graph._trace_destination(routing_fn, dst)
        return graph

    def _trace_destination(self, routing_fn: RoutingFunction, dst: Any) -> None:
        """Record every dependency reachable by packets destined for ``dst``."""
        topology = self.topology
        probe = probe_header(dst)
        # The candidate out-channels at a node depend only on (node, dst),
        # so one routing-function call per node covers every arrival port.
        candidates: Dict[Any, List[Channel]] = {}
        for node in topology.nodes():
            if node == dst:
                candidates[node] = []
                continue
            candidates[node] = self._linked(
                node, routing_fn.candidates(topology, node, probe)
            )
        # Forward traversal over (held channel) states: a packet injected at
        # any node may first claim any candidate channel there; from a held
        # channel it may request any candidate channel at the downstream
        # router, which is exactly a CDG edge.
        visited: Set[Channel] = set()
        frontier: List[Channel] = []
        for src in topology.nodes():
            for channel in candidates[src]:
                self._edges.setdefault(channel, set())
                if channel not in visited:
                    visited.add(channel)
                    frontier.append(channel)
        while frontier:
            held = frontier.pop()
            for requested in candidates[held.dst]:
                self._edges.setdefault(requested, set())
                self._edges[held].add(requested)
                if requested not in visited:
                    visited.add(requested)
                    frontier.append(requested)

    def _trace_destination_port_aware(
        self, routing_fn: RoutingFunction, dst: Any
    ) -> None:
        """Port-aware variant of :meth:`_trace_destination`.

        A port-aware routing function (``FaultAwareRouting``) restricts the
        legal out-directions by the arrival port, so candidates depend on the
        *held channel*, not just on the node.  The traversal therefore queries
        ``candidates_from`` with the held channel's arrival port — injection
        uses the LOCAL port — and only records the turns the tables actually
        permit.  This is exactly what certifies the reconfigured routing on a
        degraded topology: the graph contains one vertex per surviving channel
        the tables use and one edge per legal turn.
        """
        topology = self.topology
        probe = probe_header(dst)
        visited: Set[Channel] = set()
        frontier: List[Channel] = []

        def legal(node: Any, in_port: Any) -> List[Channel]:
            return self._linked(
                node,
                routing_fn.candidates_from(  # type: ignore[attr-defined]
                    topology, node, in_port, probe
                ),
            )

        for src in topology.nodes():
            if src == dst:
                continue
            for channel in legal(src, Direction.LOCAL):
                self._edges.setdefault(channel, set())
                if channel not in visited:
                    visited.add(channel)
                    frontier.append(channel)
        while frontier:
            held = frontier.pop()
            if held.dst == dst:
                continue
            in_port = topology.arrival_port(held.src, held.direction)
            if in_port is None:
                raise ValueError(
                    f"port-aware analysis needs a reverse port for channel "
                    f"{held.describe(topology)}; one-way channels cannot "
                    "carry an arrival-port routing constraint"
                )
            for requested in legal(held.dst, in_port):
                self._edges.setdefault(requested, set())
                self._edges[held].add(requested)
                if requested not in visited:
                    visited.add(requested)
                    frontier.append(requested)

    def _linked(self, node: Any, directions: List[Any]) -> List[Channel]:
        """The channels leaving ``node`` through the linked, non-LOCAL
        ports among ``directions``, in candidate order."""
        out: List[Channel] = []
        for direction in directions:
            if direction is Direction.LOCAL:
                continue
            neighbor = self.topology.neighbor(node, direction)
            if neighbor is not None:
                out.append(Channel(node, neighbor, direction))
        return out

    # -- queries ------------------------------------------------------------

    @property
    def channels(self) -> List[Channel]:
        return sorted(self._edges)

    @property
    def num_channels(self) -> int:
        return len(self._edges)

    @property
    def num_dependencies(self) -> int:
        return sum(len(targets) for targets in self._edges.values())

    def dependencies_of(self, channel: Channel) -> Set[Channel]:
        return set(self._edges.get(channel, ()))

    def has_edge(self, a: Channel, b: Channel) -> bool:
        return b in self._edges.get(a, ())

    def find_cycle(self) -> Optional[List[Channel]]:
        """A cycle of channels if one exists (the deadlock witness), else None.

        Iterative DFS with the standard three-colour scheme; on the first
        back edge the grey path is unwound into the witness.  The returned
        list ``[c0, c1, ..., ck]`` satisfies ``edge(ci, ci+1)`` for all i and
        ``edge(ck, c0)``.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        colour: Dict[Channel, int] = {c: WHITE for c in self._edges}
        for root in self.channels:
            if colour[root] != WHITE:
                continue
            path: List[Channel] = []
            # Stack entries: (channel, iterator over its successors).
            stack: List[Tuple[Channel, List[Channel]]] = [
                (root, sorted(self._edges[root]))
            ]
            colour[root] = GREY
            path.append(root)
            while stack:
                channel, successors = stack[-1]
                advanced = False
                while successors:
                    nxt = successors.pop(0)
                    if colour[nxt] == GREY:
                        # Back edge: the cycle is the path suffix from nxt.
                        start = path.index(nxt)
                        return path[start:]
                    if colour[nxt] == WHITE:
                        colour[nxt] = GREY
                        path.append(nxt)
                        stack.append((nxt, sorted(self._edges[nxt])))
                        advanced = True
                        break
                if not advanced:
                    colour[channel] = BLACK
                    path.pop()
                    stack.pop()
        return None

    def is_cycle(self, channels: List[Channel]) -> bool:
        """Whether ``channels`` is a genuine cycle in this graph."""
        if not channels:
            return False
        return all(
            self.has_edge(channels[i], channels[(i + 1) % len(channels)])
            for i in range(len(channels))
        )


@dataclass(frozen=True)
class CDGVerdict:
    """Machine-readable outcome of the deadlock-freedom check."""

    deadlock_free: bool
    num_channels: int
    num_dependencies: int
    num_vcs: int
    witness: Tuple[Channel, ...] = ()
    witness_text: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "deadlock_free": self.deadlock_free,
            "num_channels": self.num_channels,
            "num_dependencies": self.num_dependencies,
            "num_vcs": self.num_vcs,
            "witness": list(self.witness_text),
        }


def verify_deadlock_freedom(
    topology: PortGraph,
    routing_fn: RoutingFunction,
    num_vcs: int = 1,
) -> CDGVerdict:
    """Build the CDG and return the acyclicity verdict with any witness."""
    graph = ChannelDependencyGraph.build(topology, routing_fn, num_vcs)
    cycle = graph.find_cycle()
    if cycle is None:
        return CDGVerdict(
            deadlock_free=True,
            num_channels=graph.num_channels,
            num_dependencies=graph.num_dependencies,
            num_vcs=num_vcs,
        )
    return CDGVerdict(
        deadlock_free=False,
        num_channels=graph.num_channels,
        num_dependencies=graph.num_dependencies,
        num_vcs=num_vcs,
        witness=tuple(cycle),
        witness_text=tuple(c.describe(topology) for c in cycle),
    )

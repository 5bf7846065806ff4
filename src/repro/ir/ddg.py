"""Data-dependence graph for modulo scheduling.

Nodes are operation names; edges carry

* ``kind`` — ``"flow"`` (true register dependence), ``"anti"``, ``"output"``
  or ``"mem"`` (memory ordering),
* ``distance`` — iteration distance (0 for intra-iteration dependences,
  >0 for loop-carried recurrences).

Edge *latency* is resolved against a machine model at scheduling time
(``latency(producer_opclass)`` for flow edges, 1 for the others), so the
DDG itself stays machine-independent.

The graph wraps :class:`networkx.MultiDiGraph` — multiple dependences
between the same pair of operations (e.g. a flow edge at distance 0 and an
anti edge at distance 1) are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

import networkx as nx

from .loop import Loop
from .operations import Operation

__all__ = ["DepEdge", "DependenceGraph", "build_ddg"]

_REGISTER_KINDS = ("flow",)
_VALID_KINDS = ("flow", "anti", "output", "mem")


@dataclass(frozen=True)
class DepEdge:
    """One dependence: ``dst`` must wait for ``src`` (modulo distance)."""

    src: str
    dst: str
    kind: str
    distance: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown dependence kind {self.kind!r}")
        if self.distance < 0:
            raise ValueError("dependence distance cannot be negative")


class DependenceGraph:
    """DDG over a loop's operations."""

    def __init__(self, loop: Loop, edges: Optional[List[DepEdge]] = None):
        self.loop = loop
        self._graph = nx.MultiDiGraph()
        # Lazy adjacency caches: the schedulers query in/out edges on
        # every placement attempt, and materializing networkx edge views
        # each time dominated the schedule stage.  The caches preserve
        # networkx's exact edge order (comm allocation reads edges in
        # order), are invalidated by add_edge, and are handed out as
        # tuples so no caller can corrupt them.
        self._edge_cache: Optional[Tuple[DepEdge, ...]] = None
        self._in_cache: Optional[Dict[str, Tuple[DepEdge, ...]]] = None
        self._out_cache: Optional[Dict[str, Tuple[DepEdge, ...]]] = None
        #: Content-fingerprint memo of the kernel owning this graph, as
        #: ``(loop, fingerprint)`` — kept and read only by
        #: :func:`repro.engine.stagestore.kernel_fingerprint`, dropped by
        #: add_edge together with the adjacency caches and by pickling.
        self.fingerprint_memo: Optional[Tuple[Loop, str]] = None
        #: Name of the shared kernel this graph belongs to once frozen.
        self._frozen_by: Optional[str] = None
        for op in loop.operations:
            self._graph.add_node(op.name, op=op)
        for edge in edges or []:
            self.add_edge(edge)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, edge: DepEdge) -> None:
        """Insert a dependence edge (endpoints must be loop operations)."""
        if self._frozen_by is not None:
            raise TypeError(
                f"the dependence graph of kernel {self._frozen_by!r} is "
                f"frozen: it is shared by every caller of the suite "
                f"builders; build a private copy from the kernel factory "
                f"or a LoopBuilder before adding edges"
            )
        for end in (edge.src, edge.dst):
            if end not in self._graph:
                raise KeyError(f"operation {end!r} is not in the loop")
        self._graph.add_edge(
            edge.src, edge.dst, kind=edge.kind, distance=edge.distance
        )
        self._edge_cache = None
        self._in_cache = None
        self._out_cache = None
        self.fingerprint_memo = None

    def freeze(self, kernel_name: str) -> None:
        """Reject any further :meth:`add_edge` (and networkx mutation).

        Used on kernels handed out to every caller (the suite builders);
        the error names ``kernel_name``.
        """
        self._frozen_by = kernel_name
        nx.freeze(self._graph)

    def __getstate__(self) -> dict:
        # A copy unpickled elsewhere (a pool worker, a test) recomputes
        # its fingerprint from content instead of trusting the memo.
        state = self.__dict__.copy()
        state["fingerprint_memo"] = None
        return state

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nx(self) -> nx.MultiDiGraph:
        """The underlying networkx graph (read-only by convention)."""
        return self._graph

    @property
    def n_nodes(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def n_edges(self) -> int:
        return self._graph.number_of_edges()

    def op(self, name: str) -> Operation:
        """Operation object for a node name."""
        return self._graph.nodes[name]["op"]

    def nodes(self) -> List[str]:
        """All node names (program order of the loop body)."""
        return [op.name for op in self.loop.operations]

    def edges(self) -> Tuple[DepEdge, ...]:
        """All dependence edges (cached; networkx iteration order)."""
        if self._edge_cache is None:
            self._edge_cache = tuple(
                DepEdge(src, dst, data["kind"], data["distance"])
                for src, dst, data in self._graph.edges(data=True)
            )
        return self._edge_cache

    def _build_adjacency(self) -> None:
        ins: Dict[str, Tuple[DepEdge, ...]] = {}
        outs: Dict[str, Tuple[DepEdge, ...]] = {}
        for op in self.loop.operations:
            name = op.name
            ins[name] = tuple(
                DepEdge(src, dst, data["kind"], data["distance"])
                for src, dst, data in self._graph.in_edges(name, data=True)
            )
            outs[name] = tuple(
                DepEdge(src, dst, data["kind"], data["distance"])
                for src, dst, data in self._graph.out_edges(name, data=True)
            )
        self._in_cache = ins
        self._out_cache = outs

    def in_edges(self, name: str) -> Tuple[DepEdge, ...]:
        """Dependences that must be satisfied before ``name`` issues."""
        if self._in_cache is None:
            self._build_adjacency()
        return self._in_cache[name]

    def out_edges(self, name: str) -> Tuple[DepEdge, ...]:
        """Dependences carried from ``name`` to its consumers."""
        if self._out_cache is None:
            self._build_adjacency()
        return self._out_cache[name]

    def predecessors(self, name: str) -> Set[str]:
        return set(self._graph.predecessors(name))

    def successors(self, name: str) -> Set[str]:
        return set(self._graph.successors(name))

    def register_edges(self) -> Iterator[DepEdge]:
        """Flow edges only — the ones that cost inter-cluster bus traffic."""
        for edge in self.edges():
            if edge.kind in _REGISTER_KINDS:
                yield edge

    def crossing_register_edges(
        self, assignment: Dict[str, int]
    ) -> List[DepEdge]:
        """Flow edges whose endpoints sit in different clusters.

        ``assignment`` maps (a subset of) op names to cluster ids; edges
        with an unassigned endpoint are ignored.  This is the quantity the
        baseline scheduler's output-edge heuristic minimizes.
        """
        crossing = []
        for edge in self.register_edges():
            src_cluster = assignment.get(edge.src)
            dst_cluster = assignment.get(edge.dst)
            if src_cluster is None or dst_cluster is None:
                continue
            if src_cluster != dst_cluster:
                crossing.append(edge)
        return crossing

    # ------------------------------------------------------------------
    # Cycle analysis (RecMII support)
    # ------------------------------------------------------------------
    def simple_cycles(self) -> Iterator[List[str]]:
        """Elementary cycles (recurrences) of the DDG."""
        yield from nx.simple_cycles(self._graph)

    def has_recurrences(self) -> bool:
        """True when at least one dependence cycle exists."""
        try:
            next(self.simple_cycles())
            return True
        except StopIteration:
            return False

    def nodes_on_recurrences(self) -> Set[str]:
        """Operations that belong to some dependence cycle."""
        on_cycle: Set[str] = set()
        for component in nx.strongly_connected_components(self._graph):
            if len(component) > 1:
                on_cycle |= component
            else:
                (node,) = component
                if self._graph.has_edge(node, node):
                    on_cycle.add(node)
        return on_cycle

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DependenceGraph({self.loop.name}: "
            f"{self.n_nodes} nodes, {self.n_edges} edges)"
        )


def build_ddg(loop: Loop, extra_edges: Optional[List[DepEdge]] = None) -> DependenceGraph:
    """Construct the DDG from register names plus explicit extra edges.

    Intra-iteration flow dependences are inferred from register
    def-use chains of the body in program order.  Loop-carried register
    recurrences and memory dependences cannot be inferred from names alone
    and are supplied through ``extra_edges`` (the builder DSL generates
    them).
    """
    graph = DependenceGraph(loop)
    last_def: Dict[str, str] = {}
    for op in loop.operations:
        for src in op.srcs:
            producer = last_def.get(src)
            if producer is not None:
                graph.add_edge(DepEdge(producer, op.name, "flow", 0))
        if op.dest is not None:
            prior = last_def.get(op.dest)
            if prior is not None:
                graph.add_edge(DepEdge(prior, op.name, "output", 0))
            last_def[op.dest] = op.name
    for edge in extra_edges or []:
        graph.add_edge(edge)
    return graph

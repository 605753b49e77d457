"""Multi-weighted summary graphs and the cone decomposition machinery.

The summary graph of a time-series DAG collapses time: it has one node per
variable and annotates each edge with the set of lags at which it occurs.
Walk weights in this graph correspond to time differences in the infinite
graph.  The machinery here (cycle classes, graph of cycles, access points,
generating sets, set monoids, closures, tuple sets) decomposes the set of
realizable walk weights between two nodes into finitely many affine cones
over the non-negative integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import networkx as nx

from .graph_model import TsGraphTemplate, ValidationError

Path = tuple[str, ...]  # node sequence of a directed path; length 1 = trivial walk


@dataclass
class MwSummaryGraph:
    """Directed graph over variables with a finite non-empty weight set per edge.

    Weakly acyclic by construction: no self-edge weight set contains 0 and the
    subgraph of edges whose weight set contains 0 is acyclic.  Treat instances
    as immutable after construction.
    """

    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], tuple[int, ...]]

    def __post_init__(self) -> None:
        for (src, dst), weights in self.edges.items():
            if src not in self.nodes or dst not in self.nodes:
                raise ValidationError(f"edge ({src}, {dst}) references unknown node")
            if not weights:
                raise ValidationError(f"empty weight set on edge ({src}, {dst})")
            if src == dst and 0 in weights:
                raise ValidationError(f"self edge with weight 0 at {src}")
        zero_sub = nx.DiGraph()
        zero_sub.add_nodes_from(self.nodes)
        zero_sub.add_edges_from(e for e, w in self.edges.items() if 0 in w)
        if not nx.is_directed_acyclic_graph(zero_sub):
            raise ValidationError("zero-weight subgraph is cyclic (not weakly acyclic)")

    def digraph(self) -> nx.DiGraph:
        dg = nx.DiGraph()
        dg.add_nodes_from(self.nodes)
        dg.add_edges_from(self.edges)
        return dg


@dataclass(frozen=True, order=True)
class CycleClass:
    """Rotation-equivalence class of an irreducible directed cycle.

    ``representative`` is the node sequence rotated so that the smallest node
    comes first; ``weights`` is the (sorted) Minkowski sum of the edge weight
    sets along the cycle.
    """

    representative: tuple[str, ...]
    weights: tuple[int, ...]

    @property
    def node_set(self) -> frozenset[str]:
        return frozenset(self.representative)


class GraphOfCycles:
    """Undirected graph on cycle classes; edge iff two classes share a node."""

    def __init__(self, classes: Iterable[CycleClass]):
        self.classes: tuple[CycleClass, ...] = tuple(sorted(classes))
        self.nx = nx.Graph()
        self.nx.add_nodes_from(self.classes)
        for c1, c2 in itertools.combinations(self.classes, 2):
            if c1.node_set & c2.node_set:
                self.nx.add_edge(c1, c2)
        self._adj = {c: frozenset(self.nx[c]) for c in self.classes}
        self._accessors: dict[frozenset[CycleClass], dict] = {}

    @property
    def edges(self) -> frozenset[frozenset[CycleClass]]:
        return frozenset(frozenset(e) for e in self.nx.edges)

    def accessors(
        self, touch: frozenset[CycleClass]
    ) -> dict[CycleClass, frozenset[CycleClass]]:
        """For each class w outside ``touch``, its touch-access points: the
        neighbours of w that some path from ``touch`` reaches in GoC - w."""
        if touch not in self._accessors:
            table = {}
            for w in (c for c in self.classes if c not in touch):
                reached, frontier = set(touch), list(touch)
                while frontier:
                    fresh = self._adj[frontier.pop()] - reached - {w}
                    reached |= fresh
                    frontier.extend(fresh)
                table[w] = self._adj[w] & reached
            self._accessors[touch] = table
        return self._accessors[touch]


def _minkowski(a: Iterable[int], b: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted({x + y for x in a for y in b}))


def build_mw_summary(tpl: TsGraphTemplate) -> MwSummaryGraph:
    """Summary graph of a time-series DAG: edge (i, j) with weight set = set of lags."""
    if tpl.bidirected_t:
        raise ValidationError(
            "summary graph is defined for ts-DAGs; canonicalize bidirected edges first"
        )
    edges: dict[tuple[str, str], set[int]] = {}
    for src, lag, dst in tpl.directed_t:
        edges.setdefault((src, dst), set()).add(lag)
    return MwSummaryGraph(
        nodes=tpl.variables,
        edges={e: tuple(sorted(w)) for e, w in edges.items()},
    )


def enumerate_cycle_classes(s: MwSummaryGraph) -> frozenset[CycleClass]:
    """One :class:`CycleClass` per rotation-equivalence class of irreducible cycles."""
    classes = set()
    for cycle in nx.simple_cycles(s.digraph()):
        pivot = cycle.index(min(cycle))
        rep = tuple(cycle[pivot:] + cycle[:pivot])
        weights: tuple[int, ...] = (0,)
        for a, b in zip(rep, rep[1:] + rep[:1]):
            weights = _minkowski(weights, s.edges[(a, b)])
        classes.add(CycleClass(representative=rep, weights=weights))
    return frozenset(classes)


def build_graph_of_cycles(classes: Iterable[CycleClass]) -> GraphOfCycles:
    return GraphOfCycles(classes)


def cycle_free_paths(s: MwSummaryGraph, k: str, i: str) -> frozenset[Path]:
    """All cycle-free directed paths from k to i; exactly the trivial walk if k == i."""
    if k not in s.nodes or i not in s.nodes:
        raise ValidationError(f"unknown node in path query ({k}, {i})")
    if k == i:
        return frozenset({(k,)})
    return frozenset(tuple(p) for p in nx.all_simple_paths(s.digraph(), k, i))


def path_weightset(s: MwSummaryGraph, pi: Sequence[str]) -> tuple[int, ...]:
    """Minkowski sum of the edge weight sets along ``pi``; {0} for trivial walks."""
    weights: tuple[int, ...] = (0,)
    for a, b in zip(pi, pi[1:]):
        if (a, b) not in s.edges:
            raise ValidationError(f"path uses missing edge ({a}, {b})")
        weights = _minkowski(weights, s.edges[(a, b)])
    return weights


def touch_set(pi: Sequence[str], classes: Iterable[CycleClass]) -> frozenset[CycleClass]:
    """Cycle classes that share at least one node with the walk ``pi``."""
    nodes = set(pi)
    return frozenset(c for c in classes if c.node_set & nodes)


def access_points(goc: GraphOfCycles, s: Iterable[CycleClass]) -> frozenset[CycleClass]:
    """All S-access points: v such that some path from S has v as the
    second-to-last node and ends at a node outside S."""
    return frozenset().union(*goc.accessors(frozenset(s)).values())


def generating_set(
    goc: GraphOfCycles,
    touch: frozenset[CycleClass],
    points: frozenset[CycleClass],
) -> frozenset[tuple[CycleClass, ...]]:
    """Generating paths: the empty path plus every path of access points that
    starts in the touch set and never returns to it."""
    paths: set[tuple[CycleClass, ...]] = {()}
    h = goc.nx.subgraph(points)
    for v in sorted(touch & points):
        paths.add((v,))
        h_v = h.subgraph(n for n in h.nodes if n == v or n not in touch)
        for target in sorted(points - touch):
            if target in h_v:
                for path in nx.all_simple_paths(h_v, v, target):
                    paths.add(tuple(path))
    return frozenset(paths)


def monoid_from_generating_set(
    node_sets: Iterable[frozenset[CycleClass]],
) -> frozenset[frozenset[CycleClass]]:
    """Smallest union-closed family containing the generators and the empty set."""
    monoid: set[frozenset[CycleClass]] = {frozenset()} | set(node_sets)
    generators = list(monoid)
    fresh = monoid
    while fresh:
        # only the elements added last round can combine into new ones
        fresh = {a | b for a in generators for b in fresh} - monoid
        monoid |= fresh
    return frozenset(monoid)


def get_monoid(
    pi: Sequence[str],
    classes: Iterable[CycleClass],
    goc: GraphOfCycles,
) -> frozenset[frozenset[CycleClass]]:
    """The set monoid M_pi: union closure of the node sets of the generating paths."""
    touch = touch_set(pi, classes)
    points = access_points(goc, touch)
    paths = generating_set(goc, touch, points)
    return monoid_from_generating_set(frozenset(p) for p in paths)


def closure(
    s: Iterable[CycleClass],
    touch: frozenset[CycleClass],
    goc: GraphOfCycles,
) -> frozenset[CycleClass]:
    """cl(S) = S, plus the touch set, plus every class outside the touch set for
    which S contains a touch-access point.  cl(empty) is the touch set."""
    s = frozenset(s)
    accessors = goc.accessors(touch)
    extra = {w for w in goc.classes if w not in touch and accessors[w] & s}
    return s | touch | extra


@dataclass(frozen=True, order=True)
class ConeTuple:
    """Tuple (a0; a1, ..., a_mu) indexing the affine cone
    {a0 + sum n_alpha * a_alpha : n_alpha >= 0}."""

    a0: int
    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.a0 < 0 or any(c < 1 for c in self.coeffs):
            raise ValidationError(f"malformed cone tuple ({self.a0}; {self.coeffs})")


def tuple_sets(
    s: MwSummaryGraph,
    tau: int,
    pi: Sequence[str],
    subset: Iterable[CycleClass],
    classes: Iterable[CycleClass],
    goc: GraphOfCycles,
) -> frozenset[ConeTuple]:
    """The tuple set D_tau(pi, S): leading coordinates from tau + w(pi) + w(S),
    trailing coordinates the concatenated weight sets of the classes in cl(S),
    in canonical class order.

    Each weight of each closure class becomes its own cone coefficient: a walk
    may traverse one cycle repeatedly while realizing a different weight on
    each traversal, so the n-fold contribution of a class is the n-fold
    Minkowski sum of its weight set, i.e. independent non-negative multiples of
    every individual weight.
    """
    subset = frozenset(subset)
    touch = touch_set(pi, classes)
    cl = sorted(closure(subset, touch, goc))
    head: tuple[int, ...] = (tau,)
    head = _minkowski(head, path_weightset(s, pi))
    for c in sorted(subset):
        head = _minkowski(head, c.weights)
    coeffs = tuple(w for c in cl for w in c.weights)
    return frozenset(ConeTuple(a0=a0, coeffs=coeffs) for a0 in head)

"""Multi-weighted summary graphs and the cone decomposition machinery.

The summary graph of a time-series DAG collapses time: it has one node per
variable and annotates each edge with the set of lags at which it occurs.
Walk weights in this graph correspond to time differences in the infinite
graph.  The machinery here (cycle classes, graph of cycles, access points,
generating sets, set monoids, closures, tuple sets) decomposes the set of
realizable walk weights between two nodes into finitely many affine cones
over the non-negative integers.

A path pi contributes one cone per set S in its set monoid M_pi: heads
w(pi) + w(S), coefficients the weights of the classes in the closure cl(S).
M_pi can be nearly the whole power set of the cycle classes, so the cone
layer never lists it.  Three facts make that exact (T is the touch set of
pi, and cl(A | B) = cl(A) | cl(B)):

- Dominance: for S' <= S, both in M_pi, with cl(S') = cl(S), cone(S) lies
  in cone(S'), because each class in S - S' lies in cl(S') and its weights
  are already coefficients.  The inclusion-minimal members of each closure
  therefore give the same union of cones.
- Membership: S is in M_pi iff S holds only access points and each class of
  S outside T is joined to S & T through classes of S; one traversal
  decides it, without the generating paths or their union closure.
- Prefix lemma: every minimal S other than the empty set is one class
  larger than a minimal set.  Remove a class of S outside T that lies
  deepest in a breadth-first search from S & T through S (any class if S
  lies inside T).

The level search over the minimal sets yields their cone terms, the
distinct (w(S), weights of cl(S)), which :func:`cone_set` turns into cones.

Summary graphs have one node per variable, so one depth-first search, run
once per graph, lists the simple paths from every node.  Cycle classes, the
cycle-free paths between two nodes and the longest cycle-free path of the
cutoff bound are filters over that list (Johnson, SIAM J. Comput. 1975,
gives an output-sensitive cycle search for larger graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import islice
from typing import Iterable, NamedTuple, Sequence

from .graph_model import TsGraphTemplate, ValidationError, bits, encode, is_acyclic, reach

Path = tuple[str, ...]  # node sequence of a directed path; length 1 = trivial walk
Term = tuple[tuple[int, ...], tuple[int, ...]]  # (w(S), the weights of cl(S)) of one cone

_MAX_GENERATING_PATHS = 10**6  # only --explain lists M_pi; its paths grow exponentially
_MAX_SIMPLE_PATHS = 10**6  # about 200 MB of paths; their number grows exponentially
_MAX_CONE_TERMS = 10**6  # sets kept by one cone-term search; their number grows exponentially


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
        if not is_acyclic(self.nodes, (e for e, w in self.edges.items() if 0 in w)):
            raise ValidationError("zero-weight subgraph is cyclic (not weakly acyclic)")

    @cached_property
    def successors(self) -> dict[str, tuple[str, ...]]:
        """Per node, the heads of its outgoing edges."""
        succ: dict[str, list[str]] = {v: [] for v in self.nodes}
        for src, dst in self.edges:
            succ[src].append(dst)
        return {v: tuple(heads) for v, heads in succ.items()}

    @cached_property
    def simple_paths(self) -> dict[str, tuple[Path, ...]]:
        """Per node, every simple path from it, the trivial path included, from
        one depth-first search.  Over ``_MAX_SIMPLE_PATHS`` paths raise ValidationError."""
        found: dict[str, list[Path]] = {v: [] for v in self.nodes}
        stack = [(v,) for v in self.nodes]
        for _ in range(_MAX_SIMPLE_PATHS + 1):
            if not stack:
                return {v: tuple(paths) for v, paths in found.items()}
            path = stack.pop()
            found[path[0]].append(path)
            stack.extend(path + (v,) for v in self.successors[path[-1]] if v not in path)
        raise ValidationError(
            f"the summary graph has more than {_MAX_SIMPLE_PATHS} simple paths; "
            "it is too large to search"
        )


class CycleClass(NamedTuple):
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
    """Undirected graph on cycle classes; edge iff two classes share a node.

    Sets of classes are also carried as int masks, bit k standing for
    ``classes[k]``; touch sets, access points, closures, monoids and cone
    terms are computed on masks.  One memo, keyed on a touch mask, holds its
    cone terms; everything else is computed on each call.
    """

    def __init__(self, classes: Iterable[CycleClass]):
        self.classes: tuple[CycleClass, ...] = tuple(sorted(classes))
        self._index = {c: k for k, c in enumerate(self.classes)}
        self.node_masks: dict[str, int] = {}  # per node, the classes that contain it
        for k, c in enumerate(self.classes):
            for v in c.representative:
                self.node_masks[v] = self.node_masks.get(v, 0) | 1 << k
        self._adj = tuple(
            self.touch_mask(c.representative) & ~(1 << k) for k, c in enumerate(self.classes)
        )
        self._terms: dict[int, frozenset[Term]] = {}

    @property
    def edges(self) -> frozenset[frozenset[CycleClass]]:
        return frozenset(
            frozenset((c, d))
            for k, c in enumerate(self.classes)
            for d in self.decode(self._adj[k])
        )

    def encode(self, subset: Iterable[CycleClass]) -> int:
        return encode(subset, self._index)

    def decode(self, mask: int) -> frozenset[CycleClass]:
        return _decode(mask, self.classes)

    def touch_mask(self, pi: Iterable[str]) -> int:
        mask = 0
        for v in pi:
            mask |= self.node_masks.get(v, 0)
        return mask

    def accessors(self, touch: int) -> tuple[tuple[tuple[int, int], ...], int]:
        """``(w_bit, access)`` for each class w outside ``touch`` that has
        touch-access points (the neighbours of w that some path from ``touch``
        reaches in GoC - w), and the mask of all touch-access points."""
        pairs, points = [], 0
        for k, adj_w in enumerate(self._adj):
            w = 1 << k
            if touch & w:
                continue
            access = adj_w & reach(self._adj, touch, ~w)
            if access:
                pairs.append((w, access))
                points |= access
        return tuple(pairs), points

    def closure_mask(self, subset: int, touch: int) -> int:
        """cl(S) = S | touch | every w outside touch with a touch-access point in S."""
        mask = subset | touch
        for w, access in self.accessors(touch)[0]:
            if access & subset:
                mask |= w
        return mask

    def generating_paths(self, touch: int, points: int):
        """``(node_mask, path)`` for each generating path: the empty path, and
        every simple path of ``points`` that starts in ``touch`` and never
        returns to it; ``path`` holds class indices."""
        yield 0, ()
        stack = [(1 << v, (v,)) for v in bits(touch & points)]
        while stack:
            mask, path = stack.pop()
            yield mask, path
            for k in bits(self._adj[path[-1]] & points & ~touch & ~mask):
                stack.append((mask | 1 << k, path + (k,)))

    def monoid_masks(self, touch: int) -> frozenset[int]:
        """The set monoid for a touch set: union closure of the node sets of
        its generating paths.  Over ``_MAX_GENERATING_PATHS`` paths raise ValidationError."""
        paths = self.generating_paths(touch, self.accessors(touch)[1])
        monoid = _union_closure(mask for mask, _ in islice(paths, _MAX_GENERATING_PATHS))
        if next(paths, None) is not None:
            raise ValidationError(
                f"the set monoid has more than {_MAX_GENERATING_PATHS} generating paths; "
                "it is too large to list"
            )
        return monoid

    def _in_monoid(self, subset: int, touch: int, points: int) -> bool:
        """Whether ``subset`` is in the set monoid of ``touch``, whose access
        points are ``points``: it holds only access points, and each of its
        classes outside ``touch`` is joined to ``subset & touch`` through
        classes of ``subset``."""
        if subset & ~points:
            return False
        return reach(self._adj, subset & touch, subset & ~touch) == subset

    def cone_terms(self, touch: int) -> frozenset[Term]:
        """The distinct ``(w(S), coeffs)`` over the inclusion-minimal members
        S of the set monoid M of ``touch`` for each closure (no S' < S in M has
        cl(S') = cl(S)): w(S) is the Minkowski sum of the weight sets of the
        classes in S, coeffs the weights of the classes in cl(S) in class order.

        The access relation is read once and transposed: f(x), for an access
        point x, is the classes outside ``touch`` that x gives access to, x
        left out.  For S in M, cl(S) = ``touch`` | the union of f over S, as
        each class of S outside ``touch`` is reached from S & ``touch``
        through S, and the class before it on that path gives access to it.

        The search grows the sets one class at a time, level by level from
        the empty set, and keeps a grown set only if it is minimal; by the
        prefix lemma (module docstring) every minimal set is one class larger
        than a minimal set, so no minimal set is missed.  A set t in M is not
        minimal iff some class y of t leaves t - y in M with f(y) inside the
        union of f over t - y (which then holds y too).  So a grown set
        t = s | x carries its closure cl(s) | f(x) and its weight sum
        w(s) + w(x) forward from s.  Over ``_MAX_CONE_TERMS`` kept sets raise
        ValidationError before the next level is grown."""
        if touch not in self._terms:
            pairs, points = self.accessors(touch)
            single = dict.fromkeys(bits(points), 0)
            for w, access in pairs:
                for k in bits(access):
                    single[k] |= w

            def minimal(t: int) -> bool:
                # twice: the classes that two or more members of t put in cl(t)
                once = twice = 0
                for k in bits(t):
                    twice |= once & single[k]
                    once |= single[k]
                return not any(
                    not single[y] & ~twice and self._in_monoid(t ^ 1 << y, touch, points)
                    for y in bits(t)
                )

            # adds[cl]: the points x with f(x) outside cl; t = s | x with x
            # not among them has cl(t) = cl(s) for s = t - x in M, so t is not
            # minimal
            adds: dict[int, int] = {}
            # level: each kept set of the current size, with its closure
            # outside touch and its weight sum
            kept, level = {(0, (0,))}, {0: (0, (0,))}
            while level:
                tried: set[int] = set()
                grown = {}
                for s, (cl, sums) in level.items():
                    if cl not in adds:
                        adds[cl] = sum(1 << k for k, f in single.items() if f & ~cl)
                    near = touch
                    for k in bits(s):
                        near |= self._adj[k]
                    # an extension by a touched point or an adjacent point
                    # stays in M, and an adjacent point is in cl(s) already
                    for x in bits(adds[cl] & near & ~s):
                        t = s | 1 << x
                        if t not in tried:
                            tried.add(t)
                            if minimal(t):
                                sums_t = _minkowski(sums, self.classes[x].weights)
                                grown[t] = cl | single[x], sums_t
                kept.update(grown.values())
                if len(kept) > _MAX_CONE_TERMS:
                    raise ValidationError(
                        f"the cone search keeps more than {_MAX_CONE_TERMS} sets; "
                        "it is too large to search"
                    )
                level = grown
            self._terms[touch] = frozenset(
                (sums, tuple(w for k in bits(cl | touch) for w in self.classes[k].weights))
                for cl, sums in kept
            )
        return self._terms[touch]


def _decode(mask: int, universe: Sequence) -> frozenset:
    return frozenset(universe[k] for k in bits(mask))


def _union_closure(generators: Iterable[int]) -> frozenset[int]:
    """Smallest union-closed family of masks containing the generators and 0."""
    monoid = {0}
    for g in generators:
        if g not in monoid:  # else the union-closed monoid already absorbs g
            monoid |= {m | g for m in monoid}
    return frozenset(monoid)


def _minkowski(a: Iterable[int], b: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted({x + y for x in a for y in b}))


def require_ts_dag(tpl: TsGraphTemplate) -> None:
    """The check that rejects a ts-ADMG, which the summary graph, the engines
    and :func:`~tsproject.ts_projection.simple_marginal_ts_admg` rely on."""
    if tpl.bidirected_t:
        raise ValidationError(
            "summary graph is defined for ts-DAGs; canonicalize bidirected edges first"
        )


def build_mw_summary(tpl: TsGraphTemplate) -> MwSummaryGraph:
    """Summary graph of a time-series DAG: edge (i, j) with weight set = set of
    lags; a ts-ADMG is rejected by :func:`require_ts_dag`."""
    require_ts_dag(tpl)
    edges: dict[tuple[str, str], set[int]] = {}
    for src, lag, dst in tpl.directed_t:
        edges.setdefault((src, dst), set()).add(lag)
    return MwSummaryGraph(
        nodes=tpl.variables,
        edges={e: tuple(sorted(w)) for e, w in edges.items()},
    )


def enumerate_cycle_classes(s: MwSummaryGraph) -> frozenset[CycleClass]:
    """One :class:`CycleClass` per rotation-equivalence class of irreducible cycles.

    Each simple cycle is found once, as a simple path from its earliest node
    in ``s.nodes`` order over later nodes whose last node has an edge back to
    the start; a self-loop is a cycle of one node.
    """
    classes = set()
    for n, start in enumerate(s.nodes):
        later = s.nodes[n + 1 :]
        for path in s.simple_paths[start]:
            if start in s.successors[path[-1]] and all(v in later for v in path[1:]):
                pivot = path.index(min(path))
                rep = path[pivot:] + path[:pivot]
                classes.add(CycleClass(rep, path_weightset(s, rep + rep[:1])))
    return frozenset(classes)


def build_graph_of_cycles(classes: Iterable[CycleClass]) -> GraphOfCycles:
    return GraphOfCycles(classes)


def cycle_free_paths(s: MwSummaryGraph, k: str, i: str) -> frozenset[Path]:
    """All cycle-free directed paths from k to i; exactly the trivial walk if k == i."""
    if k not in s.nodes or i not in s.nodes:
        raise ValidationError(f"unknown node in path query ({k}, {i})")
    return frozenset(pi for pi in s.simple_paths[k] if pi[-1] == i)


def path_weightset(s: MwSummaryGraph, pi: Sequence[str]) -> tuple[int, ...]:
    """Minkowski sum of the edge weight sets along ``pi``; {0} for trivial walks."""
    weights: tuple[int, ...] = (0,)
    for a, b in zip(pi, pi[1:]):
        if (a, b) not in s.edges:
            raise ValidationError(f"path uses missing edge ({a}, {b})")
        weights = _minkowski(weights, s.edges[(a, b)])
    return weights


def access_points(goc: GraphOfCycles, s: Iterable[CycleClass]) -> frozenset[CycleClass]:
    """All S-access points: v such that some path from S has v as the
    second-to-last node and ends at a node outside S."""
    return goc.decode(goc.accessors(goc.encode(s))[1])


def generating_set(
    goc: GraphOfCycles,
    touch: frozenset[CycleClass],
    points: frozenset[CycleClass],
) -> frozenset[tuple[CycleClass, ...]]:
    """Generating paths: the empty path plus every path of access points that
    starts in the touch set and never returns to it."""
    paths = goc.generating_paths(goc.encode(touch), goc.encode(points))
    return frozenset(tuple(goc.classes[k] for k in path) for _, path in paths)


def monoid_from_generating_set(
    node_sets: Iterable[frozenset[CycleClass]],
) -> frozenset[frozenset[CycleClass]]:
    """Smallest union-closed family containing the generators and the empty set."""
    node_sets = list(node_sets)
    universe = tuple(dict.fromkeys(x for n in node_sets for x in n))
    index = {x: k for k, x in enumerate(universe)}
    monoid = _union_closure(encode(n, index) for n in node_sets)
    return frozenset(_decode(m, universe) for m in monoid)


def get_monoid(
    pi: Sequence[str],
    classes: Iterable[CycleClass],
    goc: GraphOfCycles,
) -> frozenset[frozenset[CycleClass]]:
    """The set monoid M_pi: union closure of the node sets of the generating paths."""
    touch = goc.encode(c for c in classes if c.node_set & set(pi))
    return frozenset(goc.decode(m) for m in goc.monoid_masks(touch))


def closure(
    s: Iterable[CycleClass],
    touch: frozenset[CycleClass],
    goc: GraphOfCycles,
) -> frozenset[CycleClass]:
    """cl(S) = S, plus the touch set, plus every class outside the touch set for
    which S contains a touch-access point.  cl(empty) is the touch set."""
    return goc.decode(goc.closure_mask(goc.encode(s), goc.encode(touch)))


@dataclass(frozen=True, order=True)
class ConeTuple:
    """Tuple (a0; a1, ..., a_mu) indexing the affine cone
    {a0 + sum n_alpha * a_alpha : n_alpha >= 0}."""

    a0: int
    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.a0 < 0 or any(c < 1 for c in self.coeffs):
            raise ValidationError(f"malformed cone tuple ({self.a0}; {self.coeffs})")


def cone_set(
    weights: Sequence[int], terms: Iterable[Term]
) -> frozenset[tuple[int, tuple[int, ...]]]:
    """The distinct ``(a0, coeffs)`` of the cones of a path pi with weight set
    ``weights``, one cone term ``(w(S), coeffs)`` of
    :meth:`GraphOfCycles.cone_terms` at a time: a0 ranges over w(pi) + w(S)."""
    return frozenset((a0, coeffs) for sums, coeffs in terms for a0 in _minkowski(weights, sums))


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
    subset = goc.encode(subset)
    touch = goc.encode(c for c in classes if c.node_set & set(pi))
    weights = (goc.classes[k].weights for k in bits(subset))
    heads = reduce(_minkowski, weights, path_weightset(s, pi))
    cl = goc.closure_mask(subset, touch)
    coeffs = tuple(w for k in bits(cl) for w in goc.classes[k].weights)
    return frozenset(ConeTuple(a0 + tau, coeffs) for a0 in heads)

"""Projections and separation queries on finite mixed graphs.

Implements the ADMG latent projection, the canonical-DAG construction,
m-separation, inducing paths, and the DMAG latent projection.  m-separation
and inducing paths are decided by reachability over (vertex, entered-with-
arrowhead) states, which is equivalent to the path-based definitions and
polynomial, instead of path enumeration.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .graph_model import FiniteMixedGraph, TsVertex, ValidationError, _canonical_pair


def _parent_map(g: FiniteMixedGraph) -> dict[TsVertex, set[TsVertex]]:
    parents: dict[TsVertex, set[TsVertex]] = {v: set() for v in g.vertices}
    for u, v in g.directed:
        parents[v].add(u)
    return parents


def _child_map(g: FiniteMixedGraph) -> dict[TsVertex, set[TsVertex]]:
    children: dict[TsVertex, set[TsVertex]] = {v: set() for v in g.vertices}
    for u, v in g.directed:
        children[u].add(v)
    return children


def ancestors(g: FiniteMixedGraph, seeds: Iterable[TsVertex]) -> frozenset[TsVertex]:
    """Reflexive-transitive closure under parent edges (every vertex is its own ancestor)."""
    seeds = set(seeds)
    if not seeds <= g.vertices:
        raise ValidationError(f"unknown vertices in seed set: {seeds - g.vertices}")
    parents = _parent_map(g)
    result = set(seeds)
    frontier = deque(seeds)
    while frontier:
        v = frontier.popleft()
        for u in parents[v]:
            if u not in result:
                result.add(u)
                frontier.append(u)
    return frozenset(result)


def _reach_through(
    adjacency: dict[TsVertex, set[TsVertex]],
    start: TsVertex,
    passthrough: frozenset[TsVertex],
) -> set[TsVertex]:
    """Vertices reachable from ``start`` along ``adjacency`` edges whose
    intermediate vertices all lie in ``passthrough``."""
    reached: set[TsVertex] = set()
    frontier = deque([start])
    expanded = {start}
    while frontier:
        v = frontier.popleft()
        for w in adjacency[v]:
            if w not in reached:
                reached.add(w)
                if w in passthrough and w not in expanded:
                    expanded.add(w)
                    frontier.append(w)
    return reached


def admg_latent_project(
    g: FiniteMixedGraph, observed: Iterable[TsVertex]
) -> FiniteMixedGraph:
    """ADMG latent projection onto ``observed``.

    The projection has a directed edge i -> j iff g has a directed path from
    i to j whose middle vertices are all latent, and a bidirected edge
    i <-> j iff g has a collider-free path into both i and j whose middle
    vertices are all latent.  Such a confounding path contains at most one
    bidirected edge, so it is either i <- ... <- x -> ... -> j with a latent
    common cause x, or i <- ... <- x <-> y -> ... -> j.
    """
    observed = frozenset(observed)
    if not observed <= g.vertices:
        raise ValidationError("observed set is not a subset of the vertices")
    latents = g.vertices - observed
    children = _child_map(g)
    parents = _parent_map(g)

    directed = set()
    # anc_l[i]: i itself plus all latent x with a directed path x -> ... -> i
    # through latent intermediates; these are the admissible "source" vertices
    # of a confounding path ending at i.
    anc_l: dict[TsVertex, frozenset[TsVertex]] = {}
    for i in observed:
        down = _reach_through(children, i, latents)
        directed.update((i, j) for j in down & observed if j != i)
        up = _reach_through(parents, i, latents)
        anc_l[i] = frozenset({i} | (up & latents))

    bid_edges = sorted(g.bidirected)
    # For each observed vertex, the bidirected edges whose first/second
    # endpoint is an admissible source for it.
    first_hits = {i: {n for n, (x, _) in enumerate(bid_edges) if x in anc_l[i]} for i in observed}
    second_hits = {i: {n for n, (_, y) in enumerate(bid_edges) if y in anc_l[i]} for i in observed}

    bidirected = set()
    obs_sorted = sorted(observed)
    for a, i in enumerate(obs_sorted):
        for j in obs_sorted[a + 1 :]:
            if (anc_l[i] & anc_l[j]) - {i, j}:
                bidirected.add(_canonical_pair(i, j))
            elif (first_hits[i] & second_hits[j]) or (first_hits[j] & second_hits[i]):
                bidirected.add(_canonical_pair(i, j))

    return FiniteMixedGraph(
        vertices=observed,
        directed=frozenset(directed),
        bidirected=frozenset(bidirected),
        var_order=g.var_order,
    )


def canonical_dag(g: FiniteMixedGraph) -> FiniteMixedGraph:
    """Replace every bidirected edge i <-> j with i <- l_ij -> j, l_ij a fresh latent."""
    new_vertices = set(g.vertices)
    new_directed = set(g.directed)
    new_latent = set(g.latent)
    for u, v in sorted(g.bidirected):
        l = TsVertex(f"l({u.var}[{u.offset}],{v.var}[{v.offset}])", 0)
        if l in new_vertices:
            raise ValidationError(f"latent name collision at {l}")
        new_vertices.add(l)
        new_latent.add(l)
        new_directed.add((l, u))
        new_directed.add((l, v))
    var_order = g.var_order + tuple(
        sorted({v.var for v in new_vertices} - set(g.var_order))
    )
    return FiniteMixedGraph(
        vertices=frozenset(new_vertices),
        directed=frozenset(new_directed),
        latent=frozenset(new_latent),
        var_order=var_order,
    )


def _incidence(g: FiniteMixedGraph) -> dict[TsVertex, list[tuple[TsVertex, bool, bool]]]:
    """Traversable half-edges: (neighbor, arrowhead at this vertex, arrowhead at neighbor)."""
    inc: dict[TsVertex, list[tuple[TsVertex, bool, bool]]] = {v: [] for v in g.vertices}
    for u, v in g.directed:
        inc[u].append((v, False, True))
        inc[v].append((u, True, False))
    for u, v in g.bidirected:
        inc[u].append((v, True, True))
        inc[v].append((u, True, True))
    return inc


def _walk_reachable(
    inc: dict[TsVertex, list[tuple[TsVertex, bool, bool]]],
    sources: frozenset[TsVertex],
    targets: frozenset[TsVertex],
    collider_open: frozenset[TsVertex],
    noncollider_open: frozenset[TsVertex],
) -> bool:
    """Shared reachability core for m-connection and inducing paths.

    A walk may continue through a middle vertex v iff v is a collider on the
    walk and v is in ``collider_open``, or v is a non-collider and v is in
    ``noncollider_open``.  Returns whether some target is reachable from some
    source along such a walk in the graph whose ``_incidence`` map is ``inc``.
    """
    queue: deque[tuple[TsVertex, bool]] = deque()
    seen: set[tuple[TsVertex, bool]] = set()
    for x in sources:
        for w, _, head_at_w in inc[x]:
            state = (w, head_at_w)
            if state not in seen:
                seen.add(state)
                queue.append(state)
    while queue:
        v, head_in = queue.popleft()
        if v in targets:
            return True
        for w, head_out, head_at_w in inc[v]:
            collider = head_in and head_out
            if collider:
                if v not in collider_open:
                    continue
            elif v not in noncollider_open:
                continue
            state = (w, head_at_w)
            if state not in seen:
                seen.add(state)
                queue.append(state)
    return False


def m_separated(
    g: FiniteMixedGraph,
    x: Iterable[TsVertex],
    y: Iterable[TsVertex],
    z: Iterable[TsVertex],
) -> bool:
    """Whether X and Y are m-separated given Z.

    A path is m-connecting given Z iff all its non-colliders are outside Z
    and all its colliders are ancestors of Z.
    """
    x, y, z = frozenset(x), frozenset(y), frozenset(z)
    for name, s in (("X", x), ("Y", y), ("Z", z)):
        if not s <= g.vertices:
            raise ValidationError(f"{name} is not a subset of the vertices")
    if x & y or x & z or y & z:
        raise ValidationError("X, Y, Z must be pairwise disjoint")
    an_z = ancestors(g, z)
    return not _walk_reachable(
        _incidence(g),
        sources=x,
        targets=y,
        collider_open=an_z,
        noncollider_open=g.vertices - z,
    )


def has_inducing_path(
    g: FiniteMixedGraph,
    i: TsVertex,
    j: TsVertex,
    latents: Iterable[TsVertex],
) -> bool:
    """Whether there is a path from i to j on which every middle vertex outside
    ``latents`` is a collider and every collider is an ancestor of i or j."""
    latents = frozenset(latents)
    if i == j:
        raise ValidationError("inducing-path query requires distinct endpoints")
    if not latents <= g.vertices - {i, j}:
        raise ValidationError("latents must be a subset of the vertices minus the endpoints")
    an_ij = ancestors(g, {i, j})
    return _walk_reachable(
        _incidence(g),
        sources=frozenset({i}),
        targets=frozenset({j}),
        collider_open=an_ij,
        noncollider_open=latents,
    )


def dmag_project(dag: FiniteMixedGraph, observed: Iterable[TsVertex]) -> FiniteMixedGraph:
    """DMAG latent projection of a DAG with latent marks.

    Two observed vertices are adjacent iff no subset of the remaining observed
    vertices m-separates them; this is decided via the inducing-path criterion
    (verified against literal subset enumeration in the test suite).  An
    adjacency i - j becomes i -> j if i is an ancestor of j, j -> i if j is an
    ancestor of i, and i <-> j otherwise.
    """
    observed = frozenset(observed)
    if dag.bidirected:
        raise ValidationError("dmag_project expects a DAG (no bidirected edges)")
    if observed != dag.vertices - dag.latent:
        raise ValidationError("observed must equal the non-latent vertices")
    latents = dag.latent
    inc = _incidence(dag)
    anc: dict[TsVertex, frozenset[TsVertex]] = {
        v: ancestors(dag, {v}) for v in observed
    }
    directed = set()
    bidirected = set()
    obs_sorted = sorted(observed)
    for a, i in enumerate(obs_sorted):
        for j in obs_sorted[a + 1 :]:
            # has_inducing_path(dag, i, j, latents) on the shared incidence map
            inducing = _walk_reachable(
                inc, frozenset({i}), frozenset({j}), anc[i] | anc[j], latents
            )
            if not inducing:
                continue
            if i in anc[j]:
                directed.add((i, j))
            elif j in anc[i]:
                directed.add((j, i))
            else:
                bidirected.add(_canonical_pair(i, j))
    return FiniteMixedGraph(
        vertices=observed,
        directed=frozenset(directed),
        bidirected=frozenset(bidirected),
        var_order=dag.var_order,
    )

"""Projections and separation queries on finite mixed graphs.

Implements the ADMG latent projection, the canonical-DAG construction,
m-separation, inducing paths, and the DMAG latent projection.

The projections and separation queries number the vertices once per call, in
sorted order, and carry vertex sets as int masks (bit n stands for the n-th
vertex), with one parent, child and sibling mask per vertex.  m-separation
and inducing paths are decided by reachability over (vertex, entered-with-
arrowhead) states, run on one frontier mask per arrowhead mark; this is
equivalent to the path-based definitions and polynomial, instead of path
enumeration.  :func:`ancestors` stays on vertex sets: it runs on unrolled
windows of thousands of steps, where one n-bit mask per vertex would take
quadratic memory.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from .graph_model import FiniteMixedGraph, TsVertex, ValidationError


def ancestors(g: FiniteMixedGraph, seeds: Iterable[TsVertex]) -> frozenset[TsVertex]:
    """Reflexive-transitive closure under parent edges (every vertex is its own ancestor)."""
    seeds = set(seeds)
    if not seeds <= g.vertices:
        raise ValidationError(f"unknown vertices in seed set: {seeds - g.vertices}")
    parents: dict[TsVertex, list[TsVertex]] = {}
    for u, v in g.directed:
        parents.setdefault(v, []).append(u)
    result = set(seeds)
    frontier = deque(seeds)
    while frontier:
        v = frontier.popleft()
        for u in parents.get(v, ()):
            if u not in result:
                result.add(u)
                frontier.append(u)
    return frozenset(result)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Index:
    """The vertices of a finite graph numbered in sorted order, with one
    parent, child and sibling (bidirected neighbour) mask per vertex."""

    def __init__(self, g: FiniteMixedGraph):
        self.vertices = sorted(g.vertices, key=lambda v: (v.var, v.offset))
        self.pos = {v: n for n, v in enumerate(self.vertices)}
        n = len(self.vertices)
        self.parents = [0] * n
        self.children = [0] * n
        self.siblings = [0] * n
        pos = self.pos
        for u, v in g.directed:
            self.parents[pos[v]] |= 1 << pos[u]
            self.children[pos[u]] |= 1 << pos[v]
        for u, v in g.bidirected:
            self.siblings[pos[u]] |= 1 << pos[v]
            self.siblings[pos[v]] |= 1 << pos[u]

    def mask(self, vertices: Iterable[TsVertex]) -> int:
        pos = self.pos
        m = 0
        for v in vertices:
            m |= 1 << pos[v]
        return m

    def ancestor_masks(self) -> list[int]:
        """Per vertex, the mask of its ancestors (itself included), filled in
        one Kahn topological order."""
        n = len(self.vertices)
        indegree = [self.parents[k].bit_count() for k in range(n)]
        ready = [k for k in range(n) if not indegree[k]]
        anc = [1 << k for k in range(n)]
        while ready:
            k = ready.pop()
            for c in _bits(self.children[k]):
                anc[c] |= anc[k]
                indegree[c] -= 1
                if not indegree[c]:
                    ready.append(c)
        return anc


def _reach_through(adjacency: list[int], start: int, passthrough: int) -> int:
    """Mask of the vertices reachable from vertex ``start`` along
    ``adjacency`` edges whose intermediate vertices all lie in ``passthrough``."""
    reached = adjacency[start]
    frontier = reached & passthrough
    while frontier:
        step = 0
        for k in _bits(frontier):
            step |= adjacency[k]
        frontier = step & ~reached
        reached |= frontier
        frontier &= passthrough
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
    index = _Index(g)
    verts = index.vertices
    obs_mask = index.mask(observed)
    latents = ((1 << len(verts)) - 1) & ~obs_mask

    directed = set()
    # src[i]: i itself plus every latent x with a directed path x -> ... -> i
    # through latent intermediates, the admissible sources of a confounding
    # path ending at i; sib[i]: every vertex with a bidirected edge to one of
    # them.
    src: dict[int, int] = {}
    sib: dict[int, int] = {}
    obs = list(_bits(obs_mask))
    for i in obs:
        down = _reach_through(index.children, i, latents) & obs_mask
        directed.update((verts[i], verts[j]) for j in _bits(down))
        src[i] = (1 << i) | (_reach_through(index.parents, i, latents) & latents)
        s = 0
        for x in _bits(src[i]):
            s |= index.siblings[x]
        sib[i] = s

    bidirected = set()
    for a, i in enumerate(obs):
        for j in obs[a + 1 :]:
            if src[i] & src[j] & ~((1 << i) | (1 << j)) or sib[i] & src[j]:
                bidirected.add((verts[i], verts[j]))

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


def _walk_reachable(
    index: _Index, sources: int, targets: int, collider_open: int, noncollider_open: int
) -> bool:
    """Shared reachability core for m-connection and inducing paths; every
    vertex set is a mask over ``index``.

    A walk may continue through a middle vertex v iff v is a collider on the
    walk and v is in ``collider_open``, or v is a non-collider and v is in
    ``noncollider_open``.  Returns whether some target is reachable from some
    source along such a walk.

    The walk states are (vertex, entered with an arrowhead); ``heads`` and
    ``tails`` hold the vertices reached with and without one.  A step from v
    to a child is never a collider step, a step to a parent or a sibling is
    one iff v was entered with an arrowhead; steps to children and siblings
    arrive with an arrowhead, steps to parents without.
    """
    parents, children, siblings = index.parents, index.children, index.siblings
    new_heads = new_tails = 0
    for x in _bits(sources):
        new_heads |= children[x] | siblings[x]
        new_tails |= parents[x]
    heads = tails = 0
    while new_heads or new_tails:
        if (new_heads | new_tails) & targets:
            return True
        heads |= new_heads
        tails |= new_tails
        step_heads = step_tails = 0
        for v in _bits(new_tails & noncollider_open):
            step_heads |= children[v] | siblings[v]
            step_tails |= parents[v]
        for v in _bits(new_heads & noncollider_open):
            step_heads |= children[v]
        for v in _bits(new_heads & collider_open):
            step_heads |= siblings[v]
            step_tails |= parents[v]
        new_heads = step_heads & ~heads
        new_tails = step_tails & ~tails
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
    index = _Index(g)
    return not _walk_reachable(
        index,
        sources=index.mask(x),
        targets=index.mask(y),
        collider_open=index.mask(ancestors(g, z)),
        noncollider_open=index.mask(g.vertices - z),
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
    index = _Index(g)
    return _walk_reachable(
        index,
        sources=index.mask({i}),
        targets=index.mask({j}),
        collider_open=index.mask(ancestors(g, {i, j})),
        noncollider_open=index.mask(latents),
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
    index = _Index(dag)
    verts = index.vertices
    anc = index.ancestor_masks()
    latents = index.mask(dag.latent)
    obs = list(_bits(index.mask(observed)))
    directed = set()
    bidirected = set()
    for a, i in enumerate(obs):
        for j in obs[a + 1 :]:
            # has_inducing_path(dag, verts[i], verts[j], dag.latent) on the shared index
            if not _walk_reachable(index, 1 << i, 1 << j, anc[i] | anc[j], latents):
                continue
            if anc[j] >> i & 1:
                directed.add((verts[i], verts[j]))
            elif anc[i] >> j & 1:
                directed.add((verts[j], verts[i]))
            else:
                bidirected.add((verts[i], verts[j]))
    return FiniteMixedGraph(
        vertices=observed,
        directed=frozenset(directed),
        bidirected=frozenset(bidirected),
        var_order=dag.var_order,
    )

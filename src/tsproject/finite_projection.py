"""Projections and separation queries on finite mixed graphs.

Implements the ADMG latent projection, the canonical-DAG construction,
m-separation, inducing paths, and the DMAG latent projection of an ADMG.

The projections and separation queries work on :class:`_Index`, a graph as
int masks: the vertices numbered in sorted order (bit n stands for the n-th
vertex), with one parent, child and sibling mask per vertex.  The latent
projection and the DMAG are kernels from one index to the next
(:func:`_latent_project`, :func:`_dmag`), so a pipeline of them, here or in
:mod:`tsproject.ts_projection`, builds one :class:`FiniteMixedGraph` and
runs its checks once, at the end.  Plain reachability, such as the ancestors
of Z, is :func:`graph_model.reach` on the parent or child masks.

m-separation (:func:`m_separated`) and inducing paths
(:func:`has_inducing_path`) are decided by one two-mark walk: reachability
over (vertex, entered-with-arrowhead) states, run on one frontier mask per
arrowhead mark; this is equivalent to the path-based definitions and
polynomial, instead of path enumeration.

The DMAG runs no walk per pair.  It works on the ADMG latent projection,
which keeps m-separation and ancestry among the observed vertices, and uses
the MAG adjacency criterion of Richardson & Spirtes, "Ancestral graph Markov
models" (Ann. Statist. 2002): i and j are adjacent iff they are adjacent in
the ADMG or it has a collider path i *-> c1 <-> ... <-> ck <-* j whose
colliders all lie in An({i, j}).  The colliders reachable from i by sibling
steps name the candidate j's, and one masked reachability per candidate
checks the ancestor condition.

An index takes memory quadratic in its vertex count, one n-bit mask per
vertex, so :mod:`tsproject.ts_projection` bounds the window it builds.
:func:`ancestors` stays on vertex sets, as does
:func:`graph_model.unroll_window`: the oracles unroll windows of thousands of
steps.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable

from .graph_model import FiniteMixedGraph, TsVertex, ValidationError, bits, encode, reach


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


class _Index:
    """A finite mixed graph as int masks: its vertices in sorted order, bit n
    standing for ``vertices[n]``, with one parent and one sibling
    (bidirected neighbour) mask per vertex, the child masks derived from the
    parents on first use, and the ``var_order`` of :meth:`graph`."""

    def __init__(self, vertices: list[TsVertex], parents: list[int], siblings: list[int],
                 var_order: tuple[str, ...]):
        self.vertices = vertices
        self.parents = parents
        self.siblings = siblings
        self.var_order = var_order

    @classmethod
    def of(cls, g: FiniteMixedGraph) -> _Index:
        vertices = sorted(g.vertices)
        pos = {v: n for n, v in enumerate(vertices)}
        parents = [0] * len(vertices)
        siblings = [0] * len(vertices)
        for u, v in g.directed:
            parents[pos[v]] |= 1 << pos[u]
        for u, v in g.bidirected:
            siblings[pos[u]] |= 1 << pos[v]
            siblings[pos[v]] |= 1 << pos[u]
        return cls(vertices, parents, siblings, g.var_order)

    @cached_property
    def children(self) -> list[int]:
        children = [0] * len(self.vertices)
        for v, mask in enumerate(self.parents):
            for u in bits(mask):
                children[u] |= 1 << v
        return children

    def mask(self, vertices: Iterable[TsVertex]) -> int:
        return encode(vertices, {v: n for n, v in enumerate(self.vertices)})

    def graph(self) -> FiniteMixedGraph:
        """The graph of these masks; its constructor runs every check on it."""
        vs = self.vertices
        directed = [(vs[u], vs[v]) for v, mask in enumerate(self.parents) for u in bits(mask)]
        bidirected = [
            (vs[u], vs[v]) for u, mask in enumerate(self.siblings) for v in bits(mask & -(2 << u))
        ]
        return FiniteMixedGraph(
            frozenset(vs), frozenset(directed), frozenset(bidirected), var_order=self.var_order
        )


def _latent_project(index: _Index, keep: int) -> _Index:
    """The ADMG latent projection of ``index`` onto the vertices of the mask
    ``keep``, numbered in the same order (see :func:`admg_latent_project`)."""
    n = len(index.vertices)
    if keep == (1 << n) - 1:  # nothing is latent
        return index
    parents, siblings = index.parents, index.siblings
    latents = ((1 << n) - 1) & ~keep
    obs = list(bits(keep))
    rank = dict(zip(obs, range(len(obs))))

    def renumber(mask: int) -> int:
        out = 0
        for x in bits(mask):
            out |= 1 << rank[x]
        return out

    # src: per observed i, i itself plus every latent x with a directed path
    # x -> ... -> i through latent intermediates; i's parents in the
    # projection are the observed parents of src.  sib: every vertex with a
    # bidirected edge to a member of src; sinks[x]: every observed i with x
    # in its src.
    src, up, sib = [], [], []
    sinks = [0] * n
    for i in obs:
        source = reach(parents, 1 << i, latents)
        p = b = 0
        for x in bits(source):
            p |= parents[x]
            b |= siblings[x]
            sinks[x] |= 1 << i
        src.append(source)
        up.append(renumber(p & keep))
        sib.append(b)
    # i <-> j iff src[j] meets src[i] - i (a latent common source) or sib[i];
    # the relation is symmetric, so each side finds the other
    side = []
    for r, i in enumerate(obs):
        partners = 0
        for x in bits((src[r] & ~(1 << i)) | sib[r]):
            partners |= sinks[x]
        side.append(renumber(partners & ~(1 << i)))
    return _Index([index.vertices[i] for i in obs], up, side, index.var_order)


def _dmag(index: _Index) -> _Index:
    """The DMAG of the ADMG ``index`` over all its vertices (see
    :func:`dmag_project`)."""
    parents, children, siblings = index.parents, index.children, index.siblings
    n = len(index.vertices)
    anc = [reach(parents, 1 << k, -1) for k in range(n)]
    mag_parents = [0] * n
    mag_siblings = [0] * n
    for i in range(n):
        into_i = children[i] | siblings[i]
        adjacent = parents[i] | into_i
        # every possible collider of a collider path from i, before the
        # ancestor condition; a j that is not adjacent needs an edge into one
        candidates = adjacent
        for c in bits(reach(siblings, into_i, ~(1 << i))):
            candidates |= parents[c] | siblings[c]
        for j in bits(candidates & -(2 << i)):
            if not adjacent >> j & 1:
                inner = (anc[i] | anc[j]) & ~((1 << i) | (1 << j))
                if not reach(siblings, into_i & inner, inner) & (children[j] | siblings[j]):
                    continue
            if anc[j] >> i & 1:
                mag_parents[j] |= 1 << i
            elif anc[i] >> j & 1:
                mag_parents[i] |= 1 << j
            else:
                mag_siblings[i] |= 1 << j
                mag_siblings[j] |= 1 << i
    return _Index(index.vertices, mag_parents, mag_siblings, index.var_order)


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
    index = _Index.of(g)
    return _latent_project(index, index.mask(observed)).graph()


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
    for x in bits(sources):
        new_heads |= children[x] | siblings[x]
        new_tails |= parents[x]
    heads = tails = 0
    while new_heads or new_tails:
        if (new_heads | new_tails) & targets:
            return True
        heads |= new_heads
        tails |= new_tails
        step_heads = step_tails = 0
        for v in bits(new_tails & noncollider_open):
            step_heads |= children[v] | siblings[v]
            step_tails |= parents[v]
        for v in bits(new_heads & noncollider_open):
            step_heads |= children[v]
        for v in bits(new_heads & collider_open):
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
    index = _Index.of(g)
    return not _walk_reachable(
        index,
        sources=index.mask(x),
        targets=index.mask(y),
        collider_open=reach(index.parents, index.mask(z), -1),
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
    index = _Index.of(g)
    return _walk_reachable(
        index,
        sources=index.mask({i}),
        targets=index.mask({j}),
        collider_open=reach(index.parents, index.mask({i, j}), -1),
        noncollider_open=index.mask(latents),
    )


def dmag_project(g: FiniteMixedGraph, observed: Iterable[TsVertex]) -> FiniteMixedGraph:
    """DMAG latent projection of an ADMG (a DAG included) with latent marks.

    Two observed vertices are adjacent iff no subset of the remaining observed
    vertices m-separates them; this is decided by the collider-path criterion
    on the ADMG latent projection (see the module docstring; verified against
    literal subset enumeration and the per-pair inducing-path definition in
    the test suite).  An adjacency i - j becomes i -> j if i is an ancestor
    of j, j -> i if j is an ancestor of i, and i <-> j otherwise.
    """
    observed = frozenset(observed)
    if observed != g.vertices - g.latent:
        raise ValidationError("observed must equal the non-latent vertices")
    index = _Index.of(g)
    return _dmag(_latent_project(index, index.mask(observed))).graph()

"""Projections and separation queries on finite mixed graphs.

Implements the ADMG latent projection, the canonical-DAG construction,
m-separation, inducing paths, and the DMAG latent projection of an ADMG.

The projections and separation queries work on :class:`_Index`, a graph as
int masks: the vertices numbered (bit n stands for the n-th vertex), with
one parent, child and sibling mask per vertex and one topological order,
parents first, from Kahn's algorithm on the masks.  The latent projection
and the DMAG are kernels from one index to the next (:func:`_latent_project`,
:func:`_dmag`) that keep the relative order, so a pipeline of them, here or
in :mod:`tsproject.ts_projection`, builds one :class:`FiniteMixedGraph` and
runs its checks once, at the end, or writes its JSON straight from the masks
(:meth:`_Index.to_json`) when the vertices are numbered in serialization
order.  The topological order replaces a search per vertex: the latent
projection is one sweep down it and one up it, and the DMAG's ancestor masks
are one pass along it.  Plain reachability, such as the ancestors of Z, is
:func:`graph_model.reach` on the parent or child masks.

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
vertex, so it holds at most ``_MAX_INDEX_VERTICES`` vertices: a graph over
the limit is refused before any mask is built, and
:mod:`tsproject.ts_projection` bounds the window it builds by the same
constant.
:func:`ancestors` stays on vertex sets, as does
:func:`graph_model.unroll_window`: the oracles unroll windows of thousands of
steps.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable

from .graph_model import (
    FiniteMixedGraph,
    TsVertex,
    ValidationError,
    _check_vertices,
    _json_document,
    bits,
    encode,
    reach,
)

_MAX_INDEX_VERTICES = 10**5  # one mask of that many bits per vertex; over 1 GB at the limit


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
    """A finite mixed graph as int masks: its vertices in some order, bit n
    standing for ``vertices[n]``, with one parent and one sibling
    (bidirected neighbour) mask per vertex, the child masks and a
    topological order derived from the parents on first use, and the
    ``var_order`` of :meth:`graph`."""

    def __init__(self, vertices: list[TsVertex], parents: list[int], siblings: list[int],
                 var_order: tuple[str, ...]):
        self.vertices = vertices
        self.parents = parents
        self.siblings = siblings
        self.var_order = var_order

    @classmethod
    def of(cls, g: FiniteMixedGraph) -> _Index:
        """The masks of ``g``, its vertices numbered in sorted order."""
        if len(g.vertices) > _MAX_INDEX_VERTICES:
            raise ValidationError(
                f"{len(g.vertices)} vertices exceed the limit of {_MAX_INDEX_VERTICES}"
            )
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

    @cached_property
    def order(self) -> list[int]:
        """The vertex numbers with every parent before its children (Kahn's
        algorithm on the masks); a directed cycle raises ``ValidationError``."""
        children = self.children
        indegree = [mask.bit_count() for mask in self.parents]
        order = [v for v, d in enumerate(indegree) if not d]
        for u in order:  # the list grows as it is read
            for v in bits(children[u]):
                indegree[v] -= 1
                if not indegree[v]:
                    order.append(v)
        if len(order) < len(indegree):
            raise ValidationError("directed part is cyclic")
        return order

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

    def to_json(self) -> str:
        """The bytes of ``self.graph().to_json()``, written from the masks.

        The checks of the graph's constructor run on the masks first, in its
        order: every vertex a :class:`TsVertex` with a str name and an int
        offset >= 0 (no bool); no self edge and no edge to a bit past the
        vertices; an acyclic directed part (:attr:`order`).  The vertices
        must then be numbered in serialization order, by ``var_order`` and
        offset, which is checked and not assumed, so that each mask's bits,
        lowest first, are the edges in output order: no sort runs."""
        vs, n = self.vertices, len(self.vertices)
        _check_vertices(vs)
        ends = 0
        for k, (p, s) in enumerate(zip(self.parents, self.siblings)):
            mask = p | s
            if mask >> k & 1:
                raise ValidationError(f"self edge at {vs[k].var}:{vs[k].offset}")
            ends |= mask
        if ends < 0 or ends >> n:
            raise ValidationError(f"an edge endpoint is not one of the {n} vertices")
        self.order  # raises on a directed cycle
        position: dict[str, int] = {}
        for k, var in enumerate(self.var_order):
            position.setdefault(var, k)
        keys = []
        for v in vs:
            if v.var not in position:
                raise ValidationError(f"vertex variable {v.var!r} missing from var_order")
            keys.append((position[v.var], v.offset))
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValidationError("the vertices are not numbered in serialization order")
        children, siblings = self.children, self.siblings
        return _json_document(
            vs,
            ((u, v) for u in range(n) for v in bits(children[u])),
            (
                (u, v) if vs[u] <= vs[v] else (v, u)  # as the graph stores it
                for u in range(n)
                for v in bits(siblings[u] & -(2 << u))
            ),
            (),
        )


def _latent_project(index: _Index, keep: int) -> _Index:
    """The ADMG latent projection of ``index`` onto the vertices of the mask
    ``keep``, numbered in the same order (see :func:`admg_latent_project`).

    Two sweeps over the topological order replace a search per observed
    vertex.  Backward, children first: ``sink[v]`` is v itself when v is
    observed, else the OR of its children's; so it holds every observed i
    that v reaches by a directed path with latent middle vertices (v lies in
    the sources of i).  Forward, parents first, from each latent parent u of
    v: ``up[v] = parents[v] | up[u]`` (v's parents through latent chains),
    ``common[v] |= sink[u] | common[u]`` (every i that shares a latent
    source with v) and ``bridged[v] = OR(sink[x] for siblings x) |
    bridged[u]`` (every i with a source joined by a bidirected edge to a
    source of v).  An observed i then has the parents ``up[i] & keep`` and
    the siblings ``(common[i] | bridged[i]) & ~bit i``."""
    n = len(index.vertices)
    if keep == (1 << n) - 1:  # nothing is latent
        return index
    parents, children, siblings, order = index.parents, index.children, index.siblings, index.order
    latents = ((1 << n) - 1) & ~keep
    sink = [0] * n
    for v in reversed(order):
        if keep >> v & 1:
            sink[v] = 1 << v
        else:
            s = 0
            for c in bits(children[v]):
                s |= sink[c]
            sink[v] = s
    up, common, bridged = list(parents), [0] * n, [0] * n
    for v in order:
        b = 0
        for x in bits(siblings[v]):
            b |= sink[x]
        p, c = up[v], 0
        for u in bits(parents[v] & latents):
            p |= up[u]
            c |= sink[u] | common[u]
            b |= bridged[u]
        up[v], common[v], bridged[v] = p, c, b
    # keep's runs of consecutive bits as (lowest bit, run mask, new lowest bit)
    runs, rest, width = [], keep, 0
    while rest:
        low = (rest & -rest).bit_length() - 1
        above = rest >> low
        length = (~above & (above + 1)).bit_length() - 1
        runs.append((low, (1 << length) - 1, width))
        width += length
        rest = above >> length << low + length

    def renumber(mask: int) -> int:
        return sum((mask >> low & ones) << to for low, ones, to in runs)

    obs = list(bits(keep))
    return _Index(
        [index.vertices[i] for i in obs],
        [renumber(up[i] & keep) for i in obs],
        [renumber((common[i] | bridged[i]) & ~(1 << i)) for i in obs],
        index.var_order,
    )


def _dmag(index: _Index) -> _Index:
    """The DMAG of the ADMG ``index`` over all its vertices (see
    :func:`dmag_project`); the ancestor masks come from one pass over the
    topological order."""
    parents, children, siblings = index.parents, index.children, index.siblings
    n = len(index.vertices)
    anc = [0] * n
    for v in index.order:
        a = 1 << v
        for u in bits(parents[v]):
            a |= anc[u]
        anc[v] = a
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

"""Deliberately naive brute-force oracles and random instance generators.

Everything here exists to check the main-path algorithms against independent
implementations: ancestor-set intersection inside explicit windows, an ADMG
latent projection on vertex sets (the reference for the mask kernel of
``finite_projection``), path enumeration for m-connection, literal subset
enumeration for the DMAG adjacency criterion, and breadth-first walk-weight
enumeration.  None of it shares code with the algorithms under test, and none
of it is meant to be fast.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Iterable

from .graph_model import (
    FiniteMixedGraph,
    TsGraphTemplate,
    TsVertex,
    ValidationError,
    make_template,
    unroll_window,
)
from .summary_mwdg import MwSummaryGraph


def _naive_ancestors(g: FiniteMixedGraph, seeds: Iterable[TsVertex]) -> set[TsVertex]:
    result = set(seeds)
    while True:
        grown = result | {u for u, v in g.directed if v in result}
        if grown == result:
            return result
        result = grown


def window_common_ancestor(
    tpl: TsGraphTemplate, i: str, tau: int, j: str, w: int
) -> bool:
    """Whether (i, tau) and (j, 0) have a common ancestor inside the unrolled
    window [t-w, t], by plain ancestor-set intersection."""
    if tau > w:
        raise ValidationError("tau must not exceed the window length")
    g = unroll_window(tpl, w)
    anc_i = _naive_ancestors(g, {TsVertex(i, tau)})
    anc_j = _naive_ancestors(g, {TsVertex(j, 0)})
    return bool(anc_i & anc_j)


def window_marginal(
    tpl: TsGraphTemplate, observed_vars: Iterable[str], p: int, w: int
) -> FiniteMixedGraph:
    """ADMG latent projection of the unrolled window [t-w, t] onto
    observed_vars x [0..p]."""
    if w < p:
        raise ValidationError("cutoff window must be at least the observed window")
    g = unroll_window(tpl, w)
    keep = frozenset(
        TsVertex(var, off) for var in observed_vars for off in range(p + 1)
    )
    return _reference_latent_project(g, keep)


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


def _reference_latent_project(
    g: FiniteMixedGraph, observed: frozenset[TsVertex]
) -> FiniteMixedGraph:
    """ADMG latent projection onto ``observed`` on vertex sets: i -> j iff a
    directed path from i to j has only latent middle vertices; i <-> j iff
    i and j share a latent ancestor through latents, or a bidirected edge
    joins two such ancestors (each endpoint counting as its own)."""
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
                bidirected.add((i, j))
            elif (first_hits[i] & second_hits[j]) or (first_hits[j] & second_hits[i]):
                bidirected.add((i, j))

    return FiniteMixedGraph(
        vertices=observed,
        directed=frozenset(directed),
        bidirected=frozenset(bidirected),
        var_order=g.var_order,
    )


def walk_weight_enumeration(s: MwSummaryGraph, k: str, i: str, bound: int) -> frozenset[int]:
    """All weights <= bound realized by directed (or, for k == i, trivial)
    walks from k to i, by BFS over (node, accumulated weight) states."""
    out_edges: dict[str, list[tuple[str, tuple[int, ...]]]] = {v: [] for v in s.nodes}
    for (src, dst), weights in s.edges.items():
        out_edges[src].append((dst, weights))
    seen = {(k, 0)}
    frontier = [(k, 0)]
    found = set()
    while frontier:
        node, acc = frontier.pop()
        if node == i:
            found.add(acc)
        for dst, weights in out_edges[node]:
            for weight in weights:
                state = (dst, acc + weight)
                if acc + weight <= bound and state not in seen:
                    seen.add(state)
                    frontier.append(state)
    return frozenset(found)


def random_template(
    seed: int,
    n_vars: int,
    max_lag: int,
    edge_density: float,
    bidirected_density: float = 0.0,
) -> TsGraphTemplate:
    """Deterministic random template; contemporaneous edges follow a random
    topological order so the result is always valid."""
    if n_vars < 1:
        raise ValidationError("need at least one variable")
    rng = random.Random(seed)
    variables = [f"X{n + 1}" for n in range(n_vars)]
    order = list(variables)
    rng.shuffle(order)
    rank = {v: n for n, v in enumerate(order)}

    directed = []
    for src in variables:
        for dst in variables:
            for lag in range(max_lag + 1):
                if lag == 0 and rank[src] >= rank[dst]:
                    continue
                if rng.random() < edge_density:
                    directed.append((src, lag, dst))

    bidirected = []
    for a_pos, a in enumerate(variables):
        for b in variables[a_pos:]:
            for lag in range(max_lag + 1):
                if lag == 0 and a == b:
                    continue
                if rng.random() < bidirected_density:
                    bidirected.append((a, lag, b))

    return make_template(variables, directed=directed, bidirected=bidirected)


def _path_marks(
    g: FiniteMixedGraph, i: TsVertex, j: TsVertex
) -> list[list[tuple[TsVertex, bool, bool]]]:
    """All simple paths from i to j as middle-vertex sequences
    (vertex, arrowhead on entry, arrowhead on exit)."""
    adj: dict[TsVertex, list[tuple[TsVertex, bool, bool]]] = {v: [] for v in g.vertices}
    for u, v in g.directed:
        adj[u].append((v, False, True))
        adj[v].append((u, True, False))
    for u, v in g.bidirected:
        adj[u].append((v, True, True))
        adj[v].append((u, True, True))

    paths = []

    def extend(vertex: TsVertex, head_in: bool, used: set[TsVertex], middles):
        for nxt, head_here, head_there in adj[vertex]:
            if nxt in used:
                continue
            if vertex == i:
                step_middles = middles
            else:
                step_middles = middles + [(vertex, head_in, head_here)]
            if nxt == j:
                paths.append(step_middles)
            else:
                extend(nxt, head_there, used | {nxt}, step_middles)

    extend(i, False, {i}, [])
    return paths


def msep_by_path_enumeration(
    g: FiniteMixedGraph,
    x: Iterable[TsVertex],
    y: Iterable[TsVertex],
    z: Iterable[TsVertex],
) -> bool:
    """m-separation decided by enumerating every simple path and applying the
    blocking rules literally."""
    x, y, z = set(x), set(y), set(z)
    anc_z = _naive_ancestors(g, z)
    for i in x:
        for j in y:
            for middles in _path_marks(g, i, j):
                if all(
                    (v in anc_z) if (head_in and head_out) else (v not in z)
                    for v, head_in, head_out in middles
                ):
                    return False
    return True


def dmag_by_subset_enumeration(
    dag: FiniteMixedGraph, observed: Iterable[TsVertex]
) -> FiniteMixedGraph:
    """The DMAG adjacency definition executed literally: i and j are adjacent
    iff no Z among all subsets of the other observed vertices m-separates them."""
    observed = frozenset(observed)
    if len(observed) > 16:
        raise ValidationError("subset enumeration guard: more than 16 observed vertices")
    anc = {v: _naive_ancestors(dag, {v}) for v in observed}
    directed = set()
    bidirected = set()
    obs_sorted = sorted(observed)
    for a, i in enumerate(obs_sorted):
        for j in obs_sorted[a + 1 :]:
            paths = _path_marks(dag, i, j)
            others = sorted(observed - {i, j})
            adjacent = True
            for r in range(len(others) + 1):
                for z in itertools.combinations(others, r):
                    z = set(z)
                    anc_z = _naive_ancestors(dag, z)
                    connected = any(
                        all(
                            (v in anc_z) if (head_in and head_out) else (v not in z)
                            for v, head_in, head_out in middles
                        )
                        for middles in paths
                    )
                    if not connected:
                        adjacent = False
                        break
                if not adjacent:
                    break
            if not adjacent:
                continue
            if i in anc[j]:
                directed.add((i, j))
            elif j in anc[i]:
                directed.add((j, i))
            else:
                bidirected.add((i, j))
    return FiniteMixedGraph(
        vertices=observed,
        directed=frozenset(directed),
        bidirected=frozenset(bidirected),
        var_order=dag.var_order,
    )

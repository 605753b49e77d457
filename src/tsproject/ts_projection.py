"""End-to-end projections of infinite time-series graphs onto finite windows.

The window marginal has the template's own variables at every time step of
the window [t-p, t].  Its directed edges are the window segment of the
directed entries, and a bidirected entry (a, lag, b) becomes the edges
(a, off + lag) <-> (b, off).  The common-ancestor queries run on the
canonical ts-DAG (:func:`canonical_ts_dag`), which replaces the entry by an
auxiliary latent L with the children (a, s) and (b, s - lag).  A copy of L
inside the window has no parents and no siblings, so its ADMG latent
projection is exactly the sibling edge between its two children (Richardson,
"Markov properties for acyclic directed mixed graphs", Scand. J. Statist.
2003), and latent projections compose, so the window never holds the
auxiliaries: they live only in the engine and in the parent lists of the
lag pairs.

The window marginal asks one question per lag pair: do some parent of i at
lag lag_i and some parent of j at lag lag_j, d = dt + lag_i - lag_j steps
apart, share a common ancestor?  It asks only when both parents lie before
the window at some offset up to p - dt, which needs lag_i >= 1 and
lag_j >= dt + 1, so dt stays below the largest lag into j and |d| <= K - 1
for the largest lag K, whatever p is.  Without an engine,
:func:`~tsproject.ancestor_query._default_engine` picks one for depth K, by
the rule that ``ancestor`` applies at depth tau: a :class:`WalkerReach` when
its n^2 (2 K + 1) states and 2 n (2 K + 1) |E| steps fit its limits, the
cone engine otherwise.  The rule reads only the input, and both engines are
exact, so the output does not depend on it.  It is built at the first lag
pair that a shared parent does not settle, so a projection that asks
nothing builds no engine.

The pipeline carries one mask graph (:class:`finite_projection._Index`)
from start to finish.  The window marginal is written as masks straight from
the template entries and the engine's answers: (v, off) is bit
n (p + 1) + off for the n-th variable v in sorted order, the vertex order of
``_Index``.  Its ADMG latent projection onto the observed variables keeps
their rows, bits n (p + 1) to n (p + 1) + p, and the DMAG variant projects
that marginal ADMG onto its maximal ancestral graph; both are mask kernels.
One :class:`FiniteMixedGraph`, the result, is built at the end, so its checks
run once.  The oracles' windows run to the cutoff p_cut + p, so
:func:`graph_model.unroll_window` stays on vertex sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .ancestor_query import CommonAncestorEngine, WalkerReach, WalkWeights, _default_engine
from .finite_projection import _MAX_INDEX_VERTICES, _dmag, _Index, _latent_project
from .graph_model import (
    FiniteMixedGraph,
    TsGraphTemplate,
    TsVertex,
    ValidationError,
    make_template,
    max_lag,
)
from .summary_mwdg import build_mw_summary, enumerate_cycle_classes, require_ts_dag


def canonical_ts_dag(tpl: TsGraphTemplate) -> TsGraphTemplate:
    """Replace each bidirected entry (a, t-lag) <-> (b, t) by a fresh auxiliary
    variable with directed entries (aux, lag, b) and (aux, 0, a).  ts-DAG
    inputs are returned unchanged."""
    if tpl.is_ts_dag:
        return tpl
    entries = sorted(tpl.bidirected_t, key=lambda e: (tpl.index(e[0]), tpl.index(e[2]), e[1]))
    aux_vars = []
    directed = set(tpl.directed_t)
    for a, lag, b in entries:
        aux = f"L({a},{b},{lag})"
        if aux in tpl.variables or aux in aux_vars:
            raise ValidationError(f"auxiliary variable name collision: {aux}")
        aux_vars.append(aux)
        directed.add((aux, lag, b))
        directed.add((aux, 0, a))
    return make_template(tpl.variables + tuple(aux_vars), directed=directed)


def simple_marginal_ts_admg(
    tpl: TsGraphTemplate,
    p: int,
    engine: Optional[CommonAncestorEngine | WalkerReach | WalkWeights] = None,
) -> FiniteMixedGraph:
    """Marginal of a ts-DAG over all its variables on the window [t-p, t].

    Directed edges are read off the window segment.  A bidirected edge between
    window vertices (i, off + dt) and (j, off) exists iff a parent (k, lag_i)
    of i and a parent (l, lag_j) of j both lie before the window and share a
    common ancestor.  Both lie before the window from offset
    ``start = max(0, p + 1 - dt - lag_i, p + 1 - lag_j)`` on, and their time
    difference d = dt + lag_i - lag_j does not depend on the offset, so a
    pair that hits at ``start`` hits at every later offset.  The edges of the
    pattern (i, j, dt) therefore run from the smallest ``start`` of a hitting
    pair to the window's edge.  ``start`` and d depend only on the lags, so
    the lag pairs are tried in order of ``start``, and the first whose parent
    groups hold a hitting pair ends the pattern: k = l at d = 0, or a common
    ancestor that ``engine`` finds.

    ``engine`` answers the common-ancestor queries and must be built on
    ``tpl``; without one, the rule of the module docstring picks a
    :class:`WalkerReach` or a :class:`CommonAncestorEngine` at the first
    query.  A ts-ADMG is rejected, whether or not a query is asked; its
    auxiliaries are window vertices of ``canonical_ts_dag(tpl)``.
    """
    require_ts_dag(tpl)
    return _window_marginal(tpl, tpl.variables, p, engine).graph()


def _window_marginal(
    tpl: TsGraphTemplate,
    observed_vars: Iterable[str],
    p: int,
    engine: Optional[CommonAncestorEngine | WalkerReach | WalkWeights],
) -> _Index:
    """:func:`marginal_ts_admg` of ``tpl``, a ts-DAG or a ts-ADMG, as masks
    numbered as in the module docstring, the observed names checked first.

    A bidirected entry is written as its sibling edges; the lag pairs are
    those of :func:`simple_marginal_ts_admg` on ``canonical_ts_dag(tpl)``,
    whose auxiliaries appear only as parents.  ``engine`` must be built on
    that canonical ts-DAG; without one, one is built at the first query."""
    observed_vars = tuple(observed_vars)
    if not observed_vars:
        raise ValidationError("observed variable set must be non-empty")
    for v in observed_vars:
        tpl.index(v)
    if p < 0:
        raise ValidationError("window length must be non-negative")
    width = p + 1
    names = sorted(tpl.variables)
    if len(names) * width > _MAX_INDEX_VERTICES:  # n (p + 1), n the template's own variables
        raise ValidationError(
            f"{len(names)} x {width} window vertices exceed the limit of {_MAX_INDEX_VERTICES}"
        )
    ctpl = canonical_ts_dag(tpl)
    if engine is not None and engine.tpl != ctpl:
        raise ValidationError("the engine was built on another template")
    first = {v: n * width for n, v in enumerate(names)}
    parents = [0] * (len(names) * width)
    siblings = [0] * len(parents)

    def link(i: str, j: str, dt: int, start: int) -> None:
        """The edges (i, off + dt) <-> (j, off) for every off from start to p - dt."""
        for off in range(start, width - dt):
            u, v = first[i] + off + dt, first[j] + off
            siblings[u] |= 1 << v
            siblings[v] |= 1 << u

    for src, lag, dst in tpl.directed_t:
        for off in range(width - lag):
            parents[first[dst] + off] |= 1 << (first[src] + off + lag)
    for a, lag, b in tpl.bidirected_t:
        link(a, b, lag, 0)

    # an auxiliary is never a child, so every parent list belongs to an own variable
    by_lag: dict[str, dict[int, list[str]]] = {v: {} for v in tpl.variables}
    for src, lag, dst in sorted(ctpl.directed_t):
        by_lag[dst].setdefault(lag, []).append(src)
    fed = [v for v in tpl.variables if by_lag[v]]
    for i in fed:
        for j in fed:
            for dt in range(0 if tpl.index(i) < tpl.index(j) else 1, min(width, max(by_lag[j]))):
                last = p - dt
                for start, li, lj in sorted(
                    (max(0, width - dt - li, width - lj), li, lj)
                    for li in by_lag[i]
                    for lj in by_lag[j]
                ):
                    if start > last:
                        break
                    ks, d, ls = by_lag[i][li], dt + li - lj, by_lag[j][lj]
                    if d != 0 or set(ks).isdisjoint(ls):
                        engine = engine or _default_engine(ctpl, max_lag(ctpl))
                        if not any(
                            engine.query(k, d, l) if d >= 0 else engine.query(l, -d, k)
                            for k in ks
                            for l in ls
                        ):
                            continue
                    link(i, j, dt, start)
                    break
    keep = sum(((1 << width) - 1) << first[v] for v in set(observed_vars))  # observed rows
    vertices = [TsVertex(v, off) for v in names for off in range(width)]
    return _latent_project(_Index(vertices, parents, siblings, tpl.variables), keep)


def marginal_ts_admg(
    tpl: TsGraphTemplate,
    observed_vars: Iterable[str],
    p: int,
    engine: Optional[CommonAncestorEngine | WalkerReach | WalkWeights] = None,
) -> FiniteMixedGraph:
    """Marginal ts-ADMG of an infinite ts-ADMG onto observed_vars x [0..p].

    ``engine``, if given, answers the common-ancestor queries and must be
    built on ``canonical_ts_dag(tpl)``.
    """
    return _window_marginal(tpl, observed_vars, p, engine).graph()


def marginal_ts_dmag(
    tpl: TsGraphTemplate,
    observed_vars: Iterable[str],
    p: int,
    engine: Optional[CommonAncestorEngine | WalkerReach | WalkWeights] = None,
) -> FiniteMixedGraph:
    """Marginal ts-DMAG: the DMAG of the marginal ts-ADMG, with the same ``engine``."""
    return _dmag(_window_marginal(tpl, observed_vars, p, engine)).graph()


@dataclass(frozen=True)
class CutoffQuantities:
    """Ingredients of the finite cutoff window.

    K: maximal weight of any irreducible cycle; L: maximal weight of any
    directed or trivial cycle-free path; M: sum of the maximal weights of all
    cycle classes.  K = M = 0 when the summary graph is acyclic, in which case
    the bound degenerates to p + L.
    """

    K: int
    L: int
    M: int
    p_cut: int


def cutoff_bound(tpl: TsGraphTemplate, p: int) -> CutoffQuantities:
    """Window length such that searching [t - p_cut - p, t] finds every
    common-ancestor witness relevant to the window [t-p, t].

    K, L and M are read off the summary graph: the largest weight of a cycle
    class is its largest entry, and the largest weight of a cycle-free path
    is the sum of the largest lags of its edges.  ``build_mw_summary`` rejects
    a ts-ADMG."""
    if p < 0:
        raise ValidationError("window length must be non-negative")
    summary = build_mw_summary(tpl)
    maxima = [max(c.weights) for c in enumerate_cycle_classes(summary)]
    big_k = max(maxima, default=0)
    big_m = sum(maxima)
    big_l = max(
        sum(max(summary.edges[e]) for e in zip(pi, pi[1:]))
        for paths in summary.simple_paths.values()
        for pi in paths
    )
    p_cut = (big_k**2 + 1) * (p + big_l + big_m) + big_k * ((big_k - 1) ** 2 + 1)
    return CutoffQuantities(K=big_k, L=big_l, M=big_m, p_cut=p_cut)

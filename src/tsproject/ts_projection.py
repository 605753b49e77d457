"""End-to-end projections of infinite time-series graphs onto finite windows.

The pipeline for a template with bidirected edges is: replace bidirected
entries by auxiliary latent variables (canonical ts-DAG), compute the marginal
over all variables on the window via common-ancestor queries against the
infinite past, then apply the finite ADMG latent projection to the requested
observed variables.  The DMAG variant additionally projects the canonical DAG
of that marginal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .ancestor_query import CommonAncestorEngine, WalkWeights
from .finite_projection import admg_latent_project, canonical_dag, dmag_project
from .graph_model import (
    FiniteMixedGraph,
    TsGraphTemplate,
    TsVertex,
    ValidationError,
    make_template,
    unroll_window,
)
from .summary_mwdg import path_weightset


def canonical_ts_dag(tpl: TsGraphTemplate) -> TsGraphTemplate:
    """Replace each bidirected entry (a, t-lag) <-> (b, t) by a fresh auxiliary
    variable with directed entries (aux, lag, b) and (aux, 0, a).  ts-DAG
    inputs are returned unchanged."""
    if tpl.is_ts_dag:
        return tpl
    idx = {v: n for n, v in enumerate(tpl.variables)}
    entries = sorted(tpl.bidirected_t, key=lambda e: (idx[e[0]], idx[e[2]], e[1]))
    aux_vars = []
    directed = set(tpl.directed_t)
    for a, lag, b in entries:
        aux = f"L({a},{b},{lag})"
        if aux in idx or aux in aux_vars:
            raise ValidationError(f"auxiliary variable name collision: {aux}")
        aux_vars.append(aux)
        directed.add((aux, lag, b))
        directed.add((aux, 0, a))
    return make_template(tpl.variables + tuple(aux_vars), directed=directed)


def simple_marginal_ts_admg(
    tpl: TsGraphTemplate,
    p: int,
    engine: Optional[CommonAncestorEngine | WalkWeights] = None,
) -> FiniteMixedGraph:
    """Marginal of a ts-DAG over all its variables on the window [t-p, t].

    Directed edges are read off the window segment.  A bidirected edge between
    two window vertices exists iff each has a parent strictly before the
    window and those parents share a common ancestor; the check is normalized
    by shifting the temporally later parent to the reference time.  A found
    edge implies all of its backward-shifted copies inside the window, so each
    offset pattern is scanned from the most recent offsets onward and filled
    in bulk on the first hit.

    ``engine`` answers the common-ancestor queries; it defaults to a
    :class:`CommonAncestorEngine` on ``tpl`` and must be built on ``tpl``.
    """
    if p < 0:
        raise ValidationError("window length must be non-negative")
    if tpl.bidirected_t:
        raise ValidationError("simple marginal requires a ts-DAG")
    engine = engine or CommonAncestorEngine(tpl)
    if engine.tpl != tpl:
        raise ValidationError("the engine was built on another template")
    segment = unroll_window(tpl, p)

    in_lags: dict[str, list[tuple[str, int]]] = {v: [] for v in tpl.variables}
    for src, lag, dst in sorted(tpl.directed_t):
        in_lags[dst].append((src, lag))

    def past_parents(var: str, offset: int) -> list[tuple[str, int]]:
        return [
            (src, offset + lag) for src, lag in in_lags[var] if offset + lag > p
        ]

    def confounded(i: str, ti: int, j: str, tj: int) -> bool:
        for k, tk in past_parents(i, ti):
            for l, tl in past_parents(j, tj):
                if (k, tk) == (l, tl):
                    return True
                if tk >= tl:
                    hit = engine.query(k, tk - tl, l)
                else:
                    hit = engine.query(l, tl - tk, k)
                if hit:
                    return True
        return False

    idx = {v: n for n, v in enumerate(tpl.variables)}
    patterns = [
        (i, j, dt)
        for dt in range(p + 1)
        for i in tpl.variables
        for j in tpl.variables
        if dt > 0 or idx[i] < idx[j]
    ]

    def scan(pattern: tuple[str, str, int]) -> list[tuple[TsVertex, TsVertex]]:
        i, j, dt = pattern
        edges = []
        for tj in range(p - dt + 1):
            if confounded(i, tj + dt, j, tj):
                edges.extend(
                    (TsVertex(i, off + dt), TsVertex(j, off))
                    for off in range(tj, p - dt + 1)
                )
                break
        return edges

    bidirected = frozenset(edge for pattern in patterns for edge in scan(pattern))
    return FiniteMixedGraph(
        vertices=segment.vertices,
        directed=segment.directed,
        bidirected=bidirected,
        var_order=tpl.variables,
    )


def marginal_ts_admg(
    tpl: TsGraphTemplate,
    observed_vars: Iterable[str],
    p: int,
    engine: Optional[CommonAncestorEngine | WalkWeights] = None,
) -> FiniteMixedGraph:
    """Marginal ts-ADMG of an infinite ts-ADMG onto observed_vars x [0..p].

    ``engine``, if given, answers the common-ancestor queries and must be
    built on ``canonical_ts_dag(tpl)``.
    """
    observed_vars = tuple(dict.fromkeys(observed_vars))
    if not observed_vars:
        raise ValidationError("observed variable set must be non-empty")
    for v in observed_vars:
        tpl.index(v)
    ctpl = canonical_ts_dag(tpl)
    full = simple_marginal_ts_admg(ctpl, p, engine)
    keep = frozenset(
        TsVertex(var, off) for var in observed_vars for off in range(p + 1)
    )
    return admg_latent_project(full, keep)


def marginal_ts_dmag(
    tpl: TsGraphTemplate,
    observed_vars: Iterable[str],
    p: int,
) -> FiniteMixedGraph:
    """Marginal ts-DMAG: DMAG projection of the canonical DAG of the marginal ts-ADMG."""
    marginal = marginal_ts_admg(tpl, observed_vars, p)
    dag = canonical_dag(marginal)
    return dmag_project(dag, marginal.vertices)


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
    common-ancestor witness relevant to the window [t-p, t]."""
    if p < 0:
        raise ValidationError("window length must be non-negative")
    if tpl.bidirected_t:
        raise ValidationError("cutoff bound is defined for ts-DAGs")
    engine = CommonAncestorEngine(tpl)
    maxima = [max(c.weights) for c in engine.classes]
    big_k = max(maxima, default=0)
    big_m = sum(maxima)
    big_l = 0
    for k in engine.summary.nodes:
        for i in engine.summary.nodes:
            for pi in engine.paths(k, i):
                big_l = max(big_l, max(path_weightset(engine.summary, pi)))
    p_cut = (big_k**2 + 1) * (p + big_l + big_m) + big_k * ((big_k - 1) ** 2 + 1)
    return CutoffQuantities(K=big_k, L=big_l, M=big_m, p_cut=p_cut)


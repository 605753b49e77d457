"""End-to-end projections of infinite time-series graphs onto finite windows.

The pipeline for a template with bidirected edges is: replace bidirected
entries by auxiliary latent variables (canonical ts-DAG), compute the marginal
over all variables on the window via common-ancestor queries against the
infinite past, then apply the finite ADMG latent projection to the requested
observed variables.  The DMAG variant projects that marginal ADMG onto its
maximal ancestral graph (:func:`finite_projection.dmag_project`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .ancestor_query import CommonAncestorEngine, WalkWeights
from .finite_projection import admg_latent_project, dmag_project
from .graph_model import (
    FiniteMixedGraph,
    TsGraphTemplate,
    TsVertex,
    ValidationError,
    make_template,
    unroll_window,
)
from .summary_mwdg import build_mw_summary, enumerate_cycle_classes


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
    window vertices (i, off + dt) and (j, off) exists iff a parent (k, lag_i)
    of i and a parent (l, lag_j) of j both lie before the window and share a
    common ancestor.  Both lie before the window from offset
    ``start = max(0, p + 1 - dt - lag_i, p + 1 - lag_j)`` on, and their time
    difference d = dt + lag_i - lag_j does not depend on the offset, so a
    pair that hits at ``start`` hits at every later offset.  The edges of the
    pattern (i, j, dt) therefore run from the smallest ``start`` of a hitting
    pair to the window's edge.  A pair hits when k = l and d = 0, or when
    ``engine`` finds a common ancestor; the pairs are asked in order of
    ``start`` and the first hit ends the pattern.

    ``engine`` answers the common-ancestor queries; it defaults to a
    :class:`CommonAncestorEngine` on ``tpl`` and must be built on ``tpl``;
    either engine rejects a ts-ADMG in its ``build_mw_summary``.
    """
    if p < 0:
        raise ValidationError("window length must be non-negative")
    engine = engine or CommonAncestorEngine(tpl)
    if engine.tpl != tpl:
        raise ValidationError("the engine was built on another template")
    segment = unroll_window(tpl, p)

    in_lags: dict[str, list[tuple[str, int]]] = {v: [] for v in tpl.variables}
    for src, lag, dst in sorted(tpl.directed_t):
        in_lags[dst].append((src, lag))

    idx = {v: n for n, v in enumerate(tpl.variables)}
    bidirected = set()
    for dt in range(p + 1):
        last = p - dt
        for i in tpl.variables:
            for j in tpl.variables:
                if dt == 0 and idx[i] >= idx[j]:
                    continue
                # a stable sort: pairs of equal start stay in in_lags order
                pairs = sorted(
                    (
                        (max(0, p + 1 - dt - lag_i, p + 1 - lag_j), k, dt + lag_i - lag_j, l)
                        for k, lag_i in in_lags[i]
                        for l, lag_j in in_lags[j]
                    ),
                    key=lambda pair: pair[0],
                )
                for start, k, d, l in pairs:
                    if start > last:
                        break
                    if (k == l and d == 0) or (
                        engine.query(k, d, l) if d >= 0 else engine.query(l, -d, k)
                    ):
                        bidirected.update(
                            (TsVertex(i, off + dt), TsVertex(j, off))
                            for off in range(start, last + 1)
                        )
                        break
    return replace(segment, bidirected=frozenset(bidirected))


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
    engine: Optional[CommonAncestorEngine | WalkWeights] = None,
) -> FiniteMixedGraph:
    """Marginal ts-DMAG: the DMAG of the marginal ts-ADMG, with the same ``engine``."""
    marginal = marginal_ts_admg(tpl, observed_vars, p, engine)
    return dmag_project(marginal, marginal.vertices)


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

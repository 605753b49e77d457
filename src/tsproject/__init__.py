"""Finite-window projections of infinite, causally stationary time-series graphs.

A time-series ADMG repeats its edges at every time step and is described by a
finite template.  This package computes its marginal ADMG and DMAG on a finite
time window, answers common-ancestor and m-separation queries against the
infinite past via a linear Diophantine decision procedure or a search over
two-walker states, and ships brute-force window oracles for cross-checking.
"""

from .ancestor_query import (
    CommonAncestorEngine,
    WalkerReach,
    WalkWeights,
    lag1_shortcut,
    summary_prefilter,
)
from .diophantine import (
    SolvabilityInstance,
    bounded_representable,
    case_number,
    cone_contains,
    has_nonneg_solution,
)
from .finite_projection import (
    admg_latent_project,
    ancestors,
    canonical_dag,
    dmag_project,
    has_inducing_path,
    m_separated,
)
from .graph_model import (
    FiniteMixedGraph,
    TsGraphTemplate,
    TsVertex,
    ValidationError,
    make_template,
    max_lag,
    parse_mixed_graph,
    parse_template,
    serialize_template,
    unroll_window,
)
from .summary_mwdg import (
    ConeTuple,
    CycleClass,
    GraphOfCycles,
    MwSummaryGraph,
    access_points,
    build_graph_of_cycles,
    build_mw_summary,
    closure,
    cycle_free_paths,
    enumerate_cycle_classes,
    generating_set,
    get_monoid,
    monoid_from_generating_set,
    path_weightset,
    tuple_sets,
)
from .ts_projection import (
    CutoffQuantities,
    canonical_ts_dag,
    cutoff_bound,
    marginal_ts_admg,
    marginal_ts_dmag,
    simple_marginal_ts_admg,
)

__all__ = [
    "CommonAncestorEngine",
    "ConeTuple",
    "CutoffQuantities",
    "CycleClass",
    "FiniteMixedGraph",
    "GraphOfCycles",
    "MwSummaryGraph",
    "SolvabilityInstance",
    "TsGraphTemplate",
    "TsVertex",
    "ValidationError",
    "WalkerReach",
    "WalkWeights",
    "access_points",
    "admg_latent_project",
    "ancestors",
    "bounded_representable",
    "build_graph_of_cycles",
    "build_mw_summary",
    "canonical_dag",
    "canonical_ts_dag",
    "case_number",
    "closure",
    "cone_contains",
    "cutoff_bound",
    "cycle_free_paths",
    "dmag_project",
    "enumerate_cycle_classes",
    "generating_set",
    "get_monoid",
    "has_inducing_path",
    "has_nonneg_solution",
    "lag1_shortcut",
    "m_separated",
    "make_template",
    "marginal_ts_admg",
    "marginal_ts_dmag",
    "max_lag",
    "monoid_from_generating_set",
    "parse_mixed_graph",
    "parse_template",
    "path_weightset",
    "serialize_template",
    "simple_marginal_ts_admg",
    "summary_prefilter",
    "tuple_sets",
    "unroll_window",
]

__version__ = "0.1.0"

import pytest

from tsproject import (
    MwSummaryGraph,
    TsVertex,
    ValidationError,
    build_mw_summary,
    make_template,
)
from tsproject.oracle_testkit import (
    dmag_by_subset_enumeration,
    msep_by_path_enumeration,
    random_template,
    walk_weight_enumeration,
    window_common_ancestor,
    window_marginal,
)
from tsproject import finite_projection, oracle_testkit
from tsproject.graph_model import FiniteMixedGraph


def test_window_common_ancestor_basic(b1_tpl):
    assert window_common_ancestor(b1_tpl, "X", 0, "X", 0)
    assert not window_common_ancestor(b1_tpl, "X", 1, "Y", 10)
    assert window_common_ancestor(b1_tpl, "X", 1, "Y", 12)


def test_window_common_ancestor_rejects_tau_beyond_window(b1_tpl):
    with pytest.raises(ValidationError):
        window_common_ancestor(b1_tpl, "X", 5, "Y", 4)


def test_window_marginal_rejects_short_window(b1_tpl):
    with pytest.raises(ValidationError):
        window_marginal(b1_tpl, ["X"], 3, 2)


def test_window_marginal_misses_distant_confounders(b1_tpl):
    """At w=10 the nearest joint ancestor of X_{t-1} and Y_t is still cut off."""
    marg = window_marginal(b1_tpl, ["X", "Y"], 1, 10)
    assert not any(
        {u, v} == {TsVertex("X", 1), TsVertex("Y", 0)} for u, v in marg.bidirected
    )


def test_walk_weight_enumeration_single_cycle():
    s = MwSummaryGraph(nodes=("A",), edges={("A", "A"): (2,)})
    assert walk_weight_enumeration(s, "A", "A", 9) == {0, 2, 4, 6, 8}


def test_walk_weight_enumeration_respects_bound(running_tpl):
    s = build_mw_summary(running_tpl)
    weights = walk_weight_enumeration(s, "X", "Z", 10)
    # 1 + 2a + 3b (+5 for the slow Y -> Z edge): everything but 2 up to the bound
    assert weights == {1, 3, 4, 5, 6, 7, 8, 9, 10}


def test_walk_weight_enumeration_unreachable(running_tpl):
    s = build_mw_summary(running_tpl)
    assert walk_weight_enumeration(s, "Z", "X", 50) == frozenset()


def test_random_template_is_deterministic():
    a = random_template(7, n_vars=4, max_lag=3, edge_density=0.4, bidirected_density=0.2)
    b = random_template(7, n_vars=4, max_lag=3, edge_density=0.4, bidirected_density=0.2)
    assert a == b


def test_random_template_is_valid_over_many_seeds():
    for seed in range(50):
        tpl = random_template(seed, n_vars=4, max_lag=3, edge_density=0.5, bidirected_density=0.3)
        assert len(tpl.variables) == 4  # validation happens in the constructor


def test_msep_enumeration_on_a_collider():
    a, b, c = TsVertex("A", 0), TsVertex("B", 0), TsVertex("C", 0)
    g = FiniteMixedGraph(frozenset({a, b, c}), directed=frozenset({(a, b), (c, b)}))
    assert msep_by_path_enumeration(g, {a}, {c}, set())
    assert not msep_by_path_enumeration(g, {a}, {c}, {b})


def test_dmag_enumeration_guard():
    verts = frozenset(TsVertex(f"V{k}", 0) for k in range(17))
    g = FiniteMixedGraph(verts)
    with pytest.raises(ValidationError):
        dmag_by_subset_enumeration(g, verts)


def test_dmag_enumeration_simple_confounder():
    a, b, l = TsVertex("A", 0), TsVertex("B", 0), TsVertex("L", 0)
    g = FiniteMixedGraph(
        frozenset({a, b, l}), directed=frozenset({(l, a), (l, b)}), latent=frozenset({l})
    )
    mag = dmag_by_subset_enumeration(g, {a, b})
    assert mag.bidirected == {(a, b)}
    assert not mag.directed


def test_shares_no_function_with_finite_projection():
    """The window oracle projects with its own set-based reference, so the
    criterion-3 check does not test the main-path kernel against itself."""
    shared = [
        name
        for name, obj in vars(oracle_testkit).items()
        if getattr(obj, "__module__", None) == finite_projection.__name__
    ]
    assert not shared

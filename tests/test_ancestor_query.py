import pytest

from tsproject import (
    CommonAncestorEngine,
    ValidationError,
    WalkWeights,
    build_mw_summary,
    canonical_ts_dag,
    cutoff_bound,
    have_common_ancestor,
    lag1_shortcut,
    make_template,
    summary_prefilter,
)
from tsproject.ancestor_query import _MAX_WALK_DEPTH
from tsproject.oracle_testkit import (
    random_template,
    walk_weight_enumeration,
    window_common_ancestor,
)


def test_running_example_query(running_tpl):
    """X_t and Z_t share the ancestor X_{t-4}."""
    assert have_common_ancestor(running_tpl, "X", 0, "Z")


def test_rejects_bidirected_template(fig3_tpl):
    with pytest.raises(ValidationError):
        CommonAncestorEngine(fig3_tpl)


def test_rejects_negative_tau(running_tpl):
    with pytest.raises(ValidationError):
        CommonAncestorEngine(running_tpl).query("X", -1, "Z")


def test_rejects_unknown_variable(running_tpl):
    with pytest.raises(ValidationError):
        CommonAncestorEngine(running_tpl).query("X", 0, "Q")


def test_vertex_is_its_own_ancestor():
    tpl = make_template(["X"], directed=[("X", 2, "X")])
    engine = CommonAncestorEngine(tpl)
    assert engine.query("X", 0, "X")
    assert engine.query("X", 2, "X")
    assert not engine.query("X", 1, "X")


def test_disconnected_variables_share_nothing():
    tpl = make_template(["A", "B"], directed=[("A", 1, "A"), ("B", 1, "B")])
    engine = CommonAncestorEngine(tpl)
    for tau in range(4):
        assert not engine.query("A", tau, "B")


def test_summary_prefilter(running_tpl):
    s = build_mw_summary(running_tpl)
    assert summary_prefilter(s, "X", "Z")
    assert summary_prefilter(s, "Z", "Z")
    s2 = build_mw_summary(make_template(["A", "B"], directed=[("A", 1, "A")]))
    assert not summary_prefilter(s2, "A", "B")


def test_b1_gap_queries(b1_tpl):
    """X_{t-tau} and Y_t: solvable iff tau is hit by 1 + 5a - 3b with a, b >= 0."""
    engine = CommonAncestorEngine(b1_tpl)
    assert engine.query("X", 1, "Y")  # witness Y_{t-12}: 2 + 5*2 = 12 = 3*4
    assert engine.query("X", 3, "Y")  # witness Y_{t-9}: 4 + 5*1 = 9 = 3*3
    assert engine.query("Y", 0, "X")  # witness Y_{t-6}: 1 + 5*1 = 6 = 3*2


def test_query_agrees_with_window_oracle():
    """Skips templates whose cutoff is huge: the naive oracle is quadratic in
    the window length, and deep windows are covered by the acceptance suite."""
    for seed in range(12):
        tpl = random_template(seed, n_vars=3, max_lag=2, edge_density=0.25)
        engine = CommonAncestorEngine(tpl)
        w = cutoff_bound(tpl, 3).p_cut + 3
        if w > 300:
            continue
        for i in tpl.variables:
            for j in tpl.variables:
                for tau in range(4):
                    assert engine.query(i, tau, j) == window_common_ancestor(
                        tpl, i, tau, j, w
                    ), (seed, i, tau, j)


def test_query_memoization_returns_same_object_answer(running_tpl):
    engine = CommonAncestorEngine(running_tpl)
    assert engine.query("X", 0, "Z") == engine.query("X", 0, "Z")


class TestLag1Shortcut:
    def test_not_applicable_without_auto_edges(self, running_tpl):
        assert lag1_shortcut(running_tpl, "X", 0, "Z") is None

    def test_not_applicable_with_bidirected(self, fig3_tpl):
        assert lag1_shortcut(fig3_tpl, "X1", 0, "X2") is None

    def test_rejects_unknown_variable(self):
        tpl = make_template(["X"], [("X", 1, "X")])
        with pytest.raises(ValidationError):
            lag1_shortcut(tpl, "X", 0, "Q")
        with pytest.raises(ValidationError):
            lag1_shortcut(tpl, "Q", 0, "X")

    def test_matches_full_engine_when_applicable(self):
        for seed in range(15):
            base = random_template(seed, n_vars=3, max_lag=2, edge_density=0.2)
            tpl = make_template(
                base.variables,
                directed=set(base.directed_t) | {(v, 1, v) for v in base.variables},
            )
            engine = CommonAncestorEngine(tpl)
            for i in tpl.variables:
                for j in tpl.variables:
                    for tau in range(3):
                        fast = lag1_shortcut(tpl, i, tau, j)
                        assert fast is not None
                        assert fast == engine.query(i, tau, j), (seed, i, tau, j)


def test_canonicalized_admg_queries(fig3_tpl):
    """Bidirected entries become auxiliary confounders visible to the query."""
    tpl = canonical_ts_dag(fig3_tpl)
    engine = CommonAncestorEngine(tpl)
    assert engine.query("X1", 1, "X2")  # via the auxiliary latent at lag 1


class TestWalkWeights:
    def test_rejects_bidirected_template(self, fig3_tpl):
        with pytest.raises(ValidationError):
            WalkWeights(fig3_tpl, 5)

    def test_rejects_negative_depth(self, running_tpl):
        with pytest.raises(ValidationError):
            WalkWeights(running_tpl, -1)

    def test_rejects_depth_past_the_limit(self, running_tpl):
        assert _MAX_WALK_DEPTH >= 2_000_303  # the long self-loop test in test_cli.py
        WalkWeights(make_template(["X"]), _MAX_WALK_DEPTH)
        with pytest.raises(ValidationError, match="limit"):
            WalkWeights(running_tpl, _MAX_WALK_DEPTH + 1)

    def test_rejects_tau_past_depth(self, running_tpl):
        """A too-shallow engine must not silently answer False."""
        engine = WalkWeights(running_tpl, 3)
        assert engine.query("X", 3, "X")
        with pytest.raises(ValidationError):
            engine.query("X", 4, "X")

    def test_rejects_negative_tau(self, running_tpl):
        with pytest.raises(ValidationError):
            WalkWeights(running_tpl, 3).query("X", -1, "Z")

    def test_rejects_unknown_variable(self, running_tpl):
        engine = WalkWeights(running_tpl, 3)
        with pytest.raises(ValidationError):
            engine.query("X", 0, "Q")
        with pytest.raises(ValidationError):
            engine.query("Q", 0, "X")

    def test_bits_are_ancestor_offsets(self, running_tpl):
        """X[t-s] is an ancestor of Z[t] for s = 1 (Z <- Y <- X), 4 (Z <- Y
        <- X <- Y <- X), 6 (Z <- Y[t-5] <- X), and s + 2 for each of these
        (the lag-2 auto-edge of X)."""
        anc = WalkWeights(running_tpl, 8).anc
        offsets = [s for s in range(9) if anc["Z"]["X"] >> s & 1]
        assert offsets == [1, 3, 4, 5, 6, 7, 8]

    def test_matches_window_oracle(self):
        """At any depth w the engine is ancestor-set intersection in [t-w, t]."""
        for seed in range(25):
            tpl = canonical_ts_dag(
                random_template(
                    seed, n_vars=3, max_lag=2, edge_density=0.25, bidirected_density=0.08
                )
            )
            for w in (0, 3, 11):
                engine = WalkWeights(tpl, w)
                for i in tpl.variables:
                    for j in tpl.variables:
                        for tau in {0, w // 2, w}:
                            assert engine.query(i, tau, j) == window_common_ancestor(
                                tpl, i, tau, j, w
                            ), (seed, w, i, tau, j)

    @pytest.mark.parametrize(
        "directed",
        [
            [("X", 1, "Y"), ("Y", 2, "X"), ("X", 7, "Z")],
            [("X", 2, "Y"), ("Y", 3, "Z"), ("Z", 4, "X"), ("Y", 5, "X"), ("Z", 0, "W")],
        ],
    )
    def test_multi_node_cycles_match_the_oracles_at_depth(self, directed):
        """Templates whose only cycles span several nodes, at depth 300: every
        bitset equals breadth-first walk-weight enumeration, and queries up
        to the window edge equal ancestor-set intersection in the window."""
        variables = sorted({v for src, _, dst in directed for v in (src, dst)})
        tpl = make_template(variables, directed=directed)
        depth = 300
        engine = WalkWeights(tpl, depth)
        summary = build_mw_summary(tpl)
        for x in variables:
            for u in variables:
                weights = walk_weight_enumeration(summary, u, x, depth)
                assert engine.anc[x].get(u, 0) == sum(1 << s for s in weights), (x, u)
        for i, j in (("X", "Z"), ("Z", "Y")):
            for tau in (0, 1, 299, 300):
                assert engine.query(i, tau, j) == window_common_ancestor(
                    tpl, i, tau, j, depth
                ), (i, tau, j)

    def test_matches_cone_engine_at_the_cutoff_depth(self):
        for seed in range(12):
            tpl = random_template(seed, n_vars=3, max_lag=2, edge_density=0.25)
            exact = CommonAncestorEngine(tpl)
            for tau in range(4):
                engine = WalkWeights(tpl, cutoff_bound(tpl, tau).p_cut + tau)
                for i in tpl.variables:
                    for j in tpl.variables:
                        assert engine.query(i, tau, j) == exact.query(i, tau, j), (
                            seed, i, tau, j,
                        )

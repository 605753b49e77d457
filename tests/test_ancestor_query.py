import random

import pytest

from tsproject import (
    CommonAncestorEngine,
    ValidationError,
    WalkerReach,
    WalkWeights,
    build_mw_summary,
    canonical_ts_dag,
    cutoff_bound,
    lag1_shortcut,
    make_template,
    max_lag,
    summary_prefilter,
)
from tsproject import ancestor_query, summary_mwdg
from tsproject.ancestor_query import _MAX_WALK_DEPTH
from tsproject.oracle_testkit import (
    random_template,
    walk_weight_enumeration,
    window_common_ancestor,
)


def test_running_example_query(running_tpl):
    """X_t and Z_t share the ancestor X_{t-4}."""
    assert CommonAncestorEngine(running_tpl).query("X", 0, "Z")


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


def _reflexive_ancestors(s, v):
    """v and every node with a path to v over the summary edges."""
    parents = {}
    for src, dst in s.edges:
        parents.setdefault(dst, []).append(src)
    seen, stack = {v}, [v]
    while stack:
        for u in parents.get(stack.pop(), ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def test_summary_prefilter_is_a_shared_summary_ancestor():
    """summary_prefilter(s, i, j) holds iff the reflexive ancestor sets of i
    and j over the summary edges meet, for every pair of 200 seeded random
    summaries; the sparse ones have pairs with no shared ancestor."""
    answers = {True: 0, False: 0}
    for seed in range(200):
        tpl = random_template(seed, 2 + seed % 6, 1 + seed % 3, (0.05, 0.1, 0.2, 0.35)[seed % 4])
        s = build_mw_summary(tpl)
        ancestors = {v: _reflexive_ancestors(s, v) for v in s.nodes}
        for i in s.nodes:
            for j in s.nodes:
                expected = bool(ancestors[i] & ancestors[j])
                assert summary_prefilter(s, i, j) == expected, (seed, i, j)
                answers[expected] += 1
    assert min(answers.values()) > 500, answers


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


def test_query_needs_a_cycle_class_outside_the_touch_set():
    """K has no parents, so K[t-tau] and I[t] share an ancestor iff tau is a
    walk weight from K to I.  The only witness for tau = 14 is
    K[t-14] -> I[t-13] -> A[t-8] -> A[t-5] -> I[t]: it detours through A's
    self-loop class, which lies outside the touch set of the path K -> I, so
    the answer needs a cone of a non-empty minimal monoid member."""
    tpl = make_template(
        ["K", "I", "A"],
        directed=[("K", 1, "I"), ("I", 5, "A"), ("A", 5, "I"), ("A", 3, "A")],
    )
    engine = CommonAncestorEngine(tpl)
    weights = walk_weight_enumeration(build_mw_summary(tpl), "K", "I", 60)
    assert 14 in weights
    for tau in range(61):
        assert engine.query("K", tau, "I") == (tau in weights), tau


def test_query_needs_a_minimal_set_of_two_classes():
    """K has no parents, so the answer is True iff tau is a walk weight from
    K to J.  The path K -> J touches only the J-U class (weight 4); U-V (6)
    is reachable only through J-U, and V-W (5) only through U-V.  A walk of
    weight 20 can only be 1 + 4 + 4 + 6 + 5: it needs V-W, which lies only in
    the closure of the minimal set {J-U, U-V}, so the answer needs a cone of
    a minimal set of two classes."""
    tpl = make_template(
        ["K", "J", "U", "V", "W"],
        directed=[
            ("K", 1, "J"),
            ("J", 2, "U"),
            ("U", 2, "J"),
            ("U", 3, "V"),
            ("V", 3, "U"),
            ("V", 2, "W"),
            ("W", 3, "V"),
        ],
    )
    engine = CommonAncestorEngine(tpl)
    walks = WalkWeights(tpl, 60)  # exact: the only ancestor of K[t-tau] is itself
    assert engine.query("K", 20, "J")
    for tau in range(40):
        assert engine.query("K", tau, "J") == walks.query("K", tau, "J"), tau


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


def test_the_cone_search_stops_at_its_limit(monkeypatch):
    """random_template(5, 4, 2, 0.3) keeps up to 20 sets in one cone search,
    that of the trivial path at X4; with the limit patched to 10, X1 -> X1
    meets a search past it and is refused."""
    tpl = random_template(5, 4, 2, 0.3)
    assert CommonAncestorEngine(tpl).query("X1", 0, "X1")
    monkeypatch.setattr(summary_mwdg, "_MAX_CONE_TERMS", 10)
    with pytest.raises(ValidationError, match="the cone search keeps more than 10 sets"):
        CommonAncestorEngine(tpl).query("X1", 0, "X1")


def test_the_cone_pair_search_stops_at_its_limit(monkeypatch):
    """On random_template(5, 4, 2, 0.3), X1 -> X1 at tau 0 tries 196 cone
    pairs before a solvable one; with the limit patched to 100 it is refused."""
    tpl = random_template(5, 4, 2, 0.3)
    assert CommonAncestorEngine(tpl).query("X1", 0, "X1")
    monkeypatch.setattr(ancestor_query, "_MAX_CONE_PAIRS", 100)
    with pytest.raises(ValidationError, match="tries more than 100 cone pairs"):
        CommonAncestorEngine(tpl).query("X1", 0, "X1")


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


class TestWalkerReach:
    def test_rejects_bidirected_template(self, fig3_tpl):
        with pytest.raises(ValidationError, match="canonicalize bidirected edges first"):
            WalkerReach(fig3_tpl, 5)

    def test_rejects_negative_reach(self, running_tpl):
        with pytest.raises(ValidationError):
            WalkerReach(running_tpl, -1)

    def test_reach_is_at_least_the_largest_lag(self, running_tpl):
        """With a reach below the largest lag K a forward step could leave the
        state range, so the engine searches to K instead."""
        assert WalkerReach(running_tpl, 0).reach == 5
        assert WalkerReach(running_tpl, 7).reach == 7

    def test_rejects_tau_past_the_reach(self, running_tpl):
        engine = WalkerReach(running_tpl, 6)
        assert engine.query("X", 6, "X")
        with pytest.raises(ValidationError, match="reach"):
            engine.query("X", 7, "X")

    def test_rejects_negative_tau(self, running_tpl):
        with pytest.raises(ValidationError, match="tau must be non-negative"):
            WalkerReach(running_tpl, 3).query("X", -1, "Z")

    def test_rejects_unknown_variable(self, running_tpl):
        engine = WalkerReach(running_tpl, 3)
        with pytest.raises(ValidationError):
            engine.query("X", 0, "Q")
        with pytest.raises(ValidationError):
            engine.query("Q", 0, "X")

    def test_walker_reach_steps_either_walker_at_equal_times(self):
        """X -> Y at lag 0: (Y, t) and (X, t) meet at (X, t) only by a step
        of A from Y at delta = 0, and (X, t) and (Y, t) only by one of B; the
        search steps either walker at every delta."""
        engine = WalkerReach(make_template(["X", "Y"], directed=[("X", 0, "Y")]), 2)
        assert engine.query("Y", 0, "X")
        assert engine.query("X", 0, "Y")
        assert not engine.query("X", 1, "Y")

    def test_walker_reach_steps_only_the_later_walker(self):
        """X -> Y at lag 1 and X -> X at lag 2.  (X, t-1) and (Y, t) meet
        only by a step of the later walker, B: A has no parent at X.
        (Y, t-1) and (X, t) meet at (X, t-2), where the later-walker walks of
        the completeness proof step B first, then A; the search, which steps
        either walker within the band, reaches it too.  (X, t) and (Y, t)
        share none: X is an ancestor of X[t] at even offsets only, and of
        Y[t] at odd ones."""
        tpl = make_template(["X", "Y"], directed=[("X", 1, "Y"), ("X", 2, "X")])
        engine = WalkerReach(tpl, 4)
        assert engine.query("X", 1, "Y")
        assert engine.query("Y", 1, "X")
        assert not engine.query("X", 0, "Y")

    def test_the_tail_matches_an_uncapped_search(self, monkeypatch):
        """With the limits patched so that the search stops at R = K, the
        tail answers every lag in (K, 60].  An uncapped search (limits
        patched high) is its reference at every lag, the cone engine at
        three."""
        answers = []
        for seed in range(40):
            tpl = canonical_ts_dag(
                random_template(seed, 2 + seed % 4, 1 + seed % 3, 0.3, bidirected_density=0.05)
            )
            k, n = max_lag(tpl), len(tpl.variables)
            monkeypatch.setattr(ancestor_query, "_MAX_WALKER_STATES", 10**12)
            monkeypatch.setattr(ancestor_query, "_MAX_WALKER_STEPS", 10**12)
            exact = WalkerReach(tpl, 60)
            monkeypatch.setattr(ancestor_query, "_MAX_WALKER_STATES", n * n * (2 * k + 1))
            tail = WalkerReach(tpl, 60)
            cone = CommonAncestorEngine(tpl)
            for i in tpl.variables:
                for j in tpl.variables:
                    for tau in range(k + 1, 61):
                        answers.append(exact.query(i, tau, j))
                        assert answers[-1] == tail.query(i, tau, j), (seed, i, tau, j)
                    for tau in (k + 1, 2 * k + 1, 60):
                        assert exact.query(i, tau, j) == cone.query(i, tau, j), (seed, i, tau, j)
        assert answers.count(True) > 20_000 and answers.count(False) > 10_000

    def test_refuses_a_largest_lag_past_its_limits(self, monkeypatch):
        """A ring of 40 variables at lag 1 plus X0 -> X1 at lag 200,000: the
        limits fit R = 62 at most, far below K, so the band search is
        refused before it starts, which would otherwise run for minutes."""
        names = [f"X{k}" for k in range(40)]
        ring = [(names[k], 1, names[(k + 1) % 40]) for k in range(40)]
        tpl = make_template(names, directed=ring + [("X0", 200_000, "X1")])
        assert ancestor_query._largest_reach(tpl) == 62

        def search(*args):
            raise AssertionError("the band search started")

        monkeypatch.setattr(ancestor_query, "_fixpoint", search)
        with pytest.raises(
            ValidationError,
            match="the two-walker search at the largest lag 200000 exceeds the limits",
        ):
            WalkerReach(tpl, 0)

    def test_a_band_of_ten_thousand_steps_matches_the_cone_engine(self):
        """At reach 10^4 these templates search the band to R = 10^4 (the
        limits fit R >= 11,110), far past K = 2 or 5; the cone engine checks
        25 sampled lags in (K, 10^4] per pair of variables.  X1 -> X2 -> X1
        at lags 0 and 1 plus X3's self-loops, X1 -> X2 -> X1 at lags 1 and 2
        with no self-loop, and X's self-loops of lags 3 and 5, which both
        walkers close along.  About 0.6 s on 2 vCPUs."""
        templates = [
            random_template(11, 3, 2, 0.3),
            random_template(10, 2, 2, 0.3),
            make_template(["X"], directed=[("X", 3, "X"), ("X", 5, "X")]),
        ]
        rng = random.Random(0)
        answers = []
        for tpl in templates:
            engine, cone, k = WalkerReach(tpl, 10**4), CommonAncestorEngine(tpl), max_lag(tpl)
            assert engine._r == 10**4
            for i in tpl.variables:
                for j in tpl.variables:
                    for tau in rng.sample(range(k + 1, 10**4 + 1), 25):
                        answers.append(engine.query(i, tau, j))
                        assert answers[-1] == cone.query(i, tau, j), (tpl, i, tau, j)
        assert answers.count(True) > 200 and answers.count(False) > 50

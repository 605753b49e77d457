import hashlib
import random
import time

import pytest

from tsproject import (
    CommonAncestorEngine,
    FiniteMixedGraph,
    TsVertex,
    ValidationError,
    WalkerReach,
    WalkWeights,
    admg_latent_project,
    canonical_ts_dag,
    cutoff_bound,
    dmag_project,
    make_template,
    marginal_ts_admg,
    marginal_ts_dmag,
    max_lag,
    simple_marginal_ts_admg,
    unroll_window,
)
from tsproject import ancestor_query, ts_projection
from tsproject.ancestor_query import (
    _MAX_WALK_DEPTH,
    _MAX_WALKER_STATES,
    _MAX_WALKER_STEPS,
    _default_engine,
)
from tsproject.finite_projection import _MAX_INDEX_VERTICES, canonical_dag
from tsproject.oracle_testkit import dmag_by_subset_enumeration, random_template, window_marginal
from test_acceptance import truncated_random_template


def edge(i, ti, j, tj):
    return (TsVertex(i, ti), TsVertex(j, tj))


def has_bidirected(g, i, ti, j, tj):
    return edge(i, ti, j, tj) in g.bidirected or edge(j, tj, i, ti) in g.bidirected


class TestCanonicalTsDag:
    def test_ts_dag_passes_through(self, running_tpl):
        assert canonical_ts_dag(running_tpl) is running_tpl

    def test_bidirected_entry_becomes_latent_fork(self, fig3_tpl):
        dag = canonical_ts_dag(fig3_tpl)
        assert dag.is_ts_dag
        aux = [v for v in dag.variables if v.startswith("L(")]
        assert aux == ["L(X2,X1,1)"]
        assert (aux[0], 1, "X1") in dag.directed_t
        assert (aux[0], 0, "X2") in dag.directed_t

    def test_original_edges_preserved(self, fig3_tpl):
        dag = canonical_ts_dag(fig3_tpl)
        assert fig3_tpl.directed_t <= dag.directed_t


class TestSimpleMarginal:
    def test_rejects_bidirected_input(self, fig3_tpl):
        with pytest.raises(ValidationError):
            simple_marginal_ts_admg(fig3_tpl, 1)

    def test_directed_part_is_window_segment(self, b1_tpl):
        marg = simple_marginal_ts_admg(b1_tpl, 1)
        assert marg.directed == unroll_window(b1_tpl, 1).directed

    def test_b1_bidirected_edges(self, b1_tpl):
        marg = simple_marginal_ts_admg(b1_tpl, 1)
        assert has_bidirected(marg, "X", 1, "Y", 0)
        assert has_bidirected(marg, "X", 1, "X", 0)
        assert has_bidirected(marg, "Y", 1, "X", 0)

    def test_shift_invariance_of_bidirected_edges(self, b1_tpl):
        """An edge at offsets (a, b) implies the same pattern one step deeper in
        the past: the confounding witness shifts along but never re-enters the
        window."""
        p = 4
        marg = simple_marginal_ts_admg(b1_tpl, p)
        for u, v in marg.bidirected:
            if u.offset < p and v.offset < p:
                assert has_bidirected(marg, u.var, u.offset + 1, v.var, v.offset + 1)


class TestMarginalTsAdmg:
    def test_b2_distant_confounding(self, b2_tpl):
        """X3 confounds X1 and X5 four steps back; only the lagged pair survives."""
        marg = marginal_ts_admg(b2_tpl, ["X1", "X5"], 1)
        assert has_bidirected(marg, "X1", 1, "X5", 1)

    def test_rejects_empty_observed(self, b1_tpl):
        with pytest.raises(ValidationError):
            marginal_ts_admg(b1_tpl, [], 1)

    def test_rejects_unknown_observed(self, b1_tpl):
        with pytest.raises(ValidationError):
            marginal_ts_admg(b1_tpl, ["X", "Q"], 1)
        with pytest.raises(ValidationError, match="unknown variable"):
            marginal_ts_admg(b1_tpl, ["X", ["Y"]], 1)  # unhashable

    def test_matches_window_oracle_on_small_templates(self):
        for seed in range(8):
            tpl = random_template(seed, n_vars=3, max_lag=2, edge_density=0.2)
            for p in (0, 1):
                w = cutoff_bound(tpl, p).p_cut + p
                assert marginal_ts_admg(tpl, tpl.variables, p) == window_marginal(
                    tpl, tpl.variables, p, w
                ), (seed, p)

    def test_matches_window_oracle_at_wider_windows(self):
        """At p = 3 and 5 an offset pattern spans up to six offsets, so a wrong
        first offset of its edges shows; windows past 150 steps are skipped."""
        checked = 0
        for seed in range(100):
            tpl = random_template(
                seed, n_vars=3, max_lag=2, edge_density=0.25, bidirected_density=0.08
            )
            for p in (3, 5):
                w = cutoff_bound(canonical_ts_dag(tpl), p).p_cut + p
                if w > 150:
                    continue
                for observed in (tpl.variables, tpl.variables[:2]):
                    assert marginal_ts_admg(tpl, observed, p) == window_marginal(
                        tpl, observed, p, w
                    ), (seed, p, observed)
                    checked += 1
        assert checked >= 250

    def test_walk_weight_engine_matches_window_oracle(self):
        """The walk-weight engine at depth p_cut + p, on templates with
        bidirected entries; windows past 1500 steps are left to the benchmark."""
        checked = 0
        for seed in range(30):
            tpl = random_template(
                seed, n_vars=3, max_lag=2, edge_density=0.25, bidirected_density=0.08
            )
            ctpl = canonical_ts_dag(tpl)
            for p in (0, 1, 2):
                w = cutoff_bound(ctpl, p).p_cut + p
                if w > 1500:
                    continue
                mine = marginal_ts_admg(tpl, tpl.variables, p, WalkWeights(ctpl, w))
                assert mine == window_marginal(tpl, tpl.variables, p, w), (seed, p)
                checked += 1
        assert checked >= 80

    def test_cone_engine_matches_walk_weights_on_dense_grid(self):
        """The cone engine against the walk-weight engine at depth p_cut + 1 on
        the dense random_template grid the benchmark's dense cases come from
        (5 variables, seeds 0-29; 6 variables, seeds 0-23), whose monoids are
        nearly the whole power set of up to 111 cycle classes: the marginal at
        p=1, and every query up to tau = 5 (a search that also grows sets by
        points not adjacent to them changes some queries but no marginal)."""
        grid = [(seed, 5) for seed in range(30)] + [(seed, 6) for seed in range(24)]
        negatives = 0
        for seed, n_vars in grid:
            for density in (0.25, 0.3):
                tpl = random_template(seed, n_vars=n_vars, max_lag=2, edge_density=density)
                case = (seed, n_vars, density)
                engine = CommonAncestorEngine(tpl)
                walks = WalkWeights(tpl, cutoff_bound(tpl, 1).p_cut + 1)
                mine = marginal_ts_admg(tpl, tpl.variables, 1, engine)
                assert mine == marginal_ts_admg(tpl, tpl.variables, 1, walks), case
                walks = WalkWeights(tpl, cutoff_bound(tpl, 5).p_cut + 5)
                for i in tpl.variables:
                    for j in tpl.variables:
                        for tau in range(6):
                            answer = engine.query(i, tau, j)
                            assert answer == walks.query(i, tau, j), (case, i, tau, j)
                            negatives += not answer
        assert negatives > 500

    def test_rejects_engine_of_another_template(self, fig3_tpl, b1_tpl):
        with pytest.raises(ValidationError):
            marginal_ts_admg(fig3_tpl, ["X1"], 1, CommonAncestorEngine(b1_tpl))
        with pytest.raises(ValidationError):
            marginal_ts_admg(fig3_tpl, ["X1"], 1, WalkWeights(b1_tpl, 9))

    def test_rejects_a_window_over_the_vertex_limit(self, fig3_tpl):
        """The window holds fig3's own 3 variables, not the auxiliary of its
        bidirected entry; p = 33,333 is the first window over the limit, with
        100,002 window vertices."""
        assert _MAX_INDEX_VERTICES == 10**5
        for project in (marginal_ts_admg, marginal_ts_dmag):
            with pytest.raises(ValidationError, match="3 x 33334 window vertices exceed the limit"):
                project(fig3_tpl, ["X1"], 33_333)

    def test_admg_input_goes_through_canonicalization(self, fig3_tpl):
        marg = marginal_ts_admg(fig3_tpl, ["X1", "X2", "X3"], 1)
        assert has_bidirected(marg, "X2", 1, "X1", 0)

    @pytest.mark.parametrize(
        "case, digest",
        [
            ((1, 40, 3, 0.6), "e573cbd44a5cace966beb1c3423e9e66d6fdcaa462579110dc651f850926d92a"),
            ((1, 30, 5, 0.6), "ee304b8505c0bc3faac78408d9e32a2552581eb247616d8244bbb67de11846ac"),
            ((1, 60, 1, 0.6), "a95e90059b2f016f68b7d51d0079257e4048df7cabc9298f2041aa3da3628fdd"),
        ],
    )
    def test_many_parent_templates(self, case, digest):
        """32 to 114 parents per variable.  The projection asks one question
        per lag pair, not per parent pair, so it takes well under 3 s (a
        per-parent-pair search took 8-11 s on 2 vCPUs) with the same bytes.  A
        window of 3 steps, which the oracle searches in about 0.1 s, can only
        lose bidirected edges, never add one."""
        tpl = random_template(*case)
        started = time.perf_counter()
        marg = marginal_ts_admg(tpl, tpl.variables, 1)
        assert time.perf_counter() - started < 3
        assert hashlib.sha256(marg.to_json().encode()).hexdigest() == digest
        truncated = window_marginal(tpl, tpl.variables, 1, 3)
        assert truncated.directed == marg.directed
        assert truncated.bidirected and truncated.bidirected <= marg.bidirected


class _Recorder:
    """Answers from ``engine`` and keeps every query a projection asks."""

    def __init__(self, engine):
        self.tpl, self.engine, self.asked = engine.tpl, engine, set()

    def query(self, i, tau, j):
        self.asked.add((i, tau, j))
        return self.engine.query(i, tau, j)


def _three_way(tpl, p, monkeypatch):
    """Checks that the default projection of tpl at p equals the cone
    engine's, and that WalkerReach, the cone engine and walk weights at the
    cutoff depth agree on every query the projection asks.  Then, with the
    limits patched so that a WalkerReach searches only to R = K and its tail
    answers every larger lag, checks that it agrees with an uncapped one
    (limits patched high, the tail's independent reference) on the asked
    queries and on every query up to lag p + K.  Returns (answer, whether
    the tail answered) per query checked."""
    ctpl = canonical_ts_dag(tpl)
    k, reach = max_lag(ctpl), p + max_lag(ctpl)
    with monkeypatch.context() as m:
        m.setattr(ancestor_query, "_MAX_WALKER_STATES", 10**12)
        m.setattr(ancestor_query, "_MAX_WALKER_STEPS", 10**12)
        walker = _Recorder(WalkerReach(ctpl, reach))
        m.setattr(ancestor_query, "_MAX_WALKER_STATES", len(ctpl.variables) ** 2 * (2 * k + 1))
        tail = WalkerReach(ctpl, reach)
    cone = CommonAncestorEngine(ctpl)
    mine = marginal_ts_admg(tpl, tpl.variables, p)
    assert mine == marginal_ts_admg(tpl, tpl.variables, p, cone)
    assert mine == marginal_ts_admg(tpl, tpl.variables, p, walker)
    answers = []
    if walker.asked:
        depth = max(tau for _, tau, _ in walker.asked)
        walks = WalkWeights(ctpl, cutoff_bound(ctpl, depth).p_cut + depth)
        for i, tau, j in sorted(walker.asked):
            answer = walker.engine.query(i, tau, j)
            assert answer == tail.query(i, tau, j), (i, tau, j)
            assert answer == cone.query(i, tau, j) == walks.query(i, tau, j), (i, tau, j)
            answers.append((answer, False))
    for i in ctpl.variables:
        for j in ctpl.variables:
            for tau in range(k + 1, reach + 1):
                answer = walker.engine.query(i, tau, j)
                assert answer == tail.query(i, tau, j), (i, tau, j)
                answers.append((answer, True))
    return answers


class TestDefaultEngine:
    """A WalkerReach answers every lag up to the depth when its search fits
    the state and step limits at R = K and its tail is within the
    walk-weight depth limit; the cone engine answers otherwise.  A
    projection asks for depth K."""

    def test_three_engines_agree_on_the_criterion_3_corpus(self, monkeypatch):
        """Every query that a criterion-3 projection at p = 0-2 asks, and the
        tail at every lag up to p + K."""
        rng = random.Random(20240823)
        answers = []
        for n in range(200):
            tpl = truncated_random_template(n, rng)
            for p in (0, 1, 2):
                answers += _three_way(tpl, p, monkeypatch)
        for in_tail in (False, True):
            assert answers.count((True, in_tail)) > 500 and answers.count((False, in_tail)) > 500

    def test_three_engines_agree_on_the_dense_grid(self, monkeypatch):
        """Every query that a p = 1 projection of the 108 dense-grid cases of
        test_cone_engine_matches_walk_weights_on_dense_grid asks, and the
        tail at lag K + 1."""
        grid = [(seed, 5) for seed in range(30)] + [(seed, 6) for seed in range(24)]
        answers = []
        for seed, n_vars in grid:
            for density in (0.25, 0.3):
                tpl = random_template(seed, n_vars=n_vars, max_lag=2, edge_density=density)
                answers += _three_way(tpl, 1, monkeypatch)
        assert answers.count((True, False)) > 1000 and answers.count((False, False)) > 0
        assert answers.count((True, True)) > 1000 and answers.count((False, True)) > 0

    @pytest.mark.parametrize(
        "case", [(4, 7, 2, 0.3), (4, 8, 2, 0.3), (5, 8, 2, 0.3), (0, 16, 1, 0.1), (1, 16, 1, 0.12)]
    )
    def test_matches_walk_weights_on_the_frontier(self, case):
        """Templates the cone engine takes from 5 s to more than 30 s to
        project at p = 1; walk weights at the cutoff depth take under 1 s."""
        tpl = random_template(*case)
        assert isinstance(_default_engine(tpl, max_lag(tpl)), WalkerReach)
        walks = WalkWeights(tpl, cutoff_bound(tpl, 1).p_cut + 1)
        assert marginal_ts_admg(tpl, tpl.variables, 1) == marginal_ts_admg(
            tpl, tpl.variables, 1, walks
        )

    def test_walker_reach_up_to_the_state_limit(self):
        """Two variables make 4 (2 K + 1) states at R = K, whatever the depth
        up to the walk-weight limit: K for a projection, or tau."""
        assert _MAX_WALKER_STATES == 2 * 10**5
        for lag, engine in ((24_999, WalkerReach), (25_000, CommonAncestorEngine)):
            tpl = make_template(["X", "Y"], directed=[("X", lag, "Y")])
            for depth in (0, lag, 10**6):
                assert type(_default_engine(tpl, depth)) is engine
            assert type(_default_engine(tpl, _MAX_WALK_DEPTH + 1)) is CommonAncestorEngine

    def test_walker_reach_up_to_the_step_limit(self):
        """X -> Y at lags 1..m: 4 (2 m + 1) m steps at R = K = m, only
        4 (2 m + 1) states, whatever the depth."""
        assert _MAX_WALKER_STEPS == 4 * 10**6
        for m, engine in ((706, WalkerReach), (707, CommonAncestorEngine)):
            tpl = make_template(["X", "Y"], directed=[("X", lag, "Y") for lag in range(1, m + 1)])
            for depth in (m, 10**6):
                assert type(_default_engine(tpl, depth)) is engine

    def test_over_the_limit_goes_to_the_cone_engine(self, monkeypatch):
        """The lag-100000 template of test_cli.py has 9 x 200,001 states at
        R = K."""
        tpl = make_template(
            ["X", "Y", "Z"], directed=[("X", 1, "Y"), ("Y", 2, "X"), ("X", 100_000, "Z")]
        )

        def refuse(tpl, reach):
            raise AssertionError("WalkerReach over the state limit")

        monkeypatch.setattr(ancestor_query, "WalkerReach", refuse)
        marg = marginal_ts_admg(tpl, ["X", "Z"], 1)
        assert has_bidirected(marg, "X", 1, "Z", 0)


class TestMarginalTsDmag:
    def test_output_is_ancestral(self, b1_tpl):
        from tsproject.finite_projection import ancestors

        mag = marginal_ts_dmag(b1_tpl, ["X", "Y"], 2)
        for u, v in mag.bidirected:
            assert u not in ancestors(mag, {v})
            assert v not in ancestors(mag, {u})

    def test_latent_named_like_a_canonical_dag_latent(self):
        """A variable named as canonical_dag names its latents, l(X[0],Y[0]),
        next to the bidirected edge X[0] <-> Y[0] that such a latent would
        replace: the DMAG is projected from the marginal ADMG as it is."""
        tpl = make_template(
            ["X", "Y", "l(X[0],Y[0])"],
            directed=[("l(X[0],Y[0])", 1, "X")],
            bidirected=[("X", 0, "Y")],
        )
        mag = marginal_ts_dmag(tpl, tpl.variables, 0)
        marginal = marginal_ts_admg(tpl, tpl.variables, 0)
        assert (TsVertex("X", 0), TsVertex("Y", 0)) in marginal.bidirected
        assert mag == dmag_by_subset_enumeration(marginal, marginal.vertices)

    def test_adjacencies_superset_of_admg(self, b2_tpl):
        admg = marginal_ts_admg(b2_tpl, ["X1", "X5"], 1)
        mag = marginal_ts_dmag(b2_tpl, ["X1", "X5"], 1)
        admg_adj = {frozenset(e) for e in admg.directed | admg.bidirected}
        mag_adj = {frozenset(e) for e in mag.directed | mag.bidirected}
        assert admg_adj <= mag_adj


    def test_matches_subset_enumeration_on_observed_subsets(self):
        """The literal DMAG definition on the window marginal at p_cut + p,
        over proper observed subsets with at most 7 observed vertices, on
        templates with bidirected entries; windows past 150 steps are
        skipped."""
        checked = with_bidirected = 0
        for seed in range(16):
            tpl = random_template(
                seed, n_vars=3, max_lag=2, edge_density=0.25, bidirected_density=0.1
            )
            for observed in (tpl.variables[:1], tpl.variables[1:], tpl.variables[::2]):
                for p in range(7 // len(observed)):
                    w = cutoff_bound(canonical_ts_dag(tpl), p).p_cut + p
                    if w > 150:
                        continue
                    marginal = window_marginal(tpl, observed, p, w)
                    expected = dmag_by_subset_enumeration(
                        canonical_dag(marginal), marginal.vertices
                    )
                    mag = marginal_ts_dmag(tpl, observed, p)
                    assert mag == expected, (seed, observed, p)
                    checked += 1
                    with_bidirected += bool(mag.bidirected)
        assert checked >= 120 and with_bidirected >= 70


@pytest.mark.parametrize("project", [marginal_ts_admg, marginal_ts_dmag])
@pytest.mark.parametrize("name, observed", [("running", "X,Z"), ("fig3", "X1,X3")])
def test_one_finite_graph_per_projection(monkeypatch, request, project, name, observed):
    """A projection constructs one FiniteMixedGraph, its result, and every
    check of the constructor runs on it."""
    tpl = request.getfixturevalue(f"{name}_tpl")
    built = []
    check = FiniteMixedGraph.__post_init__

    def counted(self):
        check(self)
        built.append(self)

    monkeypatch.setattr(FiniteMixedGraph, "__post_init__", counted)
    for variables in (tpl.variables, observed.split(",")):
        built.clear()
        result = project(tpl, variables, 2)
        assert len(built) == 1 and built[0] is result


class TestCutoffBound:
    def test_running_example_values(self, running_tpl):
        for p in (0, 1, 2):
            q = cutoff_bound(running_tpl, p)
            assert (q.K, q.L, q.M) == (3, 6, 5)
            assert q.p_cut == 10 * p + 125

    def test_b1_values(self, b1_tpl):
        q = cutoff_bound(b1_tpl, 0)
        assert (q.K, q.L, q.M) == (5, 1, 8)
        assert q.p_cut == 26 * 0 + 319

    def test_acyclic_summary_degenerates(self):
        tpl = make_template(["A", "B"], directed=[("A", 3, "B")])
        q = cutoff_bound(tpl, 2)
        assert (q.K, q.M) == (0, 0)
        assert q.p_cut == 2 + q.L == 5

    def test_rejects_bidirected(self, fig3_tpl):
        with pytest.raises(ValidationError):
            cutoff_bound(fig3_tpl, 0)

    def test_walk_weights_at_a_large_lag_match_the_cone_engine(self):
        """Single queries at tau 5000 and 50,000 on a dense template, where
        the two-walker search is over its state limit: walk weights to the
        cutoff depth (0.45 M and 4.2 M steps) and the default engine, whose
        tail answers, agree with the cone engine, True and False alike."""
        tpl = canonical_ts_dag(random_template(0, 16, 1, 0.1))
        engine = CommonAncestorEngine(tpl)
        pairs = [("X1", "X16"), ("X16", "X1"), ("X12", "X1"), ("X12", "X4"),
                 ("X8", "X9"), ("X2", "X15"), ("X12", "X12"), ("X16", "X16")]
        answers = []
        for tau in (5000, 50_000):
            assert len(tpl.variables) ** 2 * (2 * tau + 1) > _MAX_WALKER_STATES
            walks = WalkWeights(tpl, cutoff_bound(tpl, tau).p_cut + tau)
            default = _default_engine(tpl, tau)
            assert isinstance(default, WalkerReach)
            for i, j in pairs:
                answers.append(engine.query(i, tau, j))
                assert answers[-1] == walks.query(i, tau, j) == default.query(i, tau, j), (
                    i, tau, j,
                )
        assert answers.count(False) == 2


def test_project_arbitrary_subset(b1_tpl):
    marg = marginal_ts_admg(b1_tpl, ["X", "Y"], 2)
    keep = {TsVertex("X", 0), TsVertex("Y", 2)}
    small = admg_latent_project(marg, keep)
    assert small.vertices == frozenset(keep)


def _random_ts_admg(seed):
    """A random_template ts-DAG of 2 to 4 variables with 1 to 4 bidirected
    entries, lagged or at lag 0, in either direction, self-entries included."""
    rng = random.Random(seed)
    base = random_template(seed, n_vars=rng.randint(2, 4), max_lag=2, edge_density=0.25)
    bidirected = []
    for _ in range(rng.randint(1, 4)):
        a, b = rng.choice(base.variables), rng.choice(base.variables)
        bidirected.append((a, rng.randint(int(a == b), 2), b))
    return make_template(base.variables, directed=base.directed_t, bidirected=bidirected)


def test_projections_match_the_route_through_the_canonical_window():
    """The window over the template's own variables, with each bidirected
    entry written as sibling edges, gives the same marginal and DMAG as the
    window over the canonical ts-DAG, auxiliaries included, projected onto
    the observed window vertices with the public finite projections."""
    checked, lags = 0, set()
    for seed in range(40):
        tpl = _random_ts_admg(seed)
        lags |= {lag > 0 for _, lag, _ in tpl.bidirected_t}
        ctpl = canonical_ts_dag(tpl)
        rng = random.Random(-seed)
        for p in range(5):
            full = simple_marginal_ts_admg(ctpl, p)
            proper = rng.sample(tpl.variables, rng.randint(1, len(tpl.variables) - 1))
            for observed in (tpl.variables, proper):
                window = [TsVertex(v, off) for v in observed for off in range(p + 1)]
                admg = admg_latent_project(full, window)
                mine = marginal_ts_admg(tpl, observed, p)
                assert (mine, mine.to_json()) == (admg, admg.to_json()), (seed, observed, p)
                assert marginal_ts_dmag(tpl, observed, p) == dmag_project(admg, window), (
                    seed, observed, p,
                )
                checked += 1
    assert checked == 400 and lags == {False, True}


class TestEngineOnDemand:
    """The window marginal builds its engine at the first lag pair that a
    shared parent does not settle."""

    @staticmethod
    def _refuse(monkeypatch):
        def refuse(tpl, depth):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(ts_projection, "_default_engine", refuse)

    def test_a_projection_that_asks_nothing_builds_no_engine(self, monkeypatch):
        """Y and Z share their only parent before the window, X at lag 1, and
        no variable has a parent at a lag above 1, so every lag pair is
        settled without a query, also with the bidirected entry's auxiliary
        among Z's parents."""
        tpl = make_template(
            ["X", "Y", "Z"], directed=[("X", 1, "Y"), ("X", 1, "Z")], bidirected=[("Y", 1, "Z")]
        )
        expected = {
            (observed, p): (marginal_ts_admg(tpl, observed, p), marginal_ts_dmag(tpl, observed, p))
            for observed in (tpl.variables, ("Y", "Z"))
            for p in range(4)
        }
        self._refuse(monkeypatch)
        for (observed, p), (admg, dmag) in expected.items():
            assert marginal_ts_admg(tpl, observed, p) == admg
            assert marginal_ts_dmag(tpl, observed, p) == dmag
        admg = expected[("Y", "Z"), 3][0]
        assert has_bidirected(admg, "Y", 3, "Z", 2)
        assert has_bidirected(admg, "Y", 1, "Z", 1)  # the shared parent (X, 2)

    @pytest.mark.parametrize("project", [marginal_ts_admg, marginal_ts_dmag])
    @pytest.mark.parametrize("name, distinct", [("running", 7), ("fig3", 1)])
    def test_a_projection_that_asks_builds_one_engine(
        self, monkeypatch, request, project, name, distinct
    ):
        """running asks 7 distinct queries at p = 2, fig3 one, about its
        auxiliary; one engine answers them all."""
        tpl = request.getfixturevalue(f"{name}_tpl")
        default = ts_projection._default_engine
        built = []

        def counted(tpl, depth):
            built.append(_Recorder(default(tpl, depth)))
            return built[-1]

        monkeypatch.setattr(ts_projection, "_default_engine", counted)
        project(tpl, tpl.variables, 2)
        assert len(built) == 1 and len(built[0].asked) == distinct

    def test_the_simple_marginal_refuses_a_ts_admg_before_any_query(
        self, monkeypatch, fig3_tpl
    ):
        self._refuse(monkeypatch)
        with pytest.raises(ValidationError, match="canonicalize bidirected edges first"):
            simple_marginal_ts_admg(fig3_tpl, 0)

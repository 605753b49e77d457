"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(run pytest with -s to see them alongside the usual report).
"""

import functools
import itertools
import math
import random
import time

from tsproject import (
    CommonAncestorEngine,
    ConeTuple,
    FiniteMixedGraph,
    MwSummaryGraph,
    SolvabilityInstance,
    TsVertex,
    ValidationError,
    admg_latent_project,
    bounded_representable,
    build_graph_of_cycles,
    canonical_ts_dag,
    case_number,
    cone_contains,
    cutoff_bound,
    cycle_free_paths,
    enumerate_cycle_classes,
    get_monoid,
    has_nonneg_solution,
    lag1_shortcut,
    m_separated,
    make_template,
    marginal_ts_admg,
    tuple_sets,
)
from tsproject.finite_projection import ancestors, dmag_project
from tsproject.oracle_testkit import (
    dmag_by_subset_enumeration,
    random_template,
    walk_weight_enumeration,
    window_common_ancestor,
    window_marginal,
)


def report(criterion, description):
    """Print one PASS/FAIL line per criterion, whatever the test outcome."""

    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {criterion} ({description}): FAIL")
                raise
            print(f"criterion {criterion} ({description}): PASS")

        return wrapper

    return decorator


def bidirected_pairs(g):
    return {frozenset((u, v)) for u, v in g.bidirected}


def truncated_random_template(seed, rng):
    tpl = random_template(
        seed,
        n_vars=rng.randint(1, 4),
        max_lag=rng.randint(1, 3),
        edge_density=0.18,
        bidirected_density=0.08,
    )
    return make_template(tpl.variables, tpl.directed_t, sorted(tpl.bidirected_t)[:2])


@report(1, "running example end-to-end")
def test_criterion_1_running_example(running_tpl):
    start = time.monotonic()
    engine = CommonAncestorEngine(running_tpl)
    s, classes, goc = engine.summary, engine.classes, engine.goc

    def all_tuples(tau, pi):
        out = set()
        for subset in engine.monoid(pi):
            out |= {(t.a0, t.coeffs) for t in tuple_sets(s, tau, pi, subset, classes, goc)}
        return out

    assert all_tuples(0, ("X", "Y", "Z")) == {(1, (2, 3)), (6, (2, 3))}
    assert all_tuples(0, ("X",)) == {(0, (2, 3))}

    instance = SolvabilityInstance(ConeTuple(0, (2, 3)), ConeTuple(1, (2, 3)))
    assert has_nonneg_solution(instance)

    assert engine.query("X", 0, "Z")

    for p in (0, 1, 2):
        q = cutoff_bound(running_tpl, p)
        assert (q.K, q.L, q.M) == (3, 6, 5)
        assert q.p_cut == 10 * p + 125

    assert time.monotonic() - start < 1.0


@report(2, "deep-confounder regressions")
def test_criterion_2_deep_confounder_regressions(b1_tpl, b2_tpl):
    start = time.monotonic()
    marg = marginal_ts_admg(b1_tpl, ["X", "Y"], 1)
    expected = [
        frozenset({TsVertex("X", 1), TsVertex("Y", 0)}),
        frozenset({TsVertex("X", 1), TsVertex("X", 0)}),
        frozenset({TsVertex("Y", 1), TsVertex("X", 0)}),
    ]
    assert all(e in bidirected_pairs(marg) for e in expected)

    shallow = window_marginal(b1_tpl, ["X", "Y"], 1, 10)
    assert all(e not in bidirected_pairs(shallow) for e in expected)

    assert not window_common_ancestor(b1_tpl, "X", 1, "Y", 10)
    assert window_common_ancestor(b1_tpl, "X", 1, "Y", 12)

    marg2 = marginal_ts_admg(b2_tpl, ["X1", "X5"], 1)
    distant = frozenset({TsVertex("X1", 1), TsVertex("X5", 1)})
    assert distant in bidirected_pairs(marg2)
    assert distant not in bidirected_pairs(window_marginal(b2_tpl, ["X1", "X5"], 1, 2))

    assert time.monotonic() - start < 1.0


@report(3, "projection equals cutoff-window oracle")
def test_criterion_3_projection_oracle():
    start = time.monotonic()
    rng = random.Random(20240823)
    for n in range(200):
        tpl = truncated_random_template(n, rng)
        for p in (0, 1, 2):
            w = cutoff_bound(canonical_ts_dag(tpl), p).p_cut + p
            assert marginal_ts_admg(tpl, tpl.variables, p) == window_marginal(
                tpl, tpl.variables, p, w
            ), (n, p)
    assert time.monotonic() - start < 300.0


@report(4, "cone decomposition equals walk enumeration")
def test_criterion_4_cone_decomposition_oracle():
    produced = 0
    seed = 0
    while produced < 50:
        rng = random.Random(seed)
        seed += 1
        n = rng.randint(1, 4)
        nodes = tuple(f"N{k}" for k in range(n))
        edges = {}
        for a in nodes:
            for b in nodes:
                if rng.random() < 0.35:
                    low = 1 if a == b else 0
                    edges[(a, b)] = tuple(sorted(rng.sample(range(low, 5), rng.randint(1, 2))))
        try:
            s = MwSummaryGraph(nodes, edges)
        except ValidationError:
            continue
        produced += 1
        classes = sorted(enumerate_cycle_classes(s))
        goc = build_graph_of_cycles(classes)
        for k in nodes:
            for i in nodes:
                walk_weights = walk_weight_enumeration(s, k, i, 50)
                for tau in range(4):
                    cones = set()
                    for pi in cycle_free_paths(s, k, i):
                        for subset in get_monoid(pi, classes, goc):
                            cones |= tuple_sets(s, tau, pi, subset, classes, goc)
                    mine = {v for v in range(51) if any(cone_contains(t, v) for t in cones)}
                    reference = {v + tau for v in walk_weights if v + tau <= 50}
                    assert mine == reference, (seed - 1, k, i, tau)


@report(5, "solvability decision procedure")
def test_criterion_5_solver():
    rng = random.Random(5)

    solvable = 0
    while solvable < 1000:
        mu, nu = rng.randint(0, 3), rng.randint(0, 3)
        lhs_coeffs = tuple(sorted(rng.randint(1, 12) for _ in range(mu)))
        rhs_coeffs = tuple(sorted(rng.randint(1, 12) for _ in range(nu)))
        left = sum(rng.randint(0, 6) * a for a in lhs_coeffs)
        right = sum(rng.randint(0, 6) * a for a in rhs_coeffs)
        rhs_a0 = max(0, left - right) + rng.randint(0, 20)
        lhs_a0 = rhs_a0 + right - left
        instance = SolvabilityInstance(
            ConeTuple(lhs_a0, lhs_coeffs), ConeTuple(rhs_a0, rhs_coeffs)
        )
        assert has_nonneg_solution(instance), instance
        solvable += 1

    rejected = 0
    while rejected < 200:
        lhs_coeffs = tuple(sorted(rng.randint(2, 12) for _ in range(rng.randint(1, 3))))
        rhs_coeffs = tuple(sorted(rng.randint(2, 12) for _ in range(rng.randint(1, 3))))
        g = math.gcd(math.gcd(*lhs_coeffs), math.gcd(*rhs_coeffs))
        if g == 1:
            continue
        c = rng.randint(0, 40)
        if c % g == 0:
            c += 1
            if c % g == 0:
                continue
        instance = SolvabilityInstance(ConeTuple(c, lhs_coeffs), ConeTuple(0, rhs_coeffs))
        assert case_number(instance) == 5
        assert not has_nonneg_solution(instance), instance
        rejected += 1

    # shortcut vs bounded search on every representability query in range
    for _ in range(2000):
        c = rng.randint(1, 300)
        coeffs = tuple(rng.randint(1, 20) for _ in range(rng.randint(1, 4)))
        g = math.gcd(*coeffs)
        if c % g != 0:
            continue
        reduced = [a // g for a in coeffs]
        if c // g >= (min(reduced) - 1) * (max(reduced) - 1):
            assert bounded_representable(c, coeffs), (c, coeffs)


def random_dag(seed, max_n=8, max_latent=3):
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    verts = [TsVertex(f"V{k}", 0) for k in range(n)]
    order = list(verts)
    rng.shuffle(order)
    rank = {v: k for k, v in enumerate(order)}
    directed = frozenset(
        (u, v) for u in verts for v in verts if rank[u] < rank[v] and rng.random() < 0.3
    )
    latent = frozenset(rng.sample(verts, min(rng.randint(0, max_latent), n - 1)))
    return FiniteMixedGraph(vertices=frozenset(verts), directed=directed, latent=latent)


@report(6, "DMAG projection equals subset enumeration")
def test_criterion_6_dmag():
    start = time.monotonic()
    for seed in range(100):
        dag = random_dag(seed)
        observed = dag.observed
        mag = dmag_project(dag, observed)
        assert mag == dmag_by_subset_enumeration(dag, observed), seed

        # ancestrality: no bidirected edge between a vertex and its ancestor
        anc = {v: ancestors(mag, {v}) for v in observed}
        for u, v in mag.bidirected:
            assert u not in anc[v] and v not in anc[u], seed

        # maximality: every non-adjacent pair is m-separated by some subset
        adjacent = {frozenset(e) for e in mag.directed | mag.bidirected}
        obs_sorted = sorted(observed)
        for i, j in itertools.combinations(obs_sorted, 2):
            others = [v for v in obs_sorted if v not in (i, j)]
            if frozenset((i, j)) in adjacent:
                continue
            assert any(
                m_separated(mag, {i}, {j}, set(z))
                for r in range(len(others) + 1)
                for z in itertools.combinations(others, r)
            ), (seed, i, j)

        # the ADMG latent projection preserves m-separation among the observed
        proj = admg_latent_project(dag, observed)
        for i, j in itertools.combinations(obs_sorted, 2):
            others = [v for v in obs_sorted if v not in (i, j)]
            for r in range(len(others) + 1):
                for z in itertools.combinations(others, r):
                    assert m_separated(dag, {i}, {j}, set(z)) == m_separated(
                        proj, {i}, {j}, set(z)
                    ), (seed, i, j, z)
    assert time.monotonic() - start < 300.0


@report(7, "lag-1 shortcut agrees with full pipeline")
def test_criterion_7_lag1_shortcut():
    for seed in range(50):
        base = random_template(seed, n_vars=4, max_lag=3, edge_density=0.2)
        tpl = make_template(
            base.variables,
            directed=set(base.directed_t) | {(v, 1, v) for v in base.variables},
        )
        engine = CommonAncestorEngine(tpl)
        for i in tpl.variables:
            for j in tpl.variables:
                for tau in range(4):
                    fast = lag1_shortcut(tpl, i, tau, j)
                    assert fast is not None
                    assert fast == engine.query(i, tau, j), (seed, i, tau, j)

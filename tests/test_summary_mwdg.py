import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from tsproject import (
    CommonAncestorEngine,
    ConeTuple,
    CycleClass,
    MwSummaryGraph,
    ValidationError,
    access_points,
    build_graph_of_cycles,
    build_mw_summary,
    closure,
    cutoff_bound,
    cycle_free_paths,
    enumerate_cycle_classes,
    generating_set,
    get_monoid,
    make_template,
    monoid_from_generating_set,
    path_weightset,
    tuple_sets,
)
from tsproject.diophantine import bounded_representable
from tsproject.oracle_testkit import random_template


@pytest.fixture
def running_summary(running_tpl):
    return build_mw_summary(running_tpl)


@pytest.fixture
def toy_summary(toy_tpl):
    return build_mw_summary(toy_tpl)


def by_rep(classes):
    return {c.representative: c for c in classes}


def literal_touch(pi, classes):
    """The touch set by definition: the classes that share a node with pi."""
    return frozenset(c for c in classes if c.node_set & set(pi))


def test_summary_collects_lags_per_edge(running_summary):
    assert running_summary.edges[("Y", "Z")] == (0, 5)
    assert running_summary.edges[("X", "X")] == (2,)


def test_summary_rejects_bidirected_template(fig3_tpl):
    with pytest.raises(ValidationError):
        build_mw_summary(fig3_tpl)


def test_weak_acyclicity_rejects_zero_self_loop():
    with pytest.raises(ValidationError):
        MwSummaryGraph(nodes=("A",), edges={("A", "A"): (0, 1)})


def test_weak_acyclicity_rejects_zero_weight_cycle():
    with pytest.raises(ValidationError):
        MwSummaryGraph(nodes=("A", "B"), edges={("A", "B"): (0,), ("B", "A"): (0, 2)})


def test_running_cycle_classes(running_summary):
    classes = by_rep(enumerate_cycle_classes(running_summary))
    assert set(classes) == {("X",), ("X", "Y")}
    assert classes[("X",)].weights == (2,)
    assert classes[("X", "Y")].weights == (3,)


def test_cycle_weights_are_minkowski_sums():
    s = MwSummaryGraph(nodes=("A", "B"), edges={("A", "B"): (1, 2), ("B", "A"): (0, 3)})
    classes = by_rep(enumerate_cycle_classes(s))
    assert classes[("A", "B")].weights == (1, 2, 4, 5)


def test_rotation_equivalent_cycles_collapse():
    s = MwSummaryGraph(
        nodes=("A", "B", "C"),
        edges={("A", "B"): (1,), ("B", "C"): (1,), ("C", "A"): (1,)},
    )
    classes = enumerate_cycle_classes(s)
    assert len(classes) == 1


def test_cycle_class_hashes_and_sorts_as_its_plain_pair():
    """GraphOfCycles numbers the classes in sorted order, and sets of classes
    iterate in hash order."""
    classes = set()
    for seed in range(6):
        tpl = random_template(seed, n_vars=4, max_lag=2, edge_density=0.3)
        classes |= enumerate_cycle_classes(build_mw_summary(tpl))
    assert len(classes) >= 10
    for c in classes:
        assert hash(c) == hash((c.representative, c.weights))
    pairs = sorted((c.representative, c.weights) for c in classes)
    assert sorted(classes) == [CycleClass(*p) for p in pairs]


def test_graph_of_cycles_links_sharing_classes(running_summary):
    classes = enumerate_cycle_classes(running_summary)
    goc = build_graph_of_cycles(classes)
    # both classes contain X, so they are linked
    assert len(goc.edges) == 1


def test_cycle_free_paths_trivial_walk(running_summary):
    assert cycle_free_paths(running_summary, "X", "X") == {("X",)}
    assert cycle_free_paths(running_summary, "Z", "X") == frozenset()
    assert ("X", "Y", "Z") in cycle_free_paths(running_summary, "X", "Z")


def test_path_weightset(running_summary):
    assert path_weightset(running_summary, ("X",)) == (0,)
    assert path_weightset(running_summary, ("X", "Y", "Z")) == (1, 6)
    with pytest.raises(ValidationError):
        path_weightset(running_summary, ("Z", "Y"))


def test_toy_touch_set_uses_node_intersection(toy_summary):
    """The walk (1, 2) touches the class on {2, 3} but not the one on {3, 4}."""
    goc = build_graph_of_cycles(enumerate_cycle_classes(toy_summary))
    touch = goc.decode(goc.touch_mask(("1", "2")))
    assert {c.representative for c in touch} == {("2", "3")}


def test_toy_access_points_and_monoid(toy_summary):
    classes = sorted(enumerate_cycle_classes(toy_summary))
    goc = build_graph_of_cycles(classes)
    touch = literal_touch(("1", "2"), classes)
    points = access_points(goc, touch)
    assert {c.representative for c in points} == {("2", "3")}
    monoid = get_monoid(("1", "2"), classes, goc)
    assert {frozenset(c.representative for c in S) for S in monoid} == {
        frozenset(),
        frozenset({("2", "3")}),
    }


def test_toy_closures(toy_summary):
    classes = sorted(enumerate_cycle_classes(toy_summary))
    goc = build_graph_of_cycles(classes)
    touch = literal_touch(("1", "2"), classes)
    c2 = by_rep(classes)[("2", "3")]
    assert closure(frozenset(), touch, goc) == touch
    assert closure({c2}, touch, goc) == frozenset(classes)


def test_running_monoid_is_trivial(running_summary):
    """No class has a neighbor outside the touch set of (X, Y, Z), so M = {{}}."""
    classes = sorted(enumerate_cycle_classes(running_summary))
    goc = build_graph_of_cycles(classes)
    assert get_monoid(("X", "Y", "Z"), classes, goc) == {frozenset()}


def test_running_tuple_sets(running_summary):
    classes = sorted(enumerate_cycle_classes(running_summary))
    goc = build_graph_of_cycles(classes)
    d_xz = tuple_sets(running_summary, 0, ("X", "Y", "Z"), frozenset(), classes, goc)
    assert {(t.a0, t.coeffs) for t in d_xz} == {(1, (2, 3)), (6, (2, 3))}
    d_xx = tuple_sets(running_summary, 0, ("X",), frozenset(), classes, goc)
    assert {(t.a0, t.coeffs) for t in d_xx} == {(0, (2, 3))}


def test_tuple_sets_expand_multiweight_classes():
    """A class with several weights contributes one coefficient per weight."""
    s = MwSummaryGraph(nodes=("A",), edges={("A", "A"): (3, 4)})
    classes = sorted(enumerate_cycle_classes(s))
    goc = build_graph_of_cycles(classes)
    (t,) = tuple_sets(s, 0, ("A",), frozenset(), classes, goc)
    assert t == ConeTuple(0, (3, 4))


def test_cone_tuple_validation():
    with pytest.raises(ValidationError):
        ConeTuple(-1, ())
    with pytest.raises(ValidationError):
        ConeTuple(0, (0,))


small_sets = st.frozensets(st.integers(min_value=0, max_value=5), max_size=3)


@given(st.lists(small_sets, max_size=4))
def test_monoid_is_union_closed_and_contains_empty(generators):
    monoid = monoid_from_generating_set(generators)
    assert frozenset() in monoid
    assert all(a | b in monoid for a in monoid for b in monoid)


@given(st.lists(small_sets, max_size=4))
def test_monoid_contains_generators(generators):
    monoid = monoid_from_generating_set(generators)
    assert set(generators) <= monoid


@given(st.lists(small_sets, max_size=4))
def test_monoid_is_minimal(generators):
    """Every element is the union of the generators it contains."""
    monoid = monoid_from_generating_set(generators)
    for m in monoid:
        assert frozenset().union(*(g for g in generators if g <= m)) == m


def random_weakly_acyclic_summaries(count, max_classes, min_classes=2):
    """The criterion-4 generator, keeping graphs with min_classes..max_classes
    cycle classes."""
    seed = 0
    while count:
        rng = random.Random(seed)
        seed += 1
        nodes = tuple(f"N{k}" for k in range(rng.randint(1, 4)))
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
        if min_classes <= len(enumerate_cycle_classes(s)) <= max_classes:
            count -= 1
            yield s


def literal_goc(classes):
    """The graph of cycles by definition: two classes are linked iff they share a node."""
    g = nx.Graph()
    g.add_nodes_from(classes)
    g.add_edges_from(
        (c, d) for c, d in itertools.combinations(classes, 2) if c.node_set & d.node_set
    )
    return g


def literal_accessors(g, src, w):
    """The S-access points for w by definition: neighbours v of w that some
    path from S reaches in GoC - w."""
    h = nx.restricted_view(g, [w], [])
    return {v for v in g[w] if any(nx.has_path(h, t, v) for t in src if t != w)}


def test_access_relation_matches_definition():
    """access_points and closure against the literal definition: v is an
    S-access point for w outside S iff v neighbours w and some path from S
    reaches v in GoC - w."""
    checked = 0
    for s in random_weakly_acyclic_summaries(100, max_classes=7):
        classes = sorted(enumerate_cycle_classes(s))
        goc = build_graph_of_cycles(classes)
        g = literal_goc(classes)
        assert goc.edges == {frozenset(e) for e in g.edges}

        def accessors(src, w):
            return literal_accessors(g, src, w)

        subsets = [
            frozenset(c) for r in range(4) for c in itertools.combinations(classes, r)
        ]
        paths = sorted(
            {pi for k in s.nodes for i in s.nodes for pi in cycle_free_paths(s, k, i)}
        )
        for src in subsets + [literal_touch(pi, classes) for pi in paths]:
            expected = {v for w in goc.classes if w not in src for v in accessors(src, w)}
            assert access_points(goc, src) == expected
            checked += 1
        for pi in paths:
            touch = literal_touch(pi, classes)
            for subset in set(get_monoid(pi, classes, goc)) | set(subsets):
                expected = subset | touch | {
                    w for w in goc.classes if w not in touch and accessors(touch, w) & subset
                }
                assert closure(subset, touch, goc) == expected, (pi, subset)
                checked += 1
    assert checked > 1000


def test_generating_set_matches_simple_path_enumeration():
    """generating_set against networkx: the empty path, and every simple path
    in the subgraph of ``points`` that starts in the touch set and then stays
    outside it."""
    checked = 0
    for s in random_weakly_acyclic_summaries(100, max_classes=7):
        classes = sorted(enumerate_cycle_classes(s))
        goc = build_graph_of_cycles(classes)
        g = literal_goc(classes)
        subsets = [
            frozenset(c) for r in range(4) for c in itertools.combinations(classes, r)
        ]
        for touch in subsets:
            for points in (access_points(goc, touch), frozenset(classes)):
                expected = {()}
                for v in touch & points:
                    expected.add((v,))
                    h = g.subgraph((points - touch) | {v})
                    for target in points - touch:
                        expected |= {tuple(p) for p in nx.all_simple_paths(h, v, target)}
                assert generating_set(goc, touch, points) == expected, (touch, points)
                checked += 1
    assert checked > 1000


def test_engine_cones_match_tuple_sets():
    """Seeded differential test on the criterion-4 generator: the engine's
    cone set of each path is the union of the tuple sets of the
    inclusion-minimal monoid members of each closure, every tuple set over the
    monoid lies in one of those cones with the same coefficients, and each
    tuple set follows its definition, with the closure taken from the literal
    access relation."""
    checked = pruned = 0
    for s in random_weakly_acyclic_summaries(100, max_classes=7):
        tpl = make_template(
            s.nodes, directed=[(a, lag, b) for (a, b), lags in s.edges.items() for lag in lags]
        )
        engine = CommonAncestorEngine(tpl)
        classes = sorted(enumerate_cycle_classes(s))
        goc = build_graph_of_cycles(classes)
        g = literal_goc(classes)
        for k in s.nodes:
            for i in s.nodes:
                for pi in engine.paths(k, i):
                    touch = literal_touch(pi, classes)
                    by_closure, full = {}, set()
                    for subset in get_monoid(pi, classes, goc):
                        cl = subset | touch | {
                            w for w in classes
                            if w not in touch and literal_accessors(g, touch, w) & subset
                        }
                        coeffs = tuple(x for c in sorted(cl) for x in c.weights)
                        heads = set(path_weightset(s, pi))
                        for c in subset:
                            heads = {h + x for h in heads for x in c.weights}
                        tuples = {
                            (t.a0, t.coeffs) for t in tuple_sets(s, 0, pi, subset, classes, goc)
                        }
                        assert tuples == {(a0, coeffs) for a0 in heads}, (pi, subset)
                        by_closure.setdefault(cl, {})[subset] = tuples
                        full |= tuples
                    expected = set()
                    for members in by_closure.values():
                        for subset, tuples in members.items():
                            if not any(other < subset for other in members):
                                expected |= tuples
                    assert engine.cones(pi) == expected, pi
                    for a0, coeffs in full:
                        assert any(
                            kept == coeffs
                            and (a0 == b0 or coeffs and a0 > b0
                                 and bounded_representable(a0 - b0, coeffs))
                            for b0, kept in expected
                        ), (pi, a0, coeffs)
                    pruned += len(full) > len(expected)
                    checked += 1
    assert checked > 500 and pruned > 50


def test_in_monoid_matches_monoid_masks():
    """GraphOfCycles._in_monoid against the union closure of the generating
    paths, for every subset of the classes and the touch set of every path
    on the criterion-4 generator."""
    checked = 0
    for s in random_weakly_acyclic_summaries(100, max_classes=7):
        goc = build_graph_of_cycles(enumerate_cycle_classes(s))
        touches = {
            goc.touch_mask(pi)
            for k in s.nodes
            for i in s.nodes
            for pi in cycle_free_paths(s, k, i)
        }
        for touch in touches:
            monoid = goc.monoid_masks(touch)
            points = goc.accessors(touch)[1]
            for subset in range(1 << len(goc.classes)):
                assert goc._in_monoid(subset, touch, points) == (subset in monoid), (
                    touch,
                    subset,
                )
                checked += subset in monoid
    assert checked > 1000


def summary_digraph(s):
    """The summary graph as a networkx DiGraph, for the reference searches."""
    g = nx.DiGraph()
    g.add_nodes_from(s.nodes)
    g.add_edges_from(s.edges)
    return g


def kernel_test_summaries():
    """The criterion-4 generator, and the dense random_template grid that the
    benchmark's dense cases come from."""
    yield from random_weakly_acyclic_summaries(150, max_classes=100, min_classes=0)
    for seed in range(30):
        for n_vars, density in ((5, 0.25), (5, 0.3), (6, 0.25), (6, 0.3)):
            yield build_mw_summary(random_template(seed, n_vars, 2, density))


def test_cycle_classes_match_networkx_simple_cycles():
    """enumerate_cycle_classes against nx.simple_cycles: one class per simple
    cycle up to rotation, self-loops included, with the Minkowski sum of the
    edge weights along the cycle."""
    counts = []
    for s in kernel_test_summaries():
        expected = set()
        for cycle in nx.simple_cycles(summary_digraph(s)):
            pivot = cycle.index(min(cycle))
            rep = tuple(cycle[pivot:] + cycle[:pivot])
            expected.add((rep, path_weightset(s, rep + rep[:1])))
        got = {(c.representative, c.weights) for c in enumerate_cycle_classes(s)}
        assert got == expected, s
        counts.append(len(expected))
    assert len(counts) == 270 and counts.count(0) > 10 and max(counts) > 20


def test_cycle_free_paths_match_networkx_simple_paths():
    """cycle_free_paths against nx.all_simple_paths for every (k, i)."""
    checked = 0
    for s in kernel_test_summaries():
        g = summary_digraph(s)
        for k in s.nodes:
            for i in s.nodes:
                expected = {(k,)} if k == i else set(map(tuple, nx.all_simple_paths(g, k, i)))
                assert cycle_free_paths(s, k, i) == expected, (s, k, i)
                checked += len(expected)
    assert checked > 10_000


def test_cutoff_bound_matches_literal_cycle_and_path_maxima():
    """cutoff_bound against K, L and M from nx.simple_cycles and
    nx.all_simple_paths: K and M are the largest and the sum of the cycle
    maxima, L the largest weight of a directed or trivial cycle-free path."""
    for s in kernel_test_summaries():
        tpl = make_template(
            s.nodes, directed=[(a, w, b) for (a, b), ws in s.edges.items() for w in ws]
        )
        g = summary_digraph(s)
        maxima = [max(path_weightset(s, c + c[:1])) for c in nx.simple_cycles(g)]
        big_k, big_m = max(maxima, default=0), sum(maxima)
        big_l = max(
            max(path_weightset(s, pi))
            for k in s.nodes
            for i in s.nodes
            for pi in ([[k]] if k == i else nx.all_simple_paths(g, k, i))
        )
        for p in (0, 3):
            q = cutoff_bound(tpl, p)
            assert (q.K, q.L, q.M) == (big_k, big_l, big_m), s
            assert q.p_cut == (big_k**2 + 1) * (p + big_l + big_m) + big_k * (
                (big_k - 1) ** 2 + 1
            )

import itertools
import random

import pytest

from tsproject import (
    FiniteMixedGraph,
    TsVertex,
    ValidationError,
    admg_latent_project,
    ancestors,
    canonical_dag,
    dmag_project,
    has_inducing_path,
    m_separated,
    unroll_window,
)
from tsproject.oracle_testkit import dmag_by_subset_enumeration, msep_by_path_enumeration


def v(name, off=0):
    return TsVertex(name, off)


def chain(*names):
    verts = [v(n) for n in names]
    return FiniteMixedGraph(
        vertices=frozenset(verts),
        directed=frozenset(zip(verts, verts[1:])),
    )


def random_mixed_graph(seed, n_max=6, directed_p=0.3, bidirected_p=0.15):
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    verts = [v(f"V{k}") for k in range(n)]
    order = list(verts)
    rng.shuffle(order)
    rank = {u: k for k, u in enumerate(order)}
    directed = frozenset(
        (a, b) for a in verts for b in verts if rank[a] < rank[b] and rng.random() < directed_p
    )
    bidirected = frozenset(
        pair for pair in itertools.combinations(verts, 2) if rng.random() < bidirected_p
    )
    return FiniteMixedGraph(frozenset(verts), directed, bidirected)


def test_ancestors_are_reflexive_and_transitive():
    g = chain("A", "B", "C")
    assert ancestors(g, {v("C")}) == {v("A"), v("B"), v("C")}
    assert ancestors(g, {v("A")}) == {v("A")}


def test_ancestors_rejects_unknown_seed():
    with pytest.raises(ValidationError):
        ancestors(chain("A", "B"), {v("Q")})


class TestAdmgLatentProjection:
    def test_directed_through_latent_chain(self):
        g = chain("A", "L", "B")
        proj = admg_latent_project(g, {v("A"), v("B")})
        assert proj.directed == {(v("A"), v("B"))}
        assert not proj.bidirected

    def test_latent_common_cause_becomes_bidirected(self):
        l, a, b = v("L"), v("A"), v("B")
        g = FiniteMixedGraph(frozenset({l, a, b}), directed=frozenset({(l, a), (l, b)}))
        proj = admg_latent_project(g, {a, b})
        assert proj.bidirected == {(a, b)}
        assert not proj.directed

    def test_latent_mediated_bidirected_edge(self):
        # A <- K <-> L -> B projects to A <-> B
        a, b, k, l = v("A"), v("B"), v("K"), v("L")
        g = FiniteMixedGraph(
            frozenset({a, b, k, l}),
            directed=frozenset({(k, a), (l, b)}),
            bidirected=frozenset({(k, l)}),
        )
        proj = admg_latent_project(g, {a, b})
        assert proj.bidirected == {(a, b)}

    def test_collider_on_latent_path_blocks_projection(self):
        # A -> L <- B: L is a collider, no confounding path into both ends
        a, b, l = v("A"), v("B"), v("L")
        g = FiniteMixedGraph(frozenset({a, b, l}), directed=frozenset({(a, l), (b, l)}))
        proj = admg_latent_project(g, {a, b})
        assert not proj.bidirected and not proj.directed

    def test_projection_onto_all_vertices_is_identity(self, running_tpl):
        g = unroll_window(running_tpl, 4)
        assert admg_latent_project(g, g.vertices) == g

    def test_projection_commutes_with_partition(self):
        """Projecting in two stages equals projecting in one (seeds 0..19)."""
        for seed in range(20):
            g = random_mixed_graph(seed)
            verts = sorted(g.vertices)
            rng = random.Random(seed + 1)
            keep = frozenset(rng.sample(verts, max(1, len(verts) // 2)))
            mid = keep | frozenset(rng.sample(verts, max(1, len(verts) // 2)))
            one_step = admg_latent_project(g, keep)
            two_step = admg_latent_project(admg_latent_project(g, mid), keep)
            assert one_step == two_step, seed


def test_canonical_dag_replaces_bidirected_edges():
    a, b = v("A"), v("B")
    g = FiniteMixedGraph(frozenset({a, b}), bidirected=frozenset({(a, b)}))
    dag = canonical_dag(g)
    assert not dag.bidirected
    assert len(dag.latent) == 1
    (l,) = dag.latent
    assert dag.directed == {(l, a), (l, b)}


def test_canonical_dag_then_project_recovers_graph():
    for seed in range(15):
        g = random_mixed_graph(seed)
        dag = canonical_dag(g)
        assert admg_latent_project(dag, g.vertices) == g, seed


class TestMSeparation:
    def test_chain_blocked_by_middle(self):
        g = chain("A", "B", "C")
        assert not m_separated(g, {v("A")}, {v("C")}, set())
        assert m_separated(g, {v("A")}, {v("C")}, {v("B")})

    def test_collider_opens_when_conditioned(self):
        a, b, c = v("A"), v("B"), v("C")
        g = FiniteMixedGraph(frozenset({a, b, c}), directed=frozenset({(a, b), (c, b)}))
        assert m_separated(g, {a}, {c}, set())
        assert not m_separated(g, {a}, {c}, {b})

    def test_conditioning_on_collider_descendant_opens(self):
        a, b, c, d = v("A"), v("B"), v("C"), v("D")
        g = FiniteMixedGraph(
            frozenset({a, b, c, d}), directed=frozenset({(a, b), (c, b), (b, d)})
        )
        assert not m_separated(g, {a}, {c}, {d})

    def test_bidirected_edge_connects(self):
        a, b = v("A"), v("B")
        g = FiniteMixedGraph(frozenset({a, b}), bidirected=frozenset({(a, b)}))
        assert not m_separated(g, {a}, {b}, set())

    def test_rejects_overlapping_sets(self):
        g = chain("A", "B")
        with pytest.raises(ValidationError):
            m_separated(g, {v("A")}, {v("A")}, set())

    def test_agrees_with_path_enumeration(self):
        for seed in range(30):
            g = random_mixed_graph(seed)
            verts = sorted(g.vertices)
            for x, y in itertools.combinations(verts, 2):
                rest = [u for u in verts if u not in (x, y)]
                for r in range(len(rest) + 1):
                    for z in itertools.combinations(rest, r):
                        assert m_separated(g, {x}, {y}, set(z)) == msep_by_path_enumeration(
                            g, {x}, {y}, set(z)
                        ), (seed, x, y, z)


class TestInducingPaths:
    def test_adjacent_vertices_always_have_one(self):
        g = chain("A", "B")
        assert has_inducing_path(g, v("A"), v("B"), frozenset())

    def test_latent_collider_ancestor_of_endpoint(self):
        # A -> L <- B with L -> B' ... the classic: A -> L <- B, L latent,
        # L is an ancestor of neither endpoint, so the path is not inducing.
        a, b, l = v("A"), v("B"), v("L")
        g = FiniteMixedGraph(frozenset({a, b, l}), directed=frozenset({(a, l), (b, l)}))
        assert not has_inducing_path(g, a, b, {l})
        # making L an ancestor of B turns it inducing
        b2 = v("B2")
        g2 = FiniteMixedGraph(
            frozenset({a, b, l, b2}), directed=frozenset({(a, l), (b2, l), (l, b)})
        )
        assert has_inducing_path(g2, a, b, {l})


class TestDmagProjection:
    def test_rejects_non_dag(self):
        a, b = v("A"), v("B")
        g = FiniteMixedGraph(frozenset({a, b}), bidirected=frozenset({(a, b)}))
        with pytest.raises(ValidationError):
            dmag_project(g, {a, b})

    def test_latent_confounder_yields_bidirected(self):
        a, b, l = v("A"), v("B"), v("L")
        g = FiniteMixedGraph(
            frozenset({a, b, l}),
            directed=frozenset({(l, a), (l, b)}),
            latent=frozenset({l}),
        )
        mag = dmag_project(g, {a, b})
        assert mag.bidirected == {(a, b)}

    def test_collider_ancestral_to_the_later_endpoint_only(self):
        """A -> B <- L -> C and B -> C: A and C are adjacent only through the
        inducing path A -> B <- L -> C, whose collider B is an ancestor of C
        but not of A."""
        a, b, c, l = v("A"), v("B"), v("C"), v("L")
        g = FiniteMixedGraph(
            frozenset({a, b, c, l}),
            directed=frozenset({(a, b), (l, b), (l, c), (b, c)}),
            latent=frozenset({l}),
        )
        mag = dmag_project(g, {a, b, c})
        assert (a, c) in mag.directed
        assert mag == dmag_by_subset_enumeration(g, {a, b, c})

    def test_ancestry_orients_edges(self):
        g = chain("A", "L", "B")
        g = FiniteMixedGraph(g.vertices, g.directed, latent=frozenset({v("L")}))
        mag = dmag_project(g, {v("A"), v("B")})
        assert mag.directed == {(v("A"), v("B"))}

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

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
    make_template,
    marginal_ts_admg,
    unroll_window,
)
from tsproject import finite_projection, ts_projection
from tsproject.finite_projection import _dmag, _Index, _latent_project
from tsproject.oracle_testkit import (
    _reference_latent_project,
    dmag_by_subset_enumeration,
    msep_by_path_enumeration,
    random_template,
)


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


@pytest.mark.parametrize("hash_seed", ["0", "3"])
def test_ancestors_names_unknown_seeds_in_sorted_order(hash_seed):
    """The message lists the unknown seeds sorted, whatever the hash order of
    the set they arrive in (under PYTHONHASHSEED=3 a set lists R:1 first)."""
    code = (
        "from tsproject import FiniteMixedGraph, TsVertex, ValidationError, ancestors\n"
        "g = FiniteMixedGraph(frozenset({TsVertex('A', 0)}))\n"
        "try:\n"
        "    ancestors(g, {TsVertex('R', 1), TsVertex('Q', 0), TsVertex('A', 0)})\n"
        "except ValidationError as e:\n"
        "    print(e)\n"
    )
    src = str(Path(finite_projection.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed})
    assert (done.stdout, done.stderr) == ("unknown vertices in seed set: Q:0, R:1\n", "")


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

    def test_refuses_a_graph_over_the_mask_limit(self, monkeypatch):
        """One mask per vertex: with the limit patched to 2, a graph of 3
        vertices is refused before any mask is built."""
        monkeypatch.setattr(finite_projection, "_MAX_INDEX_VERTICES", 2)
        assert admg_latent_project(chain("A", "B"), {v("A")}) == chain("A")
        with pytest.raises(ValidationError, match="^3 vertices exceed the limit of 2$"):
            admg_latent_project(chain("A", "L", "B"), {v("A"), v("B")})

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

    def test_matches_the_set_based_reference(self):
        """The mask kernel against the testkit's set-based projection, on
        unrolled windows of random ts-ADMGs with random latent sets."""
        with_bidirected = 0
        for seed in range(80):
            rng = random.Random(seed)
            tpl = random_template(
                seed, rng.randint(1, 4), 2, 0.3, bidirected_density=0.15
            )
            g = unroll_window(tpl, rng.randint(0, 5))
            observed = frozenset(u for u in sorted(g.vertices) if rng.random() < 0.5)
            mine = admg_latent_project(g, observed)
            assert mine.to_json() == _reference_latent_project(g, observed).to_json(), seed
            with_bidirected += bool(g.bidirected and mine.bidirected)
        assert with_bidirected >= 20

    def test_matches_the_reference_through_latent_chains(self):
        """Windows up to p = 8 in which whole rows of a variable are latent, so
        that latents have latent parents: confounding paths then run down
        latent chains, past the one-step neighbourhood of either endpoint."""
        beyond_one_step = 0
        for seed in range(60):
            rng = random.Random(seed)
            tpl = random_template(
                seed, rng.randint(2, 4), 2, 0.35, bidirected_density=rng.choice([0.0, 0.1])
            )
            g = unroll_window(tpl, rng.randint(3, 8))
            hidden = set(rng.sample(tpl.variables, rng.randint(1, len(tpl.variables) - 1)))
            observed = frozenset(
                u for u in g.vertices if u.var not in hidden and rng.random() < 0.8
            )
            mine = admg_latent_project(g, observed)
            assert mine.to_json() == _reference_latent_project(g, observed).to_json(), seed
            beyond_one_step += bool(mine.bidirected - _one_step_bidirected(g, observed))
        assert beyond_one_step >= 30


def _one_step_bidirected(g, observed):
    """The bidirected edges of the latent projection whose confounding path
    has at most one latent on each side: a common latent parent, or a
    bidirected edge between the endpoints or their latent parents."""
    sources = {i: {i} for i in observed}
    for u, w in g.directed:
        if w in observed and u not in observed:
            sources[w].add(u)
    siblings = {u: set() for u in g.vertices}
    for u, w in g.bidirected:
        siblings[u].add(w)
        siblings[w].add(u)
    return {
        (i, j)
        for i, j in itertools.combinations(sorted(observed), 2)
        if (sources[i] & sources[j]) - {i, j}
        or any(siblings[x] & sources[j] for x in sources[i])
    }


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

    def test_agrees_with_path_enumeration_on_vertex_sets(self):
        """Set-valued X and Y on unrolled windows of random ts-ADMGs."""
        answers = []
        for seed in range(40):
            rng = random.Random(seed)
            tpl = random_template(seed, 3, 2, 0.15, bidirected_density=0.1)
            g = unroll_window(tpl, 2)
            verts = sorted(g.vertices)
            for _ in range(6):
                rng.shuffle(verts)
                x, y = set(verts[:2]), set(verts[2:4])
                z = {u for u in verts[4:] if rng.random() < 0.5}
                answers.append(m_separated(g, x, y, z))
                assert answers[-1] == msep_by_path_enumeration(g, x, y, z), (seed, x, y, z)
        assert answers.count(True) >= 20 and answers.count(False) >= 20


def test_separation_queries_build_no_mask_index(monkeypatch):
    """m_separated and has_inducing_path walk the graph's own edges: with
    every mask constructor and mask reachability broken, m_separated still
    answers as path enumeration does, and has_inducing_path as worked out
    below."""
    def broken(*args, **kwargs):
        raise AssertionError("a mask structure was built")

    monkeypatch.setattr(finite_projection._Index, "__init__", broken)
    monkeypatch.setattr(finite_projection._Index, "of", broken)
    monkeypatch.setattr(finite_projection, "reach", broken)
    a, b, c, d = v("A"), v("B"), v("C"), v("D")
    g = FiniteMixedGraph(
        frozenset({a, b, c, d}), directed=frozenset({(a, b), (c, b), (b, d)}),
        bidirected=frozenset({(c, d)}),
    )
    for x, y in itertools.permutations(sorted(g.vertices), 2):
        rest = [u for u in sorted(g.vertices) if u not in (x, y)]
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                assert m_separated(g, {x}, {y}, z) == msep_by_path_enumeration(g, {x}, {y}, set(z))
    # A and C meet only at colliders (B, D) that are ancestors of neither;
    # A reaches D through the latent non-collider B
    assert not has_inducing_path(g, a, c, ())
    assert has_inducing_path(g, a, d, {b})
    assert not has_inducing_path(g, a, c, {b})


class TestInducingPaths:
    @pytest.mark.parametrize("i, j, named", [("Q", "B", "i = Q:0"), ("A", "Q", "j = Q:0"),
                                             ("Q", "R", "i = Q:0")])
    def test_rejects_an_endpoint_outside_the_graph(self, i, j, named):
        """Either endpoint is checked against the vertices, i first, before
        any walk."""
        with pytest.raises(ValidationError, match=f"^{named} is not one of the vertices$"):
            has_inducing_path(chain("A", "B"), v(i), v(j), ())

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


def _dmag_by_inducing_paths(dag):
    """The per-pair definition of the DMAG: observed i and j are adjacent iff
    the DAG has an inducing path between them relative to its latents, and
    the edge is oriented by ancestry."""
    observed = sorted(dag.observed)
    anc = {u: ancestors(dag, {u}) for u in observed}
    directed, bidirected = set(), set()
    for i, j in itertools.combinations(observed, 2):
        if not has_inducing_path(dag, i, j, dag.latent):
            continue
        if i in anc[j]:
            directed.add((i, j))
        elif j in anc[i]:
            directed.add((j, i))
        else:
            bidirected.add((i, j))
    return FiniteMixedGraph(
        frozenset(observed), frozenset(directed), frozenset(bidirected), var_order=dag.var_order
    )


def random_latent_chain_dag(seed, n_observed=30, n_chains=8):
    """A random DAG over ``n_observed`` observed vertices plus ``n_chains``
    chains of one to three latents; every latent has observed parents and
    observed children, and each chain is a directed path."""
    rng = random.Random(seed)
    observed = [v(f"O{k:02d}") for k in range(n_observed)]
    # a topological order by rank; O00 comes first, so every latent can have
    # an observed parent
    rank = {u: (rng.random() if k else 0.0) for k, u in enumerate(observed)}
    directed = {
        (a, b) for a, b in itertools.permutations(observed, 2)
        if rank[a] < rank[b] and rng.random() < 0.06
    }
    latent = set()
    for c in range(n_chains):
        chain = [v(f"L{c}_{k}") for k in range(rng.randint(1, 3))]
        for u, r in zip(chain, sorted(rng.uniform(0.05, 0.95) for _ in chain)):
            rank[u] = r
        latent.update(chain)
        directed.update(zip(chain, chain[1:]))
        for u in chain:
            before = [w for w in observed if rank[w] < rank[u]]
            after = [w for w in observed if rank[w] > rank[u]]
            for w in rng.sample(before, min(len(before), rng.randint(1, 2))):
                directed.add((w, u))
            for w in rng.sample(after, min(len(after), rng.randint(1, 3))):
                directed.add((u, w))
    return FiniteMixedGraph(
        frozenset(observed) | latent, frozenset(directed), latent=frozenset(latent)
    )


class TestDmagProjection:
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

    def test_agrees_with_subset_enumeration(self):
        """Up to 7 observed vertices: random mixed graphs, as they are and as
        their canonical DAGs; random DAGs with some vertices marked latent;
        and random mixed graphs with some vertices marked latent, as they are
        and as their canonical DAGs."""
        with_bidirected = 0
        for seed in range(40):
            g = random_mixed_graph(seed, n_max=7)
            dag = canonical_dag(g)
            mag = dmag_by_subset_enumeration(dag, g.vertices)
            assert dmag_project(dag, g.vertices) == mag, seed
            assert dmag_project(g, g.vertices) == mag, seed
            rng = random.Random(seed)
            h = random_mixed_graph(seed + 1000, n_max=9, bidirected_p=0.0)
            verts = sorted(h.vertices)
            latent = frozenset(rng.sample(verts, max(0, len(verts) - 7) + rng.randint(0, 2)))
            h = FiniteMixedGraph(h.vertices, h.directed, latent=latent)
            assert dmag_project(h, h.observed) == dmag_by_subset_enumeration(
                h, h.observed
            ), seed
            m = random_mixed_graph(seed + 2000, n_max=9)
            verts = sorted(m.vertices)
            latent = frozenset(rng.sample(verts, max(0, len(verts) - 7) + rng.randint(0, 2)))
            m = FiniteMixedGraph(m.vertices, m.directed, m.bidirected, latent=latent)
            mag = dmag_by_subset_enumeration(m, m.observed)
            assert dmag_project(m, m.observed) == mag, seed
            assert dmag_project(canonical_dag(m), m.observed) == mag, seed
            with_bidirected += bool(m.bidirected)
        assert with_bidirected >= 20

    @pytest.mark.parametrize("p", [6, 9, 12])
    @pytest.mark.parametrize("name", ["running", "b1", "b2", "fig3"])
    def test_matches_inducing_paths_on_canonical_windows(self, request, name, p):
        """The canonical DAGs that project-dmag builds, against the per-pair
        inducing-path definition, at windows too wide for subset enumeration."""
        tpl = request.getfixturevalue(f"{name}_tpl")
        marginal = marginal_ts_admg(tpl, tpl.variables, p)
        dag = canonical_dag(marginal)
        assert dmag_project(dag, marginal.vertices) == _dmag_by_inducing_paths(dag)

    def test_matches_inducing_paths_on_latent_chains(self):
        """Random DAGs with 30 to 36 observed vertices and latent chains; at
        least some adjacencies come from inducing paths through observed
        colliders, which the ADMG does not have as edges."""
        through_colliders = 0
        for seed in range(12):
            dag = random_latent_chain_dag(seed, n_observed=30 + seed % 7)
            mag = dmag_project(dag, dag.observed)
            assert mag == _dmag_by_inducing_paths(dag), seed
            admg = admg_latent_project(dag, dag.observed)
            through_colliders += len(mag.directed | mag.bidirected) - len(
                {frozenset(e) for e in admg.directed | admg.bidirected}
            )
        assert through_colliders >= 100

    @pytest.mark.parametrize("i_name, j_name", [("I", "J"), ("J", "I")])
    def test_inducing_path_with_two_bidirected_hops(self, i_name, j_name):
        """i <-> c1 <-> c2 <-> c3 <-> j, every <-> through a latent, with
        c1 -> i, c3 -> i and c2 -> j: the only inducing path between i and j
        has the colliders c1, c2, c3, and its middle collider c2 is an
        ancestor of j only.  Both endpoint names are tried, so that either one
        comes first in the vertex order."""
        i, j, c1, c2, c3 = v(i_name), v(j_name), v("C1"), v("C2"), v("C3")
        chain = [i, c1, c2, c3, j]
        hidden = [v(f"L{k}") for k in range(4)]
        directed = {(c1, i), (c3, i), (c2, j)}
        for l, a, b in zip(hidden, chain, chain[1:]):
            directed |= {(l, a), (l, b)}
        dag = FiniteMixedGraph(
            frozenset(chain + hidden), frozenset(directed), latent=frozenset(hidden)
        )
        observed = frozenset(chain)
        admg = admg_latent_project(dag, observed)
        assert not {(i, j), (j, i)} & (admg.directed | admg.bidirected)
        mag = dmag_project(dag, observed)
        assert (min(i, j), max(i, j)) in mag.bidirected
        assert mag == dmag_by_subset_enumeration(dag, observed)


def _against_the_order(seed, n_vars, bidirected_density):
    """``random_template(seed, n_vars, 2, 0.35, ...)`` with its variables
    listed sinks first, so that every lag-0 edge runs from a later variable
    to an earlier one."""
    tpl = random_template(seed, n_vars, 2, 0.35, bidirected_density=bidirected_density)
    lag0 = {(src, dst) for src, lag, dst in tpl.directed_t if lag == 0}
    rest, order = list(tpl.variables), []
    while rest:
        sink = next(x for x in rest if not any((x, y) in lag0 for y in rest))
        rest.remove(sink)
        order.append(sink)
    return make_template(order, tpl.directed_t, tpl.bidirected_t)


def _neither_index_order_is_topological(index):
    """Whether some vertex has a parent numbered above it and some vertex
    one numbered below it."""
    above = any(mask >> v for v, mask in enumerate(index.parents))
    below = any(mask & ((1 << v) - 1) for v, mask in enumerate(index.parents))
    return above and below


class TestTopologicalSweeps:
    """The kernels that sweep ``_Index.order`` on window marginals, whose
    lag-0 edges run against the template's variable order: neither the index
    order nor its reverse lists every parent before its children.  The
    latent sweep runs on the marginal renumbered by ``_Index.of``, its
    scattered observed vertices first."""

    def test_the_latent_sweep_matches_the_reference(self):
        unordered = 0
        for seed in range(40):
            rng = random.Random(seed)
            tpl = _against_the_order(seed, rng.randint(2, 4), rng.choice([0.0, 0.1]))
            index = ts_projection._window_marginal(tpl, tpl.variables, rng.randint(0, 20), None)
            hidden = set(rng.sample(tpl.variables, rng.randint(1, len(tpl.variables) - 1)))
            keep = sum(
                1 << k
                for k, u in enumerate(index.vertices)
                if u.var not in hidden and rng.random() < 0.8
            )
            observed = frozenset(u for k, u in enumerate(index.vertices) if keep >> k & 1)
            expected = _reference_latent_project(index.graph(), observed).to_json()
            swept = _Index.of(index.graph(), observed)
            assert _latent_project(swept, len(observed)).graph().to_json() == expected, seed
            unordered += _neither_index_order_is_topological(swept)
        assert unordered >= 30

    def test_the_dmag_matches_inducing_paths(self):
        unordered = 0
        for seed in range(24):
            rng = random.Random(seed)
            tpl = _against_the_order(seed, rng.randint(2, 3), rng.choice([0.0, 0.1]))
            observed = rng.sample(tpl.variables, rng.randint(2, len(tpl.variables)))
            index = ts_projection._window_marginal(tpl, observed, rng.randint(0, 20), None)
            expected = _dmag_by_inducing_paths(canonical_dag(index.graph()))
            assert _dmag(index).to_json() == expected.to_json(), seed
            unordered += _neither_index_order_is_topological(index)
        assert unordered >= 15


A0, A1, B0 = TsVertex("A", 0), TsVertex("A", 1), TsVertex("B", 0)


class TestIndexToJson:
    def test_writes_the_bytes_of_its_graph(self):
        """Random graphs over names that sort otherwise than in var_order,
        so that many bidirected edges are stored against it."""
        names = ["b", "A", "a", 'q"', "é"]
        for seed in range(60):
            rng = random.Random(seed)
            var_order = tuple(rng.sample(names, rng.randint(1, 4)))
            vertices = [TsVertex(x, off) for x in var_order for off in range(rng.randint(1, 4))]
            density = rng.choice([0.0, 0.2, 0.5])
            parents, siblings = [0] * len(vertices), [0] * len(vertices)
            rank = list(range(len(vertices)))
            rng.shuffle(rank)  # a topological order
            for u, w in itertools.combinations(range(len(vertices)), 2):
                if rng.random() < density:
                    parents[w if rank[u] < rank[w] else u] |= 1 << (u if rank[u] < rank[w] else w)
                if rng.random() < density / 2:
                    siblings[u] |= 1 << w
                    siblings[w] |= 1 << u
            index = _Index(vertices, parents, siblings, var_order)
            assert index.to_json() == index.graph().to_json(), seed
            assert index.to_dot() == index.graph().to_dot(), seed

    @pytest.mark.parametrize(
        "vertices, parents, siblings, message",
        [
            ([A0, A1], [0b10, 0b01], [0, 0], "directed part is cyclic"),
            ([A0, A1], [0b01, 0], [0, 0], "self edge at A:0"),
            ([("A", 0)], [0], [0], r"\('A', 0\) is not a TsVertex"),
            ([TsVertex("A", True)], [0], [0], "offset of vertex A:True must be a non-negative .*"),
            ([TsVertex("A", -1)], [0], [0], "offset of vertex A:-1 must be a non-negative integer"),
            ([TsVertex(1, 0)], [0], [0], "variable name of vertex 1:0 must be a string"),
        ],
    )
    def test_the_checks_of_the_graph_fire_on_the_masks(self, vertices, parents, siblings, message):
        index = _Index(vertices, parents, siblings, ("A",))
        for write in (index.to_json, index.to_dot, lambda: index.graph().to_json()):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                write()

    @pytest.mark.parametrize(
        "vertices, parents, siblings, message",
        [
            ([A0, A1], [0, 0], [0b10, 0b11], "self edge at A:1"),
            ([A0], [0b10], [0], "an edge endpoint is not one of the 1 vertices"),
            ([A0], [0], [-2], "an edge endpoint is not one of the 1 vertices"),
            ([A1, A0], [0, 0], [0, 0], "the vertices are not numbered in serialization order"),
            ([A0, A0], [0, 0], [0, 0], "the vertices are not numbered in serialization order"),
            ([B0, A0], [0, 0], [0, 0], "the vertices are not numbered in serialization order"),
        ],
    )
    def test_masks_the_graph_would_not_read_are_refused(self, vertices, parents, siblings, message):
        index = _Index(vertices, parents, siblings, ("A", "B"))
        for write in (index.to_json, index.to_dot):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                write()

import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, strategies as st

import tsproject
from tsproject import (
    FiniteMixedGraph,
    TsVertex,
    ValidationError,
    make_template,
    max_lag,
    parse_mixed_graph,
    parse_template,
    serialize_template,
    unroll_window,
)
from tsproject.finite_projection import _Index
from tsproject.graph_model import bits, encode, is_acyclic, reach


def test_vertex_labels():
    assert TsVertex("X", 0).label() == "X[t]"
    assert TsVertex("X", 3).label() == "X[t-3]"


def test_vertex_hashes_and_sorts_as_its_plain_pair():
    """Set iteration order, and with it the engine's search order and every
    benchmark digest, rests on these hashes."""
    pairs = [(var, off) for var in ("Y", "X", "X1", "") for off in (3, 0, 12)]
    for var, off in pairs:
        assert hash(TsVertex(var, off)) == hash((var, off))
    assert sorted(TsVertex(*p) for p in pairs) == [TsVertex(*p) for p in sorted(pairs)]


def test_template_rejects_contemporaneous_self_edge():
    with pytest.raises(ValidationError):
        make_template(["X"], directed=[("X", 0, "X")])


def test_template_allows_lagged_self_edge():
    tpl = make_template(["X"], directed=[("X", 1, "X")])
    assert tpl.is_ts_dag


def test_template_rejects_contemporaneous_cycle():
    with pytest.raises(ValidationError):
        make_template(["X", "Y"], directed=[("X", 0, "Y"), ("Y", 0, "X")])


def test_template_rejects_unknown_variable():
    with pytest.raises(ValidationError):
        make_template(["X"], directed=[("X", 1, "Q")])


@pytest.mark.parametrize("name", ["Q", ["X"]])
def test_template_index_names_an_unknown_or_unhashable_variable(name):
    with pytest.raises(ValidationError, match=re.escape(f"unknown variable {name!r}")):
        make_template(["Z", "X", "Y"]).index(name)


def test_template_rejects_negative_lag():
    with pytest.raises(ValidationError):
        make_template(["X", "Y"], directed=[("X", -1, "Y")])


def test_bidirected_canonicalization():
    # contemporaneous bidirected entries are flipped into variable order
    tpl = make_template(["A", "B"], bidirected=[("B", 0, "A")])
    assert tpl.bidirected_t == frozenset({("A", 0, "B")})


def test_parse_template_uses_from_to_lag_order():
    tpl = parse_template('{"variables": ["X", "Y"], "directed": [["X", "Y", 2]]}')
    assert tpl.directed_t == frozenset({("X", 2, "Y")})


def test_parse_template_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_template("not json")
    with pytest.raises(ValidationError):
        parse_template('{"directed": []}')
    with pytest.raises(ValidationError):
        parse_template('{"variables": ["X"], "directed": [["X", "X"]]}')


@pytest.mark.parametrize("lag", ["true", "false"])
def test_parse_template_rejects_boolean_lag(lag):
    with pytest.raises(ValidationError):
        parse_template(f'{{"variables": ["X", "Y"], "directed": [["X", "Y", {lag}]]}}')


def test_parse_template_rejects_non_list_variables():
    with pytest.raises(ValidationError):
        parse_template('{"variables": "XY"}')


@pytest.mark.parametrize(
    "doc",
    [
        '{"variables": ["X", 1]}',
        '{"variables": [["X"]]}',
        '{"variables": ["X"], "directed": [[["X"], "X", 1]]}',
    ],
)
def test_parse_template_rejects_non_string_variable_names(doc):
    with pytest.raises(ValidationError):
        parse_template(doc)


@pytest.mark.parametrize(
    "doc",
    [
        '{"vertices": [["X", "1.5"]]}',
        '{"vertices": [["X", 1.5]]}',
        '{"vertices": [["X", true]]}',
        '{"vertices": [["X", -1]]}',
        '{"vertices": [["X", 0]], "directed": [[["X", 0]]]}',
        '{"vertices": [["X", 0]], "bidirected": [[["X", 0], ["X", 1], ["X", 2]]]}',
        '{"vertices": 3}',
    ],
)
def test_parse_mixed_graph_rejects_malformed_vertices_and_edges(doc):
    with pytest.raises(ValidationError):
        parse_mixed_graph(doc)


def test_max_lag(running_tpl):
    assert max_lag(running_tpl) == 5
    assert max_lag(make_template(["X"])) == 0


variable_names = st.sampled_from(["A", "B", "C", "D"])


@st.composite
def templates(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    variables = ["A", "B", "C", "D"][:n]
    order = draw(st.permutations(variables))
    rank = {v: k for k, v in enumerate(order)}
    entries = draw(
        st.lists(
            st.tuples(
                st.sampled_from(variables),
                st.integers(min_value=0, max_value=4),
                st.sampled_from(variables),
            ),
            max_size=8,
        )
    )
    directed = [
        (src, lag, dst)
        for src, lag, dst in entries
        if lag > 0 or (src != dst and rank[src] < rank[dst])
    ]
    bidirected = draw(
        st.lists(
            st.tuples(
                st.sampled_from(variables),
                st.integers(min_value=0, max_value=4),
                st.sampled_from(variables),
            ),
            max_size=4,
        )
    )
    bidirected = [(a, lag, b) for a, lag, b in bidirected if lag > 0 or a != b]
    return make_template(variables, directed=directed, bidirected=bidirected)


@given(templates())
def test_template_serialization_round_trip(tpl):
    assert parse_template(serialize_template(tpl)) == tpl


@given(templates(), st.integers(min_value=0, max_value=6))
def test_unroll_edge_counts(tpl, w):
    """Every entry with lag <= w contributes exactly w - lag + 1 edge instances."""
    g = unroll_window(tpl, w)
    expected = sum(max(w - lag + 1, 0) for _, lag, _ in tpl.directed_t)
    assert len(g.directed) == expected
    assert len(g.vertices) == len(tpl.variables) * (w + 1)


@given(templates(), st.integers(min_value=0, max_value=4))
def test_unroll_shift_invariance(tpl, w):
    """Shifting every vertex of the window by one step maps edges to edges."""
    g = unroll_window(tpl, w + 1)
    shifted = {(TsVertex(u.var, u.offset + 1), TsVertex(v.var, v.offset + 1)) for u, v in g.directed}
    assert {e for e in shifted if e[0].offset <= w + 1 and e[1].offset >= 1} <= g.directed


def test_finite_graph_rejects_directed_cycle():
    a, b = TsVertex("A", 0), TsVertex("B", 0)
    with pytest.raises(ValidationError):
        FiniteMixedGraph(frozenset({a, b}), directed=frozenset({(a, b), (b, a)}))


@pytest.mark.parametrize("where", ["vertices", "directed", "bidirected", "latent"])
def test_finite_graph_rejects_plain_tuple_vertices(where):
    """A plain (var, offset) tuple equals its TsVertex, so only a type check
    keeps it out of a graph."""
    a, b, plain = TsVertex("A", 0), TsVertex("B", 0), ("A", 0)
    fields = {
        "vertices": {"vertices": frozenset({plain, b})},
        "directed": {"directed": frozenset({(plain, b)})},
        "bidirected": {"bidirected": frozenset({(b, plain)})},
        "latent": {"latent": frozenset({plain})},
    }[where]
    with pytest.raises(ValidationError, match="is not a TsVertex"):
        FiniteMixedGraph(**{"vertices": frozenset({a, b}), **fields})


@pytest.mark.parametrize(
    "bad, message",
    [
        (TsVertex("X", -1), "offset of vertex .* must be a non-negative integer"),
        (TsVertex("Y", True), "offset of vertex .* must be a non-negative integer"),
        (TsVertex("X", 1.0), "offset of vertex .* must be a non-negative integer"),
        (TsVertex(1, 0), "variable name of vertex .* must be a string"),
    ],
)
@pytest.mark.parametrize("where", ["vertices", "directed", "bidirected", "latent"])
def test_finite_graph_rejects_bad_vertex_fields(bad, message, where):
    """The field checks of parse_mixed_graph hold on every construction.
    TsVertex('Y', True) equals TsVertex('Y', 1), so only a type check keeps
    it out of an edge or the latent set of a graph that has ('Y', 1)."""
    a = TsVertex("A", 0)
    twin = TsVertex(bad.var if isinstance(bad.var, str) else "B", 1)
    fields = {
        "vertices": {"vertices": frozenset({a, bad})},
        "directed": {"directed": frozenset({(a, bad)})},
        "bidirected": {"bidirected": frozenset({(bad, a)})},
        "latent": {"latent": frozenset({bad})},
    }[where]
    with pytest.raises(ValidationError, match=message):
        FiniteMixedGraph(**{"vertices": frozenset({a, twin}), **fields})


@pytest.mark.parametrize(
    "vertices, message",
    [
        (
            "TsVertex('a', -1), TsVertex('b', -2), TsVertex('c', 0)",
            "offset of vertex a:-1 must be a non-negative integer",
        ),
        (
            "TsVertex('b', True), TsVertex(2, 0), TsVertex('c', -3), TsVertex('a', 0)",
            "offset of vertex b:True must be a non-negative integer",
        ),
    ],
    ids=["offsets", "mixed"],
)
def test_bad_vertex_message_does_not_depend_on_string_hashing(vertices, message):
    """Of several malformed vertices, the least by repr is reported, named
    var:offset, whatever order the vertex set iterates in."""
    code = (
        "from tsproject.graph_model import FiniteMixedGraph, TsVertex, ValidationError\n"
        "try:\n"
        f"    FiniteMixedGraph(vertices=frozenset({{{vertices}}}))\n"
        "except ValidationError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(tsproject.__file__).parents[1])
    for seed in ("1", "2", "3", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, message + "\n", ""), seed


def test_finite_graph_equality_ignores_var_order():
    a, b = TsVertex("A", 0), TsVertex("B", 0)
    g1 = FiniteMixedGraph(frozenset({a, b}), bidirected=frozenset({(a, b)}), var_order=("A", "B"))
    g2 = FiniteMixedGraph(frozenset({a, b}), bidirected=frozenset({(b, a)}), var_order=("B", "A"))
    assert g1 == g2


def test_mixed_graph_json_round_trip(b1_tpl):
    g = unroll_window(b1_tpl, 6)
    assert parse_mixed_graph(g.to_json()) == g


def test_to_json_is_deterministic(running_tpl):
    g = unroll_window(running_tpl, 5)
    assert g.to_json() == unroll_window(running_tpl, 5).to_json()


def _sorted_by_definition(g):
    """The graph's lists in output order, each sorted on its own: a vertex
    by the first position of its variable in var_order, then its offset; a
    directed edge by its tail, then its head; a bidirected edge by its lesser
    end, then its greater."""

    def key(v):
        return (g.var_order.index(v.var), v.offset)

    return {
        "vertices": sorted(g.vertices, key=key),
        "directed": sorted(g.directed, key=lambda e: (key(e[0]), key(e[1]))),
        "bidirected": sorted(g.bidirected, key=lambda e: sorted(map(key, e))),
        "latent": sorted(g.latent, key=key),
    }


def _to_json_by_json_dumps(g):
    """The serialization as json.dumps writes it: the definition of to_json."""
    return json.dumps(_sorted_by_definition(g), indent=2) + "\n"


def _to_dot_by_sorting(g):
    """The DOT of the sorted lists, each vertex quoted at each use: the
    definition of to_dot."""

    def dot_id(v):
        return '"' + v.label().replace("\\", "\\\\").replace('"', '\\"') + '"'

    doc = _sorted_by_definition(g)
    lines = ["digraph {"]
    lines += [f"  {dot_id(v)};" for v in doc["vertices"]]
    lines += [f"  {dot_id(u)} -> {dot_id(v)};" for u, v in doc["directed"]]
    lines += [f"  {dot_id(u)} -> {dot_id(v)} [dir=both];" for u, v in doc["bidirected"]]
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_to_json_writes_the_bytes_of_json_dumps():
    """Random graphs over names with quotes, backslashes, non-ASCII and
    control characters, many with one or more empty lists; their DOT is
    checked against its sorting reference too."""
    pool = ["X", 'a"b', "c\\d", "é", "日本", "tab\tnl\n", "\x01\x7f", "", "Z9"]
    empty = {"directed": 0, "bidirected": 0, "latent": 0}
    for seed in range(150):
        rng = random.Random(seed)
        names = rng.sample(pool, rng.randint(1, 4))
        verts = [TsVertex(n, off) for n in names for off in range(rng.randint(1, 4))]
        verts += [TsVertex(names[0], 10**20)] if seed % 7 == 0 else []
        rng.shuffle(verts)
        density = rng.choice([0.0, 0.2, 0.5])
        g = FiniteMixedGraph(
            frozenset(verts),
            directed=frozenset(
                (a, b) for a, b in itertools.combinations(verts, 2) if rng.random() < density
            ),
            bidirected=frozenset(
                (a, b) for a, b in itertools.combinations(verts, 2) if rng.random() < density / 2
            ),
            latent=frozenset(u for u in verts if rng.random() < density),
            var_order=tuple(names),
        )
        assert g.to_json() == _to_json_by_json_dumps(g), seed
        assert g.to_dot() == _to_dot_by_sorting(g), seed
        for key in empty:
            empty[key] += not getattr(g, key)
    assert min(empty.values()) >= 30
    empty_graph = FiniteMixedGraph(frozenset())
    assert empty_graph.to_json() == _to_json_by_json_dumps(empty_graph)
    assert empty_graph.to_dot() == _to_dot_by_sorting(empty_graph) == "digraph {\n}\n"


def test_both_writers_name_a_variable_missing_from_var_order():
    a, b = TsVertex("A", 0), TsVertex("B", 0)
    g = FiniteMixedGraph(frozenset({a, b}), directed=frozenset({(a, b)}), var_order=("A",))
    index = _Index([a, b], [0, 0b01], [0, 0], ("A",))
    for write in (g.to_json, g.to_dot, index.to_json, index.to_dot):
        with pytest.raises(ValidationError, match=r"^vertex variable 'B' missing from var_order$"):
            write()


def test_missing_variable_message_does_not_depend_on_string_hashing():
    """Of several variables missing from var_order, both writers of both
    representations name the least, whatever order the vertex set iterates
    in; the index lists C:0 before B:0."""
    code = (
        "from tsproject.finite_projection import _Index\n"
        "from tsproject.graph_model import FiniteMixedGraph, TsVertex, ValidationError\n"
        "vs = [TsVertex('A', 0), TsVertex('C', 0), TsVertex('B', 0)]\n"
        "g = FiniteMixedGraph(frozenset(vs), var_order=('A',))\n"
        "index = _Index(vs, [0, 0, 0], [0, 0, 0], ('A',))\n"
        "for write in (g.to_json, g.to_dot, index.to_json, index.to_dot):\n"
        "    try:\n"
        "        write()\n"
        "    except ValidationError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(tsproject.__file__).parents[1])
    for seed in ("1", "2", "3", "4", "5", "6"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        message = "vertex variable 'B' missing from var_order\n"
        assert (done.returncode, done.stdout, done.stderr) == (0, message * 4, ""), seed


def test_to_dot_marks_bidirected_edges(fig3_tpl):
    dot = unroll_window(fig3_tpl, 1).to_dot()
    assert '"X1[t]" -> "X2[t-1]" [dir=both];' in dot
    assert dot.startswith("digraph {")


def test_to_dot_escapes_quotes_and_backslashes():
    tpl = make_template(['a"b', "c\\d"], directed=[('a"b', 1, "c\\d")])
    dot = unroll_window(tpl, 1).to_dot()
    assert '  "a\\"b[t-1]" -> "c\\\\d[t]";' in dot.splitlines()
    quoted_id = r'"(?:[^"\\]|\\.)*"'
    for line in dot.splitlines()[1:-1]:
        assert re.fullmatch(rf"  {quoted_id}( -> {quoted_id})?( \[dir=both\])?;", line), line


def test_is_acyclic_matches_networkx():
    """The Kahn check against networkx on seeded random digraphs with
    self-loops, about half of them cyclic."""
    verdicts = []
    for seed in range(600):
        rng = random.Random(seed)
        nodes = list(range(rng.randint(1, 9)))
        density = rng.choice((0.05, 0.1, 0.2, 0.4))
        edges = [
            (u, v) for u in nodes for v in nodes
            if rng.random() < (density / 5 if u == v else density)
        ]
        g = nx.DiGraph()
        g.add_nodes_from(nodes)
        g.add_edges_from(edges)
        expected = nx.is_directed_acyclic_graph(g)
        assert is_acyclic(nodes, edges) == expected, seed
        verdicts.append(expected)
    assert 200 < sum(verdicts) < 400


def _reach_by_sets(succ, seeds, allowed):
    """Breadth-first search on vertex sets: the seeds, plus every vertex of
    ``allowed`` reached through vertices of ``allowed``."""
    reached, frontier = set(seeds), list(seeds)
    while frontier:
        frontier = [v for u in frontier for v in succ[u] if v in allowed and v not in reached]
        reached.update(frontier)
    return reached


def test_mask_kernels_match_set_definitions():
    """bits, encode and reach against sets on seeded random digraphs with
    self-loops; ``allowed`` takes the values the callers pass (every vertex,
    every vertex but one, and a vertex subset)."""
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        density = rng.choice((0.1, 0.2, 0.4))
        succ = {u: [v for v in range(n) if rng.random() < density] for u in range(n)}
        ident = {u: u for u in range(n)}
        adjacency = [encode(succ[u], ident) for u in range(n)]
        # vertex names in a shuffled numbering, so that encode reads the index
        names = [f"v{k}" for k in range(n)]
        rng.shuffle(names)
        index = {name: k for k, name in enumerate(names)}
        seeds = {u for u in range(n) if rng.random() < 0.3}
        mask = encode((names[u] for u in seeds), index)
        assert list(bits(mask)) == sorted(seeds), seed
        subset = {u for u in range(n) if rng.random() < 0.5}
        for allowed in [-1, encode(subset, ident)] + [~(1 << k) for k in range(n)]:
            expected = _reach_by_sets(succ, seeds, {u for u in range(n) if allowed >> u & 1})
            assert set(bits(reach(adjacency, mask, allowed))) == expected, (seed, allowed)

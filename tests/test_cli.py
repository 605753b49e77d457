import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tsproject
from tsproject import (
    CommonAncestorEngine,
    TsVertex,
    WalkWeights,
    ancestor_query,
    build_graph_of_cycles,
    build_mw_summary,
    canonical_ts_dag,
    cli,
    cutoff_bound,
    enumerate_cycle_classes,
    finite_projection,
    get_monoid,
    m_separated,
    marginal_ts_admg,
    marginal_ts_dmag,
    parse_mixed_graph,
    parse_template,
    serialize_template,
    summary_mwdg,
    unroll_window,
)
from tsproject.ancestor_query import _default_engine
from tsproject.cli import run
from tsproject.oracle_testkit import random_template, window_marginal


@pytest.fixture
def running_path(data_dir):
    return str(data_dir / "running.json")


@pytest.fixture
def b1_path(data_dir):
    return str(data_dir / "b1.json")


@pytest.fixture
def fig3_path(data_dir):
    return str(data_dir / "fig3.json")


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 2
    assert run(["ancestor", "--graph", "x.json"]) == 2  # missing required flags


def test_validation_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run(["ancestor", "--graph", missing, "--i", "X", "--tau", "0", "--j", "Z"]) == 1
    assert "error:" in capsys.readouterr().err


def test_graph_that_is_not_utf8_is_a_validation_error(tmp_path, capsys):
    graph = tmp_path / "latin1.json"
    graph.write_bytes('{"variables": ["\u00c4"], "directed": []}'.encode("latin-1"))
    assert run(["cutoff", "--graph", str(graph), "--window", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {graph}: ")


@pytest.mark.parametrize("flag", ["--out", "--dot"])
def test_output_in_a_missing_directory_is_a_validation_error(b1_path, tmp_path, flag, capsys):
    target = tmp_path / "missing" / "g.txt"
    argv = ["project-admg", "--graph", b1_path, "--observed", "X", "--window", "1", flag,
            str(target)]
    assert run(argv) == 1
    assert f"error: cannot write {target}: " in capsys.readouterr().err


def test_a_failed_dot_write_leaves_no_json(b1_path, tmp_path, capsys):
    """The DOT file is written before the JSON: a run whose --dot target
    cannot be written prints nothing and creates no --out file."""
    argv = ["project-admg", "--graph", b1_path, "--observed", "X", "--window", "1",
            "--dot", str(tmp_path / "missing" / "g.dot")]
    assert run(argv) == 1
    assert capsys.readouterr().out == ""
    out = tmp_path / "g.json"
    assert run(argv + ["--out", str(out)]) == 1
    assert not out.exists()


def _run_in_mb(argv, mb=1536):
    """The CLI in a subprocess whose address space is limited to ``mb`` MB."""
    src = str(Path(tsproject.__file__).parents[1])

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (mb << 20, mb << 20))

    return subprocess.run([sys.executable, "-m", "tsproject.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120, preexec_fn=limit_memory)


@pytest.mark.parametrize("method, window", [("dioph", "2000000"), ("window", "200000")])
def test_a_window_over_the_vertex_limit_is_refused_before_allocating(
    running_path, method, window
):
    """running.json has 3 variables, so these windows have 6,000,003 and
    600,003 vertices, whose masks would take terabytes and gigabytes.  Both
    methods refuse the window before building one, well inside a 1.5 GB
    address space."""
    done = _run_in_mb(["project-admg", "--graph", running_path, "--observed", "X,Y,Z",
                       "--window", window, "--method", method])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        f"error: 3 x {int(window) + 1} window vertices exceed the limit of 100000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["cutoff", "--window", "1"],
        ["ancestor", "--i", "X1", "--tau", "1000", "--j", "X2", "--method", "dioph"],
        ["ancestor", "--i", "X1", "--tau", "1", "--j", "X2", "--method", "window", "--explain"],
    ],
    ids=["cutoff", "dioph", "window"],
)
def test_a_summary_graph_with_too_many_simple_paths_is_refused(data_dir, argv):
    """wide30.json is random_template(0, 30, 1, 0.08), whose summary graph has
    more than 10^6 simple paths.  The cycle classes, the cone engine's paths
    and the cutoff's L all read that table; its search stops at the limit,
    well inside a 1.5 GB address space that listing every path would
    overrun.  The two-walker search of wide30.json stops at R = 110, so the
    walk weights of its tail read the cycle classes at tau 1000, and
    --explain builds the cone engine; --method selects nothing."""
    done = _run_in_mb([argv[0], "--graph", str(data_dir / "wide30.json"), *argv[1:]])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        "error: the summary graph has more than 1000000 simple paths; it is too large to search\n"
    )


@pytest.mark.parametrize("method", ["dioph", "window"])
def test_an_unknown_observed_variable_is_named_before_any_engine_is_built(data_dir, method):
    """An unknown --observed name is reported before any engine is built,
    with either --method value."""
    done = _run_in_mb(["project-admg", "--graph", str(data_dir / "wide30.json"),
                       "--observed", "Q", "--window", "1", "--method", method])
    assert (done.returncode, done.stdout) == (1, "")
    assert "Q" in done.stderr and "Traceback" not in done.stderr
    assert done.stderr == "error: unknown variable 'Q'\n"


@pytest.mark.parametrize("observed", ["", ","])
@pytest.mark.parametrize("method", ["dioph", "window"])
def test_an_empty_observed_set_is_refused_before_any_engine_is_built(data_dir, method, observed):
    """An empty --observed list is reported before any engine is built,
    with either --method value."""
    done = _run_in_mb(["project-admg", "--graph", str(data_dir / "wide30.json"),
                       "--observed", observed, "--window", "1", "--method", method])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: observed variable set must be non-empty\n"


@pytest.mark.parametrize("method", ["dioph", "window"])
@pytest.mark.parametrize("side", ["--i", "--j"])
def test_ancestor_names_an_unknown_variable_before_any_engine_is_built(data_dir, method, side):
    """The cone engine of wide30.json is refused at its simple-path limit;
    an unknown --i or --j is reported before any engine is built."""
    names = {"--i": "X1", "--j": "X1", side: "Q"}
    done = _run_in_mb(["ancestor", "--graph", str(data_dir / "wide30.json"),
                       "--i", names["--i"], "--tau", "1", "--j", names["--j"],
                       "--method", method])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: unknown variable 'Q'\n"


_COLD_START = """
import contextlib, io, sys
import tsproject, tsproject.cli

data, out = sys.argv[1], sys.argv[2]

def run(*argv):  # stderr, where --explain writes, is dropped
    with contextlib.redirect_stdout(io.StringIO()) as captured, \\
            contextlib.redirect_stderr(io.StringIO()):
        assert tsproject.cli.run(list(argv)) == 0, argv
    return captured.getvalue()

for name, observed in (("running", "X,Y,Z"), ("fig3", "X1,X2,X3")):
    graph = f"{data}/{name}.json"
    for method in ("dioph", "window"):
        run("project-admg", "--graph", graph, "--observed", observed, "--window", "2",
            "--method", method)
    run("project-dmag", "--graph", graph, "--observed", observed, "--window", "2",
        "--out", out)
    run("cutoff", "--graph", graph, "--window", "1")
    first, last = observed.split(",")[0], observed.split(",")[-1]
    run("msep", "--marginal", out, "--x", f"{first}:0", "--y", f"{last}:2")
run("dioph", "--lhs", "1;5", "--rhs", "0;3")
for tau in ("0", "50000"):
    assert run("ancestor", "--graph", f"{data}/running.json", "--i", "X", "--tau", tau,
               "--j", "Z") == "true\\n"
print("networkx" in sys.modules)
assert run("ancestor", "--graph", f"{data}/running.json", "--i", "X", "--tau", "0",
           "--j", "Z", "--explain") == "true\\n"
print("networkx" in sys.modules)
"""


def test_projections_never_load_networkx(data_dir, tmp_path):
    """networkx is imported by the cone engine's summary prefilter alone:
    importing the package and running the projections (either method),
    cutoff, msep, dioph and the default ancestor query, from the states and
    (at tau 50,000) from the tail, leave it unloaded; ancestor --explain
    loads it.  A fresh interpreter, since the test session has loaded it."""
    src = str(Path(tsproject.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(data_dir), str(tmp_path / "dmag.json")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "False\nTrue\n"


_NO_ORACLES = """
import contextlib, io, sys
import tsproject.cli

data = sys.argv[1]

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert tsproject.cli.run(list(argv)) == 0, argv

for command in ("project-admg", "project-dmag"):
    run(command, "--graph", f"{data}/fig3.json", "--observed", "X1,X3", "--window", "2")
run("ancestor", "--graph", f"{data}/running.json", "--i", "X", "--tau", "0", "--j", "Z")
print("tsproject.oracle_testkit" in sys.modules)
run("verify", "--templates", "0", "--queries", "0")
print("tsproject.oracle_testkit" in sys.modules)
"""


def test_only_verify_loads_the_oracles(data_dir):
    """The projections and the ancestor query leave oracle_testkit
    unloaded; verify loads it.  A fresh interpreter, since the test session
    has loaded it."""
    src = str(Path(tsproject.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _NO_ORACLES, str(data_dir)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "False\nTrue\n"


def test_the_default_projection_of_wide30_lists_no_simple_paths(data_dir):
    """The default projection of wide30.json asks the two-walker search,
    which never lists simple paths, so it answers in the same 1.5 GB address
    space.  ``cutoff`` is refused there, so there is no p_cut oracle; a window
    of 150 steps can only lose bidirected edges, never add one."""
    wide30 = data_dir / "wide30.json"
    done = _run_in_mb(["project-admg", "--graph", str(wide30), "--observed", "X1",
                       "--window", "1"])
    assert (done.returncode, done.stderr) == (0, "")
    tpl = parse_template(wide30.read_text())
    truncated = window_marginal(tpl, ["X1"], 1, 150)
    assert truncated.bidirected
    assert truncated.bidirected <= parse_mixed_graph(done.stdout).bidirected


def test_the_default_ancestor_query_of_wide30_lists_no_simple_paths(data_dir):
    """X1 -> X2 at tau 1 on wide30.json is answered from the two-walker
    states, which need no simple path, in the same 1.5 GB address space."""
    done = _run_in_mb(["ancestor", "--graph", str(data_dir / "wide30.json"),
                       "--i", "X1", "--tau", "1", "--j", "X2"])
    assert (done.returncode, done.stdout, done.stderr) == (0, "true\n", "")


def test_the_tail_at_tau_ten_million_searches_only_the_walks_into_j(data_dir):
    """walk16.json is random_template(0, 16, 1, 0.1).  At tau 10^7 its
    two-walker search stops at R = 390 and the tail answers from the walk
    weights into X12 alone, at most 16 bitsets of 10^7 bits, inside a 256 MB
    address space, which those into every variable, 1.25 MB per pair of a
    variable and an ancestor, would overrun."""
    done = _run_in_mb(["ancestor", "--graph", str(data_dir / "walk16.json"), "--i", "X4",
                       "--tau", "10000000", "--j", "X12"], mb=256)
    assert (done.returncode, done.stdout, done.stderr) == (0, "false\n", "")


def test_ancestor_explain_stops_at_the_cone_search_limit(tmp_path, capsys, monkeypatch):
    """random_template(5, 4, 2, 0.3) keeps 20 sets in one cone search; with
    the limit patched to 10, --explain reports it instead of a traceback."""
    graph = tmp_path / "t.json"
    graph.write_text(serialize_template(random_template(5, 4, 2, 0.3)))
    monkeypatch.setattr(summary_mwdg, "_MAX_CONE_TERMS", 10)
    argv = ["ancestor", "--graph", str(graph), "--i", "X2", "--tau", "0", "--j", "X2",
            "--explain"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: the cone search keeps more than 10 sets; it is too large to search\n"
    )


def test_ancestor_explain_stops_at_the_cone_pair_search_limit(running_path, capsys, monkeypatch):
    """Z -> Z at tau 0 on running.json tries 4 cone pairs; with the limit
    patched to 3, --explain reports it instead of a traceback."""
    monkeypatch.setattr(ancestor_query, "_MAX_CONE_PAIRS", 3)
    argv = ["ancestor", "--graph", running_path, "--i", "Z", "--tau", "0", "--j", "Z", "--explain"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: the common-ancestor search tries more than 3 cone pairs; "
        "it is too large to search\n"
    )


def test_ancestor_past_the_walk_weight_depth_limit_asks_the_cone_engine(running_path, capsys):
    """At tau 2 * 10^7 the tail would search past 10^7 steps, so the cone
    engine answers."""
    tpl = parse_template(Path(running_path).read_text())
    assert type(_default_engine(tpl, 20_000_000)) is CommonAncestorEngine
    cone = CommonAncestorEngine(tpl)
    for i, j in (("X", "Z"), ("Z", "X"), ("Z", "Z")):
        argv = ["ancestor", "--graph", running_path, "--i", i, "--tau", "20000000", "--j", j]
        assert run(argv) == 0
        expected = "true\n" if cone.query(i, 20_000_000, j) else "false\n"
        assert capsys.readouterr().out == expected, (i, j)


def test_ancestor_at_a_large_lag_agrees_with_the_cutoff_walk_weights(tmp_path, capsys):
    """Every variable of random_template(0, 16, 1, 0.1) into X12 at tau 5000,
    where the two-walker states stop at R = 390 and the tail answers; every
    answer is False.  The cone engine takes over a second on X4 -> X12
    alone."""
    tpl = canonical_ts_dag(random_template(0, 16, 1, 0.1))
    graph = tmp_path / "t.json"
    graph.write_text(serialize_template(tpl))
    walks = WalkWeights(tpl, cutoff_bound(tpl, 5000).p_cut + 5000)
    start = time.monotonic()
    answers = []
    for i in tpl.variables:
        assert run(["ancestor", "--graph", str(graph), "--i", i, "--tau", "5000",
                    "--j", "X12"]) == 0
        answers.append(capsys.readouterr().out)
    assert time.monotonic() - start < 15
    assert answers == ["true\n" if walks.query(i, 5000, "X12") else "false\n"
                       for i in tpl.variables]
    assert answers == ["false\n"] * 16


def test_cutoff_output_format(running_path, capsys):
    assert run(["cutoff", "--graph", running_path, "--window", "1"]) == 0
    assert capsys.readouterr().out == "K=3 L=6 M=5 p_cut=135\n"


def test_cutoff_rejects_negative_window(running_path, capsys):
    assert run(["cutoff", "--graph", running_path, "--window", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: window length must be non-negative" in captured.err


def test_ancestor_true(running_path, capsys):
    assert run(["ancestor", "--graph", running_path, "--i", "X", "--tau", "0", "--j", "Z"]) == 0
    assert capsys.readouterr().out == "true\n"


@pytest.mark.parametrize("method", ["dioph", "window"])
def test_ancestor_rejects_negative_tau(running_path, method, capsys):
    argv = ["ancestor", "--graph", running_path, "--i", "X", "--tau", "-1", "--j", "Z",
            "--method", method]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: tau must be non-negative\n"


@pytest.mark.parametrize("method", ["dioph", "window"])
@pytest.mark.parametrize("side", ["--i", "--j"])
def test_ancestor_rejects_auxiliary_latent_names(tmp_path, method, side, capsys):
    """The canonical ts-DAG of a template with the bidirected entry
    (X, 0, Y) has an auxiliary latent L(X,Y,0); a query may name only the
    template's own variables."""
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"variables": ["X", "Y"], "bidirected": [["X", "Y", 0]]}))
    names = {"--i": "X", "--j": "X", side: "L(X,Y,0)"}
    argv = ["ancestor", "--graph", str(graph), "--i", names["--i"], "--tau", "3",
            "--j", names["--j"], "--method", method]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: unknown variable 'L(X,Y,0)'\n")


def test_ancestor_explain_dumps_machinery(running_path, capsys):
    run(["ancestor", "--graph", running_path, "--i", "X", "--tau", "0", "--j", "Z", "--explain"])
    captured = capsys.readouterr()
    doc = json.loads(captured.err)
    assert {tuple(c["representative"]) for c in doc["classes"]} == {("X",), ("X", "Y")}


@pytest.mark.parametrize(
    "name, i, tau, j", [("running", "X", "0", "Z"), ("fig3", "X1", "1", "X2")]
)
def test_ancestor_explain_output_is_pinned(data_dir, name, i, tau, j, capsys):
    """The full --explain dump, byte for byte, as recorded in tests/data/explain."""
    argv = ["ancestor", "--graph", str(data_dir / f"{name}.json"), "--i", i, "--tau", tau,
            "--j", j, "--explain"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == "true\n"
    assert captured.err == (data_dir / "explain" / f"{name}_{i}_{tau}_{j}.json").read_text()


def test_ancestor_explain_touch_and_monoid_size_match_the_definitions(tmp_path, capsys):
    """touch and monoid_size of every path in the --explain dump, on seeded
    random templates, against the classes that share a node with the path
    and get_monoid."""
    checked = 0
    for seed in range(12):
        tpl = random_template(seed, n_vars=4, max_lag=2, edge_density=0.3)
        graph = tmp_path / f"t{seed}.json"
        graph.write_text(serialize_template(tpl))
        i, j = tpl.variables[0], tpl.variables[-1]
        argv = ["ancestor", "--graph", str(graph), "--i", i, "--tau", "1", "--j", j, "--explain"]
        assert run(argv) == 0
        doc = json.loads(capsys.readouterr().err)
        classes = sorted(enumerate_cycle_classes(build_mw_summary(tpl)))
        goc = build_graph_of_cycles(classes)
        for root in doc["roots"]:
            for entry in root["paths_to_i"] + root["paths_to_j"]:
                pi = tuple(entry["path"])
                assert entry["touch"] == sorted(
                    "-".join(c.representative) for c in classes if c.node_set & set(pi)
                ), (seed, pi)
                assert entry["monoid_size"] == len(get_monoid(pi, classes, goc)), (seed, pi)
                checked += entry["monoid_size"] > 1
    assert checked >= 20


def test_ancestor_explain_stops_on_a_monoid_too_large_to_list(tmp_path, capsys):
    """One touch set of this template has 88 access points, too many to list
    its generating paths; the query itself answers in well under a second."""
    tpl = random_template(19, n_vars=6, max_lag=2, edge_density=0.3)
    graph = tmp_path / "t.json"
    graph.write_text(serialize_template(tpl))
    argv = ["ancestor", "--graph", str(graph), "--i", tpl.variables[0], "--tau", "1",
            "--j", tpl.variables[-1]]
    assert run(argv) == 0
    assert capsys.readouterr().out == "true\n"
    assert run(argv + ["--explain"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "more than 1000000 generating paths" in captured.err


@pytest.mark.parametrize("method", ["dioph", "window"])
def test_ancestor_explain_with_either_method_prints_the_pinned_dump(data_dir, method, capsys):
    """--method selects nothing: --explain always answers with the cone engine."""
    argv = ["ancestor", "--graph", str(data_dir / "running.json"), "--i", "X", "--tau", "0",
            "--j", "Z", "--method", method, "--explain"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == "true\n"
    assert captured.err == (data_dir / "explain" / "running_X_0_Z.json").read_text()


def test_dioph_subcommand(capsys):
    assert run(["dioph", "--lhs", "0;2,3", "--rhs", "1;2,3"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert run(["dioph", "--lhs", "1;2,4", "--rhs", "0;2,6"]) == 0
    assert capsys.readouterr().out == "false\n"
    assert run(["dioph", "--lhs", "junk", "--rhs", "0;1"]) == 1


def test_project_admg_is_deterministic(b1_path, tmp_path, capsys):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["project-admg", "--graph", b1_path, "--observed", "X,Y",
                "--window", "1", "--out", out1]) == 0
    assert run(["project-admg", "--graph", b1_path, "--observed", "X,Y",
                "--window", "1", "--out", out2]) == 0
    assert open(out1).read() == open(out2).read()


# unsorted.json lists its variables out of sorted order, Z, X, Y
_OBSERVED = {"running": "X,Y,Z", "b1": "X,Y", "fig3": "X1,X2,X3", "unsorted": "Z,X,Y"}
# pinned projections onto a proper subset: case name -> (template, observed)
_SUBSETS = {
    "running_XZ": ("running", "X,Z"),
    "fig3_X1X3": ("fig3", "X1,X3"),
    "unsorted_YZY": ("unsorted", "Y,Z,Y"),  # out of order, with a duplicate
}


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("command", ["admg", "dmag"])
@pytest.mark.parametrize("name", sorted(_OBSERVED) + sorted(_SUBSETS))
def test_projection_output_is_pinned(data_dir, name, command, p, capsys):
    """The projection JSON, byte for byte, as recorded in tests/data/project."""
    graph, observed = _SUBSETS.get(name, (name, _OBSERVED.get(name)))
    argv = [f"project-{command}", "--graph", str(data_dir / f"{graph}.json"),
            "--observed", observed, "--window", str(p)]
    assert run(argv) == 0
    pinned = data_dir / "project" / f"{name}_{command}_p{p}.json"
    assert capsys.readouterr().out == pinned.read_text()


@pytest.mark.parametrize("p", [6, 9, 12])
@pytest.mark.parametrize("name", sorted(_OBSERVED))
def test_wide_dmag_output_is_pinned(data_dir, name, p, capsys):
    """The sha256 of the project-dmag JSON at wide windows, as recorded in
    tests/data/project/dmag_sha256.json."""
    argv = ["project-dmag", "--graph", str(data_dir / f"{name}.json"),
            "--observed", _OBSERVED[name], "--window", str(p)]
    assert run(argv) == 0
    digests = json.loads((data_dir / "project" / "dmag_sha256.json").read_text())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digests[f"{name}_p{p}"]


def test_projection_dot_output_is_pinned(data_dir, fig3_path, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    argv = ["project-admg", "--graph", fig3_path, "--observed", "X1,X2,X3", "--window", "2",
            "--dot", str(dot)]
    assert run(argv) == 0
    assert dot.read_text() == (data_dir / "project" / "fig3_admg_p2.dot").read_text()


def _outputs_per_method(argv, capsys):
    outputs = []
    for method in ("dioph", "window"):
        assert run(argv + ["--method", method]) == 0
        outputs.append(capsys.readouterr().out)
    return outputs


def _cutoff_walks_output(argv):
    """What argv prints when walk weights at the cutoff depth of its window
    or tau answer the common-ancestor queries, from the library."""
    args = cli._build_parser()[0].parse_args(argv)
    tpl = canonical_ts_dag(parse_template(Path(args.graph).read_text()))
    x = args.tau if args.command == "ancestor" else args.window
    walks = WalkWeights(tpl, cutoff_bound(tpl, x).p_cut + x)
    if args.command == "ancestor":
        return "true\n" if walks.query(args.i, args.tau, args.j) else "false\n"
    project = marginal_ts_dmag if args.command == "project-dmag" else marginal_ts_admg
    return project(tpl, args.observed.split(","), args.window, walks).to_json()


@pytest.mark.parametrize("command", ["project-admg", "project-dmag"])
@pytest.mark.parametrize("name, observed", [("b1", "X,Y"), ("fig3", "X1,X2,X3"), ("fig3", "X1,X3")])
def test_project_methods_agree(data_dir, name, observed, command, capsys):
    argv = [command, "--graph", str(data_dir / f"{name}.json"), "--observed", observed,
            "--window", "1"]
    dioph_out, window_out = _outputs_per_method(argv, capsys)
    assert dioph_out == window_out == _cutoff_walks_output(argv)


def test_project_methods_agree_at_a_deep_cutoff(tmp_path, capsys):
    """Lags 1 and 30 on X -> X put the cutoff window at 54,092 steps."""
    graph = tmp_path / "deep.json"
    graph.write_text(json.dumps(
        {"variables": ["X", "Y"], "directed": [["X", "X", 1], ["X", "X", 30], ["X", "Y", 1]]}
    ))
    assert run(["cutoff", "--graph", str(graph), "--window", "1"]) == 0
    assert capsys.readouterr().out.endswith("p_cut=54092\n")
    argv = ["project-admg", "--graph", str(graph), "--observed", "Y", "--window", "1"]
    dioph_out, window_out = _outputs_per_method(argv, capsys)
    assert dioph_out == window_out == _cutoff_walks_output(argv)


def test_project_methods_agree_on_a_long_self_loop(tmp_path, capsys):
    """Lags 1 and 100 on X -> X put the cutoff window at 2,000,303 steps; the
    walk-weight bitsets close each self-loop by doubling, so walk weights at
    that depth take about as long as the cone engine."""
    graph = tmp_path / "loops.json"
    graph.write_text(json.dumps(
        {"variables": ["X", "Y"], "directed": [["X", "X", 1], ["X", "X", 100], ["X", "Y", 1]]}
    ))
    assert run(["cutoff", "--graph", str(graph), "--window", "1"]) == 0
    assert capsys.readouterr().out.endswith("p_cut=2000302\n")
    argv = ["project-admg", "--graph", str(graph), "--observed", "Y", "--window", "1"]
    start = time.monotonic()
    dioph_out, window_out = _outputs_per_method(argv, capsys)
    assert dioph_out == window_out == _cutoff_walks_output(argv)
    assert time.monotonic() - start < 5.0


def test_project_methods_agree_on_a_two_node_cycle_and_a_long_lag(tmp_path, capsys):
    """X -> Y lag 1, Y -> X lag 2 and X -> Z lag 100000 put the cutoff window
    at 1,000,075 steps; the walk-weight bitsets close the X-Y cycle (weight
    3) by doubling instead of going round it once per round."""
    graph = tmp_path / "cycle.json"
    graph.write_text(json.dumps(
        {"variables": ["X", "Y", "Z"],
         "directed": [["X", "Y", 1], ["Y", "X", 2], ["X", "Z", 100000]]}
    ))
    assert run(["cutoff", "--graph", str(graph), "--window", "1"]) == 0
    assert capsys.readouterr().out.endswith("p_cut=1000075\n")
    argv = ["project-admg", "--graph", str(graph), "--observed", "X,Z", "--window", "1"]
    start = time.monotonic()
    dioph_out, window_out = _outputs_per_method(argv, capsys)
    assert dioph_out == window_out == _cutoff_walks_output(argv)
    assert time.monotonic() - start < 5.0


def test_either_method_answers_past_the_walk_weight_depth_limit(tmp_path, capsys):
    """Lags 1000 and 1001 on X -> X put the cutoff window at 2,006,009,007
    steps, past the walk-weight limit; neither engine the rule picks needs
    it, and either --method value prints the cone engine's bytes."""
    graph = tmp_path / "loops.json"
    graph.write_text(json.dumps(
        {"variables": ["X", "Y"],
         "directed": [["X", "X", 1000], ["X", "X", 1001], ["X", "Y", 1]]}
    ))
    tpl = parse_template(graph.read_text())
    cone = marginal_ts_admg(tpl, ["Y"], 1, CommonAncestorEngine(tpl)).to_json()
    argv = ["project-admg", "--graph", str(graph), "--observed", "Y", "--window", "1"]
    assert _outputs_per_method(argv, capsys) == [cone, cone]


def test_ancestor_methods_agree(running_path, fig3_path, capsys):
    """Either --method value, walk weights at the cutoff depth and the cone
    engine give the same answers."""
    for graph, variables in ((running_path, "XYZ"), (fig3_path, ["X1", "X2", "X3"])):
        cone = CommonAncestorEngine(canonical_ts_dag(parse_template(Path(graph).read_text())))
        for i in variables:
            for j in variables:
                for tau in (0, 1, 4):
                    argv = ["ancestor", "--graph", graph, "--i", i, "--tau", str(tau),
                            "--j", j]
                    dioph_out, window_out = _outputs_per_method(argv, capsys)
                    expected = "true\n" if cone.query(i, tau, j) else "false\n"
                    assert dioph_out == window_out == _cutoff_walks_output(argv) == expected, (
                        graph, i, tau, j,
                    )


def test_project_dmag_writes_dot(fig3_path, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert run(["project-dmag", "--graph", fig3_path, "--observed", "X1,X3",
                "--window", "1", "--out", str(tmp_path / "g.json"), "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("digraph {")
    assert "[dir=both]" in text


def test_msep_subcommand(b1_path, tmp_path, capsys):
    marginal = str(tmp_path / "m.json")
    run(["project-admg", "--graph", b1_path, "--observed", "X,Y",
         "--window", "1", "--out", marginal])
    assert run(["msep", "--marginal", marginal, "--x", "X:1", "--y", "Y:0", "--z", "X:0"]) == 0
    assert capsys.readouterr().out == "false\n"
    assert run(["msep", "--marginal", marginal, "--x", "bad-token", "--y", "Y:0"]) == 1


def test_msep_refuses_a_graph_over_the_mask_limit(b1_path, tmp_path, capsys, monkeypatch):
    """The b1 marginal at p = 1 has 4 vertices; with the limit patched to 3,
    msep reports it in one line."""
    marginal = str(tmp_path / "m.json")
    run(["project-admg", "--graph", b1_path, "--observed", "X,Y",
         "--window", "1", "--out", marginal])
    monkeypatch.setattr(finite_projection, "_MAX_INDEX_VERTICES", 3)
    assert run(["msep", "--marginal", marginal, "--x", "X:1", "--y", "Y:0"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: 4 vertices exceed the limit of 3\n")


def test_msep_refuses_a_graph_over_the_mask_limit_before_allocating(b1_path, tmp_path):
    """b1 unrolled over 50,002 steps has 100,004 vertices, 18.5 MB of JSON
    that parses to about 170 MB; their masks would take 1.25 GB.  msep
    refuses the graph before building one, inside a 512 MB address space,
    where building them ended in a MemoryError traceback."""
    marginal = tmp_path / "big.json"
    marginal.write_text(unroll_window(parse_template(Path(b1_path).read_text()), 50_001).to_json())
    done = _run_in_mb(["msep", "--marginal", str(marginal), "--x", "X:0", "--y", "Y:0"], mb=512)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "error: 100004 vertices exceed the limit of 100000\n"
    )


def test_msep_names_variables_that_contain_a_colon(tmp_path, capsys):
    """project-admg writes a variable named 'a:b'; msep reads the offset
    after the last colon of 'a:b:1' and answers as m_separated does on the
    written marginal."""
    graph, marginal = tmp_path / "g.json", tmp_path / "m.json"
    graph.write_text(json.dumps({
        "variables": ["a:b", "c", "d"],
        "directed": [["a:b", "c", 1], ["a:b", "a:b", 1], ["d", "c", 0], ["d", "a:b", 2]],
    }))
    assert run(["project-admg", "--graph", str(graph), "--observed", "a:b,c",
                "--window", "1", "--out", str(marginal)]) == 0
    g = parse_mixed_graph(marginal.read_text())
    vertices = sorted(g.vertices)
    assert TsVertex("a:b", 1) in vertices and g.bidirected
    def token(v):
        return f"{v.var}:{v.offset}"

    answers = set()
    for x, y in itertools.combinations(vertices, 2):
        for z in [[]] + [[v] for v in vertices if v not in (x, y)]:
            argv = ["msep", "--marginal", str(marginal), "--x", token(x), "--y", token(y),
                    "--z", ",".join(map(token, z))]
            assert run(argv) == 0
            expected = m_separated(g, [x], [y], z)
            assert capsys.readouterr().out == ("true\n" if expected else "false\n"), argv
            answers.add(expected)
    assert answers == {True, False}


@pytest.mark.parametrize(
    "key, lag, shown",
    [("directed", [1], "[1]"), ("bidirected", {"a": 1}, "{'a': 1}")],
    ids=["array", "object"],
)
def test_a_list_or_object_lag_is_a_validation_error(tmp_path, key, lag, shown, capsys):
    """A JSON array or object as a lag gets the message of any other
    non-integer lag, not a traceback."""
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"variables": ["X", "Y"], key: [["X", "Y", lag]]}))
    assert run(["cutoff", "--graph", str(graph), "--window", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: negative or non-integer lag in (X, {shown}, Y)\n"


@pytest.mark.parametrize("lag, shown", [("1", "'1'"), (1.5, "1.5"), (None, "None")])
def test_a_rejected_lag_is_shown_as_its_json_value(tmp_path, lag, shown, capsys):
    """The message quotes a string lag, so "1" does not read like the integer 1."""
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"variables": ["X", "Y"], "directed": [["X", "Y", lag]]}))
    assert run(["cutoff", "--graph", str(graph), "--window", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: negative or non-integer lag in (X, {shown}, Y)\n"


@pytest.mark.parametrize(
    "argv",
    [["cutoff", "--graph", "{}", "--window", "1"],
     ["msep", "--marginal", "{}", "--x", "X:0", "--y", "Y:0"]],
    ids=["template", "marginal"],
)
def test_a_too_deeply_nested_document_is_a_validation_error(tmp_path, argv, capsys):
    """100,000 nested arrays exceed the JSON decoder's recursion limit: exit 1
    with a message, not a RecursionError traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert run([str(deep) if a == "{}" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON: maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {
                "vertices": [["X", 0], ["Y", 0]],
                "directed": [[["X", 1], ["X", 0]], [["Y", 5], ["Y", 0]], [["Z", 2], ["Y", 0]]],
            },
            "error: edge endpoint X:1 is not a vertex\n",
        ),
        (
            {
                "vertices": [["X", 0], ["Y", 0], ["Z", 0]],
                "directed": [[["Z", 0], ["Z", 0]], [["Y", 0], ["Y", 0]]],
                "bidirected": [[["X", 0], ["X", 0]]],
            },
            "error: self edge at X:0\n",
        ),
    ],
    ids=["missing-endpoint", "self-edge"],
)
def test_bad_edge_message_does_not_depend_on_string_hashing(tmp_path, doc, message):
    """Of several bad edges, the least in sorted order is reported, naming
    only the vertex at fault, whatever order the edge sets iterate in."""
    marginal = tmp_path / "m.json"
    marginal.write_text(json.dumps(doc))
    src = str(Path(tsproject.__file__).parents[1])
    argv = [sys.executable, "-m", "tsproject.cli", "msep", "--marginal", str(marginal),
            "--x", "X:0", "--y", "Y:0"]
    for seed in ("1", "2", "5"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", message), seed


@pytest.mark.parametrize(
    "vertices, directed",
    [
        ([["X", "1.5"]], []),
        ([["X", 1.5]], []),
        ([["X", True]], []),
        ([["X", -1]], []),
        ([["X", 0]], [[["X", 0]]]),
    ],
)
def test_msep_rejects_malformed_graph(tmp_path, capsys, vertices, directed):
    """Y:0 and Z:0 are well-formed and distinct, so only the malformed entry
    can make the query fail."""
    marginal = tmp_path / "m.json"
    vertices = vertices + [["Y", 0], ["Z", 0]]
    marginal.write_text(json.dumps({"vertices": vertices, "directed": directed}))
    assert run(["msep", "--marginal", str(marginal), "--x", "Y:0", "--y", "Z:0"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name, token", [(1, "1:0"), (None, "None:0"), (["X"], "['X']:0")])
def test_msep_rejects_variable_names_that_are_not_strings(tmp_path, capsys, name, token):
    marginal = tmp_path / "m.json"
    marginal.write_text(json.dumps({"vertices": [[name, 0], ["Y", 0]]}))
    assert run(["msep", "--marginal", str(marginal), "--x", token, "--y", "Y:0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "string" in captured.err


def test_removed_options_are_usage_errors(running_path):
    assert run(["ancestor", "--graph", running_path, "--i", "X", "--tau", "0", "--j", "Z",
                "--method", "auto"]) == 2
    assert run(["project-admg", "--graph", running_path, "--observed", "X",
                "--window", "0", "--jobs", "2"]) == 2


def test_verify_subcommand_reports(capsys):
    assert run(["verify", "--seed", "3", "--templates", "2", "--queries", "1"]) == 0
    out = capsys.readouterr().out
    assert "marginal-vs-window-oracle: PASS" in out
    assert "ancestor-vs-window-oracle: PASS" in out


def test_verify_checks_the_engine_that_ancestor_runs(monkeypatch, capsys):
    """A default engine that answers every query wrong fails the ancestor
    suite, though the cone engine is right."""
    default = cli._default_engine

    class Wrong:
        def __init__(self, tpl, tau):
            self.engine = default(tpl, tau)

        def query(self, i, tau, j):
            return not self.engine.query(i, tau, j)

    monkeypatch.setattr(cli, "_default_engine", Wrong)
    assert run(["verify", "--seed", "3", "--templates", "0", "--queries", "1"]) == 1
    assert capsys.readouterr().out == (
        "marginal-vs-window-oracle: PASS\nancestor-vs-window-oracle: FAIL (1 of 1 templates)\n"
    )


def test_verify_counts_the_templates_it_skips(monkeypatch, capsys):
    """At seed 4 the first query template has a 452-step window: verify skips
    its window-oracle loop, says so, and still runs the lag-1 shortcut check
    on all 9 variable pairs of that index."""
    shortcut = cli.lag1_shortcut
    calls = []

    def counting_shortcut(*args):
        calls.append(args)
        return shortcut(*args)

    monkeypatch.setattr(cli, "lag1_shortcut", counting_shortcut)
    assert run(["verify", "--seed", "4", "--templates", "0", "--queries", "1"]) == 0
    out = capsys.readouterr().out
    assert "ancestor-vs-window-oracle: PASS (0 of 1 templates; 1 skipped, window over 400 steps)\n" in out
    assert len(calls) == 9


@pytest.mark.parametrize("flag, value", [("--templates", "-3"), ("--queries", "-1"),
                                         ("--templates", "x"), ("--seed", "x")])
def test_verify_rejects_bad_counts_and_seeds(flag, value, capsys):
    assert run(["verify", "--templates", "0", "--queries", "0", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_bad_seed_variable_only_affects_verify(running_path, monkeypatch, capsys):
    monkeypatch.setenv("TSPROJECT_SEED", "seven")
    assert run(["dioph", "--lhs", "0;2,3", "--rhs", "1;2,3"]) == 0
    assert run(["cutoff", "--graph", running_path, "--window", "1"]) == 0
    assert capsys.readouterr().out == "true\nK=3 L=6 M=5 p_cut=135\n"
    assert run(["verify", "--templates", "0", "--queries", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err and "'seven'" in captured.err
    assert run(["verify", "--seed", "3", "--templates", "0", "--queries", "0"]) == 0
    monkeypatch.setenv("TSPROJECT_SEED", "3")
    assert run(["verify", "--templates", "0", "--queries", "0"]) == 0

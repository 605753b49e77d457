import json
import time

import pytest

from tsproject import cli
from tsproject.cli import run


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


def test_ancestor_explain_with_window_method_is_a_usage_error(running_path, capsys):
    argv = ["ancestor", "--graph", running_path, "--i", "X", "--tau", "0", "--j", "Z",
            "--method", "window", "--explain"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--explain" in captured.err and "--method window" in captured.err


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


def _outputs_per_method(argv, capsys):
    outputs = []
    for method in ("dioph", "window"):
        assert run(argv + ["--method", method]) == 0
        outputs.append(capsys.readouterr().out)
    return outputs


@pytest.mark.parametrize("command", ["project-admg", "project-dmag"])
@pytest.mark.parametrize("name, observed", [("b1", "X,Y"), ("fig3", "X1,X2,X3"), ("fig3", "X1,X3")])
def test_project_methods_agree(data_dir, name, observed, command, capsys):
    argv = [command, "--graph", str(data_dir / f"{name}.json"), "--observed", observed,
            "--window", "1"]
    dioph_out, window_out = _outputs_per_method(argv, capsys)
    assert dioph_out == window_out


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
    assert dioph_out == window_out


def test_project_methods_agree_on_a_long_self_loop(tmp_path, capsys):
    """Lags 1 and 100 on X -> X put the cutoff window at 2,000,303 steps; the
    walk-weight bitsets close each self-loop by doubling, so the window
    method takes about as long as the cone engine."""
    graph = tmp_path / "loops.json"
    graph.write_text(json.dumps(
        {"variables": ["X", "Y"], "directed": [["X", "X", 1], ["X", "X", 100], ["X", "Y", 1]]}
    ))
    assert run(["cutoff", "--graph", str(graph), "--window", "1"]) == 0
    assert capsys.readouterr().out.endswith("p_cut=2000302\n")
    argv = ["project-admg", "--graph", str(graph), "--observed", "Y", "--window", "1"]
    start = time.monotonic()
    dioph_out, window_out = _outputs_per_method(argv, capsys)
    assert dioph_out == window_out
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
    assert dioph_out == window_out
    assert time.monotonic() - start < 5.0


def test_window_method_rejects_a_search_past_the_depth_limit(tmp_path, capsys):
    """Lags 1000 and 1001 on X -> X put the cutoff window at 2,006,009,007
    steps: the walk-weight search refuses that depth, the cone engine does not
    need it."""
    graph = tmp_path / "loops.json"
    graph.write_text(json.dumps(
        {"variables": ["X", "Y"],
         "directed": [["X", "X", 1000], ["X", "X", 1001], ["X", "Y", 1]]}
    ))
    argv = ["project-admg", "--graph", str(graph), "--observed", "Y", "--window", "1"]
    assert run(argv + ["--method", "window"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "limit" in captured.err
    assert run(argv) == 0


def test_ancestor_methods_agree(running_path, fig3_path, capsys):
    for graph, variables in ((running_path, "XYZ"), (fig3_path, ["X1", "X2", "X3"])):
        for i in variables:
            for j in variables:
                for tau in (0, 1, 4):
                    argv = ["ancestor", "--graph", graph, "--i", i, "--tau", str(tau),
                            "--j", j]
                    dioph_out, window_out = _outputs_per_method(argv, capsys)
                    assert dioph_out == window_out, (graph, i, tau, j)


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
    marginal = tmp_path / "m.json"
    marginal.write_text(json.dumps({"vertices": vertices, "directed": directed}))
    assert run(["msep", "--marginal", str(marginal), "--x", "X:0", "--y", "X:0"]) == 1
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

"""Command-line front end.

Subcommands: project-admg, project-dmag, ancestor, msep, cutoff, dioph,
verify.  Exit codes: 0 on success, 1 on validation errors, 2 on usage errors.
All serialized output uses a canonical edge ordering, so identical inputs and
flags produce byte-identical output.

The ``--window`` flag is the observed window length p: the window [t-p, t]
contains p + 1 time steps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import oracle_testkit
from .ancestor_query import CommonAncestorEngine, WalkWeights, lag1_shortcut
from .diophantine import SolvabilityInstance, has_nonneg_solution
from .finite_projection import canonical_dag, dmag_project, m_separated
from .graph_model import (
    TsVertex,
    ValidationError,
    make_template,
    parse_mixed_graph,
    parse_template,
)
from .summary_mwdg import ConeTuple, touch_set
from .ts_projection import (
    canonical_ts_dag,
    cutoff_bound,
    marginal_ts_admg,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _parse_vertices(spec: str) -> list[TsVertex]:
    """Parse 'X:1,Y:0' into vertices; an empty string yields the empty list."""
    vertices = []
    for token in filter(None, spec.split(",")):
        var, sep, offset = token.partition(":")
        if not sep:
            raise ValidationError(f"bad vertex token {token!r}; expected VAR:OFFSET")
        try:
            vertices.append(TsVertex(var, int(offset)))
        except ValueError:
            raise ValidationError(f"bad offset in vertex token {token!r}") from None
    return vertices


def _parse_cone_tuple(spec: str) -> ConeTuple:
    """Parse 'a0;c1,c2,...' (the coefficient part may be empty)."""
    head, _, tail = spec.partition(";")
    try:
        a0 = int(head)
        coeffs = tuple(int(c) for c in filter(None, tail.split(",")))
    except ValueError:
        raise ValidationError(f"bad tuple {spec!r}; expected 'a0;c1,c2'") from None
    return ConeTuple(a0=a0, coeffs=coeffs)


def _emit_graph(graph, args) -> None:
    text = graph.to_json()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.dot:
        Path(args.dot).write_text(graph.to_dot())


def _cmd_project(args, want_dmag: bool) -> int:
    tpl = parse_template(_read(args.graph))
    observed = [v for v in args.observed.split(",") if v]
    engine = None
    if args.method == "window":
        ctpl = canonical_ts_dag(tpl)
        engine = WalkWeights(ctpl, cutoff_bound(ctpl, args.window).p_cut + args.window)
    marginal = marginal_ts_admg(tpl, observed, args.window, engine)
    if want_dmag:
        marginal = dmag_project(canonical_dag(marginal), marginal.vertices)
    _emit_graph(marginal, args)
    return 0


def _explain_dump(engine: CommonAncestorEngine, i: str, tau: int, j: str) -> dict:
    classes = engine.classes
    doc = {
        "classes": [
            {"representative": list(c.representative), "weights": list(c.weights)}
            for c in classes
        ],
        "graph_of_cycles": sorted(
            sorted([list(c.representative) for c in edge]) for edge in engine.goc.edges
        ),
        "roots": [],
    }
    for k in engine.summary.nodes:
        entry = {"root": k, "paths_to_i": [], "paths_to_j": []}
        for side, target, tau_side in (
            ("paths_to_i", i, tau),
            ("paths_to_j", j, 0),
        ):
            for pi in engine.paths(k, target):
                tuples = sorted((a0 + tau_side, coeffs) for a0, coeffs in engine.cones(pi))
                entry[side].append(
                    {
                        "path": list(pi),
                        "touch": sorted(
                            "-".join(c.representative)
                            for c in touch_set(pi, classes)
                        ),
                        "monoid_size": len(engine.monoid(pi)),
                        "tuples": [[a0, list(coeffs)] for a0, coeffs in tuples],
                    }
                )
        doc["roots"].append(entry)
    return doc


def _cmd_ancestor(args) -> int:
    if args.explain and args.method == "window":
        print("error: --explain is not available with --method window", file=sys.stderr)
        return 2
    tpl = canonical_ts_dag(parse_template(_read(args.graph)))
    if args.method == "window":
        engine = WalkWeights(tpl, cutoff_bound(tpl, args.tau).p_cut + args.tau)
        answer = engine.query(args.i, args.tau, args.j)
    else:
        engine = CommonAncestorEngine(tpl)
        answer = engine.query(args.i, args.tau, args.j)
        if args.explain:
            sys.stderr.write(
                json.dumps(_explain_dump(engine, args.i, args.tau, args.j), indent=2)
                + "\n"
            )
    print("true" if answer else "false")
    return 0


def _cmd_msep(args) -> int:
    graph = parse_mixed_graph(_read(args.marginal))
    separated = m_separated(
        graph,
        _parse_vertices(args.x),
        _parse_vertices(args.y),
        _parse_vertices(args.z),
    )
    print("true" if separated else "false")
    return 0


def _cmd_cutoff(args) -> int:
    tpl = canonical_ts_dag(parse_template(_read(args.graph)))
    q = cutoff_bound(tpl, args.window)
    print(f"K={q.K} L={q.L} M={q.M} p_cut={q.p_cut}")
    return 0


def _cmd_dioph(args) -> int:
    inst = SolvabilityInstance(
        lhs=_parse_cone_tuple(args.lhs), rhs=_parse_cone_tuple(args.rhs)
    )
    print("true" if has_nonneg_solution(inst) else "false")
    return 0


# longest window the ancestor check of verify unrolls for the naive oracle
_VERIFY_MAX_WINDOW = 400


def _cmd_verify(args) -> int:
    seed = args.seed
    failures = []

    def report(name: str, ok: bool, detail: str = "") -> None:
        print(f"{name}: {'PASS' if ok else 'FAIL'}{detail}")
        if not ok:
            failures.append(name)

    ok = True
    for n in range(args.templates):
        tpl = oracle_testkit.random_template(
            seed * 1000 + n, n_vars=3, max_lag=2, edge_density=0.2
        )
        p = n % 3
        w = cutoff_bound(tpl, p).p_cut + p
        mine = marginal_ts_admg(tpl, tpl.variables, p)
        ref = oracle_testkit.window_marginal(tpl, tpl.variables, p, w)
        if mine != ref:
            ok = False
            break
    report("marginal-vs-window-oracle", ok)

    ok = True
    skipped = 0
    for n in range(args.queries):
        tpl = oracle_testkit.random_template(
            seed * 2000 + n, n_vars=3, max_lag=2, edge_density=0.25
        )
        w = cutoff_bound(tpl, 3).p_cut + 3
        if w > _VERIFY_MAX_WINDOW:  # the naive oracle is quadratic in the window length
            skipped += 1
        else:
            engine = CommonAncestorEngine(tpl)
            for i in tpl.variables:
                for j in tpl.variables:
                    for tau in range(3):
                        if engine.query(i, tau, j) != oracle_testkit.window_common_ancestor(
                            tpl, i, tau, j, w
                        ):
                            ok = False
        base = oracle_testkit.random_template(
            seed * 3000 + n, n_vars=3, max_lag=2, edge_density=0.2
        )
        lag1 = make_template(
            base.variables,
            directed=set(base.directed_t) | {(v, 1, v) for v in base.variables},
        )
        engine = CommonAncestorEngine(lag1)
        for i in lag1.variables:
            for j in lag1.variables:
                hinted = lag1_shortcut(lag1, i, 1, j)
                if hinted is not None and hinted != engine.query(i, 1, j):
                    ok = False
    detail = f" ({args.queries - skipped} of {args.queries} templates"
    if skipped:
        detail += f"; {skipped} skipped, window over {_VERIFY_MAX_WINDOW} steps"
    report("ancestor-vs-window-oracle", ok, detail + ")")

    return 0 if not failures else 1


def _count(text: str) -> int:
    """argparse type of a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsproject",
        description="Finite-window projections and queries on stationary time-series graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_projection(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True, help="template JSON file")
        p.add_argument("--observed", required=True, help="comma-separated variable names")
        p.add_argument("--window", required=True, type=int, help="observed window length p")
        p.add_argument("--method", choices=["dioph", "window"], default="dioph")
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--dot", help="also write a DOT rendering to this file")
        return p

    add_projection("project-admg", "marginal ts-ADMG on a finite window")
    add_projection("project-dmag", "marginal ts-DMAG on a finite window")

    p = sub.add_parser("ancestor", help="common-ancestor query on an infinite ts-DAG")
    p.add_argument("--graph", required=True)
    p.add_argument("--i", required=True)
    p.add_argument("--tau", required=True, type=int)
    p.add_argument("--j", required=True)
    p.add_argument("--method", choices=["dioph", "window"], default="dioph")
    p.add_argument("--explain", action="store_true", help="dump the cone machinery to stderr")

    p = sub.add_parser("msep", help="m-separation query on a serialized finite graph")
    p.add_argument("--marginal", required=True)
    p.add_argument("--x", required=True, help="vertices as VAR:OFFSET, comma-separated")
    p.add_argument("--y", required=True)
    p.add_argument("--z", default="")

    p = sub.add_parser("cutoff", help="print the cutoff-window quantities K, L, M, p_cut")
    p.add_argument("--graph", required=True)
    p.add_argument("--window", required=True, type=int)

    p = sub.add_parser("dioph", help="ad-hoc solvability check for two cone tuples")
    p.add_argument("--lhs", required=True, help="tuple as 'a0;c1,c2'")
    p.add_argument("--rhs", required=True)

    p = sub.add_parser("verify", help="run the oracle-equivalence suites")
    # a string default goes through type=int only when verify runs without --seed
    p.add_argument("--seed", type=int, default=os.environ.get("TSPROJECT_SEED", "0"))
    p.add_argument("--templates", type=_count, default=25)
    p.add_argument("--queries", type=_count, default=10)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "project-admg":
            return _cmd_project(args, want_dmag=False)
        if args.command == "project-dmag":
            return _cmd_project(args, want_dmag=True)
        if args.command == "ancestor":
            return _cmd_ancestor(args)
        if args.command == "msep":
            return _cmd_msep(args)
        if args.command == "cutoff":
            return _cmd_cutoff(args)
        if args.command == "dioph":
            return _cmd_dioph(args)
        if args.command == "verify":
            return _cmd_verify(args)
        parser.error(f"unknown command {args.command}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Common-ancestor queries on infinite time-series DAGs.

Two vertices (i, t-tau) and (j, t) have a common ancestor iff there are
directed-or-trivial walks from a shared root k to i and to j whose weights
differ by exactly tau.  The realizable walk weights decompose into finitely
many affine cones, so the query reduces to finitely many linear Diophantine
solvability checks (:class:`CommonAncestorEngine`).

:class:`WalkWeights` answers the same queries up to a finite depth from one
walk-weight bitset per pair of variables; at the cutoff depth of
:func:`~tsproject.ts_projection.cutoff_bound` its answers are exact for the
window.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx

from .diophantine import solvable
from .graph_model import TsGraphTemplate, ValidationError
from .summary_mwdg import (
    ConeTuple,
    CycleClass,
    MwSummaryGraph,
    Path,
    build_graph_of_cycles,
    build_mw_summary,
    cone_set,
    cycle_free_paths,
    enumerate_cycle_classes,
    get_monoid,
    path_weightset,
    tuple_sets,
)


_MAX_WALK_DEPTH = 10**7  # deepest WalkWeights search; a bitset that deep is 1.25 MB


def summary_prefilter(s: MwSummaryGraph, i: str, j: str) -> bool:
    """Necessary condition: i and j have a common ancestor in the unweighted
    summary graph.  False here implies no common ancestor at any lag."""
    dg = s.digraph()
    return bool(({i} | nx.ancestors(dg, i)) & ({j} | nx.ancestors(dg, j)))


class CommonAncestorEngine:
    """Caches the summary-graph machinery for repeated queries on one template."""

    def __init__(self, tpl: TsGraphTemplate):
        if tpl.bidirected_t:
            raise ValidationError(
                "common-ancestor queries require a ts-DAG; canonicalize first"
            )
        self.tpl = tpl
        self.summary = build_mw_summary(tpl)
        self.classes = sorted(enumerate_cycle_classes(self.summary))
        self.goc = build_graph_of_cycles(self.classes)
        self._paths: dict[tuple[str, str], tuple[Path, ...]] = {}
        self._cones: dict[Path, frozenset[tuple[int, tuple[int, ...]]]] = {}
        self._answers: dict[tuple[str, int, str], bool] = {}

    def paths(self, k: str, i: str) -> tuple[Path, ...]:
        key = (k, i)
        if key not in self._paths:
            self._paths[key] = tuple(sorted(cycle_free_paths(self.summary, k, i)))
        return self._paths[key]

    def monoid(self, pi: Path) -> frozenset[frozenset[CycleClass]]:
        return get_monoid(pi, self.classes, self.goc)

    def tuples(self, tau: int, pi: Path, subset: frozenset[CycleClass]) -> frozenset[ConeTuple]:
        return tuple_sets(self.summary, tau, pi, subset, self.classes, self.goc)

    def cones(self, pi: Path) -> frozenset[tuple[int, tuple[int, ...]]]:
        """The distinct ``(a0, coeffs)`` of D_0(pi, S) over all S in M_pi; the
        cones of D_tau have every a0 shifted by tau."""
        if pi not in self._cones:
            touch = self.goc.touch_mask(pi)
            self._cones[pi] = cone_set(
                self.goc,
                path_weightset(self.summary, pi),
                touch,
                self.goc.monoid_masks(touch),
            )
        return self._cones[pi]

    def query(self, i: str, tau: int, j: str) -> bool:
        """Whether (i, t-tau) and (j, t) have a common ancestor (every vertex
        counts as its own ancestor)."""
        if tau < 0:
            raise ValidationError("tau must be non-negative")
        self.tpl.index(i), self.tpl.index(j)
        key = (i, tau, j)
        if key in self._answers:
            return self._answers[key]
        answer = self._decide(i, tau, j)
        self._answers[key] = answer
        return answer

    def _decide(self, i: str, tau: int, j: str) -> bool:
        """Whether some root k has paths pi: k -> i and pj: k -> j whose cones,
        the one of pi shifted by tau, meet; each distinct
        (a0 + tau - b0, coeffs, coeffs') is solved once."""
        if not summary_prefilter(self.summary, i, j):
            return False
        seen = set()
        for k in self.summary.nodes:
            for pi in self.paths(k, i):
                lhs = self.cones(pi)
                for pj in self.paths(k, j):
                    rhs = self.cones(pj)
                    for a0, lhs_coeffs in lhs:
                        c = a0 + tau
                        for b0, rhs_coeffs in rhs:
                            key = (c - b0, lhs_coeffs, rhs_coeffs)
                            if key in seen:
                                continue
                            seen.add(key)
                            if solvable(*key):
                                return True
        return False


class WalkWeights:
    """Common-ancestor queries on a ts-DAG, searched up to a finite depth.

    ``anc[x][u]`` is a bitset whose bit s is set iff (u, t-s) is an ancestor
    of (x, t) and s <= depth.  ``query(i, tau, j)`` then equals ancestor-set
    intersection in the unrolled window [t-depth, t]; with depth p_cut + p
    from ``cutoff_bound`` it is exact for the window [t-p, t] by the cutoff
    theorem.  A ``depth`` above ``_MAX_WALK_DEPTH`` raises ``ValidationError``.

    The bitsets are the fixpoint of a worklist over the edges between
    distinct nodes.  Each time a node's bitset is taken from the worklist, it
    is first closed, by doubling, under the weights of every cycle class
    through that node (self-loops included).  Such a weight is the weight of
    a closed walk at that node, so the closure adds only true ancestors, and
    a cycle that spans several nodes is crossed in a few rounds instead of
    one round per trip around it.  A weight that is a multiple of a smaller
    kept weight adds nothing and is dropped.
    """

    def __init__(self, tpl: TsGraphTemplate, depth: int):
        if tpl.bidirected_t:
            raise ValidationError(
                "common-ancestor queries require a ts-DAG; canonicalize first"
            )
        if depth < 0:
            raise ValidationError("depth must be non-negative")
        if depth > _MAX_WALK_DEPTH:
            raise ValidationError(
                f"search depth {depth} exceeds the walk-weight limit of {_MAX_WALK_DEPTH}"
            )
        self.tpl = tpl
        self.depth = depth
        mask = (1 << (depth + 1)) - 1
        in_edges: dict[str, list[tuple[str, int]]] = {v: [] for v in tpl.variables}
        for src, lag, dst in tpl.directed_t:
            if src != dst:
                in_edges[dst].append((src, lag))
        cycle_weights: dict[str, set[int]] = {v: set() for v in tpl.variables}
        for c in enumerate_cycle_classes(build_mw_summary(tpl)):
            for v in c.node_set:
                cycle_weights[v].update(c.weights)
        closing: dict[str, list[int]] = {}
        for v, weights in cycle_weights.items():
            kept: list[int] = []
            for w in sorted(weights):
                if all(w % k for k in kept):
                    kept.append(w)
            closing[v] = kept
        self.anc: dict[str, dict[str, int]] = {}
        for x in tpl.variables:
            bits = {x: 1}
            work = {x}
            while work:
                y = work.pop()
                # close under each cycle weight by doubling: after the shifts
                # w, 2 w, ..., 2^n w, every multiple of w up to (2^(n+1) - 1) w
                # has been added; a shift that adds nothing means the bitset
                # is closed under every multiple of w already
                for w in closing[y]:
                    closed = bits[y]
                    shift = w
                    while shift <= depth:
                        grown = closed | ((closed << shift) & mask)
                        if grown == closed:
                            break
                        closed = grown
                        shift *= 2
                    bits[y] = closed
                for u, lag in in_edges[y]:
                    old = bits.get(u, 0)
                    new = old | ((bits[y] << lag) & mask)
                    if new != old:
                        bits[u] = new
                        work.add(u)
            self.anc[x] = bits

    def query(self, i: str, tau: int, j: str) -> bool:
        """Whether (i, t-tau) and (j, t) have a common ancestor at most depth
        steps before t."""
        if tau < 0:
            raise ValidationError("tau must be non-negative")
        if tau > self.depth:
            raise ValidationError("tau must not exceed the search depth")
        self.tpl.index(i), self.tpl.index(j)
        anc_j = self.anc[j]
        return any((bits << tau) & anc_j.get(u, 0) for u, bits in self.anc[i].items())


def have_common_ancestor(tpl: TsGraphTemplate, i: str, tau: int, j: str) -> bool:
    """One-shot form of :meth:`CommonAncestorEngine.query`."""
    return CommonAncestorEngine(tpl).query(i, tau, j)


def lag1_shortcut(tpl: TsGraphTemplate, i: str, tau: int, j: str) -> Optional[bool]:
    """Exact fast path when every variable has a lag-1 auto-edge: common
    ancestorship then coincides with the summary-graph check.  Returns None
    when not applicable."""
    tpl.index(i), tpl.index(j)
    if tpl.bidirected_t:
        return None
    if not all((v, 1, v) in tpl.directed_t for v in tpl.variables):
        return None
    return summary_prefilter(build_mw_summary(tpl), i, j)

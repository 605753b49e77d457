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

:class:`WalkerReach` answers them exactly by reachability over finitely many
states of two walkers (path search in a 1-dimensional periodic graph; Orlin,
"Some problems on dynamic/periodic graphs", 1984; Iwano & Steiglitz, STOC
1987).  Walker A starts at (i, t-tau) and walker B at (j, t); a state
(a, b, delta) records their variables and delta = time(A) - time(B).  The
later walker steps back along one template edge, either walker when
delta = 0, and a common ancestor exists iff a meeting state (x, x, 0) is
reachable:

- soundness: every state reached is a pair of ancestors of the two start
  vertices, and a meeting state is one vertex;
- completeness: take walks from a common ancestor to both vertices; their
  time sequences merge in this order, since the walker whose walk is done
  sits at the ancestor's time, which is never later than the other walker;
- finiteness: a step from |delta| <= R leaves |delta| <= R whenever R is at
  least the largest lag K (the later walker moves back at most K past the
  other), so the states with |delta| <= R close under steps.

One backward search from every meeting state over the n^2 (2 R + 1) states
answers every query with tau <= R at once (a projection asks only lags
below K; see :mod:`tsproject.ts_projection`).  The tail answers tau > R:
(i, t-tau) and (j, t) have a common ancestor iff some b and some s in
[tau - R, tau] have (b, t-s) an ancestor of (j, t), bit s of
``WalkWeights(tpl, tau).anc[j][b]``, and the state (i, b, s - tau) reached.
Soundness: the two conditions chain an ancestor of (j, t) and a common
ancestor of (i, t-tau) and (b, t-s).  Completeness: in the merged walks of
a common ancestor, B is the later walker and steps alone while delta < -R,
and each step raises delta by at most K <= R, so the walks pass through a
state (i, b, s - tau) with s - tau in [-R, 0) before they meet; B's walk so
far sets bit s, and the rest stays within |delta| <= R, where the search
reached the state.
"""

from __future__ import annotations

from typing import Optional

from .diophantine import solvable
from .graph_model import TsGraphTemplate, ValidationError, max_lag
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
    require_ts_dag,
    tuple_sets,
)


_MAX_WALK_DEPTH = 10**7  # deepest WalkWeights search; a bitset that deep is 1.25 MB
_MAX_WALKER_STATES = 2 * 10**5  # n^2 (2 R + 1); a byte per state
_MAX_WALKER_STEPS = 4 * 10**6  # 2 n (2 R + 1) |E|; the search takes under 1 s at both
_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def summary_prefilter(s: MwSummaryGraph, i: str, j: str) -> bool:
    """Necessary condition: i and j have a common ancestor in the unweighted
    summary graph.  False here implies no common ancestor at any lag."""
    import networkx as nx  # on first use, so that importing tsproject does not load it

    dg = nx.DiGraph()
    dg.add_nodes_from(s.nodes)
    dg.add_edges_from(s.edges)
    return bool(({i} | nx.ancestors(dg, i)) & ({j} | nx.ancestors(dg, j)))


class CommonAncestorEngine:
    """Caches the summary-graph machinery for repeated queries on one ts-DAG
    (:func:`~tsproject.summary_mwdg.build_mw_summary` rejects a ts-ADMG)."""

    def __init__(self, tpl: TsGraphTemplate):
        self.tpl = tpl
        self.summary = build_mw_summary(tpl)
        self.goc = build_graph_of_cycles(enumerate_cycle_classes(self.summary))
        self.classes = self.goc.classes
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
        """The distinct ``(a0, coeffs)`` of D_0(pi, S) over the
        inclusion-minimal S in M_pi of each closure; the cones of D_tau have
        every a0 shifted by tau.

        Their union is the union over all of M_pi: for S' <= S in M_pi with
        cl(S') = cl(S), the cone of S lies in the cone of S' (dominance).  The
        cone terms of the minimal sets come from a level-by-level search that
        decides membership in M_pi by one traversal and never lists M_pi
        (prefix lemma); see :mod:`tsproject.summary_mwdg`."""
        if pi not in self._cones:
            self._cones[pi] = cone_set(
                path_weightset(self.summary, pi),
                self.goc.cone_terms(self.goc.touch_mask(pi)),
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
    theorem.  A ``depth`` above ``_MAX_WALK_DEPTH`` raises ``ValidationError``,
    and so does a ts-ADMG, in :func:`~tsproject.summary_mwdg.build_mw_summary`.

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
        if depth < 0:
            raise ValidationError("depth must be non-negative")
        if depth > _MAX_WALK_DEPTH:
            raise ValidationError(
                f"search depth {depth} exceeds the walk-weight limit of {_MAX_WALK_DEPTH}"
            )
        classes = enumerate_cycle_classes(build_mw_summary(tpl))
        self.tpl = tpl
        self.depth = depth
        mask = (1 << (depth + 1)) - 1
        in_edges: dict[str, list[tuple[str, int]]] = {v: [] for v in tpl.variables}
        for src, lag, dst in tpl.directed_t:
            if src != dst:
                in_edges[dst].append((src, lag))
        cycle_weights: dict[str, set[int]] = {v: set() for v in tpl.variables}
        for c in classes:
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


class WalkerReach:
    """Exact common-ancestor queries on a ts-DAG for tau up to ``reach``,
    raised to the largest lag K if below it.

    A backward search over the two-walker states (a, b, delta) of the module
    docstring with |delta| <= R answers tau <= R by whether it reached
    (i, j, -tau).  R is the largest value in [K, reach] whose states and
    steps fit ``_MAX_WALKER_STATES`` and ``_MAX_WALKER_STEPS``, or K if none
    does; the module docstring's tail, from ``WalkWeights(tpl, reach)``,
    answers tau in (R, reach].

    From every meeting state (x, x, 0) the search takes steps back: an edge
    u -> a of lag L takes (u, b, d) to (a, b, d + L) when d + L >= 0 (A, the
    later walker, stepped), and an edge w -> b takes (a, w, d) to
    (a, b, d - L) when d - L <= 0.  Each state enters the worklist once, so
    the search costs one pass over the states and their steps.  The steps
    are the template's directed entries, whose checks the template has run;
    a ts-ADMG is rejected by :func:`~tsproject.summary_mwdg.require_ts_dag`.
    """

    def __init__(self, tpl: TsGraphTemplate, reach: int):
        if reach < 0:
            raise ValidationError("reach must be non-negative")
        require_ts_dag(tpl)
        self.tpl = tpl
        self.reach = max(reach, max_lag(tpl))
        self._r = r = max(max_lag(tpl), min(reach, _largest_reach(tpl)))
        n, width = len(tpl.variables), 2 * r + 1
        idx = {v: k for k, v in enumerate(tpl.variables)}
        # state (a, b, delta) is number (a * n + b) * width + delta + r;
        # per edge tail, (lag, the change of that number) for each walker
        steps_a: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        steps_b: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for src, lag, dst in tpl.directed_t:
            u, a = idx[src], idx[dst]
            steps_a[u].append((lag, (a - u) * n * width + lag))
            steps_b[u].append((lag, (a - u) * width - lag))
        for steps in steps_a + steps_b:
            steps.sort()
        seen = bytearray(n * n * width)
        work = [(x * n + x) * width + r for x in range(n)]
        for s in work:
            seen[s] = 1
        while work:
            s = work.pop()
            pair, e = divmod(s, width)  # e = delta + r
            a, b = divmod(pair, n)
            low = r - e  # A's lag keeps delta + lag in [0, r]
            high = low + r
            for lag, step in steps_a[a]:
                if lag > high:
                    break
                if lag >= low:
                    t = s + step
                    if not seen[t]:
                        seen[t] = 1
                        work.append(t)
            low = e - r  # B's lag keeps delta - lag in [-r, 0]
            for lag, step in steps_b[b]:
                if lag > e:
                    break
                if lag >= low:
                    t = s + step
                    if not seen[t]:
                        seen[t] = 1
                        work.append(t)
        self._seen = seen
        if self.reach > r:
            self._walks = WalkWeights(tpl, self.reach)
            # bit k of _rows[a][b]: the state (a, b, k - r) was reached
            self._rows = {
                a: {b: int(seen[s : s + r + 1].translate(_BIT_DIGITS)[::-1], 2)
                    for b, s in zip(tpl.variables, range(x * n * width, len(seen), width))}
                for x, a in enumerate(tpl.variables)
            }

    def query(self, i: str, tau: int, j: str) -> bool:
        """Whether (i, t-tau) and (j, t) have a common ancestor."""
        if tau < 0:
            raise ValidationError("tau must be non-negative")
        if tau > self.reach:
            raise ValidationError("tau must not exceed the reach")
        pair = self.tpl.index(i) * len(self.tpl.variables) + self.tpl.index(j)
        if tau <= self._r:
            return bool(self._seen[pair * (2 * self._r + 1) + self._r - tau])
        rows, shift = self._rows[i], tau - self._r
        return any(bits >> shift & rows[b] for b, bits in self._walks.anc[j].items())


def _largest_reach(tpl: TsGraphTemplate) -> int:
    """The largest R whose two-walker states and steps fit the limits; -1 if none."""
    n = len(tpl.variables)
    span = min(_MAX_WALKER_STATES // n**2, _MAX_WALKER_STEPS // (2 * n * len(tpl.directed_t) or 1))
    return (span - 1) // 2


def _default_engine(tpl: TsGraphTemplate, depth: int) -> CommonAncestorEngine | WalkerReach:
    """The engine for every lag up to ``depth``: a :class:`WalkerReach` when
    its search fits the limits at R = K and its tail, if depth > R, is within
    ``_MAX_WALK_DEPTH``; the cone engine otherwise.  The rule reads only the
    input, and both engines are exact."""
    fit = _largest_reach(tpl)
    if max_lag(tpl) <= fit and depth <= max(fit, _MAX_WALK_DEPTH):
        return WalkerReach(tpl, depth)
    return CommonAncestorEngine(tpl)


def lag1_shortcut(tpl: TsGraphTemplate, i: str, tau: int, j: str) -> Optional[bool]:
    """Exact fast path when every variable has a lag-1 auto-edge: common
    ancestorship then coincides with the summary-graph check.  Returns None
    when not applicable."""
    tpl.index(i), tpl.index(j)
    if tpl.bidirected_t or not all((v, 1, v) in tpl.directed_t for v in tpl.variables):
        return None
    return summary_prefilter(build_mw_summary(tpl), i, j)

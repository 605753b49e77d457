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
(a, b, delta) records their variables and delta = time(A) - time(B).  A step
moves either walker back along one template edge, and a common ancestor
exists iff a meeting state (x, x, 0) is reachable in the band |delta| <= R,
for any R at least tau and the largest lag K:

- soundness: every step moves a walker to an ancestor, so every state
  reached is a pair of ancestors of the two start vertices, and a meeting
  state is one vertex;
- completeness: take walks from a common ancestor to both vertices and let
  the later walker step (either one when delta = 0); their time sequences
  merge in this order, since the walker whose walk is done sits at the
  ancestor's time, never later than the other walker, and the later walker
  moves back at most K <= R past the other, so these walks stay in the band;
- finiteness: the band holds n^2 (2 R + 1) states.

One backward search from every meeting state over the band answers every
query with tau <= R at once (a projection asks only lags below K; see
:mod:`tsproject.ts_projection`).  The tail answers tau > R: (i, t-tau) and
(j, t) have a common ancestor iff some b and some s in [tau - R, tau + R]
have (b, t-s) an ancestor of (j, t), bit s of the walk weights into j,
``WalkWeights(tpl, tau).anc[j][b]``, and the state (i, b, s - tau) reached.
Soundness: the two conditions chain an ancestor of (j, t) and a common
ancestor of (i, t-tau) and (b, t-s).  Completeness: in the merged walks of
a common ancestor, B is the later walker and steps alone while delta < -R,
and each step raises delta by at most K <= R, so the walks pass through a
state (i, b, s - tau) with s - tau in [-R, 0) before they meet; B's walk so
far sets bit s, and the rest stays in the band, where the search reached
the state.
"""

from __future__ import annotations

from typing import Iterable, Optional

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
_MAX_WALKER_STATES = 2 * 10**5  # n^2 (2 R + 1); a bit per state
_MAX_WALKER_STEPS = 4 * 10**6  # 2 n (2 R + 1) |E|; the search takes seconds at most at both
_MAX_CONE_PAIRS = 10**6  # per cone-engine query; a path pair's are counted before they are tried


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
        (a0 + tau - b0, coeffs, coeffs') is solved once.  Past
        ``_MAX_CONE_PAIRS`` cone pairs raise ``ValidationError``."""
        if not summary_prefilter(self.summary, i, j):
            return False
        seen = set()
        tried = 0
        for k in self.summary.nodes:
            for pi in self.paths(k, i):
                lhs = self.cones(pi)
                for pj in self.paths(k, j):
                    rhs = self.cones(pj)
                    tried += len(lhs) * len(rhs)
                    if tried > _MAX_CONE_PAIRS:
                        raise ValidationError(
                            f"the common-ancestor search tries more than {_MAX_CONE_PAIRS} "
                            "cone pairs; it is too large to search"
                        )
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

    ``anc[x]`` is searched on its first read, so a query searches its two
    targets only, and the tail of :class:`WalkerReach` j alone: the
    :func:`_fixpoint` from bit 0 of x over the edges between distinct
    variables and the weights of the cycle classes through each variable.
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
        weights = [[w for c in classes if v in c.node_set for w in c.weights] for v in tpl.variables]
        self._moves = [[(w, 0, 0) for w in _closing_weights(ws)] for ws in weights]
        for src, lag, dst in tpl.directed_t:
            u, y = tpl.index(src), tpl.index(dst)
            if u != y:
                self._moves[y].append((lag, 0, u - y))
        self.anc: dict[str, dict[str, int]] = _OnFirstRead(self._walks_into)

    def _walks_into(self, x: str) -> dict[str, int]:
        bits = [0] * len(self.tpl.variables)
        bits[self.tpl.index(x)] = 1
        _fixpoint(bits, self._moves.__getitem__, (1 << (self.depth + 1)) - 1)
        return {v: b for v, b in zip(self.tpl.variables, bits) if b}

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


class _OnFirstRead(dict):
    """A dict whose missing keys are filled by ``fill(key)`` when first read."""

    def __init__(self, fill):
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


class WalkerReach:
    """Exact common-ancestor queries on a ts-DAG for tau up to ``reach``,
    raised to the largest lag K if below it.

    A backward search over the band |delta| <= R of the two-walker states
    (a, b, delta) of the module docstring answers tau <= R by whether it
    reached (i, j, -tau).  R is the largest value in [K, reach] whose states
    and steps fit ``_MAX_WALKER_STATES`` and ``_MAX_WALKER_STEPS``; a
    template where even R = K does not fit raises ``ValidationError``.  The
    tail answers tau in (R, reach] from the pairs (i, b) and the walk
    weights into j of ``WalkWeights(tpl, reach)``.

    The states of a walker pair (a, b) are one int, whose bit delta + R is
    set iff (a, b, delta) was reached: the :func:`_fixpoint` from the meeting
    states, where an edge a -> u of lag L shifts the bits left by L into
    (u, b) (A stepped), an edge b -> w shifts them right by L into (a, w)
    (B stepped), and a self-loop is a closed walk.  The steps are the
    template's directed entries, whose checks the template has run; a ts-ADMG
    is rejected by :func:`~tsproject.summary_mwdg.require_ts_dag`.
    """

    def __init__(self, tpl: TsGraphTemplate, reach: int):
        if reach < 0:
            raise ValidationError("reach must be non-negative")
        require_ts_dag(tpl)
        k, largest = max_lag(tpl), _largest_reach(tpl)
        if k > largest:
            raise ValidationError(
                f"the two-walker search at the largest lag {k} exceeds the limits of "
                f"{_MAX_WALKER_STATES} states and {_MAX_WALKER_STEPS} steps"
            )
        self.tpl = tpl
        self.reach = max(reach, k)
        self._r = r = min(self.reach, largest)
        n = len(tpl.variables)
        # the pair (a, b) is number a * n + b; per edge tail, the moves of
        # each walker, as (shift left, shift right, change of that number)
        steps_a: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        steps_b: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for src, lag, dst in tpl.directed_t:
            u, a = tpl.index(src), tpl.index(dst)
            if u != a or lag in _closing_weights(w for v, w, x in tpl.directed_t if v == x == src):
                steps_a[u].append((lag, 0, (a - u) * n))
                steps_b[u].append((0, lag, a - u))
        self._pairs = [1 << r if a == b else 0 for a in range(n) for b in range(n)]
        _fixpoint(self._pairs, lambda pair: steps_a[pair // n] + steps_b[pair % n],
                  (1 << (2 * r + 1)) - 1)
        if self.reach > r:
            self._walks = WalkWeights(tpl, self.reach)

    def query(self, i: str, tau: int, j: str) -> bool:
        """Whether (i, t-tau) and (j, t) have a common ancestor."""
        if tau < 0:
            raise ValidationError("tau must be non-negative")
        if tau > self.reach:
            raise ValidationError("tau must not exceed the reach")
        row, col = self.tpl.index(i) * len(self.tpl.variables), self.tpl.index(j)
        if tau <= self._r:
            return bool(self._pairs[row + col] >> self._r - tau & 1)
        shift = tau - self._r
        return any(bits >> shift & self._pairs[row + self.tpl.index(b)]
                   for b, bits in self._walks.anc[j].items())


def _closing_weights(weights: Iterable[int]) -> list[int]:
    """Closed-walk weights, ascending, less each multiple of a smaller kept
    weight, which closing under that weight covers."""
    kept: list[int] = []
    for w in sorted(set(weights)):
        if all(w % k for k in kept):
            kept.append(w)
    return kept


def _fixpoint(bits: list[int], moves, mask: int) -> None:
    """Grow ``bits`` in place to the least superset closed under the moves
    within ``mask``.  A move ``(left, right, dz)`` in ``moves(y)`` ORs
    ``bits[y] << left >> right & mask`` into ``bits[y + dz]``; the worklist
    holds the indices to move from: the non-zero ones, then each one that
    grows.  A move with ``dz == 0`` is a closed walk; once it adds a bit it
    is applied with both shifts doubled until a shift adds nothing, so a
    walk of weight w crosses D bits in log(D / w) shifts, not D / w rounds.

    - sound: a bit added is one template edge, or a closed walk repeated
      2^k times, from a bit already set;
    - complete: every template edge is a move, or a closed walk whose weight
      is a multiple of a move's, and the fixpoint is closed under every move;
    - terminates: each queued index and each doubling adds a bit in the mask.
    """
    work = {y for y, b in enumerate(bits) if b}
    while work:
        y = work.pop()
        for left, right, dz in moves(y):
            t = y + dz
            new = bits[t] | bits[y] << left >> right & mask
            if new != bits[t]:
                while dz == 0:  # repeat the closed walk 2^k times
                    left, right = 2 * left, 2 * right
                    grown = new | new << left >> right & mask
                    if grown == new:
                        break
                    new = grown
                bits[t] = new
                work.add(t)


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
    # R <= (_MAX_WALKER_STATES - 1) // 2 = 99,999 < _MAX_WALK_DEPTH, so a depth
    # the search alone covers is within the tail's limit too
    if max_lag(tpl) <= _largest_reach(tpl) and depth <= _MAX_WALK_DEPTH:
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

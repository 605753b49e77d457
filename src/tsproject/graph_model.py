"""Templates of infinite time-series graphs and the finite mixed graphs built from them.

A time-series graph over variables ``V`` repeats its edges at every time step.
It is therefore fully described by a finite template: the variable list plus
the set of edges that end at the reference time ``t``.  Unrolling a template
onto a finite window ``[t-w, t]`` yields a :class:`FiniteMixedGraph`, the data
structure all projection and separation routines operate on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Hashable, Iterable


class ValidationError(ValueError):
    """Raised when an input violates a structural invariant."""


def is_acyclic(nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]) -> bool:
    """Whether the directed graph on ``nodes`` has no directed cycle; every
    edge must join two of the nodes.

    Kahn's topological-order algorithm: remove nodes without incoming edges
    until none is left; the graph is acyclic iff every node gets removed.
    """
    succ: dict[Hashable, list[Hashable]] = {v: [] for v in nodes}
    indegree = dict.fromkeys(succ, 0)
    for u, v in edges:
        succ[u].append(v)
        indegree[v] += 1
    ready = [v for v, d in indegree.items() if not d]
    removed = 0
    while ready:
        u = ready.pop()
        removed += 1
        for v in succ[u]:
            indegree[v] -= 1
            if not indegree[v]:
                ready.append(v)
    return removed == len(succ)


# A directed template entry (i, lag, j) encodes the edge (i, t-lag) -> (j, t).
# A bidirected entry (a, lag, b) encodes (a, t-lag) <-> (b, t).
DirectedEntry = tuple[str, int, str]
BidirectedEntry = tuple[str, int, str]


@dataclass(frozen=True, order=True)
class TsVertex:
    """Vertex ``(var, t - offset)``; offset 0 is the reference time ``t``."""

    var: str
    offset: int

    def label(self) -> str:
        return f"{self.var}[t]" if self.offset == 0 else f"{self.var}[t-{self.offset}]"


@dataclass(frozen=True)
class TsGraphTemplate:
    """Finite description of an infinite time-series ADMG (or DAG).

    ``directed_t`` holds entries ``(from_var, lag, to_var)``; ``bidirected_t``
    holds entries ``(a, lag, b)`` canonicalized so that ``lag > 0``, or
    ``lag == 0`` with ``index(a) < index(b)`` in the variable list.
    """

    variables: tuple[str, ...]
    directed_t: frozenset[DirectedEntry] = frozenset()
    bidirected_t: frozenset[BidirectedEntry] = frozenset()

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValidationError("template needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValidationError("duplicate variable names")
        index = {v: n for n, v in enumerate(self.variables)}
        for src, lag, dst in self.directed_t | self.bidirected_t:
            if src not in index or dst not in index:
                raise ValidationError(f"unknown variable in edge ({src}, {lag}, {dst})")
            if type(lag) is not int or lag < 0:  # bool is an int subclass
                raise ValidationError(f"negative or non-integer lag in ({src}, {lag}, {dst})")
            if lag == 0 and src == dst:
                raise ValidationError(f"self edge ({src}, 0, {dst})")
        for a, lag, b in self.bidirected_t:
            if lag == 0 and index[a] >= index[b]:
                raise ValidationError(
                    f"bidirected entry ({a}, 0, {b}) is not canonical (need index({a}) < index({b}))"
                )
        if not is_acyclic(
            self.variables, ((src, dst) for src, lag, dst in self.directed_t if lag == 0)
        ):
            raise ValidationError("contemporaneous directed cycle")

    @property
    def is_ts_dag(self) -> bool:
        return not self.bidirected_t

    def index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise ValidationError(f"unknown variable {var!r}") from None


def make_template(
    variables: Iterable[str],
    directed: Iterable[DirectedEntry] = (),
    bidirected: Iterable[BidirectedEntry] = (),
) -> TsGraphTemplate:
    """Build a validated template, canonicalizing and deduplicating bidirected entries."""
    variables = tuple(variables)
    index = {v: n for n, v in enumerate(variables)}
    canonical = set()
    for a, lag, b in bidirected:
        if lag == 0 and a in index and b in index and index[a] > index[b]:
            a, b = b, a
        canonical.add((a, lag, b))
    return TsGraphTemplate(
        variables=variables,
        directed_t=frozenset((src, lag, dst) for src, lag, dst in directed),
        bidirected_t=frozenset(canonical),
    )


def parse_template(text: str) -> TsGraphTemplate:
    """Parse the JSON template format.

    Expected shape::

        {"variables": ["X", "Y"],
         "directed": [["X", "Y", 1], ...],    # [from, to, lag]
         "bidirected": [["X", "Y", 0], ...]}  # [a, b, lag]
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "variables" not in doc:
        raise ValidationError("template document must be an object with a 'variables' key")
    names = doc["variables"]
    if not (isinstance(names, list) and all(isinstance(v, str) for v in names)):
        raise ValidationError("'variables' must be a list of strings")
    for key in ("directed", "bidirected"):
        entries = doc.get(key, [])
        if not isinstance(entries, list):
            raise ValidationError(f"'{key}' must be a list")
        for entry in entries:
            if not (
                isinstance(entry, list)
                and len(entry) == 3
                and all(isinstance(v, str) for v in entry[:2])
            ):
                raise ValidationError(f"malformed {key} entry {entry!r}")
    return make_template(
        names,
        directed=[(src, lag, dst) for src, dst, lag in doc.get("directed", [])],
        bidirected=[(a, lag, b) for a, b, lag in doc.get("bidirected", [])],
    )


def serialize_template(tpl: TsGraphTemplate) -> str:
    """Inverse of :func:`parse_template` on canonicalized templates."""
    doc = {
        "variables": list(tpl.variables),
        "directed": sorted([src, dst, lag] for src, lag, dst in tpl.directed_t),
        "bidirected": sorted([a, b, lag] for a, lag, b in tpl.bidirected_t),
    }
    return json.dumps(doc, indent=2) + "\n"


def max_lag(tpl: TsGraphTemplate) -> int:
    """Maximal lag over all template entries (0 for edgeless templates)."""
    lags = [lag for _, lag, _ in tpl.directed_t | tpl.bidirected_t]
    return max(lags, default=0)


def _canonical_pair(u: TsVertex, v: TsVertex) -> tuple[TsVertex, TsVertex]:
    return (u, v) if (u.var, u.offset) <= (v.var, v.offset) else (v, u)


@dataclass(frozen=True)
class FiniteMixedGraph:
    """Finite ADMG over :class:`TsVertex` vertices.

    A vertex pair may carry at most one directed and one bidirected edge.
    Bidirected edges are stored as canonically ordered pairs.  ``var_order``
    only affects serialization order and is excluded from equality.
    """

    vertices: frozenset[TsVertex]
    directed: frozenset[tuple[TsVertex, TsVertex]] = frozenset()
    bidirected: frozenset[tuple[TsVertex, TsVertex]] = frozenset()
    latent: frozenset[TsVertex] = frozenset()
    var_order: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "bidirected", frozenset(_canonical_pair(u, v) for u, v in self.bidirected)
        )
        if not self.var_order:
            object.__setattr__(
                self, "var_order", tuple(sorted({v.var for v in self.vertices}))
            )
        for u, v in self.directed | self.bidirected:
            if u == v:
                raise ValidationError(f"self edge at {u}")
            if u not in self.vertices or v not in self.vertices:
                raise ValidationError(f"edge endpoint {u} or {v} not a vertex")
        if not self.latent <= self.vertices:
            raise ValidationError("latent marks must be a subset of the vertices")
        if not is_acyclic(self.vertices, self.directed):
            raise ValidationError("directed part is cyclic")

    @property
    def observed(self) -> frozenset[TsVertex]:
        return self.vertices - self.latent

    def vertex_key(self, v: TsVertex) -> tuple[int, int]:
        try:
            return (self.var_order.index(v.var), v.offset)
        except ValueError:
            raise ValidationError(f"vertex variable {v.var!r} missing from var_order") from None

    def sorted_vertices(self) -> list[TsVertex]:
        return sorted(self.vertices, key=self.vertex_key)

    def to_json(self) -> str:
        key = self.vertex_key
        doc = {
            "vertices": [[v.var, v.offset] for v in self.sorted_vertices()],
            "directed": [
                [[u.var, u.offset], [v.var, v.offset]]
                for u, v in sorted(self.directed, key=lambda e: (key(e[0]), key(e[1])))
            ],
            "bidirected": [
                [[u.var, u.offset], [v.var, v.offset]]
                for u, v in sorted(
                    self.bidirected,
                    key=lambda e: tuple(sorted((key(e[0]), key(e[1])))),
                )
            ],
            "latent": [[v.var, v.offset] for v in sorted(self.latent, key=key)],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_dot(self) -> str:
        """DOT export: bidirected edges are rendered with ``dir=both``."""
        key = self.vertex_key
        lines = ["digraph {"]
        for v in self.sorted_vertices():
            lines.append(f"  {_dot_id(v)};")
        for u, v in sorted(self.directed, key=lambda e: (key(e[0]), key(e[1]))):
            lines.append(f"  {_dot_id(u)} -> {_dot_id(v)};")
        for u, v in sorted(
            self.bidirected, key=lambda e: tuple(sorted((key(e[0]), key(e[1]))))
        ):
            lines.append(f"  {_dot_id(u)} -> {_dot_id(v)} [dir=both];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_id(v: TsVertex) -> str:
    """Quoted DOT identifier for a vertex label."""
    return '"' + v.label().replace("\\", "\\\\").replace('"', '\\"') + '"'


def parse_mixed_graph(text: str) -> FiniteMixedGraph:
    """Parse the JSON serialization written by :meth:`FiniteMixedGraph.to_json`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise ValidationError("graph document must be an object with a 'vertices' key")

    def items(key: str) -> list:
        value = doc.get(key, [])
        if not isinstance(value, list):
            raise ValidationError(f"'{key}' must be a list")
        return value

    def vert(item: object) -> TsVertex:
        if not (isinstance(item, list) and len(item) == 2):
            raise ValidationError(f"malformed vertex {item!r}")
        if not isinstance(item[0], str):
            raise ValidationError(f"variable name of vertex {item!r} must be a string")
        if type(item[1]) is not int or item[1] < 0:  # bool is an int subclass
            raise ValidationError(f"offset of vertex {item!r} must be a non-negative integer")
        return TsVertex(item[0], item[1])

    def edge(item: object) -> tuple[TsVertex, TsVertex]:
        if not (isinstance(item, list) and len(item) == 2):
            raise ValidationError(f"malformed edge {item!r}; expected a pair of vertices")
        return vert(item[0]), vert(item[1])

    return FiniteMixedGraph(
        vertices=frozenset(vert(v) for v in items("vertices")),
        directed=frozenset(edge(e) for e in items("directed")),
        bidirected=frozenset(edge(e) for e in items("bidirected")),
        latent=frozenset(vert(v) for v in items("latent")),
    )


def unroll_window(tpl: TsGraphTemplate, window_length: int) -> FiniteMixedGraph:
    """Unroll a template onto the window ``[t-w, t]`` (offsets ``0..w``).

    Every template entry contributes one edge instance per time shift that
    keeps both endpoints inside the window.
    """
    if window_length < 0:
        raise ValidationError("window length must be non-negative")
    w = window_length
    vertices = frozenset(
        TsVertex(var, off) for var in tpl.variables for off in range(w + 1)
    )
    directed = frozenset(
        (TsVertex(src, off + lag), TsVertex(dst, off))
        for src, lag, dst in tpl.directed_t
        for off in range(w - lag + 1)
    )
    bidirected = frozenset(
        (TsVertex(a, off + lag), TsVertex(b, off))
        for a, lag, b in tpl.bidirected_t
        for off in range(w - lag + 1)
    )
    return FiniteMixedGraph(
        vertices=vertices,
        directed=directed,
        bidirected=bidirected,
        var_order=tpl.variables,
    )

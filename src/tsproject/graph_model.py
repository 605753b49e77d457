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
from json.encoder import encode_basestring_ascii
from typing import Collection, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence


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


# Int-mask kernels: bit n of a mask stands for vertex n, and a graph is the
# sequence of the successor masks of its vertices.


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def encode(items: Iterable[Hashable], index: Mapping[Hashable, int]) -> int:
    """The mask with bit ``index[x]`` set for each of the ``items``."""
    mask = 0
    for x in items:
        mask |= 1 << index[x]
    return mask


def reach(adjacency: Sequence[int], seeds: int, allowed: int) -> int:
    """``seeds``, plus every vertex of ``allowed`` that a path from the seeds
    reaches through vertices of ``allowed``; ``allowed`` = -1 lets every path
    through."""
    reached = frontier = seeds
    while frontier:
        step = 0
        for k in bits(frontier):
            step |= adjacency[k]
        frontier = step & allowed & ~reached
        reached |= frontier
    return reached


# A directed template entry (i, lag, j) encodes the edge (i, t-lag) -> (j, t).
# A bidirected entry (a, lag, b) encodes (a, t-lag) <-> (b, t).
DirectedEntry = tuple[str, int, str]
BidirectedEntry = tuple[str, int, str]


class TsVertex(NamedTuple):
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
    _position: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValidationError("template needs at least one variable")
        index = {v: n for n, v in enumerate(self.variables)}
        if len(index) != len(self.variables):
            raise ValidationError("duplicate variable names")
        object.__setattr__(self, "_position", index)
        for src, lag, dst in self.directed_t | self.bidirected_t:
            if src not in index or dst not in index:
                raise ValidationError(f"unknown variable in edge ({src}, {lag}, {dst})")
            if type(lag) is not int or lag < 0:  # bool is an int subclass
                raise ValidationError(f"negative or non-integer lag in ({src}, {lag!r}, {dst})")
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
            return self._position[var]
        except (KeyError, TypeError):  # TypeError: an unhashable name
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
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested for the decoder
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
    for src, dst, lag in doc.get("directed", []) + doc.get("bidirected", []):
        if isinstance(lag, (list, dict)):  # unhashable: the entry sets could not hold it
            raise ValidationError(f"negative or non-integer lag in ({src}, {lag!r}, {dst})")
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


def _check_lag(value: object, name: str) -> None:
    """Raise ``ValidationError`` unless ``value`` is an int >= 0, as a template lag is."""
    if type(value) is not int:  # bool is an int subclass
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValidationError(f"{name} must be non-negative")


def _check_vertices(items: Iterable) -> None:
    """Raise ``ValidationError`` unless every item is a :class:`TsVertex`
    with a str name and an int offset >= 0.  A plain (var, offset) tuple
    equals its TsVertex, and TsVertex('X', True) equals TsVertex('X', 1), so
    neither would fail a later check."""
    bad = [
        v
        for v in items
        if not isinstance(v, TsVertex)
        or not isinstance(v.var, str)
        or type(v.offset) is not int  # bool is an int subclass
        or v.offset < 0
    ]
    if bad:
        v = min(bad, key=repr)  # so that the message does not follow set order
        if not isinstance(v, TsVertex):
            raise ValidationError(f"{v!r} is not a TsVertex")
        name = f"{v.var}:{v.offset}"
        if not isinstance(v.var, str):
            raise ValidationError(f"variable name of vertex {name} must be a string")
        raise ValidationError(f"offset of vertex {name} must be a non-negative integer")


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
        _check_vertices(
            v for group in (self.vertices, self.latent, *self.directed, *self.bidirected)
            for v in group
        )
        object.__setattr__(
            self, "bidirected", frozenset((u, v) if u <= v else (v, u) for u, v in self.bidirected)
        )
        if not self.var_order:
            object.__setattr__(
                self, "var_order", tuple(sorted({v.var for v in self.vertices}))
            )
        edges = self.directed | self.bidirected
        if any(u == v or u not in self.vertices or v not in self.vertices for u, v in edges):
            # the least bad edge, so that the message does not follow set order
            u, v = min(e for e in edges if e[0] == e[1] or not self.vertices.issuperset(e))
            if u == v:
                raise ValidationError(f"self edge at {u.var}:{u.offset}")
            bad = u if u not in self.vertices else v
            raise ValidationError(f"edge endpoint {bad.var}:{bad.offset} is not a vertex")
        if not self.latent <= self.vertices:
            raise ValidationError("latent marks must be a subset of the vertices")
        if not is_acyclic(self.vertices, self.directed):
            raise ValidationError("directed part is cyclic")

    @property
    def observed(self) -> frozenset[TsVertex]:
        return self.vertices - self.latent

    def _layout(self) -> tuple:
        """The arguments of :func:`_json_document` and :func:`_dot_document`:
        the vertices sorted on their :func:`_order_keys`, then the directed
        pairs, the bidirected pairs in their stored orientation and the latent
        vertices, as positions in that list and in output order.

        A directed edge sorts on the int rank_u * n + rank_v, a bidirected
        edge on its (min, max) rank pair with one low bit that keeps its
        stored orientation."""
        order = _order_keys(self.vertices, self.var_order)
        vs = [v for _, v in sorted(zip(order, self.vertices))]  # no two keys are equal
        n = len(vs)
        rank = {v: k for k, v in enumerate(vs)}
        directed = sorted([rank[u] * n + rank[v] for u, v in self.directed])
        bidirected = sorted(
            (a * n + b) << 1 if a < b else (b * n + a) << 1 | 1
            for a, b in ((rank[u], rank[v]) for u, v in self.bidirected)
        )
        return (
            vs,
            (divmod(key, n) for key in directed),
            ((b, a) if key & 1 else (a, b) for key in bidirected for a, b in [divmod(key >> 1, n)]),
            sorted(rank[v] for v in self.latent),
        )

    def to_json(self) -> str:
        """The bytes of ``json.dumps(doc, indent=2) + "\\n"`` for the document
        with the keys ``vertices``, ``directed``, ``bidirected`` and ``latent``."""
        return _json_document(*self._layout())

    def to_dot(self) -> str:
        """DOT export in the order of :meth:`to_json`; see :func:`_dot_document`."""
        return _dot_document(*self._layout())


def _order_keys(vertices: Collection[TsVertex], var_order: Sequence[str]) -> list[tuple[int, int]]:
    """The output order key of each vertex: the first position of its variable
    in ``var_order``, then its offset.  The least variable missing from
    ``var_order`` is named, so that the message does not follow set order."""
    position: dict[str, int] = {}
    for k, var in enumerate(var_order):
        position.setdefault(var, k)
    try:
        return [(position[v.var], v.offset) for v in vertices]
    except KeyError:
        missing = min({v.var for v in vertices} - position.keys())
        raise ValidationError(f"vertex variable {missing!r} missing from var_order") from None


def _json_array(items: Sequence[str], pad: str) -> str:
    """A JSON array of encoded items, laid out as ``json.dumps(..., indent=2)``
    lays it out when its closing bracket is indented by ``pad``."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return f"[{inner}{(',' + inner).join(items)}\n{pad}]"


def _json_document(vertices: Sequence[TsVertex], directed: Iterable[tuple[int, int]],
                   bidirected: Iterable[tuple[int, int]], latent: Iterable[int]) -> str:
    """The bytes of ``json.dumps(doc, indent=2) + "\\n"`` for the graph
    document of :meth:`FiniteMixedGraph.to_json`, written directly: with an
    indent, ``json.dumps`` runs its pure-Python encoder.  ``vertices`` are
    listed in the given order; each edge is a pair of positions in it, and
    each latent one position, all in output order."""
    at_4, head, tail = [], [], []  # a vertex as a list item, and as an edge's first and last end
    for var, offset in vertices:
        name = encode_basestring_ascii(var)
        at_4.append(f"[\n      {name},\n      {offset}\n    ]")
        head.append(f"[\n      [\n        {name},\n        {offset}\n      ],\n      ")
        tail.append(f"[\n        {name},\n        {offset}\n      ]\n    ]")
    # each list is joined as soon as it is written, so that one list of edge
    # strings is held at a time
    directed = _json_array([head[u] + tail[v] for u, v in directed], "  ")
    bidirected = _json_array([head[u] + tail[v] for u, v in bidirected], "  ")
    latent = _json_array([at_4[k] for k in latent], "  ")
    return (
        f'{{\n  "vertices": {_json_array(at_4, "  ")},\n  "directed": {directed},\n'
        f'  "bidirected": {bidirected},\n  "latent": {latent}\n}}\n'
    )


def _dot_document(vertices: Sequence[TsVertex], directed: Iterable[tuple[int, int]],
                  bidirected: Iterable[tuple[int, int]], latent: Iterable[int]) -> str:
    """The DOT graph of the arguments of :func:`_json_document`: each vertex
    quoted once as its label, then the directed edges and the bidirected
    edges, rendered with ``dir=both``; latent marks are left out."""
    ids = ['"' + v.label().replace("\\", "\\\\").replace('"', '\\"') + '"' for v in vertices]
    lines = ["digraph {", *(f"  {x};" for x in ids)]
    lines += [f"  {ids[u]} -> {ids[v]};" for u, v in directed]
    lines += [f"  {ids[u]} -> {ids[v]} [dir=both];" for u, v in bidirected]
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_mixed_graph(text: str) -> FiniteMixedGraph:
    """Parse the JSON serialization written by :meth:`FiniteMixedGraph.to_json`."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested for the decoder
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
    _check_lag(window_length, "window length")
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

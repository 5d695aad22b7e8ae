"""Bipartite graphs with a fixed edge order, and matchings over them.

Vertex ids are opaque strings taken from input data.  Every edge carries a
fixed integer id (its position in the input edge list); restricting a graph
keeps the surviving edges' original ids, so edge-order tie-breaking is
stable under restriction.

The exhaustive oracles share one enumeration core, _matchings.  It yields
the matchings over a given set of edge positions as tuples of positions:
the empty matching first, then depth first by the edge added, in ascending
order, keeping per matching the bitmask of the later edges that can extend
it.  Callers score or test the tuples and build a Matching only for answers.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

DEFAULT_ORACLE_LIMIT = 24


class UnknownVertexError(ValueError):
    """An operation named a vertex the graph does not contain."""


class OracleLimitError(ValueError):
    """An exhaustive-enumeration oracle was asked to scan too large a graph."""


class BipartiteGraph:
    """A bipartite graph: ordered left/right vertex lists and an ordered edge list.

    Edges are (u, v) pairs with u on the left and v on the right.  The edge
    ids double as the fixed tie-breaking order used by the weighted solver.
    Instances are immutable after construction.
    """

    def __init__(
        self,
        left: Iterable[str],
        right: Iterable[str],
        edges: Iterable[tuple[str, str]],
        edge_ids: Sequence[int] | None = None,
    ):
        self.left = tuple(left)
        self.right = tuple(right)
        if len(set(self.left)) != len(self.left):
            raise ValueError("duplicate left vertex id")
        if len(set(self.right)) != len(self.right):
            raise ValueError("duplicate right vertex id")
        overlap = set(self.left) & set(self.right)
        if overlap:
            raise ValueError(f"left and right vertex sets overlap: {sorted(overlap)!r}")

        self._left_pos = {u: i for i, u in enumerate(self.left)}
        self._right_pos = {v: i for i, v in enumerate(self.right)}

        self.edges = tuple((u, v) for u, v in edges)
        if edge_ids is None:
            self.edge_ids = tuple(range(len(self.edges)))
        else:
            self.edge_ids = tuple(edge_ids)
            if len(self.edge_ids) != len(self.edges):
                raise ValueError("edge_ids length does not match edge list")
            for eid in self.edge_ids:
                # the weighted tie-break shifts by the ids: 2**edge_id
                if type(eid) is not int or eid < 0:
                    raise ValueError(f"edge id {eid!r} is not a non-negative int")
            if len(set(self.edge_ids)) != len(self.edge_ids):
                raise ValueError("duplicate edge id")

        seen = set()
        for u, v in self.edges:
            if u not in self._left_pos:
                raise UnknownVertexError(f"unknown vertex {u!r} in edge ({u!r}, {v!r})")
            if v not in self._right_pos:
                raise UnknownVertexError(f"unknown vertex {v!r} in edge ({u!r}, {v!r})")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u!r}, {v!r})")
            seen.add((u, v))

        self._pos_of_id = {eid: pos for pos, eid in enumerate(self.edge_ids)}
        # dense endpoint arrays and positional adjacency, used by the solvers
        self._edge_left = [self._left_pos[u] for u, _ in self.edges]
        self._edge_right = [self._right_pos[v] for _, v in self.edges]
        self._adj_left: list[list[int]] = [[] for _ in self.left]
        self._adj_right: list[list[int]] = [[] for _ in self.right]
        for pos in range(len(self.edges)):
            self._adj_left[self._edge_left[pos]].append(pos)
            self._adj_right[self._edge_right[pos]].append(pos)

    # -- vertex queries ----------------------------------------------------

    def has_vertex(self, r: str) -> bool:
        return r in self._left_pos or r in self._right_pos

    def neighbors(self, r: str) -> tuple[str, ...]:
        """Neighbors of r, in edge-index order."""
        if r in self._left_pos:
            return tuple(self.edges[pos][1] for pos in self._adj_left[self._left_pos[r]])
        if r in self._right_pos:
            return tuple(self.edges[pos][0] for pos in self._adj_right[self._right_pos[r]])
        raise UnknownVertexError(f"unknown vertex {r!r}")

    def incident_edges(self, r: str) -> tuple[int, ...]:
        """Ids of the edges containing r, in edge-index order."""
        if r in self._left_pos:
            return tuple(self.edge_ids[pos] for pos in self._adj_left[self._left_pos[r]])
        if r in self._right_pos:
            return tuple(self.edge_ids[pos] for pos in self._adj_right[self._right_pos[r]])
        raise UnknownVertexError(f"unknown vertex {r!r}")

    # -- edge queries --------------------------------------------------------

    def endpoints(self, eid: int) -> tuple[str, str]:
        try:
            return self.edges[self._pos_of_id[eid]]
        except KeyError:
            raise ValueError(f"unknown edge id {eid!r}") from None

    def restrict(self, x: Iterable[str]) -> "BipartiteGraph":
        """Induced subgraph on the vertex set x; surviving edges keep their ids."""
        keep = set(x)
        for r in keep:
            if not self.has_vertex(r):
                raise UnknownVertexError(f"unknown vertex {r!r}")
        left = [u for u in self.left if u in keep]
        right = [v for v in self.right if v in keep]
        edges, ids = [], []
        for pos, (u, v) in enumerate(self.edges):
            if u in keep and v in keep:
                edges.append((u, v))
                ids.append(self.edge_ids[pos])
        return BipartiteGraph(left, right, edges, ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.left == other.left
            and self.right == other.right
            and self.edges == other.edges
            and self.edge_ids == other.edge_ids
        )

    def __hash__(self):
        return hash((self.left, self.right, self.edges, self.edge_ids))

    def __repr__(self):
        return (
            f"BipartiteGraph(|U|={len(self.left)}, |V|={len(self.right)}, "
            f"|E|={len(self.edges)})"
        )


class Matching:
    """A conflict-free edge subset of a graph, stored as sorted edge ids."""

    def __init__(self, graph: BipartiteGraph, edge_ids: Iterable[int]):
        self.graph = graph
        self.edge_ids = tuple(sorted(set(edge_ids)))
        self._partner: dict[str, str] = {}
        for eid in self.edge_ids:
            u, v = graph.endpoints(eid)  # raises on unknown id
            if u in self._partner or v in self._partner:
                clash = u if u in self._partner else v
                raise ValueError(f"not a matching: vertex {clash!r} covered twice")
            self._partner[u] = v
            self._partner[v] = u

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(self.graph.endpoints(eid) for eid in self.edge_ids)

    def partner(self, r: str) -> str | None:
        """The vertex matched with r, or None if r is unmatched."""
        return self._partner.get(r)

    def matched_left(self) -> frozenset[str]:
        return frozenset(u for u, _ in self.pairs())

    def matched_right(self) -> frozenset[str]:
        return frozenset(v for _, v in self.pairs())

    def __len__(self):
        return len(self.edge_ids)

    def __iter__(self):
        return iter(self.edge_ids)

    def __contains__(self, item) -> bool:
        if isinstance(item, int):
            return item in self.edge_ids
        return tuple(item) in set(self.pairs())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return frozenset(self.pairs()) == frozenset(other.pairs())

    def __hash__(self):
        return hash(frozenset(self.pairs()))

    def __repr__(self):
        return f"Matching({list(self.pairs())!r})"


def _check_left_subset(graph: BipartiteGraph, u_subset: Iterable[str]) -> set[str]:
    subset = set(u_subset)
    bad = subset - set(graph.left)
    if bad:
        raise ValueError(f"not left vertices: {sorted(bad)!r}")
    return subset


def is_matching(graph: BipartiteGraph, edge_ids: Iterable[int]) -> bool:
    """True iff the edge-id set covers every vertex at most once."""
    used: set[str] = set()
    for eid in set(edge_ids):
        u, v = graph.endpoints(eid)
        if u in used or v in used:
            return False
        used.add(u)
        used.add(v)
    return True


class Component:
    """One connected component of a symmetric difference of two matchings."""

    __slots__ = ("kind", "edge_ids", "endpoints")

    def __init__(self, kind: str, edge_ids: tuple[int, ...], endpoints: tuple[str, ...]):
        self.kind = kind  # "path" or "cycle"
        self.edge_ids = edge_ids
        self.endpoints = endpoints  # the degree-1 vertices; empty for cycles


def _as_matching(graph: BipartiteGraph, m) -> Matching:
    if isinstance(m, Matching):
        # re-validate against this graph: ids must resolve here
        return Matching(graph, m.edge_ids)
    return Matching(graph, m)


def symmetric_difference_components(
    graph: BipartiteGraph, m1, m2
) -> tuple[Component, ...]:
    """Connected components of M1 (symmetric difference) M2.

    Each vertex meets at most one edge of each matching, so every component
    is a simple path or an even cycle.
    """
    a = frozenset(_as_matching(graph, m1).edge_ids)
    b = frozenset(_as_matching(graph, m2).edge_ids)
    diff = sorted(a ^ b)
    adj: dict[str, list[int]] = {}
    for eid in diff:
        u, v = graph.endpoints(eid)
        adj.setdefault(u, []).append(eid)
        adj.setdefault(v, []).append(eid)

    seen_edges: set[int] = set()
    components: list[Component] = []
    for start in diff:
        if start in seen_edges:
            continue
        # breadth-first over the component's edges
        comp_edges = [start]
        seen_edges.add(start)
        frontier = list(graph.endpoints(start))
        comp_vertices = set(frontier)
        while frontier:
            r = frontier.pop()
            for eid in adj[r]:
                if eid not in seen_edges:
                    seen_edges.add(eid)
                    comp_edges.append(eid)
                    for t in graph.endpoints(eid):
                        if t not in comp_vertices:
                            comp_vertices.add(t)
                            frontier.append(t)
        degree = {r: 0 for r in comp_vertices}
        for eid in comp_edges:
            u, v = graph.endpoints(eid)
            degree[u] += 1
            degree[v] += 1
        ends = [r for r, d in degree.items() if d == 1]
        kind = "path" if ends else "cycle"

        def _vertex_key(r: str) -> tuple[int, int]:
            if r in graph._left_pos:
                return (0, graph._left_pos[r])
            return (1, graph._right_pos[r])

        components.append(
            Component(kind, tuple(sorted(comp_edges)), tuple(sorted(ends, key=_vertex_key)))
        )
    components.sort(key=lambda c: c.edge_ids[0])
    return tuple(components)


def _matchings(
    graph: BipartiteGraph, positions: Sequence[int], limit: int
) -> Iterator[tuple[int, ...]]:
    """The enumeration core (see the module docstring); refuses more than
    limit positions."""
    if len(positions) > limit:
        raise OracleLimitError(f"oracle limit exceeded: {len(positions)} edges > {limit}")
    n = len(graph.left)
    touching = [sum(1 << p for p in adj) for adj in graph._adj_left + graph._adj_right]
    disjoint = [~(touching[u] | touching[n + v]) for u, v in zip(graph._edge_left, graph._edge_right)]
    # each entry: a matching and the mask of the later positions that extend it
    stack = [((), sum(1 << p for p in positions))]
    while stack:
        chosen, extend = stack.pop()
        yield chosen
        later = 0
        while extend:  # push the last edge's child first, so the first pops next
            p = extend.bit_length() - 1
            extend ^= 1 << p
            stack.append((chosen + (p,), later & disjoint[p]))
            later |= 1 << p


def enumerate_matchings(
    graph: BipartiteGraph, limit: int = DEFAULT_ORACLE_LIMIT
) -> list[Matching]:
    """Every matching of the graph, each once, in the order of _matchings;
    refuses more than `limit` edges since the output grows exponentially."""
    ids = graph.edge_ids
    return [Matching(graph, [ids[p] for p in c]) for c in _matchings(graph, range(len(ids)), limit)]

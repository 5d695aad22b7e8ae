"""Stable matching instances: blocking pairs, the proposal algorithm, and the
induced map from left-vertex subsets to matched right-vertex sets.

The proposal algorithm repeatedly lets an unmatched left vertex propose to
its best remaining neighbor; the neighbor keeps the proposer it prefers and
rejects the other.  Its output is independent of the order in which
proposers are picked (McVitie-Wilson 1971; Dubins-Freedman 1981), which
the test suite exercises with seeded orders.

One loop, _run_proposals, serves every caller; the pick rule is its only
parameter.  Without a seed it takes the last proposer in its pool, so the
proposers run in the given order and a displaced proposer goes next; with
a seed it picks at random.  Its state is two lists, ptr (per left vertex,
the position of its best neighbor not yet rejecting it) and match_u (per
right vertex, its partner).  The matched edges are not stored: a matched
left vertex u sits at position ptr[u] of its list, so deferred_acceptance
reads them off at the end, and a subset sweep copies two lists per child.

One stability test, _stability_test, serves is_stable, the oracle
enumerate_stable_matchings and against_oracle, the solver-vs-oracle loop.
Per edge (u, v) it holds v's place in u's ranking and u's place in v's; a
matching is stable when no edge that may block has each endpoint placing
the other before its partner (is_blocking_pair's test).  Restriction keeps
relative orders, so against_oracle tests a left subset on the full
instance, over the subset's edges only.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .graphs import (
    DEFAULT_ORACLE_LIMIT,
    BipartiteGraph,
    Matching,
    UnknownVertexError,
    _as_matching,
    _check_left_subset,
    _matchings,
)


class PreferenceProfile:
    """A strict ranking (best first) of each vertex's neighbors."""

    def __init__(self, rankings: Mapping[str, Sequence[str]]):
        self._rankings = {r: tuple(order) for r, order in rankings.items()}

    def ranking(self, r: str) -> tuple[str, ...]:
        return self._rankings[r]

    def vertices(self) -> tuple[str, ...]:
        return tuple(self._rankings)

    def as_dict(self) -> dict[str, tuple[str, ...]]:
        return dict(self._rankings)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PreferenceProfile):
            return NotImplemented
        return self._rankings == other._rankings

    def __repr__(self):
        return f"PreferenceProfile({self._rankings!r})"


class StableMatchingInstance:
    """A bipartite graph plus a preference profile covering every vertex.

    Rankings must be exact permutations of each vertex's neighbor set;
    anything else is rejected at construction so data errors surface early.
    A vertex with no neighbors may omit its (empty) ranking.
    """

    def __init__(self, graph: BipartiteGraph, prefs: Mapping[str, Sequence[str]] | PreferenceProfile):
        self.graph = graph
        raw = prefs.as_dict() if isinstance(prefs, PreferenceProfile) else dict(prefs)
        for r in raw:
            if not graph.has_vertex(r):
                raise UnknownVertexError(f"ranking given for unknown vertex {r!r}")
        normalized: dict[str, tuple[str, ...]] = {}
        for r in graph.left + graph.right:
            neighbors = graph.neighbors(r)
            if r not in raw:
                if neighbors:
                    raise ValueError(f"missing ranking for vertex {r!r}")
                normalized[r] = ()
                continue
            order = tuple(raw[r])
            if len(set(order)) != len(order) or set(order) != set(neighbors):
                raise ValueError(
                    f"ranking for {r!r} is not a permutation of its neighbors"
                )
            normalized[r] = order
        self.prefs = PreferenceProfile(normalized)
        self._dense_cache = None
        self._stable_cache = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, StableMatchingInstance):
            return NotImplemented
        return self.graph == other.graph and self.prefs == other.prefs

    def __repr__(self):
        return f"StableMatchingInstance({self.graph!r})"

    def _dense(self):
        """Integer-indexed preference structures for the proposal loop."""
        if self._dense_cache is None:
            g = self.graph
            lpos, rpos = g._left_pos, g._right_pos
            eid_of = {}
            for pos, (u, v) in enumerate(g.edges):
                eid_of[lpos[u], rpos[v]] = g.edge_ids[pos]
            prefs_right: list[list[int]] = []
            prefs_edge: list[list[int]] = []
            for u in g.left:
                ud = lpos[u]
                vds = [rpos[v] for v in self.prefs.ranking(u)]
                prefs_right.append(vds)
                prefs_edge.append([eid_of[ud, vd] for vd in vds])
            sentinel = len(g.left) + 1
            rank = [[sentinel] * len(g.left) for _ in g.right]
            for v in g.right:
                row = rank[rpos[v]]
                for pos, u in enumerate(self.prefs.ranking(v)):
                    row[lpos[u]] = pos
            self._dense_cache = (prefs_right, prefs_edge, rank, len(g.right))
        return self._dense_cache


def restrict_instance(inst: StableMatchingInstance, x: Iterable[str]) -> StableMatchingInstance:
    """Restrict graph and preferences to the vertex set x, preserving order."""
    keep = set(x)
    sub = inst.graph.restrict(keep)
    prefs = {
        r: [t for t in inst.prefs.ranking(r) if t in keep]
        for r in sub.left + sub.right
    }
    return StableMatchingInstance(sub, prefs)


def _resolve_edge(graph: BipartiteGraph, e) -> tuple[str, str]:
    if isinstance(e, int):
        return graph.endpoints(e)
    u, v = tuple(e)
    pair = (u, v)
    if pair not in set(graph.edges):
        raise ValueError(f"not an edge: {pair!r}")
    return pair


def is_blocking_pair(inst: StableMatchingInstance, m, e) -> bool:
    """Does edge e block matching m?

    True iff u is unmatched or prefers v to its partner, and v is unmatched
    or prefers u to its partner.
    """
    u, v = _resolve_edge(inst.graph, e)
    mm = _as_matching(inst.graph, m)
    pu = mm.partner(u)
    pv = mm.partner(v)
    ru = inst.prefs.ranking(u)
    rv = inst.prefs.ranking(v)
    u_wants = pu is None or ru.index(v) < ru.index(pu)
    v_wants = pv is None or rv.index(u) < rv.index(pv)
    return u_wants and v_wants


def _stability_test(inst: StableMatchingInstance):
    """The function of a matching's edge positions, and of the positions of
    the edges that may block it (all by default), that is True iff none of
    those blocks it; built once per instance.  An unmatched vertex holds a
    place after all its neighbors', and a matched edge ties with itself."""
    if inst._stable_cache is not None:
        return inst._stable_cache
    g = inst.graph
    prefs_right, _, rank, n_right = inst._dense()
    n_left = len(prefs_right)
    ranks = [(u, v, prefs_right[u].index(v), rank[v][u])
             for u, v in zip(g._edge_left, g._edge_right)]

    def stable(chosen, among=range(len(ranks))) -> bool:
        held_u = [n_right] * n_left
        held_v = [n_left] * n_right
        for p in chosen:
            u, v, ru, rv = ranks[p]
            held_u[u] = ru
            held_v[v] = rv
        for p in among:
            u, v, ru, rv = ranks[p]
            if ru < held_u[u] and rv < held_v[v]:
                return False
        return True

    inst._stable_cache = stable
    return stable


def is_stable(inst: StableMatchingInstance, m) -> bool:
    """True iff no edge of the instance blocks m: validates m, then runs
    _stability_test."""
    g = inst.graph
    return _stability_test(inst)([g._pos_of_id[eid] for eid in _as_matching(g, m).edge_ids])


def _proposal_state(dense) -> tuple[list[int], list[int]]:
    """The (ptr, match_u) state of a run over no left vertices."""
    prefs_right, _, _, n_right = dense
    return [0] * len(prefs_right), [-1] * n_right


def _run_proposals(dense, active: list[int], rng: random.Random | None, state) -> int:
    """Run the proposal loop for the given left vertices (dense indices).

    state is the (ptr, match_u) pair of an earlier, settled run over other
    left vertices (_proposal_state() for none); the loop resumes from it and
    updates it in place.  ptr[u] always points at u's best neighbor that has
    not rejected it, and match_u gives, per right dense index, its partner
    or -1.  A matched u therefore sits at prefs_edge[u][ptr[u]], which is
    how the matched edges are read off.  Because the outcome does not
    depend on proposal order, resuming with active = B after a run over A
    gives the stable matching for A | B.

    The pool of pending proposers starts as active; the picked proposer
    proposes down its list until some neighbor holds it or the list runs
    out.  The pick rule is the only thing rng changes: without one the last
    proposer in the pool goes, so active runs in order and a displaced
    proposer goes next; with one, rng.randrange picks.

    Returns the mask of right dense indices that this call newly matched: a
    matched right vertex never becomes free again.
    """
    prefs_right, _, rank, _ = dense
    ptr, match_u = state
    pool = active[::-1]
    newly = 0
    while pool:
        i = -1 if rng is None else rng.randrange(len(pool))
        u = pool[i]
        pr = prefs_right[u]
        k = ptr[u]
        end = len(pr)
        while k < end:
            v = pr[k]
            cur = match_u[v]
            if cur < 0 or rank[v][u] < rank[v][cur]:
                break
            k += 1
        ptr[u] = k
        if k == end:
            pool[i] = pool[-1]
            pool.pop()
            continue
        match_u[v] = u
        if cur < 0:
            newly |= 1 << v
            pool[i] = pool[-1]
            pool.pop()
        else:
            ptr[cur] += 1
            pool[i] = cur
    return newly


def deferred_acceptance(
    inst: StableMatchingInstance,
    u_subset: Iterable[str],
    proposal_order: int | Sequence[str] | None = None,
) -> Matching:
    """The stable matching of the instance restricted to u_subset and all of V.

    proposal_order picks the order of proposers: None for input left order,
    an int for a seeded arbitrary pick each round, or an explicit sequence
    (a permutation of u_subset).  The returned edge set is the same in
    every case.
    """
    subset = _check_left_subset(inst.graph, u_subset)
    lpos = inst.graph._left_pos
    rng = None
    if proposal_order is None:
        active = [lpos[u] for u in inst.graph.left if u in subset]
    elif isinstance(proposal_order, int):
        active = [lpos[u] for u in inst.graph.left if u in subset]
        rng = random.Random(proposal_order)
    else:
        explicit = list(proposal_order)
        if set(explicit) != subset or len(explicit) != len(subset):
            raise ValueError("proposal_order must be a permutation of u_subset")
        active = [lpos[u] for u in explicit]
    dense = inst._dense()
    ptr, match_u = state = _proposal_state(dense)
    _run_proposals(dense, active, rng, state)
    prefs_edge = dense[1]
    return Matching(inst.graph, [prefs_edge[u][ptr[u]] for u in match_u if u >= 0])


def induced_map_sm(inst: StableMatchingInstance, u_subset: Iterable[str]) -> frozenset[str]:
    """Right vertices matched in the stable matching for u_subset."""
    return deferred_acceptance(inst, u_subset).matched_right()


def choice_function_sm(inst: StableMatchingInstance, u_subset: Iterable[str]) -> frozenset[str]:
    """Left vertices matched in the stable matching for u_subset."""
    return deferred_acceptance(inst, u_subset).matched_left()


def enumerate_stable_matchings(
    inst: StableMatchingInstance, limit: int = DEFAULT_ORACLE_LIMIT
) -> list[Matching]:
    """All stable matchings, by testing every matching of the graph."""
    g, stable = inst.graph, _stability_test(inst)
    chosen = (c for c in _matchings(g, range(len(g.edges)), limit) if stable(c))
    return [Matching(g, [g.edge_ids[p] for p in c]) for c in chosen]


def against_oracle(
    inst: StableMatchingInstance, limit: int = DEFAULT_ORACLE_LIMIT
) -> Iterator[tuple[set[str], Matching, bool]]:
    """(subset, deferred_acceptance matching, verdict) for every left subset,
    in ascending bitmask order.  The verdict holds when no edge of the subset
    blocks the matching and, if the subset has at most limit edges, the
    matching is one of its stable matchings and all of those match the same
    vertices (rural hospitals; Gusfield-Irving 1989)."""
    g, stable = inst.graph, _stability_test(inst)
    n = len(g.left)
    for u_mask in range(1 << n):
        members = [i for i in range(n) if u_mask >> i & 1]
        among = [p for i in members for p in g._adj_left[i]]
        subset = {g.left[i] for i in members}
        m = deferred_acceptance(inst, subset)
        chosen = frozenset(g._pos_of_id[eid] for eid in m.edge_ids)
        ok = stable(chosen, among)
        if ok and len(among) <= limit:
            found = {frozenset(c) for c in _matchings(g, among, limit) if stable(c, among)}
            ends = {(sum(1 << g._edge_left[p] for p in c), sum(1 << g._edge_right[p] for p in c))
                    for c in found}
            ok = chosen in found and len(ends) == 1
        yield subset, m, ok

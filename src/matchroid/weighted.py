"""Weighted matching instances with exact arithmetic and a deterministic
tie-break, plus the induced map from left-vertex subsets to the right
vertices covered by the optimum.

Weights are exact (int or Fraction; floats are rejected).  Instances need
not have distinct matching weights: the optimum is made unique by maximizing
the perturbed weight

    w'(e) = w(e) * 2**s - 2**edge_id        (s = max(edge_ids) + 2)

over matchings, after scaling all weights to integers by their common
denominator.  A matching's id terms sum to less than 2**(max(edge_ids) + 1),
so the perturbation maximizes the true weight first and, among weight ties,
minimizes the edge-id bitmask value, so exactly one matching is optimal for
every instance and every left-vertex subset.  Edge ids survive restriction,
which keeps the tie-break stable under restriction; s then follows the
largest surviving id, not the edge count.

The solver grows the matching by successive maximum-gain augmenting paths
(Bellman-Ford style, exact integers), stopping when no path has positive
gain; this is exact for any sign pattern.  It reads only the edges of
positive weight, and that is exact too:
  - an edge of scaled weight w <= 0 has w' <= -2**edge_id < 0, while w >= 1
    gives w' >= 2**s - 2**edge_id > 0 (s > edge_id), so w' > 0 and w' >= 0
    pick the same edges;
  - removing an edge of negative w' from a matching leaves a matching of
    larger perturbed weight;
  - so the unique optimum over the allowed edges holds no edge of weight
    <= 0, and it is therefore also the unique optimum over the allowed
    positive edges;
  - the solver returns edge ids in left-index order, so its list is the
    same as over all the allowed edges.
Every other reader (perturbed, the oracle, against_oracle's edge count for
the oracle limit, the greedy route) keeps every edge.

Cost model: _dense() builds, once per instance, each left vertex's
(pos, u, v, perturbed weight) tuples for its positive edges, and a solve
joins the allowed vertices' tuples once, so a pass walks only the k allowed
positive edges and a relaxation unpacks one tuple.  A solve is
(augmentations + 1) searches of at most n_left + n_right + 2 passes of k
relaxations.  The passes stay full passes in one fixed order, repeated until
one changes nothing: that needs no work list, the labels are exact
longest-path values once they stop, and an alternating path's length bounds
their number (the max_rounds cap).  The perturbed optimum is unique, so the
relaxation order does not change the answer.  A queue-driven search or one
insertion step per added left vertex would relax fewer edges; each is a
larger change, measured on its own (ROADMAP item 4).

Instances whose weights are positive, distinct, and superincreasing (each
exceeding the sum of all smaller ones, e.g. distinct powers of two) take a
greedy fast path instead, which is optimal there because the largest
remaining weight always dominates the rest combined.  An exhaustive oracle, oracle_max_weight, checks both
routes: against_oracle is the one loop that compares them per subset (the
stable side has its own, stable.against_oracle).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain, compress

from .graphs import (
    DEFAULT_ORACLE_LIMIT,
    BipartiteGraph,
    Matching,
    _as_matching,
    _check_left_subset,
    _matchings,
)

ExactWeight = int | Fraction


class WeightFunction:
    """Exact weights aligned with a graph's edge list (one per edge position)."""

    def __init__(self, values: Iterable[ExactWeight]):
        vals = []
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise TypeError(f"weights must be int or Fraction, got {v!r}")
            vals.append(v)
        self.values = tuple(vals)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightFunction):
            return NotImplemented
        return self.values == other.values

    def __repr__(self):
        return f"WeightFunction({list(self.values)!r})"


class _Dense:
    __slots__ = ("edge_left", "edge_right", "perturbed", "edges_by_left", "desc_positions",
                 "superincreasing")

    def __init__(
        self,
        edge_left: list[int],
        edge_right: list[int],
        perturbed: list[int],
        edges_by_left: list[list[tuple[int, int, int, int]]],
        desc_positions: list[int],
        superincreasing: bool,
    ):
        self.edge_left = edge_left
        self.edge_right = edge_right
        self.perturbed = perturbed  # by edge position
        # per dense left index, its positive edges' (pos, u, v, perturbed) in position order
        self.edges_by_left = edges_by_left
        self.desc_positions = desc_positions  # positions sorted by descending true weight
        self.superincreasing = superincreasing


class WeightedInstance:
    """A bipartite graph with one exact weight per edge."""

    def __init__(self, graph: BipartiteGraph, weights: Iterable[ExactWeight] | WeightFunction):
        self.graph = graph
        self.weights = weights if isinstance(weights, WeightFunction) else WeightFunction(weights)
        if len(self.weights) != len(graph.edges):
            raise ValueError(
                f"expected {len(graph.edges)} weights, got {len(self.weights)}"
            )
        self._weight_by_id = dict(zip(graph.edge_ids, self.weights.values))
        self._dense_cache: _Dense | None = None

    def weight_of_edge(self, eid: int) -> ExactWeight:
        try:
            return self._weight_by_id[eid]
        except KeyError:
            raise ValueError(f"unknown edge id {eid!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedInstance):
            return NotImplemented
        return self.graph == other.graph and self.weights == other.weights

    def __repr__(self):
        return f"WeightedInstance({self.graph!r})"

    def _dense(self) -> _Dense:
        if self._dense_cache is None:
            g = self.graph
            scale = math.lcm(
                *(v.denominator if isinstance(v, Fraction) else 1 for v in self.weights)
            ) if len(self.weights) else 1
            scaled = [int(v * scale) for v in self.weights.values]
            shift = (max(g.edge_ids) + 2) if g.edge_ids else 1
            perturbed = [
                (scaled[pos] << shift) - (1 << g.edge_ids[pos])
                for pos in range(len(g.edges))
            ]
            eL, eR = g._edge_left, g._edge_right
            by_left: list[list[tuple[int, int, int, int]]] = [[] for _ in g.left]
            for pos, p in enumerate(perturbed):
                if p > 0:  # no optimum uses an edge of weight <= 0 (module docstring)
                    by_left[eL[pos]].append((pos, eL[pos], eR[pos], p))
            desc = sorted(
                range(len(g.edges)), key=lambda pos: scaled[pos], reverse=True
            )
            asc = sorted(scaled)
            total = 0
            superinc = bool(scaled) and asc[0] > 0
            for w in asc:
                if w <= total:
                    superinc = False
                    break
                total += w
            self._dense_cache = _Dense(list(eL), list(eR), perturbed, by_left, desc, superinc)
        return self._dense_cache


def matching_weight(inst: WeightedInstance, m) -> ExactWeight:
    """Exact total weight of the matching; 0 for the empty matching."""
    mm = _as_matching(inst.graph, m)
    return sum((inst.weight_of_edge(eid) for eid in mm.edge_ids), start=0)


def _solve_greedy(dense: _Dense, allowed: list[bool], n_right: int, edge_ids) -> list[int]:
    used_left = [False] * len(allowed)
    used_right = [False] * n_right
    out = []
    for pos in dense.desc_positions:
        u = dense.edge_left[pos]
        v = dense.edge_right[pos]
        if allowed[u] and not used_left[u] and not used_right[v]:
            used_left[u] = used_right[v] = True
            out.append(edge_ids[pos])
    return out


def _solve_augmenting(dense: _Dense, allowed: list[bool], n_right: int, edge_ids) -> list[int]:
    eL, eR = dense.edge_left, dense.edge_right
    n_left = len(allowed)
    edges = list(chain.from_iterable(compress(dense.edges_by_left, allowed)))
    match_l = [-1] * n_left  # edge position or -1
    match_r = [-1] * n_right
    max_rounds = n_left + n_right + 2
    while True:
        dist_l: list[int | None] = [None] * n_left
        dist_r: list[int | None] = [None] * n_right
        parent_r = [-1] * n_right
        for u in range(n_left):
            if allowed[u] and match_l[u] == -1:
                dist_l[u] = 0
        changed = True
        rounds = 0
        while changed:
            changed = False
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError("augmenting-path search did not converge")
            for pos, u, v, p in edges:
                if match_r[v] == pos:
                    dv = dist_r[v]
                    if dv is not None:
                        cand = dv - p
                        du = dist_l[u]
                        if du is None or cand > du:
                            dist_l[u] = cand
                            changed = True
                else:
                    du = dist_l[u]
                    if du is not None:
                        cand = du + p
                        dv = dist_r[v]
                        if dv is None or cand > dv:
                            dist_r[v] = cand
                            parent_r[v] = pos
                            changed = True
        best_v = -1
        best_gain = 0
        for v in range(n_right):
            if match_r[v] == -1 and dist_r[v] is not None and dist_r[v] > best_gain:
                best_gain = dist_r[v]
                best_v = v
        if best_v < 0:
            break
        v = best_v
        while True:
            pos = parent_r[v]
            u = eL[pos]
            prev = match_l[u]
            match_l[u] = pos
            match_r[v] = pos
            if prev == -1:
                break
            v = eR[prev]
    return [edge_ids[pos] for pos in match_l if pos >= 0]


def max_weight_matching(inst: WeightedInstance, u_subset: Iterable[str]) -> Matching:
    """The unique perturbed-weight optimum among matchings using only u_subset."""
    subset = _check_left_subset(inst.graph, u_subset)
    dense = inst._dense()
    allowed = [u in subset for u in inst.graph.left]
    n_right = len(inst.graph.right)
    if dense.superincreasing:
        ids = _solve_greedy(dense, allowed, n_right, inst.graph.edge_ids)
    else:
        ids = _solve_augmenting(dense, allowed, n_right, inst.graph.edge_ids)
    return Matching(inst.graph, ids)


def oracle_max_weight(
    inst: WeightedInstance, u_subset: Iterable[str], limit: int = DEFAULT_ORACLE_LIMIT
) -> Matching:
    """Same contract as max_weight_matching, by scanning every matching of the
    allowed left vertices' edges; limit caps the number of those edges."""
    g = inst.graph
    subset = _check_left_subset(g, u_subset)
    positions = [p for p, (u, _) in enumerate(g.edges) if u in subset]
    weight = inst._dense().perturbed.__getitem__
    # no two matchings tie on perturbed weight (see the module docstring)
    best = max(_matchings(g, positions, limit), key=lambda chosen: sum(map(weight, chosen)))
    return Matching(g, [g.edge_ids[p] for p in best])


def against_oracle(
    inst: WeightedInstance, limit: int = DEFAULT_ORACLE_LIMIT
) -> Iterator[tuple[set[str], Matching, Matching]]:
    """(subset, max_weight_matching, oracle_max_weight) for every left subset,
    in ascending bitmask order, whose allowed edges number at most limit; the
    larger subsets are skipped."""
    g = inst.graph
    degree = [len(adj) for adj in g._adj_left]
    for u_mask in range(1 << len(degree)):
        members = [i for i in range(len(degree)) if u_mask >> i & 1]
        if sum(degree[i] for i in members) <= limit:
            subset = {g.left[i] for i in members}
            yield subset, max_weight_matching(inst, subset), oracle_max_weight(inst, subset, limit)


def induced_map_mm(inst: WeightedInstance, u_subset: Iterable[str]) -> frozenset[str]:
    """Right vertices covered by the optimum matching for u_subset."""
    return max_weight_matching(inst, u_subset).matched_right()


def choice_function_mm(inst: WeightedInstance, u_subset: Iterable[str]) -> frozenset[str]:
    """Left vertices covered by the optimum matching for u_subset."""
    return max_weight_matching(inst, u_subset).matched_left()

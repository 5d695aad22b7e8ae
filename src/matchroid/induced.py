"""Exhaustive enumeration of the set family {F(U') : U' subseteq U} induced
by a stable or weighted instance, with a witness subset recorded for every
member, plus the antimatroid verdict on the result.

One depth-first sweep serves both kinds.  It visits every left
subset once, as a tree rooted at the empty set in which each child is its
parent plus one left vertex of higher index than any in the parent.  A
stable child resumes the proposal loop from a copy of its parent's settled
state with the one new proposer, which is valid because deferred
acceptance does not depend on proposal order (Dubins-Freedman 1981), so a
child costs one proposal chain instead of a full run.  A weighted child is
solved anew on its allowed left mask.  The visit order is not the
witness order, so the sweep keeps, per member, the smallest
(popcount, mask) key seen: witnesses are still the first subset in
ascending popcount, then binary, order.
"""

from __future__ import annotations

from .antimatroids import AxiomDiagnostic, SetFamily, is_antimatroid
from .stable import StableMatchingInstance, _proposal_state, _run_proposals
from .weighted import WeightedInstance, _solve_augmenting, _solve_greedy

DEFAULT_SWEEP_LIMIT = 20


class SweepLimitError(ValueError):
    """A codomain sweep would need more than 2**limit evaluations."""


class InducedFamilyReport:
    """The induced family over V, with one witness subset per member."""

    def __init__(
        self,
        family: SetFamily,
        witnesses: dict[frozenset[str], tuple[str, ...]],
        instance_kind: str,
        instance,
    ):
        self.family = family
        self.witnesses = witnesses
        self.instance_kind = instance_kind
        self.instance = instance

    def __repr__(self):
        return (
            f"InducedFamilyReport(kind={self.instance_kind!r}, "
            f"members={len(self.family)})"
        )


def _sweep(graph, root, extend, instance_kind, instance, sweep_limit) -> InducedFamilyReport:
    """Walk all 2**n left subsets depth-first and collect the induced family.

    Each child is its parent plus one left vertex of higher index than any in
    the parent, so every subset is visited exactly once.  extend(state,
    v_mask, i) returns the child's (state, matched right mask), given the
    parent's state and matched right mask and the added dense left index i;
    root is the state of the empty subset, which matches nothing.  Each
    member keeps its smallest witness key popcount << n | u_mask: the first
    subset in ascending popcount, then binary, order.
    """
    n = len(graph.left)
    if n > sweep_limit:
        raise SweepLimitError(f"sweep limit exceeded: 2**{n} subsets > 2**{sweep_limit}")
    best: dict[int, int] = {0: 0}
    step = 1 << n
    stack = [(root, 0, 0, 0)]  # (state, v_mask, u_mask, popcount << n)
    while stack:
        state, v_mask, u_mask, size_key = stack.pop()
        size_key += step
        for i in range(u_mask.bit_length(), n):
            child, c_v_mask = extend(state, v_mask, i)
            c_mask = u_mask | 1 << i
            key = size_key | c_mask
            old = best.get(c_v_mask)
            if old is None or key < old:
                best[c_v_mask] = key
            if i + 1 < n:
                stack.append((child, c_v_mask, c_mask, size_key))
    right, left = graph.right, graph.left
    witnesses = {}
    for v_mask, key in sorted(best.items(), key=lambda item: item[1]):
        member = frozenset(right[i] for i in range(len(right)) if v_mask >> i & 1)
        u_mask = key & (step - 1)
        witnesses[member] = tuple(left[i] for i in range(n) if u_mask >> i & 1)
    family = SetFamily(right, witnesses)
    return InducedFamilyReport(family, witnesses, instance_kind, instance)


def enumerate_codomain_sm(
    inst: StableMatchingInstance, sweep_limit: int = DEFAULT_SWEEP_LIMIT
) -> InducedFamilyReport:
    """The family of matched right-vertex sets over all left subsets (stable).

    A child subset resumes the proposal loop from a copy of its parent's
    settled state with the one new proposer.
    """
    dense = inst._dense()

    def extend(state, v_mask: int, i: int):
        ptr, match_u, match_e = state
        child = (ptr[:], match_u[:], match_e[:])
        return child, v_mask | _run_proposals(dense, [i], None, child)

    return _sweep(inst.graph, _proposal_state(dense), extend, "stable", inst, sweep_limit)


def enumerate_codomain_mm(
    inst: WeightedInstance, sweep_limit: int = DEFAULT_SWEEP_LIMIT
) -> InducedFamilyReport:
    """The family of optimally matched right-vertex sets over all left subsets.

    Each subset is solved anew on its allowed left mask.
    """
    dense = inst._dense()
    g = inst.graph
    n_right = len(g.right)
    solve = _solve_greedy if dense.superincreasing else _solve_augmenting
    pos_of_id = g._pos_of_id
    eR = dense.edge_right

    def extend(allowed: list[bool], _v_mask: int, i: int):
        child = allowed[:]
        child[i] = True
        v_mask = 0
        for eid in solve(dense, child, n_right, g.edge_ids):
            v_mask |= 1 << eR[pos_of_id[eid]]
        return child, v_mask

    return _sweep(g, [False] * len(g.left), extend, "weighted", inst, sweep_limit)


def check_theorem(report: InducedFamilyReport) -> tuple[bool, AxiomDiagnostic]:
    """Run the antimatroid axioms on an induced family."""
    return is_antimatroid(report.family)

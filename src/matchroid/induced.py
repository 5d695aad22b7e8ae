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
ascending popcount, then binary, order.  The resulting member mask ->
witness mask table becomes the family (SetFamily.from_masks) and the
report's witness table as it is; names are attached only on output.
"""

from __future__ import annotations

from .antimatroids import AxiomDiagnostic, SetFamily, is_antimatroid
from .stable import StableMatchingInstance, _proposal_state, _run_proposals
from .weighted import WeightedInstance, _solve_augmenting, _solve_greedy

DEFAULT_SWEEP_LIMIT = 20


class SweepLimitError(ValueError):
    """A codomain sweep would need more than 2**limit evaluations."""


def check_sweep_limit(n: int, sweep_limit: int) -> None:
    """Refuse a sweep over the 2**n subsets of n left vertices beyond 2**sweep_limit."""
    if n > sweep_limit:
        raise SweepLimitError(f"sweep limit exceeded: 2**{n} subsets > 2**{sweep_limit}")


class InducedFamilyReport:
    """The induced family over V, with one witness subset per member.

    Inside, witnesses are kept as bitmasks: member mask (over the family's
    ground) -> witness mask (over instance.graph.left).  The public
    witnesses dict, member frozenset -> witness tuple in left order, is
    built on first read; io.report_to_json reads the masks.
    """

    def __init__(
        self,
        family: SetFamily,
        witnesses: dict[frozenset[str], tuple[str, ...]],
        instance_kind: str,
        instance,
    ):
        left_pos = instance.graph._left_pos
        witness_masks = {
            family._to_mask(member): sum(1 << left_pos[u] for u in set(subset))
            for member, subset in witnesses.items()
        }
        self._init(family, witness_masks, instance_kind, instance)

    @classmethod
    def _from_masks(cls, family, witness_masks: dict[int, int], instance_kind, instance):
        report = cls.__new__(cls)
        report._init(family, witness_masks, instance_kind, instance)
        return report

    def _init(self, family, witness_masks, instance_kind, instance) -> None:
        self.family = family
        self._witness_masks = witness_masks
        self.instance_kind = instance_kind
        self.instance = instance
        self._witnesses = None

    @property
    def witnesses(self) -> dict[frozenset[str], tuple[str, ...]]:
        """Each member's witness: the first left subset producing it, in
        ascending popcount, then binary, order."""
        if self._witnesses is None:
            to_set = self.family._to_set
            left = self.instance.graph.left
            self._witnesses = {
                to_set(v_mask): tuple(left[i] for i in range(len(left)) if u_mask >> i & 1)
                for v_mask, u_mask in sorted(
                    self._witness_masks.items(), key=lambda kv: (kv[1].bit_count(), kv[1])
                )
            }
        return self._witnesses

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
    subset in ascending popcount, then binary, order.  The member and
    witness masks go to the report as they are.
    """
    n = len(graph.left)
    check_sweep_limit(n, sweep_limit)
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
    low = step - 1
    for v_mask in best:
        best[v_mask] &= low
    family = SetFamily.from_masks(graph.right, best)
    return InducedFamilyReport._from_masks(family, best, instance_kind, instance)


def enumerate_codomain_sm(
    inst: StableMatchingInstance, sweep_limit: int = DEFAULT_SWEEP_LIMIT
) -> InducedFamilyReport:
    """The family of matched right-vertex sets over all left subsets (stable).

    A child subset resumes the proposal loop from a copy of its parent's
    settled state with the one new proposer.
    """
    dense = inst._dense()

    def extend(state, v_mask: int, i: int):
        ptr, match_u = state
        child = (ptr[:], match_u[:])
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

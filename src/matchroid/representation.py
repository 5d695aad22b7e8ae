"""Constructions turning an antimatroid into a matching instance whose
induced codomain is exactly the input family, one per instance kind, plus a
roundtrip verifier.

Left vertices are the nonempty members (labeled by their ground bitmask, so
output is byte-stable); right vertices are the ground elements; a member is
adjacent to exactly its elements.  Preferences come from the chain orders
and the total feasible order.  The weighted variant supports two exponent
layouts: "corrected" (the default) gives each left vertex's most-preferred
neighbor the largest weight and roundtrips; "literal" gives it the smallest
weight and demonstrably fails the roundtrip on a two-element chain family,
so it is kept only to reproduce that discrepancy.
"""

from __future__ import annotations

from .antimatroids import (
    ChainDecoration,
    NotAntimatroidError,
    SetFamily,
    build_decoration,
    is_antimatroid,
    validate_decoration,
)
from .graphs import BipartiteGraph
from .induced import DEFAULT_SWEEP_LIMIT, enumerate_codomain_mm, enumerate_codomain_sm
from .stable import StableMatchingInstance, induced_map_sm
from .weighted import WeightedInstance, induced_map_mm

MAX_ROUNDTRIP_MEMBERS = 64
FORMULAS = ("corrected", "literal")


class RepresentationBundle:
    """A built instance together with the structure it was built from."""

    __slots__ = ("source", "decoration", "instance", "left_labels", "kind")

    def __init__(
        self,
        source: SetFamily,
        decoration: ChainDecoration,
        instance: StableMatchingInstance | WeightedInstance,
        left_labels: dict[frozenset[str], str],
        kind: str,
    ):
        self.source = source
        self.decoration = decoration
        self.instance = instance
        self.left_labels = left_labels
        self.kind = kind


def _prepare_decoration(family: SetFamily, deco: ChainDecoration | None) -> ChainDecoration:
    if deco is None:
        return build_decoration(family)  # checks the axioms itself
    ok, diag = is_antimatroid(family)
    if not ok:
        raise NotAntimatroidError(diag)
    validate_decoration(family, deco)
    return deco


def _left_labels(family: SetFamily, deco: ChainDecoration) -> dict[frozenset[str], str]:
    prefix = "X"
    ground_ids = set(family.ground)
    while True:
        labels = {
            member: f"{prefix}{family._to_mask(member)}" for member in deco.feasible_order
        }
        if not set(labels.values()) & ground_ids:
            return labels
        prefix += "X"


def _build_graph(family: SetFamily, deco: ChainDecoration, labels) -> BipartiteGraph:
    edges = []
    for member in deco.feasible_order:
        for v in deco.chain_order[member]:
            edges.append((labels[member], v))
    return BipartiteGraph([labels[m] for m in deco.feasible_order], family.ground, edges)


def _bundle(
    family: SetFamily, deco: ChainDecoration, kind: str, formula: str = "corrected"
) -> RepresentationBundle:
    """The representation of kind built from a decoration known to be valid."""
    labels = _left_labels(family, deco)
    graph = _build_graph(family, deco, labels)
    if kind == "stable":
        prefs: dict[str, list[str]] = {
            labels[member]: list(deco.chain_order[member]) for member in deco.feasible_order
        }
        for v in family.ground:
            prefs[v] = [labels[member] for member in deco.feasible_order if v in member]
        inst = StableMatchingInstance(graph, prefs)
    else:
        if formula not in FORMULAS:
            raise ValueError(f"formula must be one of {FORMULAS}, got {formula!r}")
        n_v = len(family.ground)
        weights = []
        for member in deco.feasible_order:
            b = deco.rank[member]
            chain = deco.chain_order[member]
            for i, _v in enumerate(chain, start=1):
                offset = i if formula == "literal" else n_v + 1 - i
                weights.append(1 << (n_v * b + offset))
        inst = WeightedInstance(graph, weights)
    return RepresentationBundle(family, deco, inst, labels, kind)


def represent_stable(
    family: SetFamily,
    deco: ChainDecoration | None = None,
) -> RepresentationBundle:
    """A stable instance whose induced codomain equals the family.

    Each left vertex ranks its elements in chain order; each ground element
    ranks the members containing it by the feasible order.
    """
    return _bundle(family, _prepare_decoration(family, deco), "stable")


def represent_weighted(
    family: SetFamily,
    deco: ChainDecoration | None = None,
    formula: str = "corrected",
) -> RepresentationBundle:
    """A weighted instance whose induced codomain equals the family.

    Edge weights are distinct powers of two: member u's edges live in the
    exponent block (|V|*rank(u), |V|*(rank(u)+1)], blocks disjoint across
    members, so higher-ranked members always dominate.  Within a block the
    "corrected" layout decreases along the chain order; "literal" increases.
    """
    return _bundle(family, _prepare_decoration(family, deco), "weighted", formula)


def _member_chain_check(bundle: RepresentationBundle) -> bool:
    """Each member must be recovered from the subset of its chain prefixes."""
    family = bundle.source
    deco = bundle.decoration
    induce = induced_map_sm if bundle.kind == "stable" else induced_map_mm
    for member in deco.feasible_order:
        chain = deco.chain_order[member]
        prefix: set[str] = set()
        u_subset = []
        for v in chain:
            prefix.add(v)
            u_subset.append(bundle.left_labels[frozenset(prefix)])
        if induce(bundle.instance, u_subset) != member:
            return False
    return True


def verify_roundtrip(
    family: SetFamily,
    kind: str,
    formula: str = "corrected",
    sweep_limit: int = DEFAULT_SWEEP_LIMIT,
    max_members: int = MAX_ROUNDTRIP_MEMBERS,
) -> tuple[bool, dict]:
    """Build the representation, enumerate its codomain, compare with family.

    Returns (equal, report); the report also carries the cheap per-member
    recovery check, which runs regardless of the full sweep's outcome.
    """
    if kind not in ("stable", "weighted"):
        raise ValueError(f"kind must be 'stable' or 'weighted', got {kind!r}")
    deco = build_decoration(family)  # not an antimatroid: raised before the size limit
    if len(family) > max_members:
        raise ValueError(f"size limit exceeded: {len(family)} members > {max_members}")
    bundle = _bundle(family, deco, kind, formula)
    enumerate_codomain = enumerate_codomain_sm if kind == "stable" else enumerate_codomain_mm
    produced = enumerate_codomain(bundle.instance, sweep_limit).family
    have = frozenset(produced.members)
    want = frozenset(family.members)
    equal = produced == family
    detail = {
        "kind": kind,
        "formula": formula if kind == "weighted" else None,
        "members": len(family),
        "left_size": len(family) - 1,
        "equal": equal,
        "missing": [family.sorted_member(m) for m in sorted(want - have, key=family.sorted_member)],
        "extra": [family.sorted_member(m) for m in sorted(have - want, key=family.sorted_member)],
        "member_check": _member_chain_check(bundle),
    }
    return equal, detail

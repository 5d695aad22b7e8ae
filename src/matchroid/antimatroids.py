"""Set families over a ground set, the antimatroid axioms, and the chain
machinery (trace function, per-member chain orders, total feasible order,
rank bijection) that the representation constructions consume.

Members are encoded as bitmasks over the ground order internally and exposed
as frozensets of element ids.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Container, Iterable, Sequence
from functools import lru_cache


class NotAntimatroidError(ValueError):
    """An operation requiring an antimatroid got a family violating the axioms."""

    def __init__(self, diagnostic: "AxiomDiagnostic"):
        super().__init__(f"not an antimatroid: {diagnostic.reason()}")
        self.diagnostic = diagnostic


class SetFamily:
    """A family of subsets of a finite ground set.

    The ground order is preserved from input and fixes the deterministic
    member order used everywhere: ascending cardinality, then lexicographic
    on the sorted ground positions.  On bitmasks (bit i for ground[i]) that
    order is: fewer bits first, and among masks with as many bits, the one
    holding the lowest bit where the two differ first.  _canonical_order
    sorts by that key, popcount << n minus the n-bit reversal of the mask.

    SetFamily(ground, members) takes members as iterables of element ids and
    checks each element against the ground set.  SetFamily.from_masks(ground,
    masks) takes bitmasks that the caller already knows lie in
    range(2 ** len(ground)) and skips that check.
    """

    def __init__(self, ground: Iterable[str], members: Iterable[Iterable[str]]):
        self._set_ground(ground)
        self._set_masks({self._to_mask(member) for member in members})

    @classmethod
    def from_masks(cls, ground: Iterable[str], masks: Iterable[int]) -> "SetFamily":
        """The family of the given member bitmasks, each < 2 ** len(ground)."""
        family = cls.__new__(cls)
        family._set_ground(ground)
        family._set_masks(masks)
        return family

    def _set_ground(self, ground: Iterable[str]) -> None:
        self.ground = tuple(ground)
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("duplicate ground element")
        self._pos = {e: i for i, e in enumerate(self.ground)}

    def _set_masks(self, masks: Iterable[int]) -> None:
        self._masks = frozenset(masks)
        self._sorted_masks = _canonical_order(self._masks, len(self.ground))

    def _to_set(self, mask: int) -> frozenset[str]:
        return frozenset(self.ground[i] for i in range(len(self.ground)) if mask >> i & 1)

    def _to_mask(self, member: Iterable[str]) -> int:
        mask = 0
        for e in member:
            if e not in self._pos:
                raise ValueError(f"element {e!r} not in ground set")
            mask |= 1 << self._pos[e]
        return mask

    @property
    def members(self) -> tuple[frozenset[str], ...]:
        """All members in canonical order (cardinality, then ground-lex)."""
        return tuple(self._to_set(m) for m in self._sorted_masks)

    def __contains__(self, member: Iterable[str]) -> bool:
        try:
            return self._to_mask(member) in self._masks
        except ValueError:
            return False

    def __len__(self):
        return len(self._masks)

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetFamily):
            return NotImplemented
        return set(other.ground) == set(self.ground) and frozenset(
            other.members
        ) == frozenset(self.members)

    def __hash__(self):
        return hash((frozenset(self.ground), frozenset(self.members)))

    def __repr__(self):
        shown = [sorted(m, key=self._pos.get) for m in self.members]
        return f"SetFamily(ground={list(self.ground)!r}, members={shown!r})"

    def sorted_member(self, member: Iterable[str]) -> list[str]:
        """A member's elements listed in ground order."""
        return sorted(member, key=self._pos.get)


@lru_cache(maxsize=64)
def _canonical_key(n: int) -> Callable[[int], int]:
    """The sort key of n-bit masks: popcount << n minus the n-bit reversal,
    read from a table for n <= 10."""
    width = (n + 7) // 8
    pad = 8 * width - n
    reversed_byte = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
    from_bytes = int.from_bytes

    def key(m: int) -> int:
        reversed_m = from_bytes(m.to_bytes(width, "little").translate(reversed_byte), "big")
        return (m.bit_count() << n) - (reversed_m >> pad)

    return list(map(key, range(1 << n))).__getitem__ if n <= 10 else key


def _canonical_order(masks: Iterable[int], n: int) -> list[int]:
    """Masks over n bits sorted by (popcount, positions of the set bits)."""
    return sorted(masks, key=_canonical_key(n))


class AxiomDiagnostic:
    """Outcome of the three antimatroid axiom checks, with witnesses."""

    __slots__ = ("has_empty", "accessible", "accessibility_witness", "union_closed",
                 "union_witness")

    def __init__(
        self,
        has_empty: bool,
        accessible: bool,
        accessibility_witness: frozenset[str] | None,
        union_closed: bool,
        union_witness: tuple[frozenset[str], frozenset[str]] | None,
    ):
        self.has_empty = has_empty
        self.accessible = accessible
        self.accessibility_witness = accessibility_witness
        self.union_closed = union_closed
        self.union_witness = union_witness

    @property
    def ok(self) -> bool:
        return self.has_empty and self.accessible and self.union_closed

    def reason(self) -> str:
        if not self.has_empty:
            return "the empty set is not a member"
        if not self.accessible:
            return f"accessibility fails at {sorted(self.accessibility_witness)!r}"
        if not self.union_closed:
            x, y = self.union_witness
            return f"union of {sorted(x)!r} and {sorted(y)!r} is not a member"
        return "all axioms hold"


def _removable(mask: int, memberset: Container[int], cap: int) -> int:
    """How many elements of mask can each be removed leaving a member,
    counted up to cap."""
    count = 0
    bits = mask
    while bits and count < cap:
        low = bits & -bits
        if mask ^ low in memberset:
            count += 1
        bits ^= low
    return count


def _paths(family: SetFamily) -> tuple[list[int], frozenset[str] | None]:
    """Members with exactly one removable element, and the first nonempty
    member with none (None if the family is accessible), where the scan stops."""
    paths = []
    for mask in family._sorted_masks:
        removable = _removable(mask, family._masks, 2)
        if removable == 1:
            paths.append(mask)
        elif mask and not removable:
            return paths, family._to_set(mask)
    return paths, None


def is_accessible(family: SetFamily) -> tuple[bool, frozenset[str] | None]:
    """Every nonempty member must lose some element and stay a member.

    Returns (True, None) or (False, violating member).
    """
    witness = _paths(family)[1]
    return witness is None, witness


def is_union_closed(
    family: SetFamily,
) -> tuple[bool, tuple[frozenset[str], frozenset[str]] | None]:
    """Pairwise unions must stay in the family.

    Returns (True, None) or (False, (x, y)) for a witness pair: the first
    pair (x before y in canonical member order) whose union is missing.

    A family that contains the empty set and is accessible is union-closed
    iff X | P is a member for every member X and every *path* P, a member
    with exactly one removable element (Korte-Lovasz-Schrader, Greedoids).
    Proof by induction on |Y| that every X | Y is a member: Y is empty, a
    path, or has two removable elements a != b, and then
    X | Y = (X | (Y - a)) | (Y - b) with both Y - a and Y - b smaller members.
    That check costs members * paths lookups; only when it finds a gap, or
    the family is not accessible, does the pairwise loop run to name the
    canonical witness pair.
    """
    diag = is_antimatroid(family)[1]
    return diag.union_closed, diag.union_witness


def is_antimatroid(family: SetFamily) -> tuple[bool, AxiomDiagnostic]:
    """Check empty-set membership, accessibility, and union-closedness (by
    the path test that is_union_closed proves) in one scan of the members."""
    paths, acc_witness = _paths(family)
    masks, memberset = family._sorted_masks, family._masks
    has_empty = 0 in memberset
    uc_witness = None
    if not (has_empty and acc_witness is None
            and all(memberset.issuperset([x | p for x in masks]) for p in paths)):
        uc_witness = next(((family._to_set(x), family._to_set(y))
                           for i, x in enumerate(masks) for y in masks[i + 1 :]
                           if x | y not in memberset), None)
    diag = AxiomDiagnostic(has_empty, acc_witness is None, acc_witness,
                           uc_witness is None, uc_witness)
    return diag.ok, diag


def complement_family(family: SetFamily) -> SetFamily:
    """The complement of every member, over the same ground set."""
    full = (1 << len(family.ground)) - 1
    return SetFamily.from_masks(family.ground, [full ^ m for m in family._masks])


class ChainDecoration:
    """Accessibility-derived structure on an antimatroid's nonempty members.

    trace maps each nonempty member X to an element whose removal stays in
    the family; chain_order lists X's elements so that every prefix is a
    member; feasible_order is a total order on nonempty members in which
    proper subsets come first; rank is the bijection onto {1..n} that is
    decreasing along feasible_order.
    """

    __slots__ = ("trace", "chain_order", "feasible_order", "rank")

    def __init__(
        self,
        trace: dict[frozenset[str], str],
        chain_order: dict[frozenset[str], tuple[str, ...]],
        feasible_order: tuple[frozenset[str], ...],
        rank: dict[frozenset[str], int],
    ):
        self.trace = trace
        self.chain_order = chain_order
        self.feasible_order = feasible_order
        self.rank = rank


def build_decoration(family: SetFamily) -> ChainDecoration:
    """Pick a trace function and derive chains, feasible order, and ranks.

    The trace element of a member is its first removable element in ground
    order; a caller wanting another trace passes its own decoration to the
    representation functions.
    """
    ok, diag = is_antimatroid(family)
    if not ok:
        raise NotAntimatroidError(diag)

    masks = family._masks
    trace_mask: dict[int, int] = {}
    for mask in family._sorted_masks:
        if mask == 0:
            continue
        # accessibility guarantees a removable element
        trace_mask[mask] = next(
            i for i in range(len(family.ground)) if mask >> i & 1 and (mask ^ (1 << i)) in masks
        )

    trace: dict[frozenset[str], str] = {}
    chain_order: dict[frozenset[str], tuple[str, ...]] = {}
    for mask in family._sorted_masks:
        if mask == 0:
            continue
        member = family._to_set(mask)
        trace[member] = family.ground[trace_mask[mask]]
        # peel the trace element repeatedly; the chain is the reversed peeling
        seq: list[str] = []
        cur = mask
        while cur:
            i = trace_mask[cur]
            seq.append(family.ground[i])
            cur ^= 1 << i
            if cur and cur not in masks:
                raise AssertionError("trace peeled out of the family")
        chain_order[member] = tuple(reversed(seq))

    nonempty = [m for m in family._sorted_masks if m]
    feasible_order = tuple(family._to_set(m) for m in nonempty)
    n = len(feasible_order)
    rank = {member: n - i for i, member in enumerate(feasible_order)}
    return ChainDecoration(trace, chain_order, feasible_order, rank)


def validate_decoration(family: SetFamily, deco: ChainDecoration) -> None:
    """Raise ValueError unless deco satisfies all decoration invariants on family."""
    nonempty = {m for m in family.members if m}
    for name, keys in (
        ("trace", set(deco.trace)),
        ("chain_order", set(deco.chain_order)),
        ("rank", set(deco.rank)),
        ("feasible_order", set(deco.feasible_order)),
    ):
        if keys != nonempty:
            raise ValueError(f"decoration {name} does not cover the nonempty members")
    if len(deco.feasible_order) != len(nonempty):
        raise ValueError("feasible_order repeats a member")

    for member, e in deco.trace.items():
        if e not in member or (member - {e}) not in family:
            raise ValueError(f"trace element {e!r} invalid for {sorted(member)!r}")
    for member, chain in deco.chain_order.items():
        if frozenset(chain) != member or len(chain) != len(member):
            raise ValueError(f"chain of {sorted(member)!r} is not an ordering of it")
        prefix: set[str] = set()
        for e in chain:
            prefix.add(e)
            if frozenset(prefix) not in family:
                raise ValueError(f"chain prefix {sorted(prefix)!r} not in family")
            if deco.trace[frozenset(prefix)] != e:
                raise ValueError(f"chain of {sorted(member)!r} disagrees with trace")

    pos = {member: i for i, member in enumerate(deco.feasible_order)}
    for x in deco.feasible_order:
        for y in deco.feasible_order:
            if x < y and pos[x] > pos[y]:
                raise ValueError("feasible_order places a superset before a subset")
    # the one bijection onto 1..n that decreases along feasible_order
    n = len(deco.feasible_order)
    for i, x in enumerate(deco.feasible_order):
        if deco.rank[x] != n - i:
            raise ValueError(f"rank of {sorted(x)!r} is not {n - i}")


def random_antimatroid(ground_size: int, density_seed: int) -> SetFamily:
    """A random antimatroid grown from chains and closed under union.

    Ground sizes up to 6 are supported.  Each grown set adds one element to
    a set drawn before it, so the draw holds the empty set and is
    accessible.  Its union closure stays accessible: write a member as
    Z = X1 | ... | Xk over drawn sets and take e with Xk - e drawn; if no
    other Xi holds e, Z - e is a union of drawn sets, and otherwise
    Z = X1 | ... | (Xk - e), so induction on |X1| + ... + |Xk| concludes.
    """
    if not 0 <= ground_size <= 6:
        raise ValueError("ground_size must be between 0 and 6")
    rng = random.Random(density_seed)
    masks = {0}
    if ground_size:
        steps = rng.randint(1, 2 * ground_size)
        for _ in range(steps):
            base = rng.choice(sorted(masks))
            free = [i for i in range(ground_size) if not base >> i & 1]
            if not free:
                continue
            masks.add(base | 1 << rng.choice(free))
    # close under union
    while True:
        extra = {x | y for x in masks for y in masks} - masks
        if not extra:
            break
        masks |= extra
    return SetFamily.from_masks("abcdef"[:ground_size], masks)


def enumerate_antimatroids(ground: Sequence[str]) -> list[SetFamily]:
    """All antimatroids over the given ground set (up to 5 elements).

    A depth-first decision over the nonempty subsets in canonical order,
    which decides every proper subset of S before S.  Let r be the number
    of elements of S whose removal leaves a chosen member, up to 2.  With
    r = 0, S stays out (accessibility); with r = 2, S goes in (the union of
    two members); with r = 1, both branches are followed.  So every
    antimatroid is reached, once, and every branch ends in an accessible
    family.  It is also union-closed, since the chosen members stay closed
    under the unions decided so far: if those inside S have union S, take
    two maximal ones M and M' (so M | M' = S), the first prefix C of an
    accessible chain of M' with M | C = S, and C's last element e.  Then
    M | (C - e) is a chosen member holding M, so M = S - e; likewise
    M' = S - e' with e' != e, and r = 2.

    The families come sorted by family code (bit s set when subset mask s
    is a member).  On 5 elements they number 62,067, of which 59,386 have
    full support (OEIS A224913).
    """
    n = len(ground)
    if n > 5:
        raise ValueError("exhaustive enumeration supported only for ground size <= 5")
    order = _canonical_order(range(1, 1 << n), n)
    members = {0}
    codes: list[int] = []

    def decide(k: int, code: int) -> None:
        """Decide order[k:] with members fixed so far; record each family code."""
        added = []
        for j in range(k, len(order)):
            s = order[j]
            removable = _removable(s, members, 2)
            if removable == 1:
                decide(j + 1, code)  # the branch without s
            if removable:
                members.add(s)
                added.append(s)
                code |= 1 << s
        codes.append(code)
        members.difference_update(added)

    decide(0, 1)
    codes.sort()
    return [SetFamily.from_masks(ground, [s for s in range(1 << n) if code >> s & 1])
            for code in codes]

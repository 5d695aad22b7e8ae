import hashlib
import random

import pytest

from matchroid.antimatroids import (
    NotAntimatroidError,
    SetFamily,
    build_decoration,
    complement_family,
    enumerate_antimatroids,
    is_accessible,
    is_antimatroid,
    is_union_closed,
    random_antimatroid,
    validate_decoration,
)

INDUCED_3X3 = SetFamily(
    ["v1", "v2", "v3"],
    [[], ["v1"], ["v2"], ["v1", "v2"], ["v1", "v2", "v3"]],
)


def test_set_family_basics():
    fam = SetFamily(["a", "b"], [["b", "a"], [], ["a"], ["a"]])
    assert len(fam) == 3  # duplicates collapse
    assert ["a"] in fam and ["b", "a"] in fam and ["b"] not in fam
    assert fam.members == (frozenset(), frozenset({"a"}), frozenset({"a", "b"}))
    with pytest.raises(ValueError, match="not in ground set"):
        SetFamily(["a"], [["z"]])
    with pytest.raises(ValueError, match="duplicate ground"):
        SetFamily(["a", "a"], [])


def test_is_accessible():
    ok, witness = is_accessible(INDUCED_3X3)
    assert ok and witness is None
    assert is_accessible(SetFamily(["x"], [[]])) == (True, None)
    ok, witness = is_accessible(SetFamily(["v1", "v2"], [[], ["v1", "v2"]]))
    assert not ok and witness == {"v1", "v2"}


def test_is_union_closed():
    assert is_union_closed(SetFamily(["v1", "v2"], [[], ["v1"], ["v1", "v2"]]))[0]
    assert is_union_closed(SetFamily(["x"], [[]]))[0]
    ok, witness = is_union_closed(SetFamily(["v1", "v2"], [[], ["v1"], ["v2"]]))
    assert not ok and set(witness) == {frozenset({"v1"}), frozenset({"v2"})}


def pairwise_union_closed(family):
    """The plain O(members^2) check, first missing pair in canonical order."""
    members = family.members
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            if x | y not in family:
                return False, (x, y)
    return True, None


def random_accessible_family(rng, n):
    """Grown from the empty set one element at a time, sometimes closed under
    union and then grown a little more, so gaps are few and hard to see."""
    masks = {0}

    def grow(steps):
        for _ in range(steps):
            base = rng.choice(sorted(masks))
            free = [i for i in range(n) if not base >> i & 1]
            if free:
                masks.add(base | 1 << rng.choice(free))

    grow(rng.randint(1, 3 * n))
    if rng.random() < 0.5:
        while True:
            extra = {x | y for x in masks for y in masks} - masks
            if not extra:
                break
            masks |= extra
        grow(rng.randint(0, 2))
    ground = "abcdef"[:n]
    return SetFamily(ground, [[ground[i] for i in range(n) if m >> i & 1] for m in masks])


def test_is_union_closed_matches_pairwise_on_every_small_family():
    for n in range(4):
        ground = "abc"[:n]
        subsets = [[ground[i] for i in range(n) if s >> i & 1] for s in range(1 << n)]
        for code in range(1 << (1 << n)):
            fam = SetFamily(ground, [subsets[s] for s in range(1 << n) if code >> s & 1])
            assert is_union_closed(fam) == pairwise_union_closed(fam), fam


def test_is_union_closed_matches_pairwise_on_random_accessible_families():
    rng = random.Random(20260518)
    closed = 0
    for _ in range(5000):
        fam = random_accessible_family(rng, rng.randint(3, 6))
        assert is_accessible(fam)[0]
        expected = pairwise_union_closed(fam)
        assert is_union_closed(fam) == expected, fam
        closed += expected[0]
    # both verdicts must be well represented
    assert 1000 < closed < 4000


def test_is_antimatroid():
    assert is_antimatroid(INDUCED_3X3)[0]
    assert is_antimatroid(SetFamily(["x"], [[]]))[0]
    free = SetFamily(["a", "b"], [[], ["a"], ["b"], ["a", "b"]])
    assert is_antimatroid(free)[0]
    ok, diag = is_antimatroid(SetFamily(["a"], []))
    assert not ok and not diag.has_empty
    ok, diag = is_antimatroid(SetFamily(["a", "b"], [[], ["a"], ["b"]]))
    assert not ok and "union" in diag.reason()


def test_build_decoration_two_chain():
    fam = SetFamily(["a", "b"], [[], ["a"], ["a", "b"]])
    deco = build_decoration(fam)
    a, ab = frozenset({"a"}), frozenset({"a", "b"})
    assert deco.trace == {a: "a", ab: "b"}  # removing "a" from {a,b} is not feasible
    assert deco.chain_order == {a: ("a",), ab: ("a", "b")}
    assert deco.feasible_order == (a, ab)
    assert deco.rank == {a: 2, ab: 1}
    validate_decoration(fam, deco)


def test_build_decoration_singleton():
    fam = SetFamily(["a"], [[], ["a"]])
    deco = build_decoration(fam)
    a = frozenset({"a"})
    assert deco.trace[a] == "a"
    assert deco.feasible_order == (a,)
    assert deco.rank[a] == 1


def test_build_decoration_forced_trace():
    deco = build_decoration(INDUCED_3X3)
    # {v1,v3} and {v2,v3} are not members, so only v3 can be peeled off the top
    assert deco.trace[frozenset({"v1", "v2", "v3"})] == "v3"
    validate_decoration(INDUCED_3X3, deco)


def test_build_decoration_rejects_non_antimatroid():
    bad = SetFamily(["a", "b"], [[], ["a", "b"]])
    with pytest.raises(NotAntimatroidError, match="accessibility"):
        build_decoration(bad)


def test_complement_family():
    fam = SetFamily(["a", "b"], [[], ["a"], ["a", "b"]])
    comp = complement_family(fam)
    assert frozenset(comp.members) == {
        frozenset({"a", "b"}),
        frozenset({"b"}),
        frozenset(),
    }
    assert complement_family(SetFamily(["a"], [[]])).members == (frozenset({"a"}),)
    assert complement_family(complement_family(INDUCED_3X3)) == INDUCED_3X3


def test_complement_is_convex_geometry():
    # complement of an antimatroid contains the ground set and all pairwise
    # intersections of members
    for seed in range(20):
        fam = random_antimatroid(4, seed)
        comp = complement_family(fam)
        members = set(comp.members)
        assert frozenset(fam.ground) in members
        for x in members:
            for y in members:
                assert x & y in members


def test_unique_maximal_member():
    for seed in range(20):
        fam = random_antimatroid(5, seed)
        members = list(fam.members)
        union = frozenset().union(*members)
        assert union in fam
        maximal = [x for x in members if not any(x < y for y in members)]
        assert maximal == [union]


def test_random_antimatroid_ground_zero():
    fam = random_antimatroid(0, 123)
    assert fam.ground == () and fam.members == (frozenset(),)


def test_random_antimatroid_always_valid():
    for seed in range(60):
        fam = random_antimatroid(seed % 7, seed)
        assert is_antimatroid(fam)[0]
    with pytest.raises(ValueError):
        random_antimatroid(7, 0)


def test_random_antimatroid_draws_are_pinned():
    # a change to the draw sequence, or to the closure, changes this digest
    digest = hashlib.sha256()
    for size in range(7):
        for seed in range(3000):
            fam = random_antimatroid(size, seed)
            digest.update(repr((fam.ground, fam._sorted_masks)).encode())
    assert digest.hexdigest() == (
        "8fca5128d651fb5739ba2dc3b7f89da7c9988e9f364f32aae5a058ee65804efd"
    )


def test_random_antimatroid_outputs_on_two_elements():
    # every draw must land in the full catalogue for ground size 2
    catalogue = {frozenset(f.members) for f in enumerate_antimatroids(("a", "b"))}
    assert len(catalogue) == 6
    for seed in range(40):
        fam = random_antimatroid(2, seed)
        assert frozenset(fam.members) in catalogue


def test_enumerate_antimatroids_counts():
    # labeled antimatroids with full support number 1, 1, 3, 22, 485, 59386
    # (convex geometries, OEIS A224913); summing over all supports gives
    # these totals
    assert len(enumerate_antimatroids(())) == 1
    assert len(enumerate_antimatroids(("a",))) == 2
    assert len(enumerate_antimatroids(("a", "b"))) == 6
    assert len(enumerate_antimatroids(("a", "b", "c"))) == 35
    five = enumerate_antimatroids(tuple("abcde"))
    assert len(five) == 62067
    assert sum(frozenset("abcde") in fam for fam in five) == 59386
    with pytest.raises(ValueError):
        enumerate_antimatroids(tuple("abcdef"))


def filtered_catalogue(n):
    """Every family code over n elements (bit s set when subset mask s is a
    member) whose members hold the empty set, are accessible and are closed
    under pairwise union, in code order, as lists of member masks."""
    out = []
    for code in range(1, 1 << (1 << n), 2):
        masks = [s for s in range(1 << n) if code >> s & 1]
        if all(
            any(code >> (s ^ 1 << i) & 1 for i in range(n) if s >> i & 1) for s in masks[1:]
        ) and all(code >> (x | y) & 1 for x in masks for y in masks):
            out.append(masks)
    return out


def test_enumerate_antimatroids_equals_a_filter_of_every_family():
    for n in range(5):
        ground = tuple("abcd"[:n])
        fams = enumerate_antimatroids(ground)
        assert all(fam.ground == ground for fam in fams)
        assert [sorted(fam._masks) for fam in fams] == filtered_catalogue(n)


def test_enumerate_antimatroids_all_valid():
    fams = enumerate_antimatroids(("a", "b", "c"))
    assert len({frozenset(f.members) for f in fams}) == len(fams)
    for fam in fams:
        assert is_antimatroid(fam)[0]


def test_decoration_invariants_random():
    rng = random.Random(0)
    for _ in range(30):
        fam = random_antimatroid(rng.randint(0, 6), rng.randint(0, 10**6))
        deco = build_decoration(fam)
        validate_decoration(fam, deco)
        for member, chain in deco.chain_order.items():
            prefix = set()
            for e in chain:
                prefix.add(e)
                assert frozenset(prefix) in fam
            assert frozenset(chain) == member


def test_validate_decoration_rejects_wrong_family():
    fam1 = SetFamily(["a", "b"], [[], ["a"], ["a", "b"]])
    fam2 = SetFamily(["a", "b"], [[], ["b"], ["a", "b"]])
    deco = build_decoration(fam1)
    with pytest.raises(ValueError):
        validate_decoration(fam2, deco)


def test_validate_decoration_rejects_swapped_ranks():
    deco = build_decoration(INDUCED_3X3)
    x, y = deco.feasible_order[1], deco.feasible_order[2]
    deco.rank[x], deco.rank[y] = deco.rank[y], deco.rank[x]
    with pytest.raises(ValueError, match="rank"):
        validate_decoration(INDUCED_3X3, deco)


def test_canonical_order_is_cardinality_then_positions():
    def positions_key(mask, n):
        bits = tuple(i for i in range(n) if mask >> i & 1)
        return (len(bits), bits)

    for n in range(11):
        ground = [f"e{i}" for i in range(n)]
        masks = range(1 << n)
        want = sorted(masks, key=lambda m: positions_key(m, n))
        assert SetFamily.from_masks(ground, masks)._sorted_masks == want
        if n <= 6:
            members = [[ground[i] for i in range(n) if m >> i & 1] for m in masks]
            assert SetFamily(ground, members)._sorted_masks == want


def test_canonical_order_on_wide_grounds():
    # grounds of several bytes, whole and partial, drawn masks
    rng = random.Random(9)
    for n in (15, 16, 17, 24, 31, 40, 65):
        ground = [f"e{i}" for i in range(n)]
        masks = {rng.getrandbits(n) for _ in range(300)} | {0, (1 << n) - 1, 1, 1 << (n - 1)}
        want = sorted(masks, key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1]))
        assert SetFamily.from_masks(ground, masks)._sorted_masks == want

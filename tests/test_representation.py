import random

import pytest

from matchroid.antimatroids import (
    NotAntimatroidError,
    SetFamily,
    build_decoration,
    random_antimatroid,
)
from matchroid.induced import enumerate_codomain_mm, enumerate_codomain_sm
from matchroid.representation import (
    represent_stable,
    represent_weighted,
    verify_roundtrip,
)
from matchroid.stable import induced_map_sm
from matchroid.weighted import induced_map_mm

CHAIN_AB = SetFamily(["a", "b"], [[], ["a"], ["a", "b"]])
INDUCED_3X3 = SetFamily(
    ["v1", "v2", "v3"],
    [[], ["v1"], ["v2"], ["v1", "v2"], ["v1", "v2", "v3"]],
)


def test_represent_stable_chain():
    bundle = represent_stable(CHAIN_AB)
    inst = bundle.instance
    la = bundle.left_labels[frozenset({"a"})]
    lab = bundle.left_labels[frozenset({"a", "b"})]
    assert inst.graph.left == (la, lab)
    assert inst.graph.edges == ((la, "a"), (lab, "a"), (lab, "b"))
    assert inst.prefs.ranking(lab) == ("a", "b")
    assert inst.prefs.ranking("a") == (la, lab)
    assert inst.prefs.ranking("b") == (lab,)


def test_represent_stable_trivial():
    trivial = SetFamily(["a"], [[]])
    bundle = represent_stable(trivial)
    assert bundle.instance.graph.left == ()
    report = enumerate_codomain_sm(bundle.instance)
    assert frozenset(report.family.members) == {frozenset()}


def test_represent_stable_roundtrips_three_by_three_family():
    bundle = represent_stable(INDUCED_3X3)
    assert len(bundle.instance.graph.left) == 4
    report = enumerate_codomain_sm(bundle.instance)
    assert report.family == INDUCED_3X3


def test_represent_weighted_exponents():
    corrected = represent_weighted(CHAIN_AB, formula="corrected")
    assert tuple(corrected.instance.weights) == (1 << 6, 1 << 4, 1 << 3)
    literal = represent_weighted(CHAIN_AB, formula="literal")
    assert tuple(literal.instance.weights) == (1 << 5, 1 << 3, 1 << 4)
    with pytest.raises(ValueError, match="formula"):
        represent_weighted(CHAIN_AB, formula="fixed")


def test_literal_formula_counterexample():
    literal = represent_weighted(CHAIN_AB, formula="literal")
    lab = literal.left_labels[frozenset({"a", "b"})]
    # the least-preferred element gets the largest weight, so the singleton
    # subset picks {b}, which the family does not contain
    assert induced_map_mm(literal.instance, [lab]) == {"b"}
    assert frozenset({"b"}) not in CHAIN_AB
    equal, detail = verify_roundtrip(CHAIN_AB, "weighted", formula="literal")
    assert not equal and ["b"] in detail["extra"]
    corrected = represent_weighted(CHAIN_AB, formula="corrected")
    assert induced_map_mm(corrected.instance, [lab]) == {"a"}
    assert verify_roundtrip(CHAIN_AB, "weighted", formula="corrected")[0]


def test_represent_weighted_trivial():
    trivial = SetFamily(["a"], [[]])
    for formula in ("corrected", "literal"):
        bundle = represent_weighted(trivial, formula=formula)
        report = enumerate_codomain_mm(bundle.instance)
        assert frozenset(report.family.members) == {frozenset()}


def test_verify_roundtrip_examples(weights_3x2):
    assert verify_roundtrip(INDUCED_3X3, "stable")[0]
    trivial = SetFamily(["a"], [[]])
    assert verify_roundtrip(trivial, "stable")[0]
    assert verify_roundtrip(trivial, "weighted")[0]
    induced_by_weights = SetFamily(["v1", "v2"], [[], ["v1"], ["v1", "v2"]])
    equal, detail = verify_roundtrip(induced_by_weights, "weighted")
    assert equal and detail["member_check"]


def test_verify_roundtrip_rejects_bad_input():
    not_am = SetFamily(["a", "b"], [[], ["a"], ["b"]])
    with pytest.raises(NotAntimatroidError):
        verify_roundtrip(not_am, "stable")
    with pytest.raises(ValueError, match="kind"):
        verify_roundtrip(CHAIN_AB, "both")


def test_verify_roundtrip_size_limit():
    ground = tuple("abcdefg")
    free = SetFamily(
        ground,
        [[ground[i] for i in range(7) if code >> i & 1] for code in range(1 << 7)],
    )
    with pytest.raises(ValueError, match="size limit"):
        verify_roundtrip(free, "stable")


def test_verify_roundtrip_reports_non_antimatroid_before_size_limit():
    ground = tuple("abcdefg")
    no_empty_set = SetFamily(
        ground,
        [[ground[i] for i in range(7) if code >> i & 1] for code in range(1, 1 << 7)],
    )
    with pytest.raises(NotAntimatroidError):
        verify_roundtrip(no_empty_set, "stable")


def test_weight_blocks_disjoint_powers_of_two():
    rng = random.Random(51)
    for _ in range(15):
        fam = random_antimatroid(rng.randint(0, 5), rng.randint(0, 10**6))
        bundle = represent_weighted(fam)
        weights = list(bundle.instance.weights)
        assert len(set(weights)) == len(weights)
        assert all(w > 0 and w & (w - 1) == 0 for w in weights)
        n_v = len(fam.ground)
        blocks = {}
        for pos, (u, _v) in enumerate(bundle.instance.graph.edges):
            exp = weights[pos].bit_length() - 1
            blocks.setdefault(u, []).append(exp)
        ranks = {bundle.left_labels[m]: bundle.decoration.rank[m] for m in bundle.decoration.rank}
        for u, exps in blocks.items():
            lo, hi = n_v * ranks[u] + 1, n_v * ranks[u] + n_v
            assert all(lo <= e <= hi for e in exps)


def test_member_chain_subsets_recover_members():
    rng = random.Random(52)
    for _ in range(10):
        fam = random_antimatroid(rng.randint(0, 5), rng.randint(0, 10**6))
        deco = build_decoration(fam)
        for kind, build, induce in (
            ("stable", represent_stable, induced_map_sm),
            ("weighted", represent_weighted, induced_map_mm),
        ):
            bundle = build(fam, deco)
            for member in deco.feasible_order:
                prefix = set()
                subset = []
                for v in deco.chain_order[member]:
                    prefix.add(v)
                    subset.append(bundle.left_labels[frozenset(prefix)])
                assert induce(bundle.instance, subset) == member, (kind, member)


def test_codomain_members_stay_in_family():
    rng = random.Random(53)
    for _ in range(8):
        fam = random_antimatroid(4, rng.randint(0, 10**6))
        bundle = represent_stable(fam)
        report = enumerate_codomain_sm(bundle.instance)
        for member in report.family.members:
            assert member in fam


def test_decoration_from_other_family_rejected():
    other = SetFamily(["a", "b"], [[], ["b"], ["a", "b"]])
    deco = build_decoration(other)
    with pytest.raises(ValueError):
        represent_stable(CHAIN_AB, deco)


def test_label_collision_with_ground_ids():
    fam = SetFamily(["X1", "X3"], [[], ["X1"], ["X1", "X3"]])
    bundle = represent_stable(fam)
    assert all(label.startswith("XX") for label in bundle.left_labels.values())
    assert verify_roundtrip(fam, "stable")[0]

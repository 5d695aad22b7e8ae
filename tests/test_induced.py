import random

import pytest

from matchroid import io
from matchroid.antimatroids import SetFamily
from matchroid.fuzz import random_stable_instance, random_weighted_instance
from matchroid.graphs import BipartiteGraph
from matchroid.induced import (
    InducedFamilyReport,
    SweepLimitError,
    check_theorem,
    enumerate_codomain_mm,
    enumerate_codomain_sm,
)
from matchroid.stable import StableMatchingInstance, deferred_acceptance, induced_map_sm
from matchroid.weighted import WeightedInstance, induced_map_mm, max_weight_matching


def members_as_sets(report):
    return {frozenset(m) for m in report.family.members}


def test_codomain_sm_example(prefs_3x3):
    report = enumerate_codomain_sm(prefs_3x3)
    assert members_as_sets(report) == {
        frozenset(),
        frozenset({"v1"}),
        frozenset({"v2"}),
        frozenset({"v1", "v2"}),
        frozenset({"v1", "v2", "v3"}),
    }
    assert check_theorem(report)[0]


def test_codomain_sm_witnesses_deterministic(prefs_3x3):
    report = enumerate_codomain_sm(prefs_3x3)
    assert report.witnesses == {
        frozenset(): (),
        frozenset({"v1"}): ("u1",),
        frozenset({"v2"}): ("u3",),
        frozenset({"v1", "v2"}): ("u1", "u2"),
        frozenset({"v1", "v2", "v3"}): ("u1", "u2", "u3"),
    }


def test_codomain_sm_small_instances():
    edgeless = StableMatchingInstance(BipartiteGraph(["u"], ["v"], []), {})
    assert members_as_sets(enumerate_codomain_sm(edgeless)) == {frozenset()}
    single = StableMatchingInstance(
        BipartiteGraph(["u"], ["v"], [("u", "v")]), {"u": ["v"], "v": ["u"]}
    )
    assert members_as_sets(enumerate_codomain_sm(single)) == {frozenset(), frozenset({"v"})}


def test_codomain_mm_example(weights_3x2):
    report = enumerate_codomain_mm(weights_3x2)
    assert members_as_sets(report) == {
        frozenset(),
        frozenset({"v1"}),
        frozenset({"v1", "v2"}),
    }
    assert check_theorem(report)[0]


def test_codomain_mm_small_instances():
    edgeless = WeightedInstance(BipartiteGraph(["u"], ["v"], []), [])
    assert members_as_sets(enumerate_codomain_mm(edgeless)) == {frozenset()}
    single = WeightedInstance(
        BipartiteGraph(["u"], ["v"], [("u", "v")]), [3]
    )
    assert members_as_sets(enumerate_codomain_mm(single)) == {frozenset(), frozenset({"v"})}


def test_check_theorem_flags_edited_family(prefs_3x3):
    report = enumerate_codomain_sm(prefs_3x3)
    edited = SetFamily(
        report.family.ground,
        [m for m in report.family.members if m != frozenset({"v1", "v2"})],
    )
    broken = InducedFamilyReport(edited, report.witnesses, "stable", prefs_3x3)
    ok, diag = check_theorem(broken)
    assert not ok
    assert not diag.union_closed
    assert diag.union_witness is not None


def test_witnesses_reevaluate(prefs_3x3, weights_3x2):
    report = enumerate_codomain_sm(prefs_3x3)
    for member, subset in report.witnesses.items():
        assert induced_map_sm(prefs_3x3, subset) == member
    report = enumerate_codomain_mm(weights_3x2)
    for member, subset in report.witnesses.items():
        assert induced_map_mm(weights_3x2, subset) == member


def test_witnesses_reevaluate_random():
    rng = random.Random(31)
    for _ in range(10):
        inst = random_stable_instance(rng, max_side=4)
        report = enumerate_codomain_sm(inst)
        assert len(report.family) <= 1 << len(inst.graph.left)
        for member, subset in report.witnesses.items():
            assert induced_map_sm(inst, subset) == member
        winst = random_weighted_instance(rng, max_side=4)
        wreport = enumerate_codomain_mm(winst)
        for member, subset in wreport.witnesses.items():
            assert induced_map_mm(winst, subset) == member


def test_maximal_member_is_full_image():
    rng = random.Random(32)
    for _ in range(15):
        inst = random_stable_instance(rng, max_side=5)
        report = enumerate_codomain_sm(inst)
        union = frozenset().union(*report.family.members)
        assert union == induced_map_sm(inst, inst.graph.left)
        winst = random_weighted_instance(rng, max_side=5)
        wreport = enumerate_codomain_mm(winst)
        wunion = frozenset().union(*wreport.family.members)
        assert wunion == induced_map_mm(winst, winst.graph.left)


def test_family_invariant_under_visit_order():
    # the family is a set; visiting subsets in any order must reproduce it
    rng = random.Random(33)
    for _ in range(10):
        inst = random_stable_instance(rng, max_side=4)
        report = enumerate_codomain_sm(inst)
        g = inst.graph
        n = len(g.left)
        masks = list(range(1 << n))
        rng.shuffle(masks)
        members = set()
        for mask in masks:
            subset = [g.left[i] for i in range(n) if mask >> i & 1]
            members.add(induced_map_sm(inst, subset))
        assert members == set(report.family.members)


def per_subset_witnesses(inst, solve):
    """Solve every left subset on its own, in ascending popcount, then
    binary, order; the first subset producing a member is its witness."""
    left = inst.graph.left
    n = len(left)
    witnesses = {}
    for mask in sorted(range(1 << n), key=lambda m: (m.bit_count(), m)):
        subset = tuple(left[i] for i in range(n) if mask >> i & 1)
        witnesses.setdefault(solve(inst, subset).matched_right(), subset)
    return witnesses


def test_depth_first_sweep_matches_per_subset_sweep():
    rng = random.Random(34)
    for _ in range(200):
        inst = random_stable_instance(rng, max_side=8, edge_prob=rng.uniform(0.2, 0.8))
        report = enumerate_codomain_sm(inst)
        expected = per_subset_witnesses(inst, deferred_acceptance)
        assert set(report.family.members) == set(expected)
        assert report.witnesses == expected
    for _ in range(80):
        inst = random_weighted_instance(rng, max_side=8, edge_prob=rng.uniform(0.2, 0.8))
        report = enumerate_codomain_mm(inst)
        expected = per_subset_witnesses(inst, max_weight_matching)
        assert set(report.family.members) == set(expected)
        assert report.witnesses == expected


def test_sweep_limit():
    left = [f"u{i}" for i in range(21)]
    inst = StableMatchingInstance(BipartiteGraph(left, ["v"], []), {})
    with pytest.raises(SweepLimitError, match="sweep limit"):
        enumerate_codomain_sm(inst)
    winst = WeightedInstance(BipartiteGraph(left, ["v"], []), [])
    with pytest.raises(SweepLimitError):
        enumerate_codomain_mm(winst)


def frozenset_report_json(report):
    """The report document built from the public frozenset forms only."""
    f = report.family
    return {
        "family": {"ground": list(f.ground), "sets": [f.sorted_member(m) for m in f.members]},
        "witnesses": {
            ",".join(f.sorted_member(m)): list(report.witnesses[m]) for m in f.members
        },
    }


def test_mask_built_report_matches_frozenset_forms():
    rng = random.Random(35)
    for k in range(120):
        if k % 2:
            inst = random_weighted_instance(rng, max_side=7, edge_prob=rng.uniform(0.2, 0.8))
            report, solve = enumerate_codomain_mm(inst), max_weight_matching
        else:
            inst = random_stable_instance(rng, max_side=7, edge_prob=rng.uniform(0.2, 0.8))
            report, solve = enumerate_codomain_sm(inst), deferred_acceptance
        doc = io.report_to_json(report)
        assert report._witnesses is None  # serialising does not build the dict
        expected = per_subset_witnesses(inst, solve)
        assert report.witnesses == expected
        rebuilt = SetFamily(inst.graph.right, list(expected))
        assert report.family == rebuilt
        assert report.family._sorted_masks == rebuilt._sorted_masks
        assert doc == frozenset_report_json(report)
        by_hand = InducedFamilyReport(rebuilt, expected, report.instance_kind, inst)
        assert io.report_to_json(by_hand) == doc

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
All randomness is seeded, so every run checks the identical corpus.
"""

import random
import time

import pytest

from matchroid.antimatroids import (
    SetFamily,
    enumerate_antimatroids,
    random_antimatroid,
)
from matchroid.fuzz import (
    fuzz_stable,
    fuzz_weighted,
    random_stable_instance,
    random_weighted_instance,
)
from matchroid.graphs import symmetric_difference_components
from matchroid.induced import enumerate_codomain_mm, enumerate_codomain_sm
from matchroid.representation import represent_weighted, verify_roundtrip
from matchroid.stable import (
    choice_function_sm,
    deferred_acceptance,
    enumerate_stable_matchings,
    induced_map_sm,
    restrict_instance,
)
from matchroid.weighted import (
    choice_function_mm,
    induced_map_mm,
    matching_weight,
    max_weight_matching,
)

CHAIN_AB = SetFamily(["a", "b"], [[], ["a"], ["a", "b"]])


def _line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def small_catalogue():
    fams = []
    for n in range(5):
        fams.extend(enumerate_antimatroids(tuple("abcd")[:n]))
    return fams


@pytest.fixture(scope="module")
def five_element_slice():
    """Every 200th antimatroid on 5 elements that has at most 14 members."""
    return [fam for fam in enumerate_antimatroids(tuple("abcde"))[::200] if len(fam) <= 14]


@pytest.fixture(scope="module")
def fuzz_corpus():
    corpus = []
    seed = 0
    while len(corpus) < 200:
        fam = random_antimatroid(5 + seed % 2, seed)
        seed += 1
        if len(fam) <= 14:  # keeps every 2**(members-1) sweep affordable
            corpus.append(fam)
    return corpus


def test_criterion_01_stable_example(prefs_3x3):
    t0 = time.perf_counter()
    sm = deferred_acceptance(prefs_3x3, prefs_3x3.graph.left)
    image = induced_map_sm(prefs_3x3, prefs_3x3.graph.left)
    family = frozenset(enumerate_codomain_sm(prefs_3x3).family.members)
    elapsed = time.perf_counter() - t0
    ok = (
        set(sm.pairs()) == {("u1", "v2"), ("u2", "v3"), ("u3", "v1")}
        and image == {"v1", "v2", "v3"}
        and family
        == {
            frozenset(),
            frozenset({"v1"}),
            frozenset({"v2"}),
            frozenset({"v1", "v2"}),
            frozenset({"v1", "v2", "v3"}),
        }
        and elapsed < 1.0
    )
    _line(1, ok, f"stable example reproduced in {elapsed:.3f}s")


def test_criterion_02_weighted_example(weights_3x2):
    t0 = time.perf_counter()
    mm = max_weight_matching(weights_3x2, ["u1", "u2"])
    image = induced_map_mm(weights_3x2, ["u1", "u2"])
    family = frozenset(enumerate_codomain_mm(weights_3x2).family.members)
    elapsed = time.perf_counter() - t0
    ok = (
        set(mm.pairs()) == {("u1", "v1")}
        and matching_weight(weights_3x2, mm) == 20
        and image == {"v1"}
        and family == {frozenset(), frozenset({"v1"}), frozenset({"v1", "v2"})}
        and elapsed < 1.0
    )
    _line(2, ok, f"weighted example reproduced in {elapsed:.3f}s")


def test_criterion_03_stable_property_suite():
    t0 = time.perf_counter()
    failures = fuzz_stable(500, seed=20250810, max_side=6)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _line(3, ok, f"500 stable instances, {len(failures)} failures, {elapsed:.1f}s")


def test_criterion_04_weighted_property_suite():
    t0 = time.perf_counter()
    failures, _, _ = fuzz_weighted(500, seed=20250811, max_side=6)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _line(
        4,
        ok,
        f"500 weighted instances incl. solver=oracle, {len(failures)} failures, "
        f"{elapsed:.1f}s",
    )


def test_criterion_05_stable_roundtrips(small_catalogue, five_element_slice, fuzz_corpus):
    t0 = time.perf_counter()
    failures = [
        fam for fam in small_catalogue + five_element_slice + fuzz_corpus
        if not verify_roundtrip(fam, "stable")[0]
    ]
    elapsed = time.perf_counter() - t0
    ok = not failures
    _line(
        5,
        ok,
        f"{len(small_catalogue)} exhaustive + {len(five_element_slice)} 5-element + "
        f"{len(fuzz_corpus)} fuzzed stable "
        f"roundtrips, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_06_weighted_roundtrips(small_catalogue, five_element_slice, fuzz_corpus):
    t0 = time.perf_counter()
    failures = [
        fam for fam in small_catalogue + five_element_slice + fuzz_corpus
        if not verify_roundtrip(fam, "weighted", formula="corrected")[0]
    ]
    elapsed = time.perf_counter() - t0
    ok = not failures
    _line(
        6,
        ok,
        f"{len(small_catalogue)} exhaustive + {len(five_element_slice)} 5-element + "
        f"{len(fuzz_corpus)} fuzzed weighted "
        f"roundtrips, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_07_literal_formula_discrepancy():
    literal = represent_weighted(CHAIN_AB, formula="literal")
    top = literal.left_labels[frozenset({"a", "b"})]
    image = induced_map_mm(literal.instance, [top])
    literal_equal, _ = verify_roundtrip(CHAIN_AB, "weighted", formula="literal")
    corrected_equal, _ = verify_roundtrip(CHAIN_AB, "weighted", formula="corrected")
    ok = (
        image == {"b"}
        and frozenset({"b"}) not in CHAIN_AB
        and not literal_equal
        and corrected_equal
    )
    _line(7, ok, "literal layout fails the chain family, corrected layout passes")


def test_criterion_08_order_independence_and_rural_hospitals():
    rng = random.Random(20250812)
    order_ok = True
    enumerated = 0
    sides_ok = True
    for _ in range(100):
        inst = random_stable_instance(rng, max_side=6)
        base = deferred_acceptance(inst, inst.graph.left)
        for _ in range(20):
            alt = deferred_acceptance(
                inst, inst.graph.left, proposal_order=rng.randint(0, 10**9)
            )
            if alt != base:
                order_ok = False
        if len(inst.graph.edges) <= 24:
            enumerated += 1
            n = len(inst.graph.left)
            mask = rng.randrange(1 << n)
            subset = {inst.graph.left[i] for i in range(n) if mask >> i & 1}
            for x in (set(inst.graph.left), subset):
                sub = restrict_instance(inst, x | set(inst.graph.right))
                stables = enumerate_stable_matchings(sub)
                if (
                    len({m.matched_left() for m in stables}) != 1
                    or len({m.matched_right() for m in stables}) != 1
                ):
                    sides_ok = False
    ok = order_ok and sides_ok and enumerated >= 90
    _line(
        8,
        ok,
        f"100 instances x 20 proposal orders identical; one matched vertex set "
        f"per side on {enumerated} enumerable instances",
    )


def _submasks(mask):
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def test_criterion_09_subset_monotonicity():
    rng = random.Random(20250813)
    pair_checks = 0
    path_checks = 0
    ok = True
    for trial in range(100):
        stable_inst = random_stable_instance(rng, max_side=5)
        weighted_inst = random_weighted_instance(rng, max_side=5)
        for inst, induce in (
            (stable_inst, induced_map_sm),
            (weighted_inst, induced_map_mm),
        ):
            g = inst.graph
            n = len(g.left)
            f = {}
            for mask in range(1 << n):
                f[mask] = induce(inst, [g.left[i] for i in range(n) if mask >> i & 1])
            for m1 in range(1 << n):
                for m2 in _submasks(m1):
                    pair_checks += 1
                    if not f[m2] <= f[m1]:
                        ok = False
                    if len(f[m1]) == m1.bit_count() and len(f[m2]) != m2.bit_count():
                        ok = False
        # single-element extensions: the optimum shifts along one path from q
        g = weighted_inst.graph
        n = len(g.left)
        mm = {}
        for mask in range(1 << n):
            mm[mask] = max_weight_matching(
                weighted_inst, [g.left[i] for i in range(n) if mask >> i & 1]
            )
        for m1 in range(1 << n):
            for i in range(n):
                if not m1 >> i & 1:
                    continue
                m2 = m1 ^ (1 << i)
                q = g.left[i]
                comps = symmetric_difference_components(g, mm[m1], mm[m2])
                path_checks += 1
                if comps and not (
                    len(comps) == 1
                    and comps[0].kind == "path"
                    and q in comps[0].endpoints
                ):
                    ok = False
    _line(
        9,
        ok,
        f"monotonicity on {pair_checks} nested pairs, path shape on "
        f"{path_checks} single-vertex extensions",
    )


def test_criterion_10_choice_function_remarks():
    rng = random.Random(20250814)
    checks = 0
    ok = True
    for trial in range(50):
        stable_inst = random_stable_instance(rng, max_side=5)
        weighted_inst = random_weighted_instance(rng, max_side=5)
        for inst, choose in (
            (stable_inst, choice_function_sm),
            (weighted_inst, choice_function_mm),
        ):
            g = inst.graph
            n = len(g.left)
            pos = {u: i for i, u in enumerate(g.left)}
            ch = {}
            for mask in range(1 << n):
                ch[mask] = choose(inst, [g.left[i] for i in range(n) if mask >> i & 1])
            def as_mask(vertices):
                m = 0
                for u in vertices:
                    m |= 1 << pos[u]
                return m
            for m1 in range(1 << n):
                for m2 in range(1 << n):
                    checks += 1
                    if ch[as_mask(ch[m1]) | m2] != ch[m1 | m2]:
                        ok = False
                for m2 in _submasks(m1):
                    if len(ch[m2]) > len(ch[m1]):
                        ok = False
    _line(
        10,
        ok,
        f"path independence and size monotonicity over {checks} subset pairs",
    )

import itertools
import math
import random

import pytest

from matchroid import stable
from matchroid.fuzz import random_stable_instance
from matchroid.graphs import BipartiteGraph, Matching, UnknownVertexError, enumerate_matchings
from matchroid.stable import (
    StableMatchingInstance,
    choice_function_sm,
    deferred_acceptance,
    enumerate_stable_matchings,
    induced_map_sm,
    is_blocking_pair,
    is_stable,
    restrict_instance,
)

SM_PAIRS = {("u1", "v2"), ("u2", "v3"), ("u3", "v1")}


def test_instance_validation(prefs_3x3):
    g = prefs_3x3.graph
    prefs = prefs_3x3.prefs.as_dict()
    with pytest.raises(ValueError, match="not a permutation"):
        StableMatchingInstance(g, {**prefs, "u1": ["v2"]})
    with pytest.raises(ValueError, match="not a permutation"):
        StableMatchingInstance(g, {**prefs, "u1": ["v1", "v2", "v3"]})
    missing = dict(prefs)
    del missing["v2"]
    with pytest.raises(ValueError, match="missing ranking"):
        StableMatchingInstance(g, missing)
    with pytest.raises(UnknownVertexError):
        StableMatchingInstance(g, {**prefs, "w9": []})
    # isolated vertices may omit their empty ranking
    g2 = BipartiteGraph(["u1"], ["v1", "v2"], [("u1", "v1")])
    inst = StableMatchingInstance(g2, {"u1": ["v1"], "v1": ["u1"]})
    assert inst.prefs.ranking("v2") == ()


def test_restrict_instance(prefs_3x3):
    g = prefs_3x3.graph
    same = restrict_instance(prefs_3x3, set(g.left) | set(g.right))
    assert same == prefs_3x3
    sub = restrict_instance(prefs_3x3, {"u1", "u3"} | set(g.right))
    assert sub.prefs.ranking("v1") == ("u3", "u1")
    assert sub.prefs.ranking("v3") == ()
    rights_only = restrict_instance(prefs_3x3, set(g.right))
    assert rights_only.graph.left == ()
    assert all(rights_only.prefs.ranking(v) == () for v in g.right)


def test_is_blocking_pair(prefs_3x3):
    g = prefs_3x3.graph
    m = Matching(g, [0])  # only (u1, v1)
    assert is_blocking_pair(prefs_3x3, m, ("u3", "v1"))
    sm = Matching(g, [1, 3, 4])
    assert not any(is_blocking_pair(prefs_3x3, sm, e) for e in g.edges)
    assert not is_blocking_pair(prefs_3x3, sm, ("u1", "v2"))  # edge inside m
    with pytest.raises(ValueError, match="not an edge"):
        is_blocking_pair(prefs_3x3, m, ("u1", "v3"))


def test_is_stable(prefs_3x3):
    g = prefs_3x3.graph
    assert is_stable(prefs_3x3, Matching(g, [1, 3, 4]))
    assert not is_stable(prefs_3x3, Matching(g, []))
    edgeless = StableMatchingInstance(BipartiteGraph(["u"], ["v"], []), {})
    assert is_stable(edgeless, Matching(edgeless.graph, []))


def test_is_stable_agrees_with_blocking_pairs():
    rng = random.Random(41)
    for _ in range(30):
        inst = random_stable_instance(rng, max_side=4)
        for m in enumerate_matchings(inst.graph):
            expected = not any(is_blocking_pair(inst, m, e) for e in inst.graph.edges)
            assert is_stable(inst, m) == expected


def test_deferred_acceptance_full(prefs_3x3):
    m = deferred_acceptance(prefs_3x3, prefs_3x3.graph.left)
    assert set(m.pairs()) == SM_PAIRS


def test_deferred_acceptance_subsets(prefs_3x3):
    assert deferred_acceptance(prefs_3x3, []).pairs() == ()
    m = deferred_acceptance(prefs_3x3, ["u1", "u2"])
    assert set(m.pairs()) == {("u1", "v2"), ("u2", "v1")}
    with pytest.raises(ValueError, match="not left vertices"):
        deferred_acceptance(prefs_3x3, ["v1"])


def test_deferred_acceptance_explicit_order(prefs_3x3):
    base = deferred_acceptance(prefs_3x3, prefs_3x3.graph.left)
    assert deferred_acceptance(prefs_3x3, prefs_3x3.graph.left, ["u3", "u1", "u2"]) == base
    with pytest.raises(ValueError, match="permutation"):
        deferred_acceptance(prefs_3x3, ["u1", "u2"], ["u1", "u1"])


def test_induced_map(prefs_3x3):
    assert induced_map_sm(prefs_3x3, prefs_3x3.graph.left) == {"v1", "v2", "v3"}
    assert induced_map_sm(prefs_3x3, []) == frozenset()
    assert induced_map_sm(prefs_3x3, ["u3"]) == {"v2"}


def test_choice_function(prefs_3x3):
    assert choice_function_sm(prefs_3x3, prefs_3x3.graph.left) == {"u1", "u2", "u3"}
    assert choice_function_sm(prefs_3x3, []) == frozenset()
    g = BipartiteGraph(["u1", "u2"], ["v1"], [("u1", "v1")])
    inst = StableMatchingInstance(g, {"u1": ["v1"], "v1": ["u1"]})
    assert choice_function_sm(inst, ["u1", "u2"]) == {"u1"}  # u2 has no neighbors


def test_enumerate_stable_matchings(prefs_3x3):
    edgeless = StableMatchingInstance(BipartiteGraph(["u"], ["v"], []), {})
    assert [m.edge_ids for m in enumerate_stable_matchings(edgeless)] == [()]
    stables = enumerate_stable_matchings(prefs_3x3)
    assert any(set(m.pairs()) == SM_PAIRS for m in stables)
    single = StableMatchingInstance(
        BipartiteGraph(["u"], ["v"], [("u", "v")]), {"u": ["v"], "v": ["u"]}
    )
    assert [m.edge_ids for m in enumerate_stable_matchings(single)] == [(0,)]


def test_output_stable_on_restriction():
    rng = random.Random(21)
    for _ in range(40):
        inst = random_stable_instance(rng, max_side=5)
        n = len(inst.graph.left)
        mask = rng.randrange(1 << n)
        subset = {inst.graph.left[i] for i in range(n) if mask >> i & 1}
        m = deferred_acceptance(inst, subset)
        sub = restrict_instance(inst, subset | set(inst.graph.right))
        assert is_stable(sub, m)
        assert m.matched_left() <= subset


def test_order_independence_spot():
    rng = random.Random(22)
    for _ in range(15):
        inst = random_stable_instance(rng, max_side=5)
        base = deferred_acceptance(inst, inst.graph.left)
        for _ in range(5):
            seed = rng.randint(0, 10**9)
            assert deferred_acceptance(inst, inst.graph.left, seed) == base


def test_rural_hospitals_spot():
    rng = random.Random(23)
    checked = 0
    for _ in range(25):
        inst = random_stable_instance(rng, max_side=4)
        if len(inst.graph.edges) > 16:
            continue
        stables = enumerate_stable_matchings(inst)
        assert len({m.matched_left() for m in stables}) == 1
        assert len({m.matched_right() for m in stables}) == 1
        assert deferred_acceptance(inst, inst.graph.left) in stables
        checked += 1
    assert checked >= 15


def test_monotonicity_spot():
    rng = random.Random(24)
    for _ in range(20):
        inst = random_stable_instance(rng, max_side=5)
        g = inst.graph
        n = len(g.left)
        f = {}
        for mask in range(1 << n):
            subset = [g.left[i] for i in range(n) if mask >> i & 1]
            f[mask] = induced_map_sm(inst, subset)
        for m1 in range(1 << n):
            m2 = m1 & rng.randrange(1 << n)  # random subset of m1
            assert f[m2] <= f[m1]
            if len(f[m1]) == m1.bit_count():
                assert len(f[m2]) == m2.bit_count()


def test_stable_matchings_equal_combinations_on_restrictions():
    # restrictions keep the original edge ids, so ids and positions differ
    rng = random.Random(26)
    checked = 0
    for _ in range(60):
        left = [f"u{i}" for i in range(rng.randint(2, 5))]
        right = [f"v{j}" for j in range(rng.randint(2, 5))]
        edges = [(u, v) for u in left for v in right]
        rng.shuffle(edges)
        g = BipartiteGraph(left, right, edges[: rng.randint(6, 16)])
        prefs = {r: rng.sample(g.neighbors(r), len(g.neighbors(r))) for r in left + right}
        inst = StableMatchingInstance(g, prefs)
        keep = [r for r in left + right if rng.random() < 0.85]
        sub = restrict_instance(inst, keep)
        g = sub.graph
        if len(g.edges) > 12:
            continue
        stable = set()
        for k in range(min(len(g.left), len(g.right)) + 1):
            for combo in itertools.combinations(g.edge_ids, k):
                if len({x for eid in combo for x in g.endpoints(eid)}) < 2 * k:
                    continue
                m = Matching(g, combo)
                expected = not any(is_blocking_pair(sub, m, e) for e in g.edges)
                assert is_stable(sub, m) == expected
                if expected:
                    stable.add(m.edge_ids)
        assert {m.edge_ids for m in enumerate_stable_matchings(sub)} == stable
        checked += 1
    assert checked >= 40


def restricted_oracle(inst, limit):
    """The stable oracle one restricted instance at a time: for every left
    subset in ascending bitmask order, (subset, matching, verdict)."""
    g = inst.graph
    n = len(g.left)
    out = []
    for u_mask in range(1 << n):
        subset = {g.left[i] for i in range(n) if u_mask >> i & 1}
        sub = restrict_instance(inst, subset | set(g.right))
        m = deferred_acceptance(inst, subset)
        ok = is_stable(sub, m)
        if ok and len(sub.graph.edges) <= limit:
            all_stable = enumerate_stable_matchings(sub, limit)
            lefts = {s.matched_left() for s in all_stable}
            rights = {s.matched_right() for s in all_stable}
            ok = m in all_stable and len(lefts) <= 1 and len(rights) <= 1
        out.append((subset, m, ok))
    return out


def free_last_right(run):
    """The proposal loop run, then the last matched right vertex freed."""

    def faulty(dense, active, rng, state):
        newly = run(dense, active, rng, state)
        match_u = state[1]
        matched = [v for v, u in enumerate(match_u) if u >= 0]
        if matched:
            match_u[matched[-1]] = -1
        return newly

    return faulty


@pytest.mark.parametrize("fault", [False, True])
def test_against_oracle_equals_the_restricted_oracle(fault, monkeypatch):
    # half the instances are restrictions, whose edge ids are not positions;
    # limit 4 sends most subsets past the enumeration, to the blocking test alone
    if fault:
        monkeypatch.setattr(stable, "_run_proposals", free_last_right(stable._run_proposals))
    rng = random.Random(14)
    verdicts = {True: 0, False: 0}
    for trial in range(200):
        inst = random_stable_instance(rng, 5, rng.choice((0.3, 0.5, 0.8)))
        if trial % 2:
            g = inst.graph
            inst = restrict_instance(inst, [r for r in g.left + g.right if rng.random() < 0.8])
        limit = rng.choice((4, 24))
        got = list(stable.against_oracle(inst, limit))
        assert got == restricted_oracle(inst, limit)
        for _, _, ok in got:
            verdicts[ok] += 1
    assert verdicts[True] > 0
    assert (verdicts[False] > 0) == fault


def test_against_oracle_flags_a_faulty_enumeration(monkeypatch):
    """The oracle's own cross-checks: deferred acceptance's matching must be
    among the enumerated stable matchings, and these must share their ends."""
    g = BipartiteGraph(["u1", "u2"], ["v1", "v2"],
                       [("u1", "v1"), ("u1", "v2"), ("u2", "v1"), ("u2", "v2")])
    inst = StableMatchingInstance(
        g, {"u1": ["v1", "v2"], "u2": ["v2", "v1"], "v1": ["u2", "u1"], "v2": ["u1", "u2"]}
    )
    assert all(ok for _, _, ok in stable.against_oracle(inst, 4))
    enumerate_all = stable._matchings
    # drop deferred acceptance's answer, positions 0 and 3; the right-optimal one remains
    monkeypatch.setattr(stable, "_matchings",
                        lambda *a: (c for c in enumerate_all(*a) if c != (0, 3)))
    assert [ok for s, _, ok in stable.against_oracle(inst, 4) if s == {"u1", "u2"}] == [False]
    # add a matching that also uses u2's edge, outside the subset {u1}
    monkeypatch.setattr(stable, "_matchings",
                        lambda *a: itertools.chain(enumerate_all(*a), [(0, 3)]))
    assert [ok for s, _, ok in stable.against_oracle(inst, 4) if s == {"u1"}] == [False]


def check_every_stable_instance(left, right, stride):
    """Walk every subgraph of the complete graph on left x right with every
    ranking of every vertex's neighbors; on every stride-th instance, the
    induced family is an antimatroid and every left subset passes
    stable.against_oracle.  Returns the number of instances walked."""
    from matchroid.induced import check_theorem, enumerate_codomain_sm

    pairs = [(u, v) for u in left for v in right]
    instances = 0
    for mask in range(1 << len(pairs)):
        g = BipartiteGraph(left, right, [e for i, e in enumerate(pairs) if mask >> i & 1])
        rankings = [list(itertools.permutations(g.neighbors(r))) for r in left + right]
        first = -instances % stride
        for orders in itertools.islice(itertools.product(*rankings), first, None, stride):
            inst = StableMatchingInstance(g, dict(zip(left + right, orders)))
            assert check_theorem(enumerate_codomain_sm(inst))[0], orders
            assert all(ok for _, _, ok in stable.against_oracle(inst)), orders
        instances += math.prod(map(len, rankings))
    return instances


def test_every_stable_instance_on_k23_induces_an_antimatroid():
    assert check_every_stable_instance(["u1", "u2"], ["v1", "v2", "v3"], 1) == 847


def test_every_50th_stable_instance_on_k33_induces_an_antimatroid():
    assert check_every_stable_instance(["u1", "u2", "u3"], ["v1", "v2", "v3"], 50) == 134986

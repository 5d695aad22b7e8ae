import itertools
import random
from fractions import Fraction

import pytest

from matchroid.fuzz import random_weighted_instance
from matchroid.graphs import BipartiteGraph, Matching, OracleLimitError
from matchroid.induced import enumerate_codomain_mm
from matchroid.weighted import (
    WeightedInstance,
    WeightFunction,
    _Dense,
    _solve_augmenting,
    against_oracle,
    choice_function_mm,
    induced_map_mm,
    matching_weight,
    max_weight_matching,
    oracle_max_weight,
)


def brute_force_best(inst, subset):
    """Independent check: best perturbed score over all matchings by scan."""
    g = inst.graph
    dense = inst._dense()
    best, best_score = (), 0
    ids = [eid for pos, eid in enumerate(g.edge_ids) if g.edges[pos][0] in subset]
    for code in range(1 << len(ids)):
        chosen = [ids[i] for i in range(len(ids)) if code >> i & 1]
        used = set()
        ok = True
        for eid in chosen:
            u, v = g.endpoints(eid)
            if u in used or v in used:
                ok = False
                break
            used.add(u)
            used.add(v)
        if not ok:
            continue
        score = sum(dense.perturbed[g._pos_of_id[eid]] for eid in chosen)
        if score > best_score:
            best, best_score = tuple(sorted(chosen)), score
    return best


def test_weight_function_rejects_inexact():
    with pytest.raises(TypeError):
        WeightFunction([1.5])
    with pytest.raises(TypeError):
        WeightFunction([True])
    wf = WeightFunction([3, Fraction(1, 2)])
    assert tuple(wf) == (3, Fraction(1, 2))


def test_instance_validation(weights_3x2):
    with pytest.raises(ValueError, match="expected 4 weights"):
        WeightedInstance(weights_3x2.graph, [1, 2, 3])


def test_matching_weight(weights_3x2):
    g = weights_3x2.graph
    assert matching_weight(weights_3x2, Matching(g, [1, 3])) == 23
    assert matching_weight(weights_3x2, Matching(g, [])) == 0
    assert matching_weight(weights_3x2, Matching(g, [0])) == 20
    with pytest.raises(ValueError, match="covered twice"):
        matching_weight(weights_3x2, [0, 2])


def test_matching_weight_fractions():
    g = BipartiteGraph(["u"], ["v1", "v2"], [("u", "v1"), ("u", "v2")])
    inst = WeightedInstance(g, [Fraction(1, 3), Fraction(1, 2)])
    assert matching_weight(inst, Matching(g, [0])) == Fraction(1, 3)
    assert max_weight_matching(inst, ["u"]).edge_ids == (1,)


def test_max_weight_matching_examples(weights_3x2):
    assert set(max_weight_matching(weights_3x2, ["u1", "u2"]).pairs()) == {("u1", "v1")}
    assert max_weight_matching(weights_3x2, []).pairs() == ()
    best = max_weight_matching(weights_3x2, weights_3x2.graph.left)
    assert set(best.pairs()) == {("u1", "v2"), ("u3", "v1")}
    assert best.edge_ids == brute_force_best(weights_3x2, set(weights_3x2.graph.left))
    with pytest.raises(ValueError, match="not left vertices"):
        max_weight_matching(weights_3x2, ["v1"])


def test_induced_and_choice(weights_3x2):
    U = weights_3x2.graph.left
    assert induced_map_mm(weights_3x2, ["u1", "u2"]) == {"v1"}
    assert induced_map_mm(weights_3x2, []) == frozenset()
    assert induced_map_mm(weights_3x2, U) == {"v1", "v2"}
    assert choice_function_mm(weights_3x2, ["u1", "u2"]) == {"u1"}
    assert choice_function_mm(weights_3x2, []) == frozenset()
    assert choice_function_mm(weights_3x2, U) == {"u1", "u3"}


def test_oracle_examples(weights_3x2):
    U = set(weights_3x2.graph.left)
    assert oracle_max_weight(weights_3x2, U) == max_weight_matching(weights_3x2, U)
    assert oracle_max_weight(weights_3x2, set()).pairs() == ()
    g = weights_3x2.graph
    negative = WeightedInstance(g, [-1, -5, -2, -3])
    assert oracle_max_weight(negative, U).pairs() == ()
    assert max_weight_matching(negative, U).pairs() == ()


def test_zero_weight_edges_are_dropped():
    g = BipartiteGraph(["u"], ["v"], [("u", "v")])
    inst = WeightedInstance(g, [0])
    # empty matching ties at weight 0; smaller edge-id bitmask wins
    assert max_weight_matching(inst, ["u"]).pairs() == ()
    assert oracle_max_weight(inst, ["u"]).pairs() == ()


def test_tie_break_prefers_smaller_edge_ids():
    g = BipartiteGraph(["u1"], ["v1", "v2"], [("u1", "v1"), ("u1", "v2")])
    inst = WeightedInstance(g, [5, 5])
    assert max_weight_matching(inst, ["u1"]).edge_ids == (0,)
    # a weight tie between matchings of different shapes: {e0, e1} vs {e2}
    g2 = BipartiteGraph(
        ["u1", "u2"], ["v1", "v2"],
        [("u1", "v1"), ("u2", "v2"), ("u1", "v2")],
    )
    inst2 = WeightedInstance(g2, [1, 1, 2])
    best = max_weight_matching(inst2, ["u1", "u2"])
    assert best.edge_ids == (0, 1)  # bitmask 3 beats bitmask 4 at equal weight
    assert oracle_max_weight(inst2, ["u1", "u2"]) == best


def test_tie_break_stable_under_restriction():
    # restriction keeps original edge ids, so the tie-break cannot flip
    g = BipartiteGraph(
        ["u1", "u2"], ["v1", "v2"],
        [("u1", "v1"), ("u1", "v2"), ("u2", "v1"), ("u2", "v2")],
    )
    inst = WeightedInstance(g, [1, 1, 1, 1])
    full = max_weight_matching(inst, ["u1", "u2"])
    assert full.edge_ids == (1, 2)  # id sum 2^1+2^2 beats 2^0+2^3
    only_u2 = max_weight_matching(inst, ["u2"])
    assert only_u2.edge_ids == (2,)
    assert oracle_max_weight(inst, ["u2"]) == only_u2
    assert oracle_max_weight(inst, ["u1", "u2"]) == full


def test_solver_equals_oracle_random():
    rng = random.Random(77)
    for _ in range(60):
        inst = random_weighted_instance(rng, max_side=4, low=-3, high=3)
        g = inst.graph
        n = len(g.left)
        for mask in range(1 << n):
            subset = {g.left[i] for i in range(n) if mask >> i & 1}
            assert max_weight_matching(inst, subset) == oracle_max_weight(inst, subset)


def test_exploration_order_does_not_change_result():
    # the two solver routes must agree whenever the greedy route is legal
    rng = random.Random(78)
    for _ in range(40):
        n_l, n_r = rng.randint(1, 4), rng.randint(1, 4)
        left = [f"u{i}" for i in range(n_l)]
        right = [f"v{j}" for j in range(n_r)]
        edges = [(u, v) for u in left for v in right if rng.random() < 0.6]
        if not edges:
            continue
        g = BipartiteGraph(left, right, edges)
        inst = WeightedInstance(g, [1 << e for e in rng.sample(range(30), len(edges))])
        dense = inst._dense()
        assert dense.superincreasing
        for mask in range(1 << n_l):
            subset = {left[i] for i in range(n_l) if mask >> i & 1}
            allowed = [u in subset for u in left]
            via_greedy = max_weight_matching(inst, subset)
            via_paths = Matching(
                g, _solve_augmenting(dense, allowed, n_r, g.edge_ids)
            )
            assert via_greedy == via_paths


def test_monotonicity_spot():
    rng = random.Random(79)
    for _ in range(20):
        inst = random_weighted_instance(rng, max_side=5)
        g = inst.graph
        n = len(g.left)
        f = {}
        for mask in range(1 << n):
            subset = [g.left[i] for i in range(n) if mask >> i & 1]
            f[mask] = induced_map_mm(inst, subset)
        for m1 in range(1 << n):
            m2 = m1 & rng.randrange(1 << n)
            assert f[m2] <= f[m1]
            if len(f[m1]) == m1.bit_count():
                assert len(f[m2]) == m2.bit_count()


def test_oracle_is_the_unique_perturbed_optimum_by_combinations():
    # edge ids differ from positions; every left subset
    # small weights, so that true weights often tie
    rng = random.Random(81)
    for _ in range(30):
        left = [f"u{i}" for i in range(rng.randint(2, 4))]
        right = [f"v{j}" for j in range(rng.randint(2, 5))]
        edges = [(u, v) for u in left for v in right]
        rng.shuffle(edges)
        edges = edges[: rng.randint(4, 12)]
        ids = rng.sample(range(30), len(edges))
        g = BipartiteGraph(left, right, edges, ids)
        inst = WeightedInstance(g, [rng.randint(-3, 3) for _ in edges])
        perturbed = inst._dense().perturbed
        for mask in range(1 << len(g.left)):
            subset = {u for i, u in enumerate(g.left) if mask >> i & 1}
            positions = [p for p, (u, _) in enumerate(g.edges) if u in subset]
            scores = {
                c: sum(perturbed[p] for p in c)
                for k in range(len(subset) + 1)
                for c in itertools.combinations(positions, k)
                if len({x for p in c for x in g.edges[p]}) == 2 * k
            }
            best = max(scores, key=scores.get)
            assert sorted(scores.values()).count(scores[best]) == 1
            assert oracle_max_weight(inst, subset).edge_ids == tuple(sorted(ids[p] for p in best))


def test_oracle_limit_counts_the_allowed_edges():
    left = [f"u{i}" for i in range(5)]
    right = [f"v{j}" for j in range(5)]
    g = BipartiteGraph(left, right, [(u, v) for u in left for v in right])
    inst = WeightedInstance(g, [1] * 25)
    assert len(oracle_max_weight(inst, left[:4])) == 4  # 20 allowed edges of 25
    with pytest.raises(OracleLimitError, match=r"^oracle limit exceeded: 25 edges > 24$"):
        oracle_max_weight(inst, left)
    with pytest.raises(OracleLimitError, match=r"^oracle limit exceeded: 10 edges > 9$"):
        oracle_max_weight(inst, left[:2], limit=9)


# The solver as it stood when every pass walked all m edges, tested allowed[u]
# and indexed three arrays per edge; kept verbatim as the reference for the
# per-left-vertex edge tuples the solver scans now.
def reference_solve_augmenting(dense: _Dense, allowed: list[bool], n_right: int, edge_ids) -> list[int]:
    eL, eR, P = dense.edge_left, dense.edge_right, dense.perturbed
    n_left = len(allowed)
    m = len(eL)
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
            for pos in range(m):
                u = eL[pos]
                if not allowed[u]:
                    continue
                v = eR[pos]
                if match_r[v] == pos:
                    dv = dist_r[v]
                    if dv is not None:
                        cand = dv - P[pos]
                        du = dist_l[u]
                        if du is None or cand > du:
                            dist_l[u] = cand
                            changed = True
                else:
                    du = dist_l[u]
                    if du is not None:
                        cand = du + P[pos]
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


def assert_solver_equals_reference(inst):
    """_solve_augmenting returns the reference's list, order included, on
    every left subset."""
    g = inst.graph
    dense = inst._dense()
    n, n_right = len(g.left), len(g.right)
    for mask in range(1 << n):
        allowed = [mask >> i & 1 == 1 for i in range(n)]
        expected = reference_solve_augmenting(dense, allowed, n_right, g.edge_ids)
        assert _solve_augmenting(dense, allowed, n_right, g.edge_ids) == expected, (g, mask)


def test_solver_equals_reference_on_12x12_instances():
    # the induce-weighted benchmark's shape: 12x12, 58 edges, weights -50..50
    rng = random.Random(2020)
    left = [f"u{i}" for i in range(12)]
    right = [f"v{j}" for j in range(12)]
    for _ in range(20):
        edges = rng.sample([(u, v) for u in left for v in right], 58)
        inst = WeightedInstance(BipartiteGraph(left, right, edges),
                                [rng.randint(-50, 50) for _ in edges])
        assert not inst._dense().superincreasing
        assert_solver_equals_reference(inst)


def test_solver_equals_reference_on_tie_heavy_instances():
    # weights -5..5, so true weights tie often; edge ids that are not
    # positions; isolated left vertices, the last one included
    rng = random.Random(2021)
    isolated_last = 0
    for _ in range(150):
        left = [f"u{i}" for i in range(rng.randint(1, 6))]
        right = [f"v{j}" for j in range(rng.randint(1, 5))]
        isolated = set(rng.sample(left, rng.randint(0, len(left) // 2)))
        edges = [(u, v) for u in left if u not in isolated for v in right if rng.random() < 0.6]
        rng.shuffle(edges)
        ids = rng.sample(range(3 * len(edges) + 1), len(edges))
        g = BipartiteGraph(left, right, edges, ids)
        inst = WeightedInstance(g, [rng.randint(-5, 5) for _ in edges])
        dense = inst._dense()
        assert len(dense.edges_by_left) == len(left)
        isolated_last += left[-1] in isolated
        assert_solver_equals_reference(inst)
    assert isolated_last >= 10


def test_solver_reads_only_the_allowed_vertices_edges():
    # a disallowed vertex is unreachable, so scanning its edges would not
    # change the answer, only the cost: poison them to see that they are skipped
    rng = random.Random(2022)
    for _ in range(20):
        inst = random_weighted_instance(rng, max_side=5, low=-5, high=5)
        g = inst.graph
        dense = inst._dense()
        n, n_right = len(g.left), len(g.right)
        for mask in range(1 << n):
            allowed = [mask >> i & 1 == 1 for i in range(n)]
            poisoned = _Dense(
                dense.edge_left, dense.edge_right, dense.perturbed,
                [edges if ok else [None] for ok, edges in zip(allowed, dense.edges_by_left)],
                dense.desc_positions, dense.superincreasing,
            )
            assert _solve_augmenting(poisoned, allowed, n_right, g.edge_ids) == \
                _solve_augmenting(dense, allowed, n_right, g.edge_ids)


def test_edges_by_left_holds_exactly_the_positive_edges():
    # Fraction weights of every sign; "1/6" scales to 1, the smallest kept
    # weight; edge ids that are not positions
    left, right = ["u1", "u2"], ["v1", "v2", "v3", "v4"]
    edges = [("u1", "v1"), ("u1", "v2"), ("u1", "v3"), ("u2", "v1"), ("u2", "v2"),
             ("u2", "v3"), ("u2", "v4")]
    g = BipartiteGraph(left, right, edges, edge_ids=[7, 2, 9, 0, 5, 4, 11])
    weights = [Fraction(x) for x in ("-1/3", "0", "0.5", "1/6", "-4", "2", "0")]
    dense = WeightedInstance(g, weights)._dense()
    assert len(dense.perturbed) == len(edges)
    assert [p > 0 for p in dense.perturbed] == [w > 0 for w in weights]
    assert dense.edges_by_left == [
        [(2, 0, 2, dense.perturbed[2])],
        [(3, 1, 0, dense.perturbed[3]), (5, 1, 2, dense.perturbed[5])],
    ]


def test_non_positive_weights_match_nothing():
    # no edge of weight <= 0 is ever in the optimum, so the solver sees no
    # edges, every optimum is empty and the induced family is {empty set}
    rng = random.Random(2024)
    checked = 0
    for _ in range(30):
        inst = random_weighted_instance(rng, max_side=5, low=-3, high=0)
        g = inst.graph
        assert inst._dense().edges_by_left == [[] for _ in g.left]
        for subset, solved, oracle in against_oracle(inst):
            assert solved.edge_ids == oracle.edge_ids == ()
            checked += 1
        assert {frozenset(m) for m in enumerate_codomain_mm(inst).family.members} == {frozenset()}
    assert checked >= 200

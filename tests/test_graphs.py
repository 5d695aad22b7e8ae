import itertools
import random

import pytest

from matchroid.graphs import (
    BipartiteGraph,
    Matching,
    OracleLimitError,
    UnknownVertexError,
    enumerate_matchings,
    is_matching,
    symmetric_difference_components,
)


def brute_force_matchings(g):
    """Independent oracle: filter every edge-id subset by the degree bound."""
    ids = list(g.edge_ids)
    out = []
    for code in range(1 << len(ids)):
        chosen = [ids[i] for i in range(len(ids)) if code >> i & 1]
        if is_matching(g, chosen):
            out.append(frozenset(chosen))
    return out


def test_neighbors(prefs_3x3, weights_3x2):
    assert prefs_3x3.graph.neighbors("v1") == ("u1", "u2", "u3")
    assert weights_3x2.graph.neighbors("u1") == ("v1", "v2")
    empty = BipartiteGraph(["u"], ["v"], [])
    assert empty.neighbors("u") == ()
    assert empty.neighbors("v") == ()


def test_neighbors_unknown_vertex(prefs_3x3):
    with pytest.raises(UnknownVertexError, match="unknown vertex"):
        prefs_3x3.graph.neighbors("u9")


def test_incident_edges(prefs_3x3, weights_3x2):
    assert prefs_3x3.graph.incident_edges("v3") == (3,)
    assert weights_3x2.graph.incident_edges("v1") == (0, 2, 3)
    isolated = BipartiteGraph(["u1"], ["v1", "v2"], [("u1", "v1")])
    assert isolated.incident_edges("v2") == ()
    with pytest.raises(UnknownVertexError):
        isolated.incident_edges("w")


def test_restrict(prefs_3x3):
    g = prefs_3x3.graph
    sub = g.restrict({"u1", "u2"} | set(g.right))
    assert sub.edges == (("u1", "v1"), ("u1", "v2"), ("u2", "v1"), ("u2", "v3"))
    assert sub.edge_ids == (0, 1, 2, 3)
    assert g.restrict(set(g.left) | set(g.right)) == g
    empty = g.restrict(set())
    assert empty.left == () and empty.right == () and empty.edges == ()
    with pytest.raises(UnknownVertexError):
        g.restrict({"u1", "nope"})


def test_restrict_preserves_edge_ids(prefs_3x3):
    g = prefs_3x3.graph
    sub = g.restrict({"u2", "u3"} | set(g.right))
    assert sub.edge_ids == (2, 3, 4, 5)
    # restricting again keeps the original ids
    assert sub.restrict({"u3"} | set(g.right)).edge_ids == (4, 5)


def test_graph_validation():
    with pytest.raises(ValueError, match="duplicate left"):
        BipartiteGraph(["u", "u"], ["v"], [])
    with pytest.raises(ValueError, match="overlap"):
        BipartiteGraph(["x"], ["x"], [])
    with pytest.raises(UnknownVertexError):
        BipartiteGraph(["u"], ["v"], [("u", "w")])
    with pytest.raises(ValueError, match="duplicate edge"):
        BipartiteGraph(["u"], ["v"], [("u", "v"), ("u", "v")])


def test_is_matching(prefs_3x3):
    g = prefs_3x3.graph
    assert is_matching(g, [1, 3, 4])  # (u1,v2), (u2,v3), (u3,v1)
    assert is_matching(g, [])
    assert not is_matching(g, [0, 2])  # both edges cover v1
    with pytest.raises(ValueError, match="unknown edge id"):
        is_matching(g, [99])


def test_matching_partner_lookup(prefs_3x3):
    g = prefs_3x3.graph
    m = Matching(g, [1, 3])
    assert m.partner("u1") == "v2"
    assert m.partner("v2") == "u1"
    assert m.partner("u3") is None
    assert m.matched_left() == {"u1", "u2"}
    assert m.matched_right() == {"v2", "v3"}
    assert (("u1", "v2") in m) and (1 in m)
    with pytest.raises(ValueError, match="covered twice"):
        Matching(g, [0, 2])


def test_symmetric_difference_trivial(weights_3x2):
    g = weights_3x2.graph
    m = Matching(g, [0])
    assert symmetric_difference_components(g, m, m) == ()


def test_symmetric_difference_path(weights_3x2):
    g = weights_3x2.graph
    comps = symmetric_difference_components(g, Matching(g, [0]), Matching(g, [1, 3]))
    assert len(comps) == 1
    (comp,) = comps
    assert comp.kind == "path"
    assert comp.edge_ids == (0, 1, 3)
    assert set(comp.endpoints) == {"u3", "v2"}


def test_symmetric_difference_single_edge(weights_3x2):
    g = weights_3x2.graph
    (comp,) = symmetric_difference_components(g, Matching(g, [0]), Matching(g, []))
    assert comp.kind == "path" and comp.edge_ids == (0,)
    assert set(comp.endpoints) == {"u1", "v1"}


def test_symmetric_difference_cycle():
    g = BipartiteGraph(
        ["u1", "u2"], ["v1", "v2"],
        [("u1", "v1"), ("u1", "v2"), ("u2", "v1"), ("u2", "v2")],
    )
    (comp,) = symmetric_difference_components(g, Matching(g, [0, 3]), Matching(g, [1, 2]))
    assert comp.kind == "cycle"
    assert comp.edge_ids == (0, 1, 2, 3)
    assert comp.endpoints == ()


def test_symmetric_difference_degrees_random():
    rng = random.Random(11)
    for _ in range(50):
        n_l, n_r = rng.randint(1, 5), rng.randint(1, 5)
        left = [f"u{i}" for i in range(n_l)]
        right = [f"v{j}" for j in range(n_r)]
        edges = [(u, v) for u in left for v in right if rng.random() < 0.5]
        if not edges:
            continue
        g = BipartiteGraph(left, right, edges)
        ms = enumerate_matchings(g)
        m1, m2 = rng.choice(ms), rng.choice(ms)
        comps = symmetric_difference_components(g, m1, m2)
        union = [eid for c in comps for eid in c.edge_ids]
        assert sorted(union) == sorted(set(m1.edge_ids) ^ set(m2.edge_ids))
        degree = {}
        for eid in union:
            for r in g.endpoints(eid):
                degree[r] = degree.get(r, 0) + 1
        assert all(d <= 2 for d in degree.values())


def test_enumerate_matchings_counts(weights_3x2):
    empty = BipartiteGraph(["u"], ["v"], [])
    assert [m.edge_ids for m in enumerate_matchings(empty)] == [()]
    single = BipartiteGraph(["u"], ["v"], [("u", "v")])
    assert sorted(m.edge_ids for m in enumerate_matchings(single)) == [(), (0,)]
    ms = enumerate_matchings(weights_3x2.graph)
    assert len(ms) == len(brute_force_matchings(weights_3x2.graph)) == 7
    assert len(set(ms)) == 7  # each exactly once


def test_enumerate_matchings_matches_brute_force():
    rng = random.Random(3)
    for _ in range(30):
        n_l, n_r = rng.randint(1, 4), rng.randint(1, 4)
        left = [f"u{i}" for i in range(n_l)]
        right = [f"v{j}" for j in range(n_r)]
        edges = [(u, v) for u in left for v in right if rng.random() < 0.6]
        g = BipartiteGraph(left, right, edges)
        got = {frozenset(m.edge_ids) for m in enumerate_matchings(g)}
        assert got == set(brute_force_matchings(g))


def test_enumerate_matchings_count_invariant_under_edge_order(prefs_3x3):
    g = prefs_3x3.graph
    n = len(enumerate_matchings(g))
    rng = random.Random(5)
    for _ in range(5):
        edges = list(g.edges)
        rng.shuffle(edges)
        assert len(enumerate_matchings(BipartiteGraph(g.left, g.right, edges))) == n


def test_enumerate_matchings_limit():
    left = [f"u{i}" for i in range(25)]
    g = BipartiteGraph(left, ["v"], [(u, "v") for u in left])
    with pytest.raises(OracleLimitError, match="oracle limit"):
        enumerate_matchings(g)
    assert len(enumerate_matchings(g, limit=25)) == 26


def test_enumerate_matchings_equals_combinations_in_order():
    # edge ids differ from positions, as after a restriction; at most 12 edges
    rng = random.Random(9)
    for _ in range(80):
        n_l, n_r = rng.randint(1, 5), rng.randint(1, 5)
        edges = [(f"u{i}", f"v{j}") for i in range(n_l) for j in range(n_r)]
        rng.shuffle(edges)
        edges = edges[: rng.randint(0, 12)]
        ids = rng.sample(range(40), len(edges))
        g = BipartiteGraph([f"u{i}" for i in range(n_l)], [f"v{j}" for j in range(n_r)], edges, ids)
        combos = [
            c
            for k in range(min(n_l, n_r) + 1)
            for c in itertools.combinations(range(len(edges)), k)
            if len({x for p in c for x in edges[p]}) == 2 * k
        ]
        # depth first by the edge added is lexicographic order on positions
        expected = [tuple(sorted(ids[p] for p in c)) for c in sorted(combos)]
        assert [m.edge_ids for m in enumerate_matchings(g)] == expected


@pytest.mark.parametrize("bad", [-1, 1.5, True, "2"])
def test_edge_ids_must_be_non_negative_ints(bad):
    edges = [("u", "v"), ("u", "w")]
    with pytest.raises(ValueError, match=rf"^edge id {bad!r} is not a non-negative int$"):
        BipartiteGraph(["u"], ["v", "w"], edges, edge_ids=[bad, 3])
    assert BipartiteGraph(["u"], ["v", "w"], edges, edge_ids=[0, 3]).edge_ids == (0, 3)

"""Seeded random instance generators and the fuzz campaigns that hammer the
induced-family and solver-vs-oracle properties on desk-scale inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import DEFAULT_ORACLE_LIMIT, BipartiteGraph
from .induced import (
    DEFAULT_SWEEP_LIMIT,
    check_theorem,
    enumerate_codomain_mm,
    enumerate_codomain_sm,
)
from .stable import StableMatchingInstance
from .weighted import WeightedInstance, against_oracle


def random_bipartite_graph(
    rng: random.Random, max_side: int = 6, edge_prob: float = 0.5
) -> BipartiteGraph:
    n_left = rng.randint(1, max_side)
    n_right = rng.randint(1, max_side)
    left = [f"u{i + 1}" for i in range(n_left)]
    right = [f"v{j + 1}" for j in range(n_right)]
    edges = [
        (u, v) for u in left for v in right if rng.random() < edge_prob
    ]
    return BipartiteGraph(left, right, edges)


def random_stable_instance(
    rng: random.Random, max_side: int = 6, edge_prob: float = 0.5
) -> StableMatchingInstance:
    """A random graph with uniformly random strict rankings."""
    g = random_bipartite_graph(rng, max_side, edge_prob)
    prefs = {}
    for r in g.left + g.right:
        order = list(g.neighbors(r))
        rng.shuffle(order)
        prefs[r] = order
    return StableMatchingInstance(g, prefs)


def random_weighted_instance(
    rng: random.Random,
    max_side: int = 6,
    edge_prob: float = 0.5,
    low: int = -50,
    high: int = 50,
) -> WeightedInstance:
    """A random graph with uniform integer weights in [low, high]."""
    g = random_bipartite_graph(rng, max_side, edge_prob)
    return WeightedInstance(g, [rng.randint(low, high) for _ in g.edges])


@dataclass
class FuzzFailure:
    trial: int
    kind: str
    reason: str
    instance: StableMatchingInstance | WeightedInstance


def fuzz_stable(
    trials: int,
    seed: int,
    max_side: int = 6,
    sweep_limit: int = DEFAULT_SWEEP_LIMIT,
) -> list[FuzzFailure]:
    """Random stable instances whose induced family must be an antimatroid."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        inst = random_stable_instance(rng, max_side)
        report = enumerate_codomain_sm(inst, sweep_limit)
        ok, diag = check_theorem(report)
        if not ok:
            failures.append(FuzzFailure(t, "stable", diag.reason(), inst))
    return failures


def fuzz_weighted(
    trials: int,
    seed: int,
    max_side: int = 6,
    sweep_limit: int = DEFAULT_SWEEP_LIMIT,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
) -> list[FuzzFailure]:
    """Random weighted instances: antimatroid verdicts plus solver-vs-oracle.

    The oracle comparison runs for every left subset whose restriction stays
    within the enumeration limit.
    """
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        inst = random_weighted_instance(rng, max_side)
        report = enumerate_codomain_mm(inst, sweep_limit)
        ok, diag = check_theorem(report)
        if not ok:
            failures.append(FuzzFailure(t, "weighted", diag.reason(), inst))
            continue
        for subset, solver, oracle in against_oracle(inst, oracle_limit):
            if solver != oracle:
                reason = (f"solver {sorted(solver.pairs())} != oracle "
                          f"{sorted(oracle.pairs())} on subset {sorted(subset)}")
                failures.append(FuzzFailure(t, "weighted", reason, inst))
                break
    return failures

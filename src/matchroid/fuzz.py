"""Seeded random instance generators and the fuzz campaigns that hammer the
induced-family and solver-vs-oracle properties on desk-scale inputs.
"""

from __future__ import annotations

import random

from . import stable, weighted
from .graphs import DEFAULT_ORACLE_LIMIT, BipartiteGraph
from .induced import (
    DEFAULT_SWEEP_LIMIT,
    check_theorem,
    enumerate_codomain_mm,
    enumerate_codomain_sm,
)
from .stable import StableMatchingInstance
from .weighted import WeightedInstance


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


class FuzzFailure:
    __slots__ = ("trial", "kind", "reason", "instance")

    def __init__(
        self,
        trial: int,
        kind: str,
        reason: str,
        instance: StableMatchingInstance | WeightedInstance,
    ):
        self.trial = trial
        self.kind = kind
        self.reason = reason
        self.instance = instance


def fuzz_stable(
    trials: int,
    seed: int,
    max_side: int = 6,
    sweep_limit: int = DEFAULT_SWEEP_LIMIT,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
) -> list[FuzzFailure]:
    """Random stable instances: antimatroid verdicts plus solver-vs-oracle.

    stable.against_oracle checks every left subset; one whose edges number
    more than oracle_limit gets only its blocking test.
    """
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        inst = random_stable_instance(rng, max_side)
        report = enumerate_codomain_sm(inst, sweep_limit)
        ok, diag = check_theorem(report)
        if not ok:
            failures.append(FuzzFailure(t, "stable", diag.reason(), inst))
            continue
        for subset, matching, verdict in stable.against_oracle(inst, oracle_limit):
            if not verdict:
                reason = (f"matching {sorted(matching.pairs())} fails the oracle "
                          f"on subset {sorted(subset)}")
                failures.append(FuzzFailure(t, "stable", reason, inst))
                break
    return failures


def fuzz_weighted(
    trials: int,
    seed: int,
    max_side: int = 6,
    sweep_limit: int = DEFAULT_SWEEP_LIMIT,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
) -> tuple[list[FuzzFailure], int, int]:
    """Random weighted instances: antimatroid verdicts plus solver-vs-oracle.

    Returns (failures, skipped, subsets).  weighted.against_oracle compares
    every left subset whose allowed edges number at most oracle_limit and
    skips the others.  Over the trials whose comparison ran to the end,
    subsets counts every left subset and skipped the ones it skipped.
    """
    rng = random.Random(seed)
    failures = []
    skipped = subsets = 0
    for t in range(trials):
        inst = random_weighted_instance(rng, max_side)
        report = enumerate_codomain_mm(inst, sweep_limit)
        ok, diag = check_theorem(report)
        if not ok:
            failures.append(FuzzFailure(t, "weighted", diag.reason(), inst))
            continue
        compared = 0
        for subset, solver, oracle in weighted.against_oracle(inst, oracle_limit):
            compared += 1
            if solver != oracle:
                reason = (f"solver {sorted(solver.pairs())} != oracle "
                          f"{sorted(oracle.pairs())} on subset {sorted(subset)}")
                failures.append(FuzzFailure(t, "weighted", reason, inst))
                break
        else:
            subsets += 1 << len(inst.graph.left)
            skipped += (1 << len(inst.graph.left)) - compared
    return failures, skipped, subsets

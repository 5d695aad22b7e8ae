"""Seeded inputs for the four workloads, and the commands run on them.

A workload is a stream of jobs; one job is one ``matchroid`` command on one
generated input file, and every job has an input of its own.  Inputs depend
only on the workload name and the seed.  Within a workload, the input
properties that set a command's cost (side sizes, edge counts, family size,
trial count) are fixed, or held to a narrow band, and only the structure is
drawn from the seed, so a run's figures are medians over many inputs of one
kind.  That is what makes runs on different seeds comparable.

Each job's input is drawn from a generator seeded by (workload, seed, job,
draw).  Where a workload asks for a family size, ``accepted_draws`` finds the
first draw of each job whose input has it; that search runs before the timed
set-up, which then makes every input with a single draw (``generate``).

Why each workload exists, and which layers it loads, is recorded in
``BENCHMARK.json`` and in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from . import reference

WORKLOADS = ("induce-stable", "induce-weighted", "roundtrip", "oracle")
# jobs generated per run; a run that gets through them starts over.  Runs of
# the induce workloads get through 25-45, and each of their inputs costs
# rejected draws before the timed set-up, so their pools are smaller.
POOL = {"induce-stable": 24, "induce-weighted": 48, "roundtrip": 64, "oracle": 64}

ORACLE_LIMIT = 24  # the CLI's default --oracle-limit

# induce-stable: 15x15 with 66 edges (density 0.29), drawn until the family
# has 2400-3200 members (about one draw in five does): large enough for the
# O(members^2) union check to take over half the time, and narrow enough
# that its cost does not swing with the seed.
STABLE_SIDE, STABLE_EDGES, STABLE_MEMBERS = 15, 66, (2400, 3200)
# induce-weighted: 12x12, 58 edges (density 0.40), weights uniform in -50..50,
# drawn until the family has 240-640 members (deciles 3-8; the sizes range
# from about 70 to over 2000).  The largest family a run meets would
# otherwise set its peak memory.
WEIGHTED_SIDE, WEIGHTED_EDGES, WEIGHTED_MEMBERS = 12, 58, (240, 640)
# roundtrip: antimatroids over 6 elements with 17 members (|U| = 16), one
# stable job for every two weighted ones.
ROUNDTRIP_GROUND, ROUNDTRIP_MEMBERS = 6, 17
# oracle: stable 7x7 with 20 edges, weighted 8x8 with 23 edges (just under
# the oracle limit) and weighted fuzz campaigns, in turn.  The three take
# about the same time, so the median command does not fall into a gap
# between their costs.  The weighted oracle lists every matching of the
# whole graph at once, which sets the workload's peak memory; its graphs are
# drawn until they have 4800-5500 matchings (the middle fifth of such
# graphs), so that the peak does not hang on the largest graph a run meets.
ORACLE_STABLE = (7, 20)
ORACLE_WEIGHTED = (8, 23)
ORACLE_MATCHINGS = (4800, 5500)
FUZZ_TRIALS = 120


@dataclass
class Job:
    """One command of a workload, with what is needed to run and check it."""

    cid: str
    command: str  # matchroid subcommand
    kind: str
    args: list[str]  # arguments after the input path
    doc: dict | None  # input document; None for fuzz, which makes its own
    subsets: int = 0  # left subsets the command evaluates; 0 until known
    expected_rc: int = 0
    expected_digest: str | None = None  # SHA-256 of the expected output


def _names(n: int, prefix: str) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(n)]


def _edges(rng: random.Random, n_left: int, n_right: int, count: int) -> list[tuple[int, int]]:
    pairs = [(u, v) for u in range(n_left) for v in range(n_right)]
    return sorted(rng.sample(pairs, count))


def stable_doc(rng: random.Random, n: int, n_edges: int) -> dict:
    """An n x n stable instance with n_edges edges and uniform random rankings."""
    left, right = _names(n, "u"), _names(n, "v")
    edges = _edges(rng, n, n, n_edges)
    prefs = {}
    for i, u in enumerate(left):
        order = [right[b] for a, b in edges if a == i]
        rng.shuffle(order)
        prefs[u] = order
    for j, v in enumerate(right):
        order = [left[a] for a, b in edges if b == j]
        rng.shuffle(order)
        prefs[v] = order
    return {
        "left": left,
        "right": right,
        "edges": [[left[a], right[b]] for a, b in edges],
        "prefs": prefs,
    }


def weighted_doc(rng: random.Random, n: int, n_edges: int) -> dict:
    """An n x n weighted instance with n_edges edges and weights in -50..50."""
    left, right = _names(n, "u"), _names(n, "v")
    edges = _edges(rng, n, n, n_edges)
    return {
        "left": left,
        "right": right,
        "edges": [[left[a], right[b]] for a, b in edges],
        "weights": [rng.randint(-50, 50) for _ in edges],
    }


def dense_stable(doc: dict):
    """(n_left, n_right, adj best first, rank_right) for reference.stable_family."""
    lpos = {u: i for i, u in enumerate(doc["left"])}
    rpos = {v: i for i, v in enumerate(doc["right"])}
    adj = [[rpos[v] for v in doc["prefs"][u]] for u in doc["left"]]
    rank = [{lpos[u]: k for k, u in enumerate(doc["prefs"][v])} for v in doc["right"]]
    return len(lpos), len(rpos), adj, rank


def dense_weighted(doc: dict):
    """(n_left, n_right, edges, weights) for reference.weighted_family."""
    lpos = {u: i for i, u in enumerate(doc["left"])}
    rpos = {v: i for i, v in enumerate(doc["right"])}
    edges = [(lpos[u], rpos[v]) for u, v in doc["edges"]]
    return len(lpos), len(rpos), edges, list(doc["weights"])


def random_antimatroid_doc(rng: random.Random, ground_size: int) -> dict:
    """A random antimatroid over ground_size elements.

    Chains are grown one element at a time from random members and the result
    is closed under union, which keeps it accessible.  The benchmark keeps its
    own generator so that its inputs do not change when matchroid's
    ``random_antimatroid`` does.
    """
    ground = "abcdefgh"[:ground_size]
    masks = {0}
    for _ in range(rng.randint(1, 2 * ground_size)):
        base = rng.choice(sorted(masks))
        free = [i for i in range(ground_size) if not base >> i & 1]
        if free:
            masks.add(base | 1 << rng.choice(free))
    while True:
        extra = {x | y for x in masks for y in masks} - masks
        if not extra:
            break
        masks |= extra
    ordered = sorted(masks, key=lambda m: (m.bit_count(), m))
    return {
        "ground": list(ground),
        "sets": [[ground[i] for i in range(ground_size) if m >> i & 1] for m in ordered],
    }


def _induce_stable(rng: random.Random, i: int) -> Job:
    doc = stable_doc(rng, STABLE_SIDE, STABLE_EDGES)
    return Job(f"induce-stable/{i}", "induce", "stable", ["--kind", "stable"], doc,
               subsets=1 << STABLE_SIDE)


def _induce_weighted(rng: random.Random, i: int) -> Job:
    doc = weighted_doc(rng, WEIGHTED_SIDE, WEIGHTED_EDGES)
    return Job(f"induce-weighted/{i}", "induce", "weighted", ["--kind", "weighted"], doc,
               subsets=1 << WEIGHTED_SIDE)


def _roundtrip(rng: random.Random, i: int) -> Job:
    # one stable job for two weighted ones: with the two kinds in equal shares,
    # the median command would fall in the gap between their costs
    kind = ("stable", "weighted", "weighted")[i % 3]
    doc = random_antimatroid_doc(rng, ROUNDTRIP_GROUND)
    members = len(doc["sets"])
    # the sweep covers 2**(members - 1) subsets; the member check one per member
    return Job(f"roundtrip/{i}", "roundtrip", kind, ["--kind", kind], doc,
               subsets=(1 << (members - 1)) + members - 1)


def _oracle(rng: random.Random, i: int) -> Job:
    if i % 3 == 2:
        args = ["--kind", "weighted", "--trials", str(FUZZ_TRIALS),
                "--seed", str(rng.randrange(1 << 31))]
        return Job(f"oracle/{i}", "fuzz", "weighted", args, None)
    kind, (n, n_edges) = (("stable", ORACLE_STABLE), ("weighted", ORACLE_WEIGHTED))[i % 3]
    doc = (stable_doc if kind == "stable" else weighted_doc)(rng, n, n_edges)
    return Job(f"oracle/{i}", "oracle-check", kind, ["--kind", kind], doc,
               subsets=oracle_counts(doc, kind)[0])


def count_matchings(doc: dict) -> int:
    """Matchings of the document's graph, the empty one included."""
    lpos = {u: i for i, u in enumerate(doc["left"])}
    rpos = {v: i for i, v in enumerate(doc["right"])}
    adj: list[list[int]] = [[] for _ in lpos]
    for u, v in doc["edges"]:
        adj[lpos[u]].append(rpos[v])
    # ways[mask]: matchings of the left vertices seen so far covering exactly mask
    ways = {0: 1}
    for nbrs in adj:
        nxt = dict(ways)
        for mask, n in ways.items():
            for v in nbrs:
                if not mask >> v & 1:
                    nxt[mask | 1 << v] = nxt.get(mask | 1 << v, 0) + n
        ways = nxt
    return sum(ways.values())


def _stable_size_ok(job: Job) -> bool:
    lo, hi = STABLE_MEMBERS
    return lo <= len(reference.stable_family(*dense_stable(job.doc))) <= hi


def _weighted_size_ok(job: Job) -> bool:
    lo, hi = WEIGHTED_MEMBERS
    return lo <= len(reference.weighted_family(*dense_weighted(job.doc))) <= hi


def _oracle_size_ok(job: Job) -> bool:
    if job.command != "oracle-check" or job.kind != "weighted":
        return True
    lo, hi = ORACLE_MATCHINGS
    return lo <= count_matchings(job.doc) <= hi


MAKE = {"induce-stable": _induce_stable, "induce-weighted": _induce_weighted,
        "roundtrip": _roundtrip, "oracle": _oracle}
ACCEPT = {"induce-stable": _stable_size_ok, "induce-weighted": _weighted_size_ok,
          "roundtrip": lambda job: len(job.doc["sets"]) == ROUNDTRIP_MEMBERS,
          "oracle": _oracle_size_ok}


def probe_jobs(seed: int) -> list[Job]:
    """One small command of every kind on 4x4 instances and a 5-member family.

    The traced run adds them to each round, so that every layer is measured
    on every workload: a layer the workload itself does not run reads the
    probe's small cost instead of a constant zero.
    """
    rng = random.Random(f"probe:{seed}")
    family = random_antimatroid_doc(rng, 3)
    while len(family["sets"]) != 5:
        family = random_antimatroid_doc(rng, 3)
    jobs = [
        Job("probe/induce-stable", "induce", "stable", ["--kind", "stable"],
            stable_doc(rng, 4, 8)),
        Job("probe/induce-weighted", "induce", "weighted", ["--kind", "weighted"],
            weighted_doc(rng, 4, 8)),
        Job("probe/oracle-stable", "oracle-check", "stable", ["--kind", "stable"],
            stable_doc(rng, 4, 8)),
        Job("probe/oracle-weighted", "oracle-check", "weighted", ["--kind", "weighted"],
            weighted_doc(rng, 4, 8)),
        Job("probe/fuzz", "fuzz", "weighted",
            ["--kind", "weighted", "--trials", "2", "--seed", str(rng.randrange(1 << 31))], None),
    ]
    for kind in ("stable", "weighted"):
        jobs.append(Job(f"probe/roundtrip-{kind}", "roundtrip", kind, ["--kind", kind], family))
    return jobs


def _rng(workload: str, seed: int, i: int, draw: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}:{draw}")


def accepted_draws(workload: str, seed: int, count: int | None = None) -> list[int]:
    """For each of the first `count` jobs (the pool by default), the first
    draw whose input has the size the workload asks for; 0 where any will do."""
    make, accept = MAKE[workload], ACCEPT.get(workload)
    draws = []
    for i in range(POOL[workload] if count is None else count):
        draw = 0
        while accept and not accept(make(_rng(workload, seed, i, draw), i)):
            draw += 1
        draws.append(draw)
    return draws


def generate(workload: str, seed: int, draws: list[int]) -> list[Job]:
    """The workload's jobs for this seed, one per accepted draw; the same seed
    and draws give the same jobs."""
    make = MAKE[workload]
    return [make(_rng(workload, seed, i, draw), i) for i, draw in enumerate(draws)]


def write_inputs(jobs: list[Job], workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job.doc is not None:
            input_path(job, workdir).write_text(json.dumps(job.doc), encoding="utf-8")


def _stem(job: Job) -> str:
    return job.cid.replace("/", "_")


def input_path(job: Job, workdir: Path) -> Path:
    return workdir / f"{_stem(job)}.json"


def output_path(job: Job, workdir: Path) -> Path:
    """Where the command's JSON goes; fuzz prints to stdout and gets a directory."""
    return workdir / f"{_stem(job)}.out"


def argv(job: Job, workdir: Path) -> list[str]:
    head = [job.command] if job.doc is None else [job.command, str(input_path(job, workdir))]
    return head + job.args + ["--out", str(output_path(job, workdir))]


def oracle_counts(doc: dict, kind: str) -> tuple[int, int]:
    """(checked, skipped) subsets of an oracle-check run that finds no mismatch."""
    n = len(doc["left"])
    if kind == "stable":
        return 1 << n, 0
    lpos = {u: i for i, u in enumerate(doc["left"])}
    degree = [0] * n
    for u, _ in doc["edges"]:
        degree[lpos[u]] += 1
    checked = 0
    for mask in range(1 << n):
        if sum(degree[i] for i in range(n) if mask >> i & 1) <= ORACLE_LIMIT:
            checked += 1
    return checked, (1 << n) - checked


def fuzz_subsets(fuzz_module, seed: int, trials: int) -> int:
    """Subsets a weighted fuzz campaign evaluates: each trial's sweep plus the
    subsets it hands to the oracle.  Replays the campaign's own generator."""
    rng = random.Random(seed)
    total = 0
    for _ in range(trials):
        inst = fuzz_module.random_weighted_instance(rng)
        g = inst.graph
        checked, _ = oracle_counts({"left": list(g.left), "edges": list(g.edges)}, "weighted")
        total += (1 << len(g.left)) + checked
    return total


def expect(job: Job, fuzz_module) -> None:
    """Fill in the job's expected digest and, for fuzz, its subset count.
    Only the digest is kept, so memory does not grow with the commands run."""
    if job.expected_digest is not None:
        return
    if job.command == "induce":
        if job.kind == "stable":
            family = reference.stable_family(*dense_stable(job.doc))
        else:
            family = reference.weighted_family(*dense_weighted(job.doc))
        expected = reference.induce_doc(job.kind, job.doc["left"], job.doc["right"], family)
    elif job.command == "roundtrip":
        expected = reference.roundtrip_doc(job.kind, len(job.doc["sets"]))
    elif job.command == "oracle-check":
        expected = reference.oracle_doc(job.kind, *oracle_counts(job.doc, job.kind))
    else:
        seed = int(job.args[job.args.index("--seed") + 1])
        trials = int(job.args[job.args.index("--trials") + 1])
        expected = reference.fuzz_doc(job.kind, seed, trials)
        job.subsets = fuzz_subsets(fuzz_module, seed, trials)
    job.expected_digest = reference.digest(expected)

"""The traced run: each command replayed as the public matchroid calls the
CLI makes for it, in the same order, with a span around every call.

The replay builds the same output document as the CLI, so the run checks its
bytes against the same expected digest: a replay that skipped or changed
work would show as a failure.  Counts of the work done are kept next to the
spans, so that a later change can show which work it removed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

from . import workloads
from .trace import Tracer

SAMPLE_CALLS = 64  # per-call API timings: seeded subsets per instance


def superincreasing(weights) -> bool:
    """Positive weights, each above the sum of all smaller ones: the solver's
    greedy route.  Every other weight vector takes the augmenting-path route."""
    total = 0
    for w in sorted(weights):
        if w <= total:
            return False
        total += w
    return bool(weights)


def _dumps(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


class Replayer:
    def __init__(self, mr, tracer: Tracer):
        self.mr = mr  # the imported matchroid package
        self.t = tracer
        self.counts: Counter = Counter()

    def run(self, job: workloads.Job, workdir: Path) -> tuple[int, bytes]:
        """Replay one job; returns its exit code and output bytes."""
        path = workloads.input_path(job, workdir)
        with self.t.span(f"cli.{job.command}"):
            if job.command == "induce":
                rc, doc = self._induce(path, job.kind)
            elif job.command == "roundtrip":
                rc, doc = self._roundtrip(path, job.kind)
            elif job.command == "oracle-check":
                rc, doc = self._oracle_check(path, job.kind)
            else:
                args = job.args
                seed = int(args[args.index("--seed") + 1])
                trials = int(args[args.index("--trials") + 1])
                rc, doc = self._fuzz(seed, trials)
            with self.t.span("io.emit"):
                data = _dumps(doc)
                if job.command != "fuzz":
                    workloads.output_path(job, workdir).write_bytes(data)
        self.counts["io.out_bytes"] += len(data)
        return rc, data

    # -- shared steps ------------------------------------------------------

    def _load(self, path: Path, kind: str):
        io = self.mr.io
        with self.t.span("io.load"):
            if kind == "stable":
                return io.load_stable_instance(path)
            return io.load_weighted_instance(path)

    def _sweep(self, inst, kind: str):
        induced = self.mr.induced
        with self.t.span(f"induced.sweep.{kind}"):
            if kind == "stable":
                report = induced.enumerate_codomain_sm(inst)
            else:
                report = induced.enumerate_codomain_mm(inst)
        self.counts[f"induced.subsets.{kind}"] += 1 << len(inst.graph.left)
        self.counts[f"induced.members.{kind}"] += len(report.family)
        return report

    def _check(self, family):
        with self.t.span("antimatroids.check"):
            ok, diag = self.mr.antimatroids.is_antimatroid(family)
        m = len(family)
        self.counts["antimatroids.union_pairs"] += m * (m - 1) // 2
        return ok, diag

    def _mwm(self, inst, subset):
        route = "greedy" if superincreasing(inst.weights.values) else "augmenting"
        with self.t.span(f"weighted.mwm.{route}"):
            return self.mr.weighted.max_weight_matching(inst, subset)

    # -- commands ----------------------------------------------------------

    def _induce(self, path: Path, kind: str):
        io = self.mr.io
        inst = self._load(path, kind)
        report = self._sweep(inst, kind)
        ok, diag = self._check(report.family)  # check_theorem
        with self.t.span("io.emit"):
            doc = {
                "command": "induce",
                "kind": kind,
                "antimatroid": ok,
                "diagnostic": io.diagnostic_to_json(diag),
            }
            doc.update(io.report_to_json(report))
        return (0 if ok else 1), doc

    def _roundtrip(self, path: Path, kind: str):
        mr = self.mr
        with self.t.span("io.load"):
            family = mr.io.load_set_family(path)
        ok, diag = self._check(family)
        if not ok:
            return 1, {
                "command": "roundtrip",
                "antimatroid": False,
                "diagnostic": mr.io.diagnostic_to_json(diag),
            }
        with self.t.span("antimatroids.decoration"):
            deco = mr.antimatroids.build_decoration(family)
        with self.t.span("representation.build"):
            if kind == "stable":
                bundle = mr.representation.represent_stable(family, deco)
            else:
                bundle = mr.representation.represent_weighted(family, deco, "corrected")
        report = self._sweep(bundle.instance, kind)
        produced = report.family
        have, want = frozenset(produced.members), frozenset(family.members)
        equal = produced == family
        with self.t.span("representation.member_check"):
            member_check = True
            for member in deco.feasible_order:
                prefix: set[str] = set()
                u_subset = []
                for v in deco.chain_order[member]:
                    prefix.add(v)
                    u_subset.append(bundle.left_labels[frozenset(prefix)])
                # induced_map_sm / induced_map_mm, split into the solver call
                if kind == "stable":
                    with self.t.span("stable.da"):
                        m = mr.stable.deferred_acceptance(bundle.instance, u_subset)
                else:
                    m = self._mwm(bundle.instance, u_subset)
                if m.matched_right() != member:
                    member_check = False
                    break
        detail = {
            "kind": kind,
            "formula": "corrected" if kind == "weighted" else None,
            "members": len(family),
            "left_size": len(family) - 1,
            "equal": equal,
            "missing": [family.sorted_member(m) for m in sorted(want - have, key=family.sorted_member)],
            "extra": [family.sorted_member(m) for m in sorted(have - want, key=family.sorted_member)],
            "member_check": member_check,
        }
        return (0 if equal else 1), {"command": "roundtrip", "equal": equal, "report": detail}

    def _oracle_check(self, path: Path, kind: str):
        mr = self.mr
        limit = workloads.ORACLE_LIMIT
        inst = self._load(path, kind)
        g = inst.graph
        n = len(g.left)
        checked = skipped = mismatches = 0
        detail = []
        for u_mask in range(1 << n):
            subset = {g.left[i] for i in range(n) if u_mask >> i & 1}
            if kind == "weighted":
                if sum(1 for u, _ in g.edges if u in subset) > limit:
                    skipped += 1
                    continue
                solver = self._mwm(inst, subset)
                with self.t.span("weighted.oracle"):
                    oracle = mr.weighted.oracle_max_weight(inst, subset, limit)
                checked += 1
                if solver != oracle:
                    mismatches += 1
                    detail.append(
                        {
                            "subset": sorted(subset),
                            "solver": sorted(solver.pairs()),
                            "oracle": sorted(oracle.pairs()),
                        }
                    )
                continue
            with self.t.span("stable.restrict"):
                sub = mr.stable.restrict_instance(inst, subset | set(g.right))
            with self.t.span("stable.da"):
                m = mr.stable.deferred_acceptance(inst, subset)
            with self.t.span("stable.is_stable"):
                ok = mr.stable.is_stable(sub, m)
            if ok and len(sub.graph.edges) <= limit:
                # enumerate_stable_matchings, split into its two calls
                with self.t.span("graphs.enum_matchings"):
                    every = mr.graphs.enumerate_matchings(sub.graph, limit)
                with self.t.span("stable.is_stable"):
                    all_stable = [x for x in every if mr.stable.is_stable(sub, x)]
                self.counts["graphs.matchings"] += len(every)
                self.counts["stable.stable_matchings"] += len(all_stable)
                lefts = {s.matched_left() for s in all_stable}
                rights = {s.matched_right() for s in all_stable}
                ok = m in all_stable and len(lefts) <= 1 and len(rights) <= 1
            checked += 1
            if not ok:
                mismatches += 1
                detail.append({"subset": sorted(subset), "matching": sorted(m.pairs())})
        doc = {
            "command": "oracle-check",
            "kind": kind,
            "subsets_checked": checked,
            "subsets_skipped": skipped,
            "mismatches": mismatches,
            "detail": detail,
        }
        return (0 if mismatches == 0 else 1), doc

    def _fuzz(self, seed: int, trials: int):
        mr = self.mr
        limit = workloads.ORACLE_LIMIT
        rng = random.Random(seed)
        failures = 0
        for _ in range(trials):
            with self.t.span("fuzz.gen"):
                inst = mr.fuzz.random_weighted_instance(rng)
            self.counts["fuzz.instances"] += 1
            report = self._sweep(inst, "weighted")
            ok, _ = self._check(report.family)
            if not ok:
                failures += 1
                continue
            g = inst.graph
            n = len(g.left)
            for u_mask in range(1 << n):
                subset = {g.left[i] for i in range(n) if u_mask >> i & 1}
                if sum(1 for u, _ in g.edges if u in subset) > limit:
                    continue
                solver = self._mwm(inst, subset)
                with self.t.span("weighted.oracle"):
                    oracle = mr.weighted.oracle_max_weight(inst, subset, limit)
                if solver != oracle:
                    failures += 1
                    break
        doc = {
            "command": "fuzz",
            "kind": "weighted",
            "seed": seed,
            "trials": trials,
            "failures": failures,
            "counterexample_files": [],
        }
        return (1 if failures else 0), doc

    # -- per-call API timings ---------------------------------------------

    def sample(self, job: workloads.Job, workdir: Path, seed: int) -> None:
        """Time deferred_acceptance or max_weight_matching on seeded subsets
        of the job's instance (the represented instance for roundtrip)."""
        if job.doc is None:
            return
        mr = self.mr
        if job.command == "roundtrip":
            family = mr.io.load_set_family(workloads.input_path(job, workdir))
            if job.kind == "stable":
                inst = mr.representation.represent_stable(family).instance
            else:
                inst = mr.representation.represent_weighted(family).instance
        elif job.kind == "stable":
            inst = mr.io.load_stable_instance(workloads.input_path(job, workdir))
        else:
            inst = mr.io.load_weighted_instance(workloads.input_path(job, workdir))
        left = inst.graph.left
        rng = random.Random(f"{job.cid}:{seed}")
        subsets = [[u for u in left if rng.random() < 0.5] for _ in range(SAMPLE_CALLS)]
        for subset in subsets:
            if job.kind == "stable":
                with self.t.span("stable.da"):
                    mr.stable.deferred_acceptance(inst, subset)
            else:
                self._mwm(inst, subset)

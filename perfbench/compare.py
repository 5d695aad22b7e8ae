"""Compare two sets of benchmark results, parent and change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --run PARENT_ROOT CHANGE_ROOT

Result files hold one record per run, as ``run.py --results FILE`` appends
them.  Runs of the two sides are paired by workload and seed.  ``--run``
makes the pairs itself, 10 seeds on every workload of ``BENCHMARK.json`` at
its ``run_seconds``, and writes the records to ``.perfbench_out/compare/``:
both roots must hold identical ``perfbench/`` files, and the side that runs
first alternates from one seed to the next.

For every (end-to-end metric, workload) pair it prints one verdict:

* improved: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither side), and the medians differ by more than the
  parent's interquartile range;
* unresolved: the parent's own spread (interquartile range over median) is
  wider than the metric's bound, and not every change run beats every
  parent run;
* regressed: the change's median is worse than the parent's by more than
  the bound;
* no worse: otherwise.

``fail_rate`` (failed over attempted commands) regresses whenever the change
fails a larger share of its commands than the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    return [r for r in records if r["trace"] == 0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, dict]:
    """One verdict for paired runs: parent[i] and change[i] share a seed."""

    def beats(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if beats(c, p))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse = (cm - pm) / pm if better == "lower" else (pm - cm) / pm
    spread = (p3 - p1) / pm
    every_run_better = all(beats(c, p) for c in change for p in parent)
    stats = {"pairs": pairs, "wins": wins, "parent_median": pm, "change_median": cm,
             "parent_spread": spread, "worse_by": worse}
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and beats(cm, pm) and abs(cm - pm) > p3 - p1:
        return "improved", stats
    if spread > bound and not every_run_better:
        return "unresolved", stats
    if worse > bound:
        return "regressed", stats
    return "no worse", stats


def paired(parent: list[dict], change: list[dict]) -> dict[str, list[tuple[dict, dict]]]:
    by_key = {(r["workload"], r["seed"]): r for r in change}
    out: dict[str, list[tuple[dict, dict]]] = {}
    for r in parent:
        other = by_key.get((r["workload"], r["seed"]))
        if other is not None:
            out.setdefault(r["workload"], []).append((r, other))
    return out


def report(parent: list[dict], change: list[dict], spec: dict) -> list[tuple]:
    rows = []
    for workload, pairs in sorted(paired(parent, change).items()):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [a["metrics"][name]["value"] for a, _ in pairs]
            c = [b["metrics"][name]["value"] for _, b in pairs]
            word, stats = verdict(p, c, metric["better"], metric["bound"])
            rows.append((workload, name, word, stats))
        p_rate = sum(a["failed"] for a, _ in pairs) / sum(a["attempted"] for a, _ in pairs)
        c_rate = sum(b["failed"] for _, b in pairs) / sum(b["attempted"] for _, b in pairs)
        rows.append((workload, "fail_rate", "regressed" if c_rate > p_rate else "no worse",
                     {"pairs": len(pairs), "parent_median": p_rate, "change_median": c_rate}))
    return rows


def print_rows(rows: list[tuple]) -> None:
    print(f"{'workload':<16} {'metric':<14} {'parent':>12} {'change':>12} "
          f"{'wins':>6} {'spread':>7}  verdict")
    for workload, name, word, s in rows:
        wins = f"{s['wins']}/{s['pairs']}" if "wins" in s else f"-/{s['pairs']}"
        spread = f"{s['parent_spread']:.3f}" if "parent_spread" in s else "-"
        print(f"{workload:<16} {name:<14} {s['parent_median']:>12.6g} {s['change_median']:>12.6g} "
              f"{wins:>6} {spread:>7}  {word}")


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "perfbench").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pairs(roots: dict[str, Path], spec: dict) -> dict[str, Path]:
    """Alternate which side runs first from one seed to the next; append each
    side's records to .perfbench_out/compare/<side>.jsonl."""
    if tree_digest(roots["parent"]) != tree_digest(roots["change"]):
        raise SystemExit("error: the two roots hold different perfbench/ files")
    out = ROOT / ".perfbench_out" / "compare"
    out.mkdir(parents=True, exist_ok=True)
    files = {side: (out / f"{side}.jsonl").resolve() for side in roots}
    for path in files.values():
        path.write_text("")
    # seeds outermost, so that a slow spell of the machine falls on every
    # workload rather than on all runs of one
    for seed in range(MIN_PAIRS):
        for workload in [w["name"] for w in spec["workloads"]]:
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for side in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
                       "--results", str(files[side])]
                done = subprocess.run(cmd, cwd=roots[side], capture_output=True, text=True)
                if done.returncode != 0:
                    raise SystemExit(f"error: {side} run failed on {workload} seed {seed}:\n"
                                     f"{done.stderr}")
                print(f"{workload} seed {seed} {side}: done", file=sys.stderr)
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change benchmark results.")
    parser.add_argument("parent", type=Path, help="results file, or the parent root with --run")
    parser.add_argument("change", type=Path, help="results file, or the change root with --run")
    parser.add_argument("--run", action="store_true", help="run the pairs first")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.run:
        files = run_pairs({"parent": args.parent, "change": args.change}, spec)
        parent, change = load(files["parent"]), load(files["change"])
    else:
        parent, change = load(args.parent), load(args.change)
    print_rows(report(parent, change, spec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

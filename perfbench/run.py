"""The matchroid benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--results FILE]

Run from the repository root.  The package is imported from ``src/`` of that
root.  One process runs one workload: a single-threaded, closed-loop client
that starts the next command only when the previous one has finished.  Each
command is ``matchroid.cli.main(argv)`` on input files generated from the
seed, with ``--out`` in a scratch directory under the root.

``--trace 0`` runs the workload's commands until they have taken S seconds
and reports the end-to-end metrics.  Those timings are in reference seconds:
each command and each set-up is bracketed by a fixed calibration loop, and
its wall time is scaled by how much slower than its reference time the loop
ran at that moment (see ``calibrate``).  The raw wall times are printed
beside them.  ``--trace 1`` runs rounds over the
first few commands and a few small probe commands that reach every layer,
each command untraced and then replayed as the public calls it makes with a
span around each call, and reports per-layer metrics per round, the self
time of every layer, and the tracing overhead.  Every output is checked
against an expected exit code and SHA-256 computed without matchroid (see
``reference.py``), reading the output file line by line so that the check
holds less memory than the command did.  The last line of stdout is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import BinaryIO

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import reference, workloads  # noqa: E402
from perfbench.replay import Replayer  # noqa: E402
from perfbench.trace import Tracer, layer_table  # noqa: E402

SETUPS = 15  # set-ups per run; their median is setup_s
# The calibration loop (CAL_PASSES passes of unions over CAL_SETS) and the
# fastest time it took on the 2-core VM the bounds were set on.  A reference
# second is a wall second scaled by CAL_REF_S / (the loop's time around the
# timed work).
_cal_rng = random.Random(0)
CAL_SETS = [frozenset(_cal_rng.sample(range(64), 12)) for _ in range(200)]
CAL_PASSES = 3
CAL_REF_S = 0.026
TRACE_JOBS = 6  # jobs in one round of the traced run
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
VERDICTS = {
    "induce": ("antimatroid", True),
    "roundtrip": ("equal", True),
    "oracle-check": ("mismatches", 0),
    "fuzz": ("failures", 0),
}


class SetupError(RuntimeError):
    """The program under test could not be imported from the root's src/."""


def import_matchroid(src: Path):
    """(Re-)import matchroid and its CLI from src, timing included by the caller."""
    for name in [m for m in sys.modules if m == "matchroid" or m.startswith("matchroid.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    try:
        mr = importlib.import_module("matchroid")
        importlib.import_module("matchroid.cli")
    except ImportError as e:
        raise SetupError(f"cannot import matchroid from {src}: {e}") from e
    if not Path(mr.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"matchroid was imported from {mr.__file__}, not from {src}")
    return mr


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": commit_hash(ROOT),
        "seed": seed,
    }


def commit_hash(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least
    TAIL_BEYOND samples above it; the minimum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def calibrate() -> float:
    """Seconds a fixed pure-Python loop of frozenset unions, like the
    program's own set work, takes now.

    The host's other tenants slow this machine's cores by up to about 40%
    for seconds to minutes at a time, and slow the loop and the program
    alike.  Over repeats of one command on a busy host, dividing its wall
    time by this loop's time around it cut the commands' spread from
    0.26-0.42 to 0.07-0.15 of the median.  A change to the program moves
    the quotient in full, since the loop runs none of its code."""
    acc = 0
    t0 = time.perf_counter()
    for _ in range(CAL_PASSES):
        for a in CAL_SETS:
            for b in CAL_SETS[:60]:
                acc += len(a | b)
    return time.perf_counter() - t0


def timed(fn):
    """(fn's result, wall seconds, reference seconds), calibrating just
    before and just after fn."""
    before = calibrate()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, wall * CAL_REF_S / ((before + calibrate()) / 2)


def setup(workload: str, seed: int, draws: list[int], target: Path):
    """One timed set-up: import matchroid, generate the inputs from their
    accepted draws, write them to target.  Returns the wall and reference
    seconds, the imported package and the jobs."""

    def work():
        mr = import_matchroid(ROOT / "src")
        jobs = workloads.generate(workload, seed, draws)
        workloads.write_inputs(jobs, target)
        return mr, jobs

    (mr, jobs), wall, ref = timed(work)
    return wall, ref, mr, jobs


def check_output(job: workloads.Job, rc, output: BinaryIO | None) -> str | None:
    """None if the command met every expectation, else the reason it failed.

    The output is hashed line by line.  The verdict field is read from its
    own line: the CLI writes indented JSON, so a top-level key is a line
    that starts with exactly two spaces and the quoted key."""
    if rc != job.expected_rc:
        return f"exit code {rc}, expected {job.expected_rc}"
    if output is None:
        return "no output"
    field, want = VERDICTS[job.command]
    prefix = f'  "{field}": '.encode()
    h = hashlib.sha256()
    got = None
    for line in output:
        h.update(line)
        if line.startswith(prefix):
            got = line[len(prefix):].rstrip(b",\n")
    if h.hexdigest() != job.expected_digest:
        return "output digest differs from the expected one"
    if got is None or json.loads(got) != want:
        return f"{field} = {got!r}, expected {want!r}"
    return None


def run_command(mr, job: workloads.Job, workdir: Path) -> tuple[float, float, str | None]:
    """Run one command through the CLI; returns (wall seconds, reference
    seconds, failure reason).  The expected output is worked out after the
    command, outside its time."""
    out = workloads.output_path(job, workdir)
    if out.is_file():
        out.unlink()
    argv = workloads.argv(job, workdir)
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()

    def command():
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                return mr.cli.main(argv)
        except SystemExit as e:
            return e.code
        except Exception:
            traceback.print_exc()
            return None

    rc, wall, ref = timed(command)
    workloads.expect(job, mr.fuzz)
    if job.command == "fuzz":
        return wall, ref, check_output(job, rc, io.BytesIO(stdout.getvalue().encode("utf-8")))
    if not out.is_file():
        return wall, ref, check_output(job, rc, None)
    with open(out, "rb") as f:
        return wall, ref, check_output(job, rc, f)


def closed_loop(mr, jobs, workdir: Path, seconds: float, log, between=None):
    """Jobs in stream order, one at a time, until the commands have taken
    `seconds` in all; `between(busy)` runs after each command, outside its
    time.  Returns [(job, wall, reference seconds, failure reason)] in run
    order."""
    done = []
    busy = 0.0
    while busy < seconds:
        job = jobs[len(done) % len(jobs)]
        wall, ref, reason = run_command(mr, job, workdir)
        if reason:
            log(f"FAIL {job.cid}: {reason}")
        done.append((job, wall, ref, reason))
        busy += wall
        if between:
            between(busy)
    return done


def end_to_end(setups, done) -> tuple[dict, dict]:
    """The end-to-end metrics, in reference seconds, from the set-ups'
    (wall, reference) times and the closed loop's commands; the same
    figures in wall seconds go in the extra record."""
    subsets = sum(job.subsets for job, _, _, reason in done if reason is None)

    def times(setup_times, task_times):
        value, pct, n = tail(task_times)
        return {
            "setup_s": statistics.median(setup_times),
            "subsets_per_s": subsets / sum(task_times),
            "task_s.p50": statistics.median(task_times),
            "task_s.tail": value,
        }, pct, n

    metrics, pct, n = times([ref for _, ref in setups], [ref for _, _, ref, _ in done])
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall, _, _ = times([wall for wall, _ in setups], [wall for _, wall, _, _ in done])
    extra = {"task_s.tail": {"percentile": pct, "samples": n}, "wall": wall}
    return metrics, extra


def per_layer(mr, jobs, workdir: Path, seconds: float, seed: int, spans_path: Path, log):
    """Rounds over the stream's first TRACE_JOBS jobs plus the small probe
    jobs, each command untraced and then replayed traced, until the untraced
    ones have taken half of `seconds`; then the per-call samples.
    Alternating the two keeps slow drifts of the machine out of the overhead
    figure.  Every round does the same work, so metrics are reported per
    round and counts repeat exactly."""
    tracer = Tracer()
    replayer = Replayer(mr, tracer)
    probes = workloads.probe_jobs(seed)
    workloads.write_inputs(probes, workdir)
    round_jobs = jobs[:TRACE_JOBS] + probes
    failures = []
    rounds = 0
    untraced = traced = 0.0
    while untraced < seconds / 2:
        rounds += 1
        for job in round_jobs:
            wall, _, reason = run_command(mr, job, workdir)
            if reason:
                log(f"FAIL {job.cid}: {reason}")
            failures.append(reason)
            untraced += wall
            tracer.command = f"{job.cid}#{rounds}"
            first = len(tracer.spans)
            gc.collect()
            try:
                rc, data = replayer.run(job, workdir)
                reason = check_output(job, rc, io.BytesIO(data))
            except Exception:
                traceback.print_exc()
                reason = "replay raised"
            if reason:
                log(f"FAIL traced {job.cid}: {reason}")
            failures.append(reason)
            traced += tracer.spans[first].duration
    for job in jobs[:TRACE_JOBS]:
        tracer.command = f"sample/{job.cid}"
        with tracer.span("sample"):
            replayer.sample(job, workdir, seed)
    tracer.write(spans_path)

    table = layer_table(tracer.spans)

    counts = {name: n // rounds for name, n in replayer.counts.items()}

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0) / rounds

    def us_per_call(name):
        row = table.get(name)
        return 1e6 * row["total_s"] / row["calls"] if row else 0.0

    metrics = {
        "antimatroids.check_s": self_s("antimatroids.check"),
        "antimatroids.union_pairs": counts.get("antimatroids.union_pairs", 0),
        "antimatroids.decoration_s": self_s("antimatroids.decoration"),
        "representation.build_s": self_s("representation.build"),
        "stable.da_us_per_call": us_per_call("stable.da"),
        "weighted.mwm_us_per_call.augmenting": us_per_call("weighted.mwm.augmenting"),
        "weighted.mwm_us_per_call.greedy": us_per_call("weighted.mwm.greedy"),
        "stable.is_stable_s": self_s("stable.is_stable"),
        "stable.stable_matchings": counts.get("stable.stable_matchings", 0),
        "graphs.enum_matchings_s": self_s("graphs.enum_matchings"),
        "graphs.matchings": counts.get("graphs.matchings", 0),
        "weighted.oracle_s": self_s("weighted.oracle"),
        "io.load_s": self_s("io.load"),
        "io.emit_s": self_s("io.emit"),
        "io.out_bytes": counts.get("io.out_bytes", 0),
        "fuzz.gen_s": self_s("fuzz.gen"),
        "fuzz.instances": counts.get("fuzz.instances", 0),
        "trace.overhead_ratio": traced / untraced,
    }
    for kind in ("stable", "weighted"):
        sweep = self_s(f"induced.sweep.{kind}")
        subsets = counts.get(f"induced.subsets.{kind}", 0)
        metrics[f"induced.sweep_s.{kind}"] = sweep
        metrics[f"induced.subsets.{kind}"] = subsets
        metrics[f"induced.members.{kind}"] = counts.get(f"induced.members.{kind}", 0)
        metrics[f"induced.us_per_subset.{kind}"] = 1e6 * sweep / subsets if subsets else 0.0
    return metrics, table, failures, {"untraced_s": untraced, "traced_s": traced, "rounds": rounds}


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, help="append a full JSON record to this file")
    args = parser.parse_args(argv)

    def log(msg: str) -> None:
        print(msg, file=sys.stderr)

    env = environment(args.seed)
    nproc = env["nproc"] or 1
    if env["loadavg"][0] > 0.5 * nproc:
        log(f"warning: load average {env['loadavg'][0]:.2f} on {nproc} cores; "
            "the machine looks busy and timings may spread")
    units = load_units()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs = workdir / "inputs"
        # the search for inputs of the asked-for size stays out of set-up time
        draws = workloads.accepted_draws(args.workload, args.seed)
        *first_setup, mr, jobs = setup(args.workload, args.seed, draws, inputs)
        if args.trace:
            spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, table, failures, walls = per_layer(
                mr, jobs, inputs, args.seconds, args.seed, spans_path, log
            )
            extra = {"layers": table, **walls, "spans": str(spans_path.relative_to(ROOT))}
        else:
            setups = [tuple(first_setup)]

            def setup_again(busy: float) -> None:
                # the other set-ups are spread over the run, so that one slow
                # moment of the machine cannot set their median
                if len(setups) < SETUPS and busy >= len(setups) * args.seconds / SETUPS:
                    target = workdir / f"setup{len(setups)}"
                    setups.append(setup(args.workload, args.seed, draws, target)[:2])
                    shutil.rmtree(target)

            done = closed_loop(mr, jobs, inputs, args.seconds, log, setup_again)
            failures = [reason for *_, reason in done]
            metrics, extra = end_to_end(setups, done)
    except SetupError as e:
        log(f"error: {e}")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env["loadavg_end"] = list(os.getloadavg())
    attempted = len(failures)
    failed = sum(1 for reason in failures if reason)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        print(f"{'layer':<32} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for name, row in sorted(extra["layers"].items()):
            print(f"{name:<32} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
        print(f"trace overhead: traced {walls['traced_s']:.3f} s vs untraced "
              f"{walls['untraced_s']:.3f} s on the same commands; "
              f"per-layer metrics are per round of {TRACE_JOBS} commands and the "
              f"probes, {walls['rounds']} rounds")
    else:
        t = extra["task_s.tail"]
        print(f"task_s.tail is p{t['percentile']:.1f} of {t['samples']} commands")
        print("in wall seconds: " + ", ".join(
            f"{name} {value:.6g}" for name, value in extra["wall"].items()))
    print(f"fail_rate {failed / attempted:.4f} ratio ({failed} of {attempted} commands)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.results:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "env": env, **result, "extra": extra}
        with open(args.results, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

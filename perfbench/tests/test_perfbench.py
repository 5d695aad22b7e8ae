"""Tests of the benchmark itself: seeded inputs, output checks, self time,
the tail percentile and the compare verdicts."""

from __future__ import annotations

import hashlib
import io
import json
import random

import matchroid
import matchroid.cli  # noqa: F401  (run_command calls mr.cli.main)
import matchroid.fuzz  # noqa: F401
import pytest

from perfbench import compare, reference, run, workloads
from perfbench.replay import Replayer
from perfbench.trace import Span, Tracer, layer_table, self_times


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    draws = workloads.accepted_draws(workload, 7, count=3)
    first = workloads.generate(workload, 7, draws)
    again = workloads.generate(workload, 7, workloads.accepted_draws(workload, 7, count=3))
    other = workloads.generate(workload, 8, workloads.accepted_draws(workload, 8, count=3))
    assert [(j.cid, j.args, j.doc) for j in first] == [(j.cid, j.args, j.doc) for j in again]
    assert [(j.args, j.doc) for j in first] != [(j.args, j.doc) for j in other]


def test_inputs_have_the_asked_for_family_size():
    lo, hi = workloads.STABLE_MEMBERS
    draws = workloads.accepted_draws("induce-stable", 3, 2)
    for job in workloads.generate("induce-stable", 3, draws):
        assert lo <= len(reference.stable_family(*workloads.dense_stable(job.doc))) <= hi
    lo, hi = workloads.WEIGHTED_MEMBERS
    for job in workloads.generate("induce-weighted", 3, workloads.accepted_draws("induce-weighted", 3, 2)):
        assert lo <= len(reference.weighted_family(*workloads.dense_weighted(job.doc))) <= hi
    for job in workloads.generate("roundtrip", 3, workloads.accepted_draws("roundtrip", 3, 3)):
        assert len(job.doc["sets"]) == workloads.ROUNDTRIP_MEMBERS
    lo, hi = workloads.ORACLE_MATCHINGS
    for job in workloads.generate("oracle", 3, workloads.accepted_draws("oracle", 3, 6)):
        if job.command == "oracle-check" and job.kind == "weighted":
            assert lo <= workloads.count_matchings(job.doc) <= hi


def test_count_matchings_on_a_small_graph():
    # u1-v1, u1-v2, u2-v1: the empty matching, three single edges and {u1-v2, u2-v1}
    doc = {"left": ["u1", "u2"], "right": ["v1", "v2"],
           "edges": [["u1", "v1"], ["u1", "v2"], ["u2", "v1"]]}
    assert workloads.count_matchings(doc) == 5


def test_digest_hashes_the_cli_serialisation():
    doc = {"sets": [[f"v{i}", f"v{i + 1}"] for i in range(3000)], "ok": True, "none": None}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert reference.digest(doc) == hashlib.sha256(text.encode()).hexdigest()


def _small_jobs():
    rng = random.Random(11)
    return [
        workloads.Job("t/stable", "induce", "stable", ["--kind", "stable"],
                      workloads.stable_doc(rng, 5, 12)),
        workloads.Job("t/weighted", "induce", "weighted", ["--kind", "weighted"],
                      workloads.weighted_doc(rng, 5, 14)),
        workloads.Job("t/roundtrip", "roundtrip", "weighted", ["--kind", "weighted"],
                      workloads.random_antimatroid_doc(rng, 4)),
        workloads.Job("t/oracle", "oracle-check", "weighted", ["--kind", "weighted"],
                      workloads.weighted_doc(rng, 5, 14)),
    ]


def test_reference_outputs_match_the_program(tmp_path):
    jobs = _small_jobs()
    workloads.write_inputs(jobs, tmp_path)
    for job in jobs:
        *_, reason = run.run_command(matchroid, job, tmp_path)
        assert reason is None, (job.cid, reason)


def test_tampered_digest_counts_as_a_failure(tmp_path):
    job = _small_jobs()[0]
    workloads.write_inputs([job], tmp_path)
    job.expected_digest = reference.digest({"command": "induce", "tampered": True})
    *_, reason = run.run_command(matchroid, job, tmp_path)
    assert reason == "output digest differs from the expected one"
    done = [(job, 0.1, 0.1, reason), (job, 0.1, 0.1, None)]
    assert sum(1 for *_, r in done if r) == 1


def test_wrong_exit_code_counts_as_a_failure(tmp_path):
    job = _small_jobs()[0]
    workloads.write_inputs([job], tmp_path)
    job.expected_rc = 1
    *_, reason = run.run_command(matchroid, job, tmp_path)
    assert reason.startswith("exit code 0")


def test_probe_jobs_reach_every_layer(tmp_path):
    probes = workloads.probe_jobs(5)
    workloads.write_inputs(probes, tmp_path)
    tracer = Tracer()
    replayer = Replayer(matchroid, tracer)
    for job in probes:
        workloads.expect(job, matchroid.fuzz)
        rc, data = replayer.run(job, tmp_path)
        assert run.check_output(job, rc, io.BytesIO(data)) is None, job.cid
    names = {s.name for s in tracer.spans}
    assert names >= {
        "io.load", "io.emit", "induced.sweep.stable", "induced.sweep.weighted",
        "antimatroids.check", "antimatroids.decoration", "representation.build",
        "stable.da", "stable.is_stable", "graphs.enum_matchings", "weighted.oracle",
        "weighted.mwm.augmenting", "weighted.mwm.greedy", "fuzz.gen",
    }


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("cli", 0.0, 10.0, -1, "c0"),
        Span("load", 1.0, 4.0, 0, "c0"),
        Span("parse", 2.0, 3.0, 1, "c0"),
        Span("sweep", 5.0, 9.0, 0, "c0"),
        Span("cli", 20.0, 22.0, -1, "c1"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 2.0])
    table = layer_table(spans)
    assert table["cli"]["calls"] == 2
    assert table["cli"]["total_s"] == pytest.approx(12.0)
    assert table["cli"]["self_s"] == pytest.approx(5.0)


def test_tail_keeps_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 41)]  # 40 samples
    value, percentile, n = run.tail(samples)
    assert (value, percentile, n) == (30.0, 75.0, 40)
    assert sum(1 for s in samples if s > value) == 10


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.3 for x in parent]
    noisy = [1.0, 1.6, 0.7, 1.4, 0.8, 1.5, 0.6, 1.3, 0.9, 1.2]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, parent, "lower", 0.1)[0] == "no worse"
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent, faster, "higher", 0.1)[0] == "regressed"

import json
import random
from pathlib import Path

import pytest

from matchroid import cli

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out


def test_induce_stable(capsys):
    code, out = run(capsys, "induce", DATA / "prefs_3x3.json", "--kind", "stable")
    assert code == 0
    doc = json.loads(out)
    assert doc["antimatroid"] is True
    assert doc["family"]["sets"] == [
        [],
        ["v1"],
        ["v2"],
        ["v1", "v2"],
        ["v1", "v2", "v3"],
    ]
    assert doc["witnesses"]["v1,v2,v3"] == ["u1", "u2", "u3"]


def test_induce_weighted(capsys):
    code, out = run(capsys, "induce", DATA / "weights_3x2.json", "--kind", "weighted")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"]["sets"] == [[], ["v1"], ["v1", "v2"]]


def test_induce_byte_identical(capsys):
    _, first = run(capsys, "induce", DATA / "prefs_3x3.json", "--kind", "stable")
    _, second = run(capsys, "induce", DATA / "prefs_3x3.json", "--kind", "stable")
    assert first == second


def test_verify_family_failure(capsys):
    code, out = run(capsys, "verify-family", DATA / "family_missing_union.json")
    assert code == 1
    doc = json.loads(out)
    assert doc["antimatroid"] is False
    assert doc["diagnostic"]["union_closed"] is False
    assert doc["diagnostic"]["union_witness"] == [["v1"], ["v2"]]


def test_verify_family_success(capsys):
    code, out = run(capsys, "verify-family", DATA / "family_chain.json")
    assert code == 0
    assert json.loads(out)["antimatroid"] is True


def test_roundtrip_trivial(capsys):
    code, out = run(capsys, "roundtrip", DATA / "family_trivial.json", "--kind", "stable")
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_roundtrip_literal_fails(capsys):
    code, out = run(
        capsys, "roundtrip", DATA / "family_chain.json",
        "--kind", "weighted", "--formula", "literal",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["equal"] is False
    assert doc["report"]["extra"] == [["b"]]


def test_represent_then_induce_end_to_end(capsys, tmp_path):
    for kind in ("stable", "weighted"):
        out_file = tmp_path / f"rep-{kind}.json"
        code, _ = run(
            capsys, "represent", DATA / "family_chain.json",
            "--kind", kind, "--out", out_file,
        )
        assert code == 0
        code, out = run(capsys, "induce", out_file, "--kind", kind)
        assert code == 0
        doc = json.loads(out)
        assert doc["family"]["sets"] == [[], ["a"], ["a", "b"]]


def test_represent_rejects_non_antimatroid(capsys):
    code, out = run(
        capsys, "represent", DATA / "family_missing_union.json", "--kind", "stable"
    )
    assert code == 1
    assert json.loads(out)["antimatroid"] is False


def test_fuzz_clean(capsys):
    code, out = run(capsys, "fuzz", "--kind", "stable", "--trials", "20", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 20 and doc["failures"] == 0
    code, out = run(capsys, "fuzz", "--kind", "weighted", "--trials", "10", "--seed", "6")
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_fuzz_serializes_counterexamples(capsys, tmp_path, monkeypatch):
    from matchroid.fuzz import FuzzFailure
    from matchroid.stable import StableMatchingInstance
    from matchroid.graphs import BipartiteGraph

    inst = StableMatchingInstance(
        BipartiteGraph(["u"], ["v"], [("u", "v")]), {"u": ["v"], "v": ["u"]}
    )
    monkeypatch.setattr(
        cli, "fuzz_stable", lambda *a, **k: [FuzzFailure(0, "stable", "forced", inst)]
    )
    outdir = tmp_path / "ce"
    code, out = run(
        capsys, "fuzz", "--kind", "stable", "--trials", "1", "--out", outdir
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["failures"] == 1
    (path,) = doc["counterexample_files"]
    replay = json.loads(Path(path).read_text())
    assert replay["edges"] == [["u", "v"]]
    assert replay["_fuzz_reason"] == "forced"


def test_fuzz_stable_writes_an_oracle_counterexample(capsys, tmp_path, monkeypatch):
    from matchroid import stable
    from test_golden import free_right_0

    monkeypatch.setattr(stable, "_run_proposals", free_right_0(stable._run_proposals))
    code, out = run(capsys, "fuzz", "--kind", "stable", "--trials", "3", "--seed", "3",
                    "--out", tmp_path)
    assert code == 1
    doc = json.loads(out)
    assert doc["failures"] == len(doc["counterexample_files"]) > 0
    replay = json.loads(Path(doc["counterexample_files"][0]).read_text())
    assert "fails the oracle on subset" in replay["_fuzz_reason"]


def test_fuzz_weighted_reports_skipped_subsets_on_stderr(capsys):
    from matchroid.fuzz import random_weighted_instance

    argv = ["fuzz", "--kind", "weighted", "--trials", "3", "--seed", "6"]
    assert cli.main(argv) == 0
    full = capsys.readouterr()
    assert cli.main(argv + ["--oracle-limit", "0"]) == 0
    limited = capsys.readouterr()
    assert limited.out == full.out
    rng = random.Random(6)
    graphs = [random_weighted_instance(rng).graph for _ in range(3)]
    subsets = sum(1 << len(g.left) for g in graphs)
    # with limit 0 only the subsets of edgeless left vertices are compared
    compared = sum(1 << sum(not adj for adj in g._adj_left) for g in graphs)
    assert f"oracle limit 24 skipped 0 of {subsets} subsets" in full.err
    assert f"oracle limit 0 skipped {subsets - compared} of {subsets} subsets" in limited.err


def test_oracle_check_weighted(capsys):
    code, out = run(
        capsys, "oracle-check", DATA / "weights_3x2.json", "--kind", "weighted"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["subsets_checked"] == 8 and doc["mismatches"] == 0


def test_oracle_check_stable(capsys):
    code, out = run(capsys, "oracle-check", DATA / "prefs_3x3.json", "--kind", "stable")
    assert code == 0
    doc = json.loads(out)
    assert doc["subsets_checked"] == 8 and doc["mismatches"] == 0


def test_input_errors_exit_2(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    assert cli.main(["induce", str(missing), "--kind", "stable"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["induce", str(bad), "--kind", "stable"]) == 2
    capsys.readouterr()
    schema = tmp_path / "schema.json"
    schema.write_text('{"left": ["u"], "right": ["v"], "edges": []}')
    assert cli.main(["induce", str(schema), "--kind", "stable"]) == 2
    capsys.readouterr()


def test_sweep_limit_exit_2(capsys, tmp_path):
    left = [f"u{i}" for i in range(9)]
    doc = {
        "left": left,
        "right": ["v"],
        "edges": [],
        "prefs": {},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["induce", str(path), "--kind", "stable", "--sweep-limit", "8"]) == 2
    capsys.readouterr()


def test_duplicate_json_key_exits_2(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        '{"left": ["u1"], "right": ["v1"], "edges": [["u1", "v1"]],'
        ' "prefs": {"u1": ["v1"], "u1": ["v1"], "v1": ["u1"]}}'
    )
    assert cli.main(["induce", str(path), "--kind", "stable"]) == 2
    assert "duplicate key 'u1'" in capsys.readouterr().err


def test_negative_trials_exit_2(capsys):
    assert cli.main(["fuzz", "--kind", "weighted", "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials must be non-negative" in captured.err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["oracle-check", DATA / "weights_3x2.json", "--kind", "weighted", "--oracle-limit", "-3"],
         "--oracle-limit"),
        (["induce", DATA / "prefs_3x3.json", "--kind", "stable", "--sweep-limit", "-1"],
         "--sweep-limit"),
        (["fuzz", "--kind", "stable", "--trials", "4", "--oracle-limit", "-1"], "--oracle-limit"),
    ],
)
def test_negative_limits_exit_2(capsys, argv, flag):
    assert cli.main([str(a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be non-negative" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["induce", DATA / "prefs_3x3.json", "--kind", "stable", "--seed", "1"],
        ["induce", DATA / "prefs_3x3.json", "--kind", "stable", "--oracle-limit", "3"],
        ["verify-family", DATA / "family_chain.json", "--seed", "1"],
        ["verify-family", DATA / "family_chain.json", "--oracle-limit", "3"],
        ["verify-family", DATA / "family_chain.json", "--sweep-limit", "3"],
        ["represent", DATA / "family_chain.json", "--kind", "stable", "--seed", "1"],
        ["represent", DATA / "family_chain.json", "--kind", "stable", "--oracle-limit", "3"],
        ["represent", DATA / "family_chain.json", "--kind", "stable", "--sweep-limit", "3"],
        ["roundtrip", DATA / "family_chain.json", "--kind", "stable", "--seed", "1"],
        ["roundtrip", DATA / "family_chain.json", "--kind", "stable", "--oracle-limit", "3"],
        ["oracle-check", DATA / "prefs_3x3.json", "--kind", "stable", "--seed", "1"],
    ],
)
def test_options_a_command_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as e:
        cli.main([str(a) for a in argv])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_repeated_set_family_member_exits_2(capsys, tmp_path):
    path = tmp_path / "repeats.json"
    path.write_text('{"ground": ["a", "b"], "sets": [[], ["a", "a"], ["a"], ["a", "b"]]}')
    assert cli.main(["verify-family", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'sets[1]': lists an element twice" in captured.err


@pytest.mark.parametrize("weight", [" 2_000 ", "1e5", "1e5000000"])
def test_non_schema_weight_string_exits_2(capsys, tmp_path, weight):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(
        {"left": ["u"], "right": ["v"], "edges": [["u", "v"]], "weights": [weight]}
    ))
    assert cli.main(["induce", str(path), "--kind", "weighted"]) == 2
    assert "cannot parse weight" in capsys.readouterr().err


def test_out_file_holds_the_stdout_bytes(capsys, tmp_path):
    for name, kind in (("prefs_3x3.json", "stable"), ("weights_3x2.json", "weighted")):
        argv = ["induce", DATA / name, "--kind", kind]
        code, out = run(capsys, *argv)
        assert code == 0
        out_file = tmp_path / f"{kind}.json"
        assert run(capsys, *argv, "--out", out_file) == (0, "")
        assert out_file.read_bytes() == out.encode("utf-8")

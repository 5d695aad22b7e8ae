"""CLI stdout, byte for byte, against recorded outputs in tests/golden/.

Each case is one command on one demos/data file (plus two small fuzz
campaigns).  tests/golden/<case>.stdout holds its stdout and
tests/golden/exit_codes.json its exit code.  SIZED cases run induce and
oracle-check on inputs of the benchmark's sizes (tests/golden/inputs/), and
MISMATCH cases run with faulty solvers (the weighted one drops an edge from
each answer, the stable one frees right vertex 0), so that the mismatch
reports are pinned too; both carry their exit codes here.  After a
deliberate change to the output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from matchroid import cli, stable, weighted

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

INSTANCES = {"prefs_3x3": "stable", "weights_3x2": "weighted"}
FAMILIES = ("family_chain", "family_missing_union", "family_trivial")
VARIANTS = (["--kind", "stable"], ["--kind", "weighted"], ["--kind", "weighted", "--formula", "literal"])


def _cases() -> dict[str, list[str]]:
    cases = {}
    for stem, kind in INSTANCES.items():
        for command in ("induce", "oracle-check"):
            cases[f"{command}-{stem}"] = [command, f"demos/data/{stem}.json", "--kind", kind]
    for stem in FAMILIES:
        cases[f"verify-family-{stem}"] = ["verify-family", f"demos/data/{stem}.json"]
        for command in ("represent", "roundtrip"):
            for variant in VARIANTS:
                name = "-".join([command, *variant[1::2], stem])
                cases[name] = [command, f"demos/data/{stem}.json", *variant]
    for kind in ("stable", "weighted"):
        cases[f"fuzz-{kind}"] = ["fuzz", "--kind", kind, "--trials", "8", "--seed", "3"]
    return cases


CASES = _cases()

SIZED = {
    "induce-weighted_12x12": (["induce", "tests/golden/inputs/weighted_12x12.json",
                               "--kind", "weighted"], 0),
    "oracle-check-weighted_8x8": (["oracle-check", "tests/golden/inputs/weighted_8x8.json",
                                   "--kind", "weighted"], 0),
    "oracle-check-weighted_8x8-limit12": (["oracle-check", "tests/golden/inputs/weighted_8x8.json",
                                           "--kind", "weighted", "--oracle-limit", "12"], 0),
    "oracle-check-stable_7x7": (["oracle-check", "tests/golden/inputs/stable_7x7.json",
                                 "--kind", "stable"], 0),
    "oracle-check-stable_7x7-limit12": (["oracle-check", "tests/golden/inputs/stable_7x7.json",
                                         "--kind", "stable", "--oracle-limit", "12"], 0),
}
# OUT stands for the directory that receives the counterexample files
MISMATCH = {
    "mismatch-oracle-check-weights_3x2": (["oracle-check", "demos/data/weights_3x2.json",
                                           "--kind", "weighted"], 1),
    "mismatch-fuzz-weighted": (["fuzz", "--kind", "weighted", "--trials", "8", "--seed", "3",
                                "--out", "OUT"], 1),
    "mismatch-oracle-check-prefs_3x3": (["oracle-check", "demos/data/prefs_3x3.json",
                                         "--kind", "stable"], 1),
    "mismatch-oracle-check-stable_7x7-limit12": (["oracle-check",
                                                  "tests/golden/inputs/stable_7x7.json",
                                                  "--kind", "stable", "--oracle-limit", "12"], 1),
}


def run_case(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    argv = [str(ROOT / a) if a.startswith(("demos/", "tests/")) else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_golden(case):
    code, out = run_case(CASES[case])
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == exit_codes[case]
    assert out.encode("utf-8") == (GOLDEN / f"{case}.stdout").read_bytes()


@pytest.mark.parametrize("case", sorted(SIZED))
def test_benchmark_size_oracle_check_matches_golden(case):
    argv, expected_code = SIZED[case]
    code, out = run_case(argv)
    assert code == expected_code
    assert out.encode("utf-8") == (GOLDEN / f"{case}.stdout").read_bytes()


def free_right_0(run):
    """The proposal loop run, then right vertex 0 freed of its partner."""

    def faulty(dense, active, rng, state):
        newly = run(dense, active, rng, state)
        state[1][0] = -1
        return newly & ~1

    return faulty


def run_mismatch(argv: list[str], outdir: Path) -> tuple[int, str, dict[str, bytes]]:
    """Run argv with max_weight_matching's solver dropping the last edge of
    every answer and the stable proposal loop freeing right vertex 0 (the
    induced sweeps, which import their solvers by name, keep the real ones).

    Returns the exit code, the stdout with outdir written as OUT, and the
    counterexample files by name."""
    solve = weighted._solve_augmenting
    with mock.patch.object(weighted, "_solve_augmenting", lambda *a: solve(*a)[:-1]), \
            mock.patch.object(stable, "_run_proposals", free_right_0(stable._run_proposals)):
        code, out = run_case([str(outdir) if a == "OUT" else a for a in argv])
    files = {p.name: p.read_bytes() for p in sorted(outdir.glob("*.json"))}
    return code, out.replace(str(outdir), "OUT"), files


@pytest.mark.parametrize("case", sorted(MISMATCH))
def test_solver_mismatch_reports_match_golden(case, tmp_path):
    argv, expected_code = MISMATCH[case]
    code, out, files = run_mismatch(argv, tmp_path)
    assert code == expected_code
    assert out.encode("utf-8") == (GOLDEN / f"{case}.stdout").read_bytes()
    recorded = sorted(GOLDEN.glob(f"{case}-*.json"))
    assert [f"{case}-{name}" for name in files] == [p.name for p in recorded]
    assert list(files.values()) == [p.read_bytes() for p in recorded]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], out = run_case(argv)
        (GOLDEN / f"{case}.stdout").write_bytes(out.encode("utf-8"))
    for case, (argv, _) in sorted(SIZED.items()):
        (GOLDEN / f"{case}.stdout").write_bytes(run_case(argv)[1].encode("utf-8"))
    for case, (argv, _) in sorted(MISMATCH.items()):
        with tempfile.TemporaryDirectory() as outdir:
            _, out, files = run_mismatch(argv, Path(outdir))
        (GOLDEN / f"{case}.stdout").write_bytes(out.encode("utf-8"))
        for name, data in files.items():
            (GOLDEN / f"{case}-{name}").write_bytes(data)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

"""CLI stdout, byte for byte, against recorded outputs in tests/golden/.

Each case is one command on one demos/data file (plus two small fuzz
campaigns).  tests/golden/<case>.stdout holds its stdout and
tests/golden/exit_codes.json its exit code.  After a deliberate change to
the output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from matchroid import cli

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


def run_case(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    argv = [str(ROOT / a) if a.startswith("demos/") else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_golden(case):
    code, out = run_case(CASES[case])
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == exit_codes[case]
    assert out.encode("utf-8") == (GOLDEN / f"{case}.stdout").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], out = run_case(argv)
        (GOLDEN / f"{case}.stdout").write_bytes(out.encode("utf-8"))
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

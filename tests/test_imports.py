"""How the package imports: without the dataclasses machinery, and eagerly,
so that a second import of the package beside the first (as the benchmark
does before each set-up) leaves the first package's commands working."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from matchroid import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"


def test_importing_the_cli_does_not_import_dataclasses():
    code = ("import sys; before = set(sys.modules); import matchroid.cli; "
            "print('dataclasses' in set(sys.modules) - before)")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_reimport_leaves_the_first_cli_working(capsys, monkeypatch):
    for name in [m for m in sys.modules if m == "matchroid" or m.startswith("matchroid.")]:
        monkeypatch.delitem(sys.modules, name)
    assert importlib.import_module("matchroid.cli") is not cli
    code = cli.main(["roundtrip", str(DATA / "family_chain.json"), "--kind", "stable"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["equal"] is True

"""Command-line front end.

Every command reads one input file, writes one JSON document to stdout (or
--out), and exits 0 on success/verified, 1 on a property violation, 2 on an
input or limit error.  Progress chatter goes to stderr only, and output is
byte-identical across runs with the same inputs and seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .antimatroids import NotAntimatroidError, is_antimatroid
from .fuzz import fuzz_stable, fuzz_weighted
from .graphs import DEFAULT_ORACLE_LIMIT, OracleLimitError
from .induced import (
    DEFAULT_SWEEP_LIMIT,
    SweepLimitError,
    check_sweep_limit,
    check_theorem,
    enumerate_codomain_mm,
    enumerate_codomain_sm,
)
from . import io, stable, weighted
from .representation import represent_stable, represent_weighted, verify_roundtrip


def _emit(doc: dict, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fp:
            io.dump(doc, fp)
            fp.write("\n")
    else:
        sys.stdout.write(io.dumps(doc) + "\n")


def _load_instance(path: str, kind: str):
    if kind == "stable":
        return io.load_stable_instance(path)
    return io.load_weighted_instance(path)


def cmd_induce(args) -> int:
    inst = _load_instance(args.input, args.kind)
    if args.kind == "stable":
        report = enumerate_codomain_sm(inst, args.sweep_limit)
    else:
        report = enumerate_codomain_mm(inst, args.sweep_limit)
    ok, diag = check_theorem(report)
    doc = {
        "command": "induce",
        "kind": args.kind,
        "antimatroid": ok,
        "diagnostic": io.diagnostic_to_json(diag),
    }
    doc.update(io.report_to_json(report))
    _emit(doc, args.out)
    return 0 if ok else 1


def cmd_verify_family(args) -> int:
    family = io.load_set_family(args.input)
    ok, diag = is_antimatroid(family)
    _emit(
        {
            "command": "verify-family",
            "antimatroid": ok,
            "diagnostic": io.diagnostic_to_json(diag),
        },
        args.out,
    )
    return 0 if ok else 1


def cmd_represent(args) -> int:
    family = io.load_set_family(args.input)
    if args.kind == "stable":
        doc = io.stable_instance_to_json(represent_stable(family).instance)
    else:
        bundle = represent_weighted(family, formula=args.formula)
        doc = io.weighted_instance_to_json(bundle.instance)
    _emit(doc, args.out)
    return 0


def cmd_roundtrip(args) -> int:
    family = io.load_set_family(args.input)
    equal, detail = verify_roundtrip(
        family, args.kind, formula=args.formula, sweep_limit=args.sweep_limit
    )
    _emit({"command": "roundtrip", "equal": equal, "report": detail}, args.out)
    return 0 if equal else 1


def cmd_fuzz(args) -> int:
    limits = dict(sweep_limit=args.sweep_limit, oracle_limit=args.oracle_limit)
    if args.kind == "stable":
        failures = fuzz_stable(args.trials, args.seed, **limits)
    else:
        failures, skipped, subsets = fuzz_weighted(args.trials, args.seed, **limits)
        print(f"oracle limit {args.oracle_limit} skipped {skipped} of {subsets} subsets",
              file=sys.stderr)
    files = []
    if failures:
        outdir = Path(args.out or "counterexamples")
        outdir.mkdir(parents=True, exist_ok=True)
        for fail in failures:
            if fail.kind == "stable":
                doc = io.stable_instance_to_json(fail.instance)
            else:
                doc = io.weighted_instance_to_json(fail.instance)
            doc["_fuzz_reason"] = fail.reason
            path = outdir / f"fuzz-{fail.kind}-{args.seed}-{fail.trial:04d}.json"
            path.write_text(io.dumps(doc) + "\n")
            files.append(str(path))
            print(f"counterexample written: {path}", file=sys.stderr)
    _emit(
        {
            "command": "fuzz",
            "kind": args.kind,
            "seed": args.seed,
            "trials": args.trials,
            "failures": len(failures),
            "counterexample_files": files,
        },
        None,
    )
    return 1 if failures else 0


def cmd_oracle_check(args) -> int:
    inst = _load_instance(args.input, args.kind)
    n = len(inst.graph.left)
    check_sweep_limit(n, args.sweep_limit)
    against_oracle = stable.against_oracle if args.kind == "stable" else weighted.against_oracle
    checked = 0
    detail = []
    # stable yields (subset, matching, verdict), weighted (subset, solver, oracle)
    for subset, solver, oracle in against_oracle(inst, args.oracle_limit):
        checked += 1
        if args.kind == "stable" and not oracle:
            detail.append({"subset": sorted(subset), "matching": sorted(solver.pairs())})
        elif args.kind == "weighted" and solver != oracle:
            detail.append({"subset": sorted(subset), "solver": sorted(solver.pairs()),
                           "oracle": sorted(oracle.pairs())})
    skipped = (1 << n) - checked
    _emit(
        {
            "command": "oracle-check",
            "kind": args.kind,
            "subsets_checked": checked,
            "subsets_skipped": skipped,
            "mismatches": len(detail),
            "detail": detail,
        },
        args.out,
    )
    return 1 if detail else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchroid",
        description=(
            "Induced set families of stable and maximum-weight bipartite "
            "matchings, antimatroid verification, and matching "
            "representations of antimatroids."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--seed": dict(type=int, default=0, help="seed for fuzz campaigns"),
        "--oracle-limit": dict(type=int, default=DEFAULT_ORACLE_LIMIT,
                               help="max edges for exhaustive matching enumeration"),
        "--sweep-limit": dict(type=int, default=DEFAULT_SWEEP_LIMIT,
                              help="max left size n for 2**n subset sweeps"),
    }

    def common(p, *flags, kind=True, formula=False, needs_input=True):
        """The input file, --kind, --formula, the given options of `options`, --out."""
        if needs_input:
            p.add_argument("input", help="input JSON file")
        if kind:
            p.add_argument(
                "--kind", choices=("stable", "weighted"), required=True,
                help="instance kind",
            )
        if formula:
            p.add_argument(
                "--formula", choices=("corrected", "literal"), default="corrected",
                help="weight exponent layout for weighted representations",
            )
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.add_argument("--out", help="write the JSON document here instead of stdout")

    p = sub.add_parser("induce", help="enumerate the induced family of an instance")
    common(p, "--sweep-limit")
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("verify-family", help="check the antimatroid axioms on a family")
    common(p, kind=False)
    p.set_defaults(func=cmd_verify_family)

    p = sub.add_parser("represent", help="build a matching instance from an antimatroid")
    common(p, formula=True)
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("roundtrip", help="represent a family, then re-induce and compare")
    common(p, "--sweep-limit", formula=True)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("fuzz", help="random instances; failures are serialized")
    common(p, "--seed", "--oracle-limit", "--sweep-limit", needs_input=False)
    p.add_argument("--trials", type=int, default=100, help="number of random instances")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("oracle-check", help="cross-check the solver on every subset")
    common(p, "--oracle-limit", "--sweep-limit")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def _check_counts(args) -> None:
    """Reject a negative count or limit; a ValueError exits 2."""
    for flag in ("trials", "oracle_limit", "sweep_limit"):
        value = getattr(args, flag, 0)
        if value < 0:
            name = "--" + flag.replace("_", "-")
            raise ValueError(f"{name} must be non-negative, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_counts(args)
        try:
            return args.func(args)
        except NotAntimatroidError as e:  # from represent and roundtrip
            _emit({"command": args.command, "antimatroid": False,
                   "diagnostic": io.diagnostic_to_json(e.diagnostic)}, args.out)
            return 1
    except (io.SchemaError, OracleLimitError, SweepLimitError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

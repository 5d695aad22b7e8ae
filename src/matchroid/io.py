"""JSON schemas for graphs, instances, set families, and induced-family
reports.

Graph documents look like {"left": [...], "right": [...], "edges": [[u, v],
...]}; the edge array order defines the fixed edge ids.  Stable instances
add "prefs" (vertex id -> neighbors, best first); weighted instances add
"weights" (one integer, or one exact "1.25" or "1/3" string, per edge, same
order).  Set families look like {"ground": [...], "sets": [[...], ...]}.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Sequence
from fractions import Fraction
from pathlib import Path

from .antimatroids import AxiomDiagnostic, SetFamily
from .graphs import BipartiteGraph
from .induced import InducedFamilyReport
from .stable import StableMatchingInstance
from .weighted import ExactWeight, WeightedInstance


class SchemaError(ValueError):
    """An input document does not match the expected schema."""


def _expect_dict(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _string_list(obj, field: str) -> list[str]:
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise SchemaError(f"field {field!r}: expected a list of strings")
    return obj


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_json(path: str | Path):
    """Parse a JSON file; a key repeated within one object is a SchemaError."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    except SchemaError as e:
        raise SchemaError(f"{path}: {e}") from e


def parse_graph(obj) -> BipartiteGraph:
    doc = _expect_dict(obj, "graph")
    for key in ("left", "right", "edges"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    left = _string_list(doc["left"], "left")
    right = _string_list(doc["right"], "right")
    if not isinstance(doc["edges"], list):
        raise SchemaError("field 'edges': expected a list")
    edges = []
    for i, e in enumerate(doc["edges"]):
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(x, str) for x in e)
        ):
            raise SchemaError(f"field 'edges[{i}]': expected a [u, v] pair of strings")
        edges.append((e[0], e[1]))
    try:
        return BipartiteGraph(left, right, edges)
    except ValueError as e:
        raise SchemaError(str(e)) from e


def parse_stable_instance(obj) -> StableMatchingInstance:
    doc = _expect_dict(obj, "stable instance")
    graph = parse_graph(doc)
    if "prefs" not in doc:
        raise SchemaError("missing field 'prefs'")
    prefs = _expect_dict(doc["prefs"], "field 'prefs'")
    for r, order in prefs.items():
        _string_list(order, f"prefs[{r!r}]")
    try:
        return StableMatchingInstance(graph, prefs)
    except ValueError as e:
        raise SchemaError(str(e)) from e


_WEIGHT = re.compile(r"-?[0-9]+(\.[0-9]+)?|-?[0-9]+/[0-9]+")


def parse_weight(x, field: str) -> ExactWeight:
    """An integer, or a string "-?D(.D)?" or "-?D/D" (D: ASCII digits), exact."""
    if isinstance(x, bool):
        raise SchemaError(f"field {field!r}: expected an integer or string weight")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        if _WEIGHT.fullmatch(x):
            try:
                return Fraction(x)
            except ZeroDivisionError:
                pass
        raise SchemaError(f"field {field!r}: cannot parse weight {x!r}")
    raise SchemaError(
        f"field {field!r}: weights must be integers or decimal strings, got "
        f"{type(x).__name__}"
    )


def parse_weighted_instance(obj) -> WeightedInstance:
    doc = _expect_dict(obj, "weighted instance")
    graph = parse_graph(doc)
    if "weights" not in doc:
        raise SchemaError("missing field 'weights'")
    raw = doc["weights"]
    if not isinstance(raw, list):
        raise SchemaError("field 'weights': expected a list")
    weights = [parse_weight(x, f"weights[{i}]") for i, x in enumerate(raw)]
    try:
        return WeightedInstance(graph, weights)
    except ValueError as e:
        raise SchemaError(str(e)) from e


def parse_set_family(obj) -> SetFamily:
    doc = _expect_dict(obj, "set family")
    for key in ("ground", "sets"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    ground = _string_list(doc["ground"], "ground")
    if not isinstance(doc["sets"], list):
        raise SchemaError("field 'sets': expected a list")
    members = {}  # member -> the field that first lists it
    for i, s in enumerate(doc["sets"]):
        field = f"sets[{i}]"
        member = frozenset(_string_list(s, field))
        if len(member) != len(s):
            raise SchemaError(f"field {field!r}: lists an element twice")
        if member in members:
            raise SchemaError(f"field {field!r}: repeats {members[member]}")
        members[member] = field
    try:
        return SetFamily(ground, members)
    except ValueError as e:
        raise SchemaError(str(e)) from e


def load_stable_instance(path: str | Path) -> StableMatchingInstance:
    return parse_stable_instance(load_json(path))


def load_weighted_instance(path: str | Path) -> WeightedInstance:
    return parse_weighted_instance(load_json(path))


def load_set_family(path: str | Path) -> SetFamily:
    return parse_set_family(load_json(path))


# -- writers ---------------------------------------------------------------


def graph_to_json(g: BipartiteGraph) -> dict:
    return {
        "left": list(g.left),
        "right": list(g.right),
        "edges": [[u, v] for u, v in g.edges],
    }


def stable_instance_to_json(inst: StableMatchingInstance) -> dict:
    doc = graph_to_json(inst.graph)
    doc["prefs"] = {
        r: list(inst.prefs.ranking(r)) for r in inst.graph.left + inst.graph.right
    }
    return doc


def weight_to_json(v: ExactWeight):
    if isinstance(v, int):
        return v
    if v.denominator == 1:
        return int(v)
    num, den = v.numerator, v.denominator
    d = den
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d == 1:
        k = max(twos, fives)
        scaled = abs(num) * 10**k // den
        digits = str(scaled).rjust(k + 1, "0")
        sign = "-" if num < 0 else ""
        return f"{sign}{digits[:-k]}.{digits[-k:]}"
    return f"{num}/{den}"


def weighted_instance_to_json(inst: WeightedInstance) -> dict:
    doc = graph_to_json(inst.graph)
    doc["weights"] = [weight_to_json(v) for v in inst.weights]
    return doc


def _decoder(names: Sequence[str]) -> Callable[[int], list[str]]:
    """mask -> the names of its set bits (bit i for names[i]), in order.

    Looks the names up a byte of the mask at a time.
    """
    tables = []
    for lo in range(0, len(names), 8):
        part = names[lo : lo + 8]
        tables.append(
            (lo, [tuple(e for i, e in enumerate(part) if b >> i & 1) for b in range(1 << len(part))])
        )

    def decode(mask: int) -> list[str]:
        out = []
        for lo, table in tables:
            out += table[mask >> lo & 255]
        return out

    return decode


def family_to_json(f: SetFamily) -> dict:
    return {"ground": list(f.ground), "sets": list(map(_decoder(f.ground), f._sorted_masks))}


def diagnostic_to_json(diag: AxiomDiagnostic) -> dict:
    return {
        "has_empty_set": diag.has_empty,
        "accessible": diag.accessible,
        "accessibility_witness": (
            sorted(diag.accessibility_witness)
            if diag.accessibility_witness is not None
            else None
        ),
        "union_closed": diag.union_closed,
        "union_witness": (
            [sorted(diag.union_witness[0]), sorted(diag.union_witness[1])]
            if diag.union_witness is not None
            else None
        ),
        "reason": diag.reason(),
    }


def report_to_json(report: InducedFamilyReport) -> dict:
    """The family and, keyed by comma-joined member, each member's witness."""
    f = report.family
    member_names = _decoder(f.ground)
    witness_names = _decoder(report.instance.graph.left)
    witness_masks = report._witness_masks
    sets = []
    witnesses = {}
    for mask in f._sorted_masks:
        names = member_names(mask)
        sets.append(names)
        witnesses[",".join(names)] = witness_names(witness_masks[mask])
    return {"family": {"ground": list(f.ground), "sets": sets}, "witnesses": witnesses}


_encode_str = json.encoder.encode_basestring_ascii


def dumps(doc) -> str:
    """Exactly json.dumps(doc, indent=2, sort_keys=True), written faster.

    With an indent, json.dumps runs CPython's pure-Python encoder.  Here
    strings go through its C-level ASCII string encoder, and a list of
    strings is joined in one call (the encoder raises TypeError on any
    other item).  Anything else (numbers, booleans, None, dicts with
    non-string keys) is handed to json.dumps.
    """
    out: list[str] = []
    _dump(doc, "\n", out)
    return "".join(out)


def dump(doc, fp) -> None:
    """Write dumps(doc) to the text file fp piece by piece, never as one string."""
    out: list[str] = []
    _dump(doc, "\n", out)
    fp.writelines(out)


def _dump(obj, newline: str, out: list[str]) -> None:
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        try:  # a list of strings, in one join
            out.append("[" + inner + ("," + inner).join(map(_encode_str, obj)) + newline + "]")
            return
        except TypeError:
            pass
        sep = "[" + inner
        for x in obj:
            out.append(sep)
            _dump(x, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + _encode_str(key) + ": ")
            _dump(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline))

import json
import random
from fractions import Fraction
from io import StringIO

import pytest

from matchroid import io
from matchroid.antimatroids import SetFamily
from matchroid.induced import enumerate_codomain_sm


def test_graph_json_roundtrip(prefs_3x3):
    doc = io.graph_to_json(prefs_3x3.graph)
    assert doc["edges"][0] == ["u1", "v1"]
    assert io.parse_graph(doc) == prefs_3x3.graph


def test_stable_instance_json_roundtrip(prefs_3x3):
    doc = io.stable_instance_to_json(prefs_3x3)
    assert io.parse_stable_instance(doc) == prefs_3x3


def test_weighted_instance_json_roundtrip(weights_3x2):
    doc = io.weighted_instance_to_json(weights_3x2)
    assert doc["weights"] == [20, 8, 9, 15]
    assert io.parse_weighted_instance(doc) == weights_3x2


def test_family_json_roundtrip():
    fam = SetFamily(["b", "a"], [[], ["b"], ["b", "a"]])
    doc = io.family_to_json(fam)
    assert doc["ground"] == ["b", "a"]
    assert doc["sets"] == [[], ["b"], ["b", "a"]]  # members in ground order
    assert io.parse_set_family(doc) == fam


def test_weight_parsing_exact():
    assert io.parse_weight(7, "w") == 7
    assert io.parse_weight("1.25", "w") == Fraction(5, 4)
    assert io.parse_weight("-0.5", "w") == Fraction(-1, 2)
    assert io.parse_weight("3/2", "w") == Fraction(3, 2)
    with pytest.raises(io.SchemaError):
        io.parse_weight(1.25, "w")
    with pytest.raises(io.SchemaError):
        io.parse_weight(True, "w")
    with pytest.raises(io.SchemaError):
        io.parse_weight("abc", "w")


@pytest.mark.parametrize(
    "value,expected",
    [
        (5, 5),
        (Fraction(10, 2), 5),
        (Fraction(5, 4), "1.25"),
        (Fraction(-1, 2), "-0.5"),
        (Fraction(1, 3), "1/3"),
    ],
)
def test_weight_emission(value, expected):
    emitted = io.weight_to_json(value)
    assert emitted == expected
    assert io.parse_weight(emitted, "w") == value


def test_schema_errors(tmp_path):
    with pytest.raises(io.SchemaError, match="missing field 'edges'"):
        io.parse_graph({"left": [], "right": []})
    with pytest.raises(io.SchemaError, match="edges\\[0\\]"):
        io.parse_graph({"left": ["u"], "right": ["v"], "edges": [["u"]]})
    with pytest.raises(io.SchemaError, match="unknown vertex"):
        io.parse_graph({"left": ["u"], "right": ["v"], "edges": [["u", "w"]]})
    with pytest.raises(io.SchemaError, match="missing field 'prefs'"):
        io.parse_stable_instance({"left": [], "right": [], "edges": []})
    with pytest.raises(io.SchemaError, match="not a permutation"):
        io.parse_stable_instance(
            {
                "left": ["u"],
                "right": ["v"],
                "edges": [["u", "v"]],
                "prefs": {"u": [], "v": ["u"]},
            }
        )
    with pytest.raises(io.SchemaError, match="expected 1 weights"):
        io.parse_weighted_instance(
            {"left": ["u"], "right": ["v"], "edges": [["u", "v"]], "weights": [1, 2]}
        )
    with pytest.raises(io.SchemaError, match="ground"):
        io.parse_set_family({"sets": []})
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"left\": [,]\n}\n")
    with pytest.raises(io.SchemaError, match="line 2"):
        io.load_json(bad)


@pytest.mark.parametrize(
    "sets,message",
    [
        ([[], ["a", "a"], ["a"], ["a", "b"]], r"'sets\[1\]': lists an element twice"),
        ([[], ["a"], ["b", "a"], ["a", "b"]], r"'sets\[3\]': repeats sets\[2\]"),
    ],
)
def test_set_family_repeats_are_schema_errors(sets, message):
    with pytest.raises(io.SchemaError, match=message):
        io.parse_set_family({"ground": ["a", "b"], "sets": sets})


def test_report_json(prefs_3x3):
    report = enumerate_codomain_sm(prefs_3x3)
    doc = io.report_to_json(report)
    assert doc["family"]["ground"] == ["v1", "v2", "v3"]
    assert doc["witnesses"][""] == []
    assert doc["witnesses"]["v1,v2,v3"] == ["u1", "u2", "u3"]
    json.dumps(doc)  # serializable


def random_json_value(rng, depth):
    """A random document mixing every JSON type, tuples and int-keyed dicts."""

    def text():
        alphabet = "ab,\"\\/ \n\t\x00\x1f\x7fé€😀"
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))

    leaves = (
        text,
        lambda: rng.randint(-(10**20), 10**20),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice([0.0, -1.5, 1e300, 3.141592653589793, float("inf"), float("nan")]),
    )
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(leaves)()
    if roll < 0.45:
        return [text() for _ in range(rng.randint(0, 4))]
    if roll < 0.7:
        items = [random_json_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.2 else items
    if roll < 0.9:
        return {text(): random_json_value(rng, depth - 1) for _ in range(rng.randint(0, 4))}
    return {rng.randint(-5, 5): random_json_value(rng, depth - 1) for _ in range(rng.randint(0, 3))}


def test_dumps_equals_json_dumps_indented():
    rng = random.Random(7)
    for _ in range(3000):
        doc = random_json_value(rng, rng.randint(0, 5))
        assert io.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_dump_writes_the_dumps_text():
    rng = random.Random(8)
    for _ in range(500):
        doc = random_json_value(rng, rng.randint(0, 5))
        fp = StringIO()
        io.dump(doc, fp)
        assert fp.getvalue() == io.dumps(doc)


def test_weight_strings_are_strict():
    for text in (" 2_000 ", "2_000", "1e5", "1e5000000", "+1", "1.", ".5", "1/-3", "1/0", "٣", "", "1 / 3"):
        with pytest.raises(io.SchemaError, match="cannot parse weight"):
            io.parse_weight(text, "w")
    assert io.parse_weight("-12/8", "w") == Fraction(-3, 2)
    assert io.parse_weight("007", "w") == 7

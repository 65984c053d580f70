from fractions import Fraction

import pytest

from conftest import NON_CANONICAL_RATIONALS, p2_fan
from toricvanish.formats import (
    Instance,
    ParseError,
    canonical_json,
    divisor_from_obj,
    divisor_to_obj,
    fan_from_obj,
    fan_to_obj,
    fraction_from_str,
    fraction_to_str,
    instance_from_obj,
    instance_to_obj,
    load_divisor,
    load_fan,
    save,
)


def test_fraction_round_trip():
    for text, val in [("3", 3), ("-2", -2), ("1/2", Fraction(1, 2)),
                      ("-7/3", Fraction(-7, 3))]:
        assert fraction_from_str(text) == val
    assert fraction_to_str(Fraction(4, 2)) == "2"
    assert fraction_to_str(Fraction(-1, 2)) == "-1/2"


def test_fraction_negative_denominator():
    with pytest.raises(ParseError, match="denominator must be positive"):
        fraction_from_str("1/-2")


@pytest.mark.parametrize("text", NON_CANONICAL_RATIONALS)
def test_fraction_rejects_non_canonical_text(text):
    with pytest.raises(ParseError, match="malformed rational"):
        fraction_from_str(text)


def test_fan_round_trip(p2):
    obj = fan_to_obj(p2)
    again = fan_from_obj(obj)
    assert again == p2
    assert canonical_json(fan_to_obj(again)) == canonical_json(obj)


def test_fan_errors():
    base = fan_to_obj(p2_fan())
    bad = dict(base)
    bad["rays"] = [[2, 0], [0, 1], [-1, -1]]
    with pytest.raises(ParseError, match="not primitive"):
        fan_from_obj(bad)
    bad2 = dict(base)
    bad2["rays"] = [[1, 0], [0, 1], [-1, -1]]  # unsorted
    with pytest.raises(ParseError, match="sorted"):
        fan_from_obj(bad2)
    bad3 = dict(base)
    bad3["max_cones"] = [[0, 7]]
    with pytest.raises(ParseError, match="out of range"):
        fan_from_obj(bad3)


@pytest.mark.parametrize("field, value, message", [
    ("rank", True, "rank: expected a nonnegative integer"),
    ("rays", 5, "rays: expected a list"),
    ("rays", [[True, 0], [0, 1], [-1, -1]], r"rays\[0\]: expected 2 integers"),
    ("max_cones", {"0": [0, 1]}, "max_cones: expected a list"),
    ("max_cones", [[False, 1]], r"max_cones\[0\]: expected a list of ray indices"),
    ("max_cones", [[0, 0, 1], [0, 2], [1, 2]],
     r"max_cones\[0\]: indices must be strictly increasing"),
    ("max_cones", [[0, 1], [2, 0]], r"max_cones\[1\]: indices must be strictly increasing"),
    ("max_cones", [[0, 1], [0, 1], [0, 2], [1, 2]], r"max_cones\[1\]: cone listed twice"),
    ("rays", [[-1, -1], [0, 1], [0, 1]], "rays: duplicate rays"),
])
def test_fan_fields_are_type_checked(field, value, message):
    obj = dict(fan_to_obj(p2_fan()), **{field: value})
    with pytest.raises(ParseError, match=message):
        fan_from_obj(obj)


@pytest.mark.parametrize("field, value, message", [
    ("witness", 5, "witness: expected a list"),
    ("witness", [{"q": True, "m": [1, 0]}], r"witness\[0\].q: expected a string"),
    ("witness", [{"q": "1", "m": [True, 0]}], r"witness\[0\].m: expected 2 integers"),
    ("B", {"coeffs": 5}, "B: expected a coeffs list"),
    ("D", {"coeffs": [True, 0, 0]}, r"D\[0\]: expected a string"),
    ("mode", True, "mode: expected 1 or 2"),
    ("label", 5, "label: expected a string"),
])
def test_instance_fields_are_type_checked(field, value, message):
    p2 = p2_fan()
    inst = Instance("x", p2, (Fraction(0),) * 3, (Fraction(0),) * 3, 2, ())
    obj = dict(instance_to_obj(inst), **{field: value})
    with pytest.raises(ParseError, match=message):
        instance_from_obj(obj)


def test_divisor_round_trip(tmp_path, p2):
    coeffs = (Fraction(1, 2), Fraction(-3), Fraction(0))
    obj = divisor_to_obj(p2, coeffs)
    fan2, coeffs2 = divisor_from_obj(obj)
    assert fan2 == p2 and coeffs2 == coeffs
    path = tmp_path / "d.json"
    save(path, obj)
    fan3, coeffs3 = load_divisor(str(path))
    assert fan3 == p2 and coeffs3 == coeffs
    assert path.read_text() == canonical_json(obj)


def test_divisor_by_fan_path(tmp_path, p2):
    fan_path = tmp_path / "fan.json"
    save(fan_path, fan_to_obj(p2))
    div_path = tmp_path / "div.json"
    save(div_path, {"fan": "fan.json", "coeffs": ["1", "0", "0"]})
    fan, coeffs = load_divisor(str(div_path))
    assert fan == p2 and coeffs == (1, 0, 0)


def test_divisor_length_mismatch(p2):
    with pytest.raises(ParseError, match="expected 3 coefficients"):
        divisor_from_obj({"fan": fan_to_obj(p2), "coeffs": ["1"]})


def test_instance_round_trip(p2):
    inst = Instance("demo", p2,
                    (Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)),
                    (Fraction(0), Fraction(0), Fraction(-1)),
                    1, ((Fraction(1, 3), (-2, 1)),))
    obj = instance_to_obj(inst)
    again = instance_from_obj(obj)
    assert again == inst
    assert canonical_json(instance_to_obj(again)) == canonical_json(obj)


def test_instance_integer_divisor_required(p2):
    inst = Instance("demo", p2, (0, 0, 0), (Fraction(1, 2), 0, 0), 2, ())
    with pytest.raises(ParseError, match="integer coefficients"):
        instance_from_obj(instance_to_obj(inst))


def test_canonical_json_stable():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}\n'

"""JSON file formats for fans, divisors, instances and reports.

Formats are canonical: rays primitive and lexicographically sorted, each
cone's index list strictly increasing and no cone listed twice, rational
coefficients as "p" or "p/q" strings of ASCII digits with a positive
denominator. Serialization is byte-stable.
"""

import json
import os
import re
from fractions import Fraction
from math import gcd

from .fans import make_fan
from .record import Record


# a canonical rational: "p" or "p/q" in ASCII digits, each with an optional
# minus sign (a negative q is refused with its own message)
_RATIONAL = re.compile(r"-?[0-9]+(/-?[0-9]+)?")


class ParseError(ValueError):
    """Schema violation with a field diagnostic."""


def _is_int(x):
    """A JSON integer: true and false are not numbers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _list_field(obj, key, where):
    """obj[key], which must be a list; a missing key reads as the empty list."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{where}.{key}: expected a list")
    return value


def fraction_from_str(text, where="coefficient"):
    if _is_int(text):
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"{where}: expected a string like 'p' or 'p/q'")
    if not _RATIONAL.fullmatch(text):
        raise ParseError(f"{where}: malformed rational {text!r}")
    nums = [int(p) for p in text.split("/")]
    if len(nums) == 1:
        return Fraction(nums[0])
    if nums[1] <= 0:
        raise ParseError(f"{where}: denominator must be positive in {text!r}")
    return Fraction(nums[0], nums[1])


def fraction_to_str(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def fan_to_obj(fan):
    return {
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def fan_from_obj(obj, where="fan"):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    for key in ("rank", "rays", "max_cones"):
        if key not in obj:
            raise ParseError(f"{where}: missing field {key!r}")
    rank = obj["rank"]
    if not _is_int(rank) or rank < 0:
        raise ParseError(f"{where}.rank: expected a nonnegative integer")
    rays = []
    for i, ray in enumerate(_list_field(obj, "rays", where)):
        if not isinstance(ray, list) or len(ray) != rank or not all(map(_is_int, ray)):
            raise ParseError(f"{where}.rays[{i}]: expected {rank} integers")
        if gcd(*ray) != 1:
            raise ParseError(f"{where}.rays[{i}]: ray {ray} is not primitive")
        rays.append(tuple(ray))
    if rays != sorted(rays):
        raise ParseError(f"{where}.rays: rays must be lexicographically sorted")
    if len(set(rays)) != len(rays):
        raise ParseError(f"{where}.rays: duplicate rays")
    max_cones = []
    for i, cone in enumerate(_list_field(obj, "max_cones", where)):
        if not isinstance(cone, list) or not all(map(_is_int, cone)):
            raise ParseError(f"{where}.max_cones[{i}]: expected a list of ray indices")
        if any(x < 0 or x >= len(rays) for x in cone):
            raise ParseError(f"{where}.max_cones[{i}]: ray index out of range")
        if any(x >= y for x, y in zip(cone, cone[1:])):
            raise ParseError(f"{where}.max_cones[{i}]: indices must be strictly increasing")
        if tuple(cone) in max_cones:
            raise ParseError(f"{where}.max_cones[{i}]: cone listed twice")
        max_cones.append(tuple(cone))
    return make_fan(rank, rays, max_cones)


def divisor_to_obj(fan, coeffs):
    return {"coeffs": [fraction_to_str(c) for c in coeffs], "fan": fan_to_obj(fan)}


def _coeffs_from_obj(obj, fan, where):
    raw = obj.get("coeffs") if isinstance(obj, dict) else obj
    if not isinstance(raw, list):
        raise ParseError(f"{where}: expected a coeffs list")
    if len(raw) != len(fan.rays):
        raise ParseError(f"{where}: expected {len(fan.rays)} coefficients, "
                         f"got {len(raw)}")
    return tuple(fraction_from_str(x, f"{where}[{i}]") for i, x in enumerate(raw))


def divisor_from_obj(obj, base_dir=".", where="divisor"):
    if not isinstance(obj, dict) or "fan" not in obj:
        raise ParseError(f"{where}: missing 'fan'")
    fan_field = obj["fan"]
    if isinstance(fan_field, str):
        fan = load_fan(os.path.join(base_dir, fan_field))
    else:
        fan = fan_from_obj(fan_field, f"{where}.fan")
    coeffs = _coeffs_from_obj(obj, fan, f"{where}.coeffs")
    return fan, coeffs


class Instance(Record):
    # witness: ((q, m), ...) with D - K - B = sum q * div(m)
    __slots__ = ("label", "fan", "b_coeffs", "d_coeffs", "mode", "witness")


def instance_to_obj(inst):
    return {
        "label": inst.label,
        "fan": fan_to_obj(inst.fan),
        "B": {"coeffs": [fraction_to_str(c) for c in inst.b_coeffs]},
        "D": {"coeffs": [fraction_to_str(c) for c in inst.d_coeffs]},
        "mode": inst.mode,
        "witness": [{"q": fraction_to_str(q), "m": list(m)} for q, m in inst.witness],
    }


def instance_from_obj(obj, where="instance"):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    for key in ("fan", "B", "D", "mode"):
        if key not in obj:
            raise ParseError(f"{where}: missing field {key!r}")
    fan = fan_from_obj(obj["fan"], f"{where}.fan")
    b = _coeffs_from_obj(obj["B"], fan, f"{where}.B")
    d = _coeffs_from_obj(obj["D"], fan, f"{where}.D")
    mode = obj["mode"]
    if not _is_int(mode) or mode not in (1, 2):
        raise ParseError(f"{where}.mode: expected 1 or 2")
    label = obj.get("label", "unlabeled")
    if not isinstance(label, str):
        raise ParseError(f"{where}.label: expected a string")
    witness = []
    for i, w in enumerate(_list_field(obj, "witness", where)):
        if not isinstance(w, dict) or "q" not in w or "m" not in w:
            raise ParseError(f"{where}.witness[{i}]: expected q and m")
        m = w["m"]
        if not isinstance(m, list) or len(m) != fan.rank or not all(map(_is_int, m)):
            raise ParseError(f"{where}.witness[{i}].m: expected {fan.rank} integers")
        witness.append((fraction_from_str(w["q"], f"{where}.witness[{i}].q"),
                        tuple(m)))
    if any(x.denominator != 1 for x in d):
        raise ParseError(f"{where}.D: divisor must have integer coefficients")
    return Instance(label, fan, b, d, mode, tuple(witness))


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_fan(path):
    return fan_from_obj(load_json(path), path)


def load_divisor(path):
    return divisor_from_obj(load_json(path), os.path.dirname(path) or ".", path)


def load_instance(path):
    return instance_from_obj(load_json(path), path)


def save(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))

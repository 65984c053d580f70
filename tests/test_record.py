"""`record.Record` against frozen dataclass twins, and the modules a cold
start of `toricvanish verify` loads.

Each record class of the package is compared with a frozen dataclass built
here with the same name and fields: equality, hash, repr, frozenness,
keyword and default construction, and copy and pickle round-trips must match.
"""

import copy
import dataclasses
import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import toricvanish
from toricvanish.record import Record

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _record_classes():
    for info in pkgutil.iter_modules(toricvanish.__path__):
        importlib.import_module(f"toricvanish.{info.name}")
    return sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)


RECORDS = _record_classes()


def _twin(cls):
    """The frozen dataclass with the record's name, fields and defaults."""
    fields, defaults = cls._fields, cls._defaults
    first_default = len(fields) - len(defaults)
    spec = [(name, object) if i < first_default
            else (name, object, dataclasses.field(default=defaults[i - first_default]))
            for i, name in enumerate(fields)]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _values(cls, base=10):
    return tuple((base + i, f"v{i}") for i in range(len(cls._fields)))


def test_every_record_class_is_found():
    names = {cls.__name__ for cls in RECORDS}
    assert {"Fan", "IneqSystem", "CartierData", "Verdict", "StepCertificate",
            "NotQCartier"} <= names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_hash_and_repr_match_the_dataclass(cls):
    twin = _twin(cls)
    values = _values(cls)
    rec, same, other = cls(*values), cls(*values), cls(*_values(cls, 20))
    assert rec == same and not rec != same
    assert rec != other and not rec == other
    assert hash(rec) == hash(same) == hash(twin(*values))
    assert hash(rec) == hash(rec)  # the cached value
    assert repr(rec) == repr(twin(*values))
    # a different type with equal fields, or a plain tuple, is not equal
    assert rec != twin(*values) and twin(*values) != rec
    assert rec != values and not isinstance(rec, tuple)
    assert rec.__eq__(values) is NotImplemented
    with pytest.raises(TypeError):
        json.dumps(rec)


def test_two_record_types_with_equal_fields_differ():
    by_arity = {}
    for cls in RECORDS:
        by_arity.setdefault(len(cls._fields), []).append(cls)
    pairs = [group[:2] for group in by_arity.values() if len(group) > 1]
    assert pairs
    for a, b in pairs:
        values = _values(a)
        assert a(*values) != b(*values) and len({a(*values), b(*values)}) == 2


def test_unhashable_field_raises_as_the_dataclass_does():
    verdict = next(cls for cls in RECORDS if cls.__name__ == "Verdict")
    values = ("x", True, "ok", {}, {}, (), True, ())
    with pytest.raises(TypeError):
        hash(verdict(*values))
    with pytest.raises(TypeError):
        hash(_twin(verdict)(*values))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_are_frozen(cls):
    twin = _twin(cls)
    values = _values(cls)
    for obj in (cls(*values), twin(*values)):
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert getattr(obj, name) == values[cls._fields.index(name)]
        with pytest.raises(AttributeError):
            obj.not_a_field = 0


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_keyword_and_default_construction(cls):
    twin = _twin(cls)
    values = _values(cls)
    by_name = dict(zip(cls._fields, values))
    assert cls(**by_name) == cls(*values)
    assert cls(*values[:1], **dict(list(by_name.items())[1:])) == cls(*values)
    required = len(cls._fields) - len(cls._defaults)
    short = values[:required]
    assert repr(cls(*short)) == repr(twin(*short))
    # too many, unknown, repeated and missing arguments
    bad_calls = [(values + (0,), {}), (values, {"not_a_field": 0}),
                 (values, {cls._fields[0]: 0})]
    if required:
        bad_calls.append((values[:required - 1], {}))
    for args, kwargs in bad_calls:
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*args, **kwargs)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_round_trips(cls):
    rec = cls(*_values(cls))
    hash(rec)
    # the cached hash is not pickled: string hashes differ between processes
    assert b"_hash" not in pickle.dumps(rec, 0)
    copies = [copy.copy(rec), copy.deepcopy(rec)]
    copies += [pickle.loads(pickle.dumps(rec, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for dup in copies:
        assert type(dup) is cls and dup == rec and hash(dup) == hash(rec)
        assert repr(dup) == repr(rec)
        with pytest.raises(AttributeError):
            setattr(dup, cls._fields[0], 0)


def test_real_records_round_trip(p2):
    from toricvanish.divisors import cartier_data, positivity

    for rec in (p2, cartier_data(p2, (1, 0, 0)), positivity(p2, (1, 0, 0))):
        assert pickle.loads(pickle.dumps(rec)) == rec
        assert copy.copy(rec) == rec


def _modules_after(statement):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    script = f"import sys\n{statement}\nprint(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_import_verify_loads_no_generator_and_no_dataclasses():
    # measured against a bare interpreter, so what site loads is not counted
    new = _modules_after("import toricvanish.verify") - _modules_after("pass")
    assert "toricvanish.verify" in new and "toricvanish.mmp" in new
    unwanted = {"dataclasses", "inspect", "ast", "toricvanish.corpus", "toricvanish.cli"}
    assert not new & unwanted, sorted(new & unwanted)

"""`Record`, the base of every frozen value type of the package.

A subclass lists its fields in order as `__slots__`, and the defaults of its
trailing fields as `_defaults`. Records behave as frozen dataclasses do (same
equality, hash and repr), but no code is generated per class and the package
does not import `dataclasses`, which took a third of a cold start's import.
"""

from operator import attrgetter


class Record:
    __slots__ = ("_hash",)
    _defaults = ()

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__["__slots__"])
        # each slot's own setter: the class's __setattr__ raises
        cls._setters = tuple(cls.__dict__[name].__set__ for name in fields)
        # _values(record) is the tuple of field values
        if len(fields) == 1:
            one = attrgetter(*fields)
            cls._values = staticmethod(lambda record: (one(record),))
        else:
            cls._values = staticmethod(attrgetter(*fields))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for store, value in zip(self._setters, args):
            store(self, value)

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values in order, from keywords, defaults and args."""
        fields = cls._fields
        values = dict(zip(fields[len(fields) - len(cls._defaults):], cls._defaults))
        values.update(zip(fields, args))
        unexpected = set(kwargs) - set(fields[len(args):])
        values.update(kwargs)
        if len(args) > len(fields) or unexpected or len(values) < len(fields):
            raise TypeError(f"{cls.__name__} takes {fields}: got {len(args)} "
                            f"positional arguments and keywords {sorted(kwargs)}")
        return [values[name] for name in fields]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._values(self)))
            return self._hash

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        # rebuild through __init__: restoring slot state would assign fields
        return type(self), self._values(self)

"""Bases of the value classes.  A subclass names its fields in `__slots__`
and stores them in its own `__init__` with its slots' setters (`_setters`):
one call each in the classes built per term, formula or node, faster than
`object.__setattr__`, which looks the name up; `_setfields` in the others."""


class Record:
    """A mutable record: compared and printed field by field, unhashable."""
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for c in reversed(cls.__mro__)
                            for f in c.__dict__.get("__slots__", ()))
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def _setfields(self, *values):
        for put, value in zip(self._setters, values):
            put(self, value)

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._values() == other._values()

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """A frozen record, hashed as the tuple of its fields; assigning or
    deleting a field raises AttributeError."""
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

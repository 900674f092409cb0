"""Value records: the base of the library's record types.

A record names its fields in ``_fields``, which defaults to its
``__slots__``, and sets them in an explicit ``__init__``.  Records of one
type with equal fields are equal, a record of another type never is, and
the repr is ``Name(field=value, ...)``, as for a dataclass.  A ``Frozen``
record refuses attribute assignment and hashes as the tuple of its fields,
as a frozen dataclass does; a plain ``Record`` is mutable and unhashable.
The package imports no ``dataclasses``, which costs a fresh process more
than the rest of its start-up.
``fractions`` stands for that module wherever the package names
``fractions.Fraction``, in annotations and in code: the first read imports
it and keeps the name, so the package loads ``fractions`` (and the
``decimal`` and ``numbers`` it pulls in) only when a rational path runs.
"""

from itertools import repeat


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(cls.__dict__.get("__slots__", ()))

    def _fill(self, *values) -> None:
        """Set the fields, in ``_fields`` order, past any assignment guard."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """A record of these fields, in ``_fields`` order, past ``__init__``'s checks."""
        obj = object.__new__(cls)
        obj._fill(*values)
        return obj

    def _key(self) -> tuple:
        return tuple(map(getattr, repeat(self), self._fields))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which takes the
        # fields in _fields order
        return type(self), self._key()


class _Fractions:
    def __getattr__(self, name: str):
        import fractions as module

        value = getattr(module, name)
        setattr(self, name, value)
        return value


fractions = _Fractions()


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

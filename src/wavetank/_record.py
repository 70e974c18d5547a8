"""Bases of the records that are built as well as read: plain classes whose
fields are their ``__slots__`` not starting with an underscore.

They give what the records used from generated code, without generating
any at import: a repr, and copies and pickles rebuilt through ``__init__``
from the fields in order. Value equality and a hash belong to
:class:`Frozen` records only, whose fields cannot be assigned; the other
records hold arrays and compare by identity.
"""


class Record:
    """A record with ``__slots__`` fields, shown by their values."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Record):
    """A record whose fields are set once, by :meth:`_freeze` in ``__init__``."""

    __slots__ = ()

    def _freeze(self, *values) -> None:
        """Set the slots, in their order, to ``values``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

"""Immutable value base shared by the library's small record types.

A subclass names its fields in ``__slots__`` and assigns them once in its
own ``__init__`` through ``object.__setattr__``; after that every
assignment raises.  Equality, hashing and repr go over the field tuple in
slot order: ``hash`` is ``hash(field_tuple)`` and the repr is
``Name(field=value, ...)``, the forms ``dataclass(frozen=True)`` gives.
The package avoids ``dataclasses`` because importing it (and ``inspect``
with it) and generating the methods cost every command a noticeable part
of its start-up.
"""

from operator import attrgetter


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # attrgetter of a single name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # __init__ takes the fields positionally in slot order
        return type(self), self._values(self)

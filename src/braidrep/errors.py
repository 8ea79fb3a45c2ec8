"""Error types, the immutable value base and the integer check of the JSON
readers, shared across the package.

This module imports nothing from the package, so every module can import it.
"""

import operator


class InternalCheckError(Exception):
    """A self-check that should hold by theory failed (signals a transcription bug)."""


class ResourceGuardError(Exception):
    """A requested computation exceeds the configured desk-scale limits."""


def wire_index(x) -> int:
    """operator.index for a value read from JSON, where true and false are not
    integers: TypeError for a bool as for any other non-integer."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not an integer")
    return operator.index(x)


class Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``_fields`` and sets them in its own
    ``__init__`` with ``object.__setattr__``.  Two values are equal when they
    have the same class and equal fields; the hash is that of the tuple of
    fields, and the repr reads ``Name(field=value, ...)``.  Assigning or
    deleting an attribute raises AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # one attrgetter per class, bound in the closures below: it gives the
        # bare value for one field, the tuple of values for several
        values = operator.attrgetter(*cls._fields)
        single = len(cls._fields) == 1

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash((values(self),) if single else values(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

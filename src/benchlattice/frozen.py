"""The shared base of the public value types.

Each value type lists its fields in ``__slots__`` and writes its own
``__init__``, which checks its arguments and stores them with
``object.__setattr__``. This base supplies what the fields determine:
equality with values of the same class, a hash over the field tuple (which
raises where a field holds a ``dict``), ``Name(field=value, ...)`` reprs,
refusal of assignment and deletion, and copying and pickling through the
constructor. Declaring the types this way, rather than as frozen
dataclasses, keeps ``dataclasses`` and ``inspect`` out of every command's
start-up.
"""

from __future__ import annotations

from operator import attrgetter
from reprlib import recursive_repr
from typing import TypeVar

__all__ = ["Frozen", "replace"]

_F = TypeVar("_F", bound="Frozen")


def replace(obj: _F, /, **changes: object) -> _F:
    """A copy of the value ``obj`` with the named fields changed, built by
    its constructor, so the constructor's checks run again."""
    fields = {name: getattr(obj, name) for name in obj.__slots__}
    fields.update(changes)
    return obj.__class__(**fields)


class Frozen:
    """Base of an immutable value whose fields are its ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = cls.__slots__
        get = attrgetter(*names)
        # The field values as a tuple, for equality, hashing and pickling.
        cls._values = property(get if len(names) > 1 else lambda self: (get(self),))
        cls.__match_args__ = names

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    @recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return self.__class__, self._values

    __replace__ = replace

"""Immutable records: the base of the package's result types.

A record names its fields in ``__slots__`` and writes them in its own
``__init__`` through ``_set``; after that every assignment or deletion raises
AttributeError.  It compares, hashes, prints and pickles by the tuple of its
fields, in ``__slots__`` order, as a frozen dataclass with those fields
would, without the cost of importing ``dataclasses``.  ``pickle``, ``copy``
and ``deepcopy`` rebuild a record by calling its class on its fields, so the
checks of its ``__init__`` run again.  Records accept weak references.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__  # writes a field past the frozen __setattr__


class Record:
    __slots__ = ("__weakref__",)

    def __init_subclass__(cls) -> None:
        names = cls.__match_args__ = cls.__slots__
        get = attrgetter(*names)
        if len(names) > 1:
            cls._values = staticmethod(get)
            return
        # One field: ``get`` returns the field, not a tuple, so == and hash
        # call it directly rather than through the lambda that wraps it.
        cls._values = staticmethod(lambda r: (get(r),))

        def __eq__(self, other: object) -> bool:
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self) -> int:
            return hash((get(self),))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._values(self))
        shown = ", ".join(f"{name}={value!r}" for name, value in fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

"""Immutable records: the base of the package's result types.

A record names its fields in ``__slots__``.  ``Record.__init__`` binds its
arguments to them as a function binds its parameters: by position, then by
keyword, with the trailing fields defaulting to the class tuple
``_defaults``; a missing, extra, unknown or repeated field raises TypeError.
It alone writes a field, through ``_set``; after that every assignment or
deletion raises AttributeError.  A record that checks its fields keeps its
own ``__init__`` and passes the checked values to ``super().__init__``; for
the others ``help()`` shows the signature ``(*args, **kwargs)``.  A record
compares, hashes, prints and pickles by the tuple of its fields, in
``__slots__`` order, as a frozen dataclass with those fields would, without
the cost of importing ``dataclasses``.  ``pickle``, ``copy`` and
``deepcopy`` rebuild a record by calling its class on its fields, so the
checks of its ``__init__`` run again.  Records accept weak references.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__  # writes a field past the frozen __setattr__


class Record:
    __slots__ = ("__weakref__",)
    _defaults: tuple = ()  # the values of the last len(_defaults) fields

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

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values that ``args`` and ``kwargs`` give, in order."""
        names, defaults, call = cls.__slots__, cls._defaults, f"{cls.__qualname__}()"
        if len(args) > len(names):
            raise TypeError(f"{call} takes {len(names)} fields but {len(args)} were given")
        given = dict(zip(names, args))
        for name in kwargs:
            if name in given:
                raise TypeError(f"{call} got multiple values for field {name!r}")
            if name not in names:
                raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
        given.update(kwargs)
        bound = dict(zip(names[len(names) - len(defaults):], defaults), **given)
        missing = [name for name in names if name not in bound]
        if missing:
            raise TypeError(f"{call} missing field {missing[0]!r}")
        return [bound[name] for name in names]

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

"""The bases of the package's small value records, whose classes are built
without generating code.

A `Record` is declared as a frozen dataclass would be, by annotating its
fields in the class body; its methods serve every record from the field
names alone.  The records built in bulk (`FeatureElement`,
`ProtectedTemplate`, `LeakSet`, `PtView`) are `SlotRecord`s instead,
whose fields are their `__slots__` and which write out their own
`__init__`, `__eq__` and `__hash__`.
"""

from __future__ import annotations

from operator import itemgetter


def _refuse_assignment(self, name, value=None):
    """`__setattr__` and `__delattr__` of a frozen record."""
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or "
                         f"delete {name!r}")


def _repr(self, names) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
    return f"{type(self).__qualname__}({shown})"


class SlotRecord:
    """A frozen record of the fields its `__slots__` name.

    A subclass's `__init__` sets each slot through the slot's own setter
    (`Class.field.__set__`), since assignment raises `AttributeError`; its
    `__eq__` and `__hash__` compare the tuple of its fields.  A slot record
    pickles as a call of its class on its fields.
    """

    __slots__ = ()
    __setattr__ = __delattr__ = _refuse_assignment

    def __repr__(self) -> str:
        return _repr(self, self.__slots__)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Record:
    """A frozen record of the fields its class body annotates, in order,
    after those of its bases; a value in the class body is the field's
    default.

    `_validate`, where a subclass defines it, runs once the fields are set,
    so that `replace` validates again.  A record equals another of its
    class with equal fields and hashes by its field values; its repr lists
    the fields.  Assigning to a record raises `AttributeError`.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        # the values that equality and hashing compare, read at C speed
        cls._key = itemgetter(*cls._fields)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields
                         if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        cls, names, defaults = type(self), self._fields, self._defaults
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, "
                            f"got {len(args)}")
        values = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in defaults:
                values[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__name__} needs the field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unknown or repeated "
                            f"field(s) {sorted(kwargs)}")
        self.__dict__.update(values)
        self._validate()

    def _validate(self):
        pass

    def replace(self, **changes):
        """A copy with `changes` to some fields, validated again."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields},
                             **changes})

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self.__dict__) == other._key(other.__dict__)

    def __hash__(self):
        return hash(self._key(self.__dict__))

    def __repr__(self) -> str:
        return _repr(self, self._fields)

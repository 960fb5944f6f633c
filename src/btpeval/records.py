"""The base of the package's small value records, whose classes are built
without generating code.

A `Record` is declared as a frozen dataclass would be, by annotating its
fields in the class body; its methods serve every record from the field
names alone.
"""

from __future__ import annotations

from operator import itemgetter


class Record:
    """A frozen record of the fields its class body annotates, in order,
    after those of its bases; a value in the class body is the field's
    default.

    `_validate`, where a subclass defines it, runs once the fields are set,
    so that `replace` and a pickle validate again.  A record equals another
    of its class with equal fields and hashes by its field values; its repr
    lists the fields.  Assigning to a record raises `AttributeError`.
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

    def __reduce__(self):   # numpy's pickle of an array drops its read-only flag
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A copy with `changes` to some fields, validated again."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields},
                             **changes})

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or "
                             f"delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self.__dict__) == other._key(other.__dict__)

    def __hash__(self):
        return hash(self._key(self.__dict__))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

"""Plain record classes: each names its fields once, and nothing is generated.

A record lists its fields in ``_fields``; a record without a cached property
also makes that tuple its ``__slots__`` (``__slots__ = _fields = (...)``), so
it keeps no ``__dict__``. ``Record`` gives it a positional or keyword
``__init__`` (a missing field takes its value from ``_defaults``), then runs
``__post_init__``, and compares and prints the fields not named in
``_uncompared``. A mutable record is unhashable; a ``FrozenRecord`` refuses
assignment and hashes over its compared fields.
"""


class Record:
    __slots__ = ()
    _fields = ()
    _defaults = {}  # field -> value shared by every instance (immutable values only)
    _uncompared = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{type(self).__name__}: unexpected or repeated field {name!r}")
            values[name] = value
        for name in fields:
            if name in values:
                value = values[name]
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} needs the field {name!r}")
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Validation hook, run after every field is set."""

    def _compared(self):
        return tuple(getattr(self, name) for name in self._fields if name not in self._uncompared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields
                          if name not in self._uncompared)
        return f"{type(self).__name__}({shown})"


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def __hash__(self):
        return hash(self._compared())

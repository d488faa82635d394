"""Frozen value classes, as ``@dataclass(frozen=True)`` makes them, without
``dataclasses``.

Importing ``dataclasses`` loads ``inspect`` (and with it ``ast``, ``dis``
and ``tokenize``), and each decorated class compiles generated source for
its methods as it is defined; together that is tens of milliseconds of every
CLI start, which answers one query per process.  ``@frozen`` compiles
nothing at import: equality and hashing take the tuple of field values, read
in C by ``operator.attrgetter``, and every record class starts on one shared
``__init__``.  A class's first construction compiles its own
``__init__(self, <fields>)``, one ``object.__setattr__`` per field and then
the class's ``__post_init__``, and installs it, so Python binds the
arguments itself; binding them from ``*args, **kwargs`` cost more than the
rest of building a small record.  A process compiles only the classes it
builds, each once.  The fields are the names in the class's own
annotations, in order, and each is required; every record has the one
generated repr.  Hashes are ``hash(field tuple)``, as frozen dataclasses
give, so no set or dict order depends on the choice.  A record holds its
hash once taken, so a dict lookup rebuilds no field tuple; a record with an
unhashable field holds none and raises ``TypeError`` on every call.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting a field of a frozen record."""


# Setting each field through object.__setattr__ keeps the instance's values
# inline; touching self.__dict__ would build a dict per instance, which costs
# memory and makes every later attribute read slower.
_object_setattr = object.__setattr__
_HELPERS = ("self", "_set", "_post_init")     # names the compiled __init__ reads


def _init(self, *args, **kwargs):
    # a class's first construction: compile its own __init__, which then
    # stands in for this one, and build the instance with it
    cls = type(self)
    names, post_init = cls.__record__
    body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    if post_init is not None:
        body += "\n    _post_init(self)"
    namespace = {"_set": _object_setattr, "_post_init": post_init}
    exec(f"def __init__({', '.join(('self',) + names)}):{body or ' pass'}", namespace)
    init = cls.__init__ = namespace["__init__"]
    init.__qualname__, init.__module__ = f"{cls.__qualname__}.__init__", cls.__module__
    init(self, *args, **kwargs)


def _repr(self) -> str:
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in type(self).__record__[0])
    return f"{type(self).__qualname__}({fields})"


def _getstate(self) -> dict:
    # the fields without the held hash, which a str field makes another
    # process's when pickled
    return {name: getattr(self, name) for name in self.__record__[0]}


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen(cls: type) -> type:
    """Make ``cls`` an immutable record of the fields it annotates."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    clashes = [n for n in names if n in _HELPERS]
    if clashes:
        raise TypeError(f"{cls.__name__} cannot have a field named {clashes[0]!r}")
    cls.__record__ = (names, getattr(cls, "__post_init__", None))
    # attrgetter of one name returns the bare value, not a 1-tuple: it
    # compares as its 1-tuple does, and is hashed as one
    fields = attrgetter(*names) if names else lambda obj: ()
    single = len(names) == 1

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # identity first, as a tuple compares its items, so a record
            # holding a large table equals itself at once
            a, b = fields(self), fields(other)
            return a is b or a == b
        return NotImplemented

    def __hash__(self):
        held = self._record_hash
        if held is None:
            held = hash((fields(self),) if single else fields(self))
            _object_setattr(self, "_record_hash", held)
        return held

    # an instance holds its hash once taken; the class's None stands in
    # until then, so the first call needs no exception
    cls._record_hash = None
    cls.__init__, cls.__eq__, cls.__hash__ = _init, __eq__, __hash__
    cls.__getstate__ = _getstate
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    cls.__repr__ = _repr
    return cls

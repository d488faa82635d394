"""Frozen value classes, as ``@dataclass(frozen=True)`` makes them, without
``dataclasses``.

Importing ``dataclasses`` loads ``inspect`` (and with it ``ast``, ``dis``
and ``tokenize``), and each decorated class compiles generated source for
its methods; together that is tens of milliseconds of every CLI start,
which answers one query per process.  ``@frozen`` compiles nothing: every
record shares one ``__init__``, and equality and hashing take the tuple of
field values, read in C by ``operator.attrgetter``.  The fields are the
names in the class's own annotations, in order, and each is required;
every record has the one generated repr.  Hashes are ``hash(field
tuple)``, as frozen dataclasses give, so no set or dict order depends on
the choice.  A record holds its hash once taken, so a dict lookup rebuilds
no field tuple; a record with an unhashable field holds none and raises
``TypeError`` on every call.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting a field of a frozen record."""


def _bind(cls: type, args: tuple, kwargs: dict) -> tuple:
    """The field values, in order, for a call with ``args`` and ``kwargs``."""
    names, _ = cls.__record__
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments "
                        f"but {len(args)} were given")
    bound = dict(zip(names, args))
    for name, value in kwargs.items():
        if name in bound or name not in names:
            problem = "multiple values for" if name in bound else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        bound[name] = value
    try:
        return tuple(bound[n] for n in names)
    except KeyError as exc:
        raise TypeError(f"{cls.__name__}() missing required argument {exc.args[0]!r}") from None


# Setting each field through object.__setattr__ keeps the instance's values
# inline; touching self.__dict__ would build a dict per instance, which costs
# memory and makes every later attribute read slower.
_object_setattr = object.__setattr__


def _init(self, *args, **kwargs):
    names, post_init = self.__record__
    if kwargs or len(args) != len(names):
        args = _bind(type(self), args, kwargs)
    for name, value in zip(names, args):
        _object_setattr(self, name, value)
    if post_init is not None:
        post_init(self)


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
    cls.__record__ = (names, getattr(cls, "__post_init__", None))
    if len(names) == 1:
        # attrgetter of one name returns the bare value, not a 1-tuple; the
        # tuple is built inline rather than in a wrapper, which would cost
        # each call a second Python frame
        get = attrgetter(names[0])

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return (get(self),) == (get(other),)
            return NotImplemented

        def __hash__(self):
            held = self._record_hash
            if held is None:
                held = hash((get(self),))
                _object_setattr(self, "_record_hash", held)
            return held
    else:
        fields = attrgetter(*names) if names else lambda obj: ()

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return fields(self) == fields(other)
            return NotImplemented

        def __hash__(self):
            held = self._record_hash
            if held is None:
                held = hash(fields(self))
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

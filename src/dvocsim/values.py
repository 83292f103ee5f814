"""Value types: dataclasses whose methods every class shares.

``dataclasses.dataclass`` writes the source of each class's ``__init__``,
``__repr__``, ``__eq__`` and, when frozen, ``__setattr__``, ``__delattr__``
and ``__hash__``, and ``exec``-compiles it as the class is created: about
0.6 ms a class in every process, which no bytecode cache keeps.
``value_type`` leaves the fields to ``dataclasses`` (``field``, ``fields``,
``replace`` and ``is_dataclass`` work as before) and installs the functions
below, which read the fields at call time and behave as the generated ones
do.  Fields may have a default or a ``default_factory``; ``init=False``,
``kw_only``, ``ClassVar`` and ``InitVar`` are not supported, nor a class
that defines one of these methods itself.  ``__dataclass_params__``
records ``frozen=False`` for every value type, so ``@dataclass(frozen=True)``
cannot subclass one.
"""

import dataclasses
import inspect
import reprlib
from dataclasses import MISSING, FrozenInstanceError


class _Factory:
    def __repr__(self):
        return "<factory>"


_FACTORY = _Factory()   # the signature's default of a default_factory field


def value_type(cls=None, *, frozen=False):
    """``@dataclasses.dataclass`` or ``@dataclasses.dataclass(frozen=True)``
    with shared methods; used as ``@value_type`` or
    ``@value_type(frozen=True)``."""
    if cls is None:
        return lambda c: value_type(c, frozen=frozen)
    # Set before the dataclass call, whose automatic __doc__ reads it.
    cls.__signature__ = _signature(cls)
    dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    cls.__init__, cls.__repr__, cls.__eq__ = _init, _repr, _eq
    if frozen:
        cls.__setattr__, cls.__delattr__, cls.__hash__ = _setattr, _delattr, _hash
    else:
        cls.__hash__ = None
    return cls


def _signature(cls):
    """The signature of the generated ``__init__``, less ``self``, from the
    class body's annotations and defaults."""
    params = []
    for name, kind in cls.__dict__.get("__annotations__", {}).items():
        default = cls.__dict__.get(name, inspect.Parameter.empty)
        if isinstance(default, dataclasses.Field):
            default = _FACTORY if default.default is MISSING else default.default
        params.append(inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                                        default=default, annotation=kind))
    return inspect.Signature(params, return_annotation=None)


def _init(self, *args, **kwargs):
    """Bind the arguments to the fields, store them in field order, then
    call ``__post_init__`` if the class has one."""
    flds = self.__dataclass_fields__
    if len(args) > len(flds):
        raise TypeError(f"{type(self).__qualname__}() takes {len(flds)} positional "
                        f"arguments but {len(args)} were given")
    for name, arg in zip(flds, args):
        if name in kwargs:
            raise TypeError(f"{type(self).__qualname__}() got multiple values for "
                            f"argument {name!r}")
        kwargs[name] = arg
    state = self.__dict__
    for name, f in flds.items():
        value = kwargs.pop(name, MISSING)
        if value is MISSING:
            if f.default is not MISSING:
                value = f.default
            elif f.default_factory is not MISSING:
                value = f.default_factory()
            else:
                raise TypeError(f"{type(self).__qualname__}() missing required "
                                f"argument {name!r}")
        state[name] = value
    if kwargs:
        raise TypeError(f"{type(self).__qualname__}() got an unexpected keyword "
                        f"argument {next(iter(kwargs))!r}")
    if hasattr(self, "__post_init__"):
        self.__post_init__()


@reprlib.recursive_repr()
def _repr(self):
    body = ", ".join([f"{name}={getattr(self, name)!r}"
                      for name, f in self.__dataclass_fields__.items() if f.repr])
    return f"{type(self).__qualname__}({body})"


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _compared(self) == _compared(other)


def _compared(obj):
    return [getattr(obj, name) for name, f in obj.__dataclass_fields__.items() if f.compare]


def _hash(self):
    return hash(tuple([getattr(self, name) for name, f in self.__dataclass_fields__.items()
                       if (f.compare if f.hash is None else f.hash)]))


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")

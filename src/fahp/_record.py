"""Frozen value records, the package's one class decorator for its data types.

@record stands in for @dataclass(frozen=True) and keeps what the package
used of it: the annotated fields in order, taken by position or keyword with
their class-level defaults; __post_init__ run at construction; equality by
value among instances of one class; hashing by the field tuple; a
ClassName(field=value, ...) repr; and an AttributeError on assigning or
deleting an attribute. It generates only __init__, one short function per
class, so a record class costs about a tenth of a frozen dataclass to
define, and the package never imports dataclasses (which loads inspect).
"""

from __future__ import annotations

from operator import attrgetter


def _frozen(self, name, *value):
    action = "assign to" if value else "delete"
    raise AttributeError(f"cannot {action} {name!r}: {type(self).__name__} is frozen")


def record(cls):
    """Make cls a frozen record of its annotated fields (see the module)."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    scope = {f"_default_{n}": cls.__dict__[n] for n in names if n in cls.__dict__}
    # object.__setattr__ leaves CPython's instance attributes inline; storing
    # into self.__dict__ would build a dict per instance and slow every read
    scope["__set"] = object.__setattr__
    params = ", ".join(f"{n}=_default_{n}" if f"_default_{n}" in scope else n for n in names)
    body = "".join(f"\n    __set(self, {n!r}, {n})" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    exec(f"def __init__(self, {params}):{body}", scope)
    scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"

    fields = attrgetter(*names) if len(names) > 1 else lambda self: (getattr(self, names[0]),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields(self)))
        return f"{type(self).__qualname__}({shown})"

    cls.__init__ = scope["__init__"]
    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls

"""The decorator of every result record.

dataclass(frozen=True) sets each field in __init__ through one
object.__setattr__ call, most of the cost of building a small record; a
record's __init__ stores each field through its slot's member descriptor
instead, in about half the time.
"""

from __future__ import annotations

import dataclasses
import inspect

MISSING = dataclasses.MISSING


def record(cls):
    """cls as dataclass(frozen=True, slots=True), with an __init__ of the
    dataclass's own signature and defaults, generated once per class, that
    stores each field through its slot's descriptor. Equality, hashing,
    repr, fields, replace and FrozenInstanceError are the dataclass's own.
    Raises TypeError for a feature that __init__ would not reproduce: a
    default_factory, an init=False or keyword-only field, an InitVar or
    __post_init__."""
    # Without a docstring, the dataclass would write the signature of an
    # __init__-less class as one, parsing object.__init__'s text signature,
    # which takes milliseconds; it is written below from the generated one.
    doc, cls.__doc__ = cls.__doc__, "-"
    cls = dataclasses.dataclass(frozen=True, slots=True, init=False)(cls)
    fields = dataclasses.fields(cls)
    if (
        hasattr(cls, "__post_init__")
        or any(f._field_type is dataclasses._FIELD_INITVAR for f in cls.__dataclass_fields__.values())
        or any(f.default_factory is not MISSING or not f.init or f.kw_only for f in fields)
    ):
        raise TypeError(f"record {cls.__name__} uses a dataclass feature its __init__ does not reproduce")
    has_default = [f.default is not MISSING for f in fields]
    if has_default != sorted(has_default):
        raise TypeError(f"record {cls.__name__}: a field without a default follows one with a default")
    namespace = {"__name__": cls.__module__}
    for f in fields:
        namespace[f"_set_{f.name}"], namespace[f"_default_{f.name}"] = cls.__dict__[f.name].__set__, f.default
    params = "".join(f", {f.name}" + ("" if f.default is MISSING else f"=_default_{f.name}") for f in fields)
    body = "".join(f"\n    _set_{f.name}(self, {f.name})" for f in fields) or "\n    pass"
    exec(f"def __init__(self{params}):{body}", namespace)
    cls.__init__ = init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in fields}, "return": None}
    cls.__doc__ = doc or cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    return cls

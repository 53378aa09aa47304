"""Every dataclass the package exports is a record: a frozen, slotted
dataclass whose __init__ the decorator liabstaff._record.record generates.
Each behaves as a plain dataclass(frozen=True) twin with the same fields,
except that it has no __dict__.

This file imports neither numpy nor hypothesis, so it runs with pytest alone
on every Python the package supports."""

import copy
import dataclasses
import inspect
import pickle
import weakref

import pytest

import liabstaff
from liabstaff._record import record

EXPORTS = [getattr(liabstaff, name) for name in liabstaff.__all__]
RECORDS = [obj for obj in EXPORTS if isinstance(obj, type) and dataclasses.is_dataclass(obj)]


def twin(cls):
    """A plain dataclass(frozen=True) with cls's name, fields and defaults."""
    fields = [(f.name, f.type, dataclasses.field(default=f.default)) for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def values(cls, offset=0):
    """Keyword arguments for every field: a nested record in the first, so
    that asdict recurses, and distinct integers, shifted by offset, after."""
    names = [f.name for f in dataclasses.fields(cls)]
    nested = liabstaff.Policy(0.5, 3, liabstaff.Mode.A)
    return {name: nested if i == 0 else i + offset for i, name in enumerate(names)}


def test_every_exported_record_is_found():
    assert len(RECORDS) == 16


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    r = cls(**values(cls))
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, f.name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(r, f.name)
    assert r == cls(**values(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_frozen_dataclass_twin(cls):
    plain = twin(cls)
    a, b = values(cls), values(cls, offset=10)
    r, t = cls(**a), plain(**a)
    assert (r == cls(**a), r == cls(**b)) == (t == plain(**a), t == plain(**b)) == (True, False)
    assert hash(r) == hash(t)
    assert repr(r) == repr(t)
    keys = ("name", "type", "default", "init", "repr", "hash", "compare", "metadata", "kw_only")
    assert [[getattr(f, k) for k in keys] for f in dataclasses.fields(r)] == [
        [getattr(f, k) for k in keys] for f in dataclasses.fields(t)
    ]
    last = dataclasses.fields(cls)[-1].name
    replaced = dataclasses.replace(r, **{last: -1})
    assert type(replaced) is cls and repr(replaced) == repr(dataclasses.replace(t, **{last: -1}))
    assert dataclasses.asdict(r) == dataclasses.asdict(t)
    assert dataclasses.astuple(r) == dataclasses.astuple(t)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_signature_lists_the_twins_parameters_and_defaults(cls):
    assert inspect.signature(cls) == inspect.signature(twin(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_missing_or_unknown_argument_raises_type_error(cls):
    a = values(cls)
    with pytest.raises(TypeError, match="unexpected keyword argument 'unknown'"):
        cls(**a, unknown=1)
    with pytest.raises(TypeError, match="positional argument"):
        cls(*a.values(), 1)
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING:
            with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{f.name}'"):
                cls(**{k: v for k, v in a.items() if k != f.name})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_pickle_and_deepcopy_round_trip(cls):
    r = cls(**values(cls))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(r, protocol))
        assert type(back) is cls and back == r
    assert copy.deepcopy(r) == r and copy.copy(r) == r


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_instances_have_no_dict_and_no_weak_references(cls):
    r = cls(**values(cls))
    assert not hasattr(r, "__dict__")
    with pytest.raises(TypeError):
        vars(r)
    with pytest.raises(TypeError):
        weakref.ref(r)


def test_record_keeps_docstring_name_and_module():
    @record
    class Undocumented:
        x: int
        y: str = "a"

    @record
    class Documented:
        """Kept."""

        x: int

    assert Undocumented.__doc__ == twin(Undocumented).__doc__ == "Undocumented(x: int, y: str = 'a')"
    assert Documented.__doc__ == "Kept."
    init = liabstaff.CostBreakdown.__init__
    assert (init.__module__, init.__qualname__) == ("liabstaff.platform_opt", "CostBreakdown.__init__")
    assert Undocumented(1) == Undocumented(x=1, y="a") != Undocumented(1, "b")


@pytest.mark.parametrize("annotations, namespace", [
    ({"x": list}, {"x": dataclasses.field(default_factory=list)}),
    ({"x": int}, {"x": dataclasses.field(default=0, init=False)}),
    ({"x": int}, {"x": dataclasses.field(kw_only=True)}),
    ({"_": dataclasses.KW_ONLY, "x": int}, {}),
    ({"x": dataclasses.InitVar[int]}, {}),
    ({"x": int}, {"__post_init__": lambda self: None}),
], ids=["default_factory", "init_false", "kw_only_field", "kw_only_marker", "initvar", "post_init"])
def test_record_refuses_a_feature_its_init_does_not_reproduce(annotations, namespace):
    cls = type("Unsupported", (), {"__annotations__": annotations, **namespace})
    with pytest.raises(TypeError, match="Unsupported uses a dataclass feature its __init__ does not reproduce"):
        record(cls)


def test_record_refuses_a_required_field_after_a_default():
    # as dataclass(frozen=True) does, with its own message
    cls = type("Misordered", (), {"__annotations__": {"x": int, "y": int}, "x": 0})
    with pytest.raises(TypeError, match="without a default follows one with a default"):
        record(cls)

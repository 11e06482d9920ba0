import copy
import pickle

import pytest


def check_value_contract(value, fields, loose, other, text):
    """Assert that ``value`` is an immutable value compared, hashed and copied by ``fields``.

    ``loose`` maps each field name, in order, to an argument that the
    constructor must coerce to the matching entry of ``fields`` (a list or set
    for a frozenset field).  ``other`` differs from ``value`` in some field and
    ``text`` is the exact ``repr``.
    """
    cls = type(value)
    names = list(loose)
    assert tuple(getattr(value, name) for name in names) == fields
    built = cls(**loose)
    assert [getattr(built, name) for name in names] == list(fields)
    assert [type(getattr(built, name)) for name in names] == [type(f) for f in fields]
    assert built == value and not built != value
    assert cls(*fields) == value
    assert value != other and not value == other
    assert value != fields and fields != value
    assert value.__eq__(fields) is NotImplemented
    assert hash(value) == hash(built) == hash(fields)
    assert repr(value) == text
    for name in [*names, "extra_attribute"]:
        with pytest.raises(AttributeError):
            setattr(value, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        assert tuple(getattr(twin, name) for name in names) == fields


@pytest.fixture
def value_contract():
    return check_value_contract

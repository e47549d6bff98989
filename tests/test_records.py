"""Every record class of the package against one table: construction,
equality and hashing (fields left out of comparison ignored), frozenness,
fresh default lists, the validation hooks, and the caches keyed on records."""

import pytest

from spencerbench.bundle import CartanResidualReport, GridBundle, TransversalityReport
from spencerbench.cohomology import (
    CohomologyReport,
    DGAModel,
    KunnethReport,
    MirrorInvarianceReport,
    SpencerComplexInstance,
)
from spencerbench.errors import FormatError, MismatchError
from spencerbench.liealg import (
    AlgebraVector,
    DualVector,
    LieAlgebra,
    LieAutomorphism,
    algebra_from_json,
    algebra_to_json,
    builtin_algebra,
    builtin_automorphism,
)
from spencerbench.mirror import IntertwiningReport, MirrorTransform, induced_tensor_map
from spencerbench.records import FrozenRecord, Record
from spencerbench.spencer import (
    Identification,
    NilpotencyReport,
    OrderingWitness,
    _generator_table,
    _killing_inverse,
)
from spencerbench.symtensor import SymTensor

FROZEN, MUTABLE, IDENTITY = "frozen", "mutable", "identity"

# class, how it compares and hashes, the fields left out of ==, whether it
# keeps a __dict__ (for its cached properties)
RECORDS = [
    (LieAlgebra, FROZEN, ("matrix_basis",), False),
    (AlgebraVector, FROZEN, (), False),
    (DualVector, FROZEN, (), False),
    (LieAutomorphism, IDENTITY, (), False),
    (SymTensor, MUTABLE, (), False),
    (NilpotencyReport, MUTABLE, (), False),
    (OrderingWitness, MUTABLE, (), False),
    (MirrorTransform, FROZEN, (), False),
    (IntertwiningReport, MUTABLE, (), False),
    (DGAModel, FROZEN, ("product",), False),
    (SpencerComplexInstance, MUTABLE, (), True),
    (CohomologyReport, MUTABLE, (), False),
    (MirrorInvarianceReport, MUTABLE, (), False),
    (KunnethReport, MUTABLE, (), False),
    (GridBundle, FROZEN, (), True),
    (TransversalityReport, MUTABLE, (), False),
    (CartanResidualReport, MUTABLE, (), True),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]

# field values that pass the validation hooks
VALID = {MirrorTransform: {"kind": "sign"}, SymTensor: {"degree": 1, "coeffs": {(0,): 1}}}


def values(cls):
    """One value per field: a distinct hashable placeholder, or a valid value
    where the class checks the field."""
    return [VALID.get(cls, {}).get(name, (name, 0)) for name in cls._fields]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_the_table_names_every_record_class():
    assert set(_subclasses(Record)) - {FrozenRecord} == {cls for cls, *_ in RECORDS}
    assert len(RECORDS) == 17


@pytest.mark.parametrize("cls, kind, uncompared, has_dict", RECORDS, ids=IDS)
def test_equality_hashing_and_repr(cls, kind, uncompared, has_dict):
    args = values(cls)
    a, b = cls(*args), cls(**dict(zip(cls._fields, args)))
    assert [getattr(a, name) for name in cls._fields] == args
    assert hasattr(a, "__dict__") == has_dict
    if kind == IDENTITY:
        assert a == a and a != b and hash(a) == object.__hash__(a)
        return
    assert a == b
    for i, name in enumerate(cls._fields):
        if name not in VALID.get(cls, {}):
            changed = cls(*args[:i], (name, 1), *args[i + 1:])
            assert (changed == a) == (name in uncompared), name
    if kind == FROZEN:
        assert hash(a) == hash(b) and {a: 1}[b] == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    shown = repr(a)
    assert shown.startswith(f"{cls.__name__}(")
    assert all((f"{name}=" in shown) != (name in uncompared) for name in cls._fields)


@pytest.mark.parametrize("cls, kind, uncompared, has_dict", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment(cls, kind, uncompared, has_dict):
    a = cls(*values(cls))
    name = cls._fields[-1]
    if kind == MUTABLE:
        setattr(a, name, "new")
        assert getattr(a, name) == "new"
        return
    for attempt in (lambda: setattr(a, name, "new"), lambda: delattr(a, name),
                    lambda: setattr(a, "extra", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(a, name) == values(cls)[-1]


@pytest.mark.parametrize("cls", [cls for cls, *_ in RECORDS], ids=IDS)
def test_a_wrong_field_list_is_a_type_error(cls):
    args = values(cls)
    for build in (lambda: cls(), lambda: cls(*args, "extra"),
                  lambda: cls(*args, **{cls._fields[0]: args[0]}),
                  lambda: cls(*args[:-1], unknown=1)):
        with pytest.raises(TypeError):
            build()


def test_defaults_and_fresh_default_lists():
    assert LieAlgebra("a", 1, (1, ()), ("e1",)).matrix_basis is None
    assert MirrorTransform("sign").automorphism is None
    assert DGAModel("m", (), ()).product is None
    a = NilpotencyReport("unsigned", "basis", [], True, None)
    b = NilpotencyReport("unsigned", "basis", [], True, None)
    a.composites.append(1)
    a.matrices.append(2)
    assert b.composites == [] and b.matrices == []
    assert a.composites is not b.composites and a.matrices is not b.matrices


@pytest.mark.parametrize("build, error, message", [
    (lambda: MirrorTransform("rotate"), FormatError, "unknown mirror kind 'rotate'"),
    (lambda: MirrorTransform("automorphism"), FormatError, "needs a validated automorphism"),
    (lambda: SymTensor(None, 2, {(1, 0): 1}), MismatchError, "bad multiset key (1, 0)"),
    (lambda: SymTensor(None, 2, {(0,): 1}), MismatchError, "for degree 2"),
], ids=["unknown-kind", "automorphism-missing", "unsorted-key", "wrong-degree"])
def test_the_validation_hooks_still_raise(build, error, message):
    with pytest.raises(error, match=message.replace("(", r"\(").replace(")", r"\)")):
        build()


def test_the_caches_keyed_on_records_hit_for_equal_keys():
    sl3 = builtin_algebra("sl3")
    twin = algebra_from_json(algebra_to_json(sl3))  # no matrix_basis: not compared
    assert twin == sl3 and twin is not sl3 and hash(twin) == hash(sl3)
    assert twin.matrix_basis is None and sl3.matrix_basis is not None

    _killing_inverse.cache_clear()
    assert _killing_inverse(twin) is _killing_inverse(sl3)
    assert _killing_inverse.cache_info().hits == 1

    coeffs = [1, 2, 3, -4, 5, 6, 7, 8]
    _generator_table.cache_clear()
    table = _generator_table(sl3.dual(coeffs), Identification.KILLING)
    assert _generator_table(twin.dual(coeffs), Identification.KILLING) is table
    assert _generator_table.cache_info().hits == 1

    # keyed on the automorphism itself: an equal one built again is a new key
    auto = builtin_automorphism(sl3, "permutation:231")
    again = builtin_automorphism(sl3, "permutation:231")
    induced_tensor_map.cache_clear()
    first = induced_tensor_map(auto, 2, Identification.KILLING)
    assert induced_tensor_map(auto, 2, Identification.KILLING) is first
    assert induced_tensor_map(again, 2, Identification.KILLING) is not first
    assert induced_tensor_map.cache_info()[:2] == (1, 2)

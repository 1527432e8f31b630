"""Value semantics of the immutable records: Algebra, DualPoint, GroupElem,
CanonicalPair, SuiteConfig and the suite registry's _SuiteSpec."""

import copy
import pickle
from functools import cache

import pytest

from coadinv.exactmat import Mat
from coadinv.invariants import CanonicalPair
from coadinv.liealg import Algebra, DualPoint, GroupElem, Rng, sample_dual, sample_group
from coadinv.verify import SUITES, SuiteConfig


def records():
    rng = Rng(17)
    return [
        Algebra("iso", 3),
        sample_dual(Algebra("io", 3), rng, 3),
        sample_dual(Algebra("glvv", 2), rng, 3),
        DualPoint(Mat([[0, 1], [-1, 0]]), Mat([[1, 2]]), family="iso"),  # xi filled
        sample_group(Algebra("glvv", 2), rng, 3),
        CanonicalPair.of_size(3),
        SuiteConfig(algebra="io", n_lo=2, n_hi=3, samples=4, seed=9),
        SUITES["independence"],
    ]


def fields(record):
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_equality_and_hash_by_type_and_fields(record):
    twin = type(record)(*fields(record))
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert record != fields(record)
    assert len({record, twin}) == 1


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_assignment_is_refused(record):
    name = type(record).__slots__[0]
    kept = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, kept)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is kept


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_pickle_and_copies_round_trip(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                 copy.copy(record)):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
        with pytest.raises(AttributeError):
            setattr(twin, type(record).__slots__[0], None)


def test_repr_names_every_field():
    assert repr(Algebra("aff", 2)) == "Algebra(family='aff', n=2)"
    pair = CanonicalPair.of_size(2)
    assert repr(pair) == "CanonicalPair(J=Mat[2x2: 0 0; 1 0], enstar=Mat[1x2: 0 1])"


def test_fields_differ_means_records_differ():
    y, w = Mat([[0, 1], [-1, 0]]), Mat([[1, 2]])
    zero = Mat.zero(2, 1)
    # one triple, two families: the tag is a field
    assert DualPoint(y, w, zero) != DualPoint(y, w, zero, "aff")
    assert DualPoint(y, w, zero).family == "glvv"
    assert Algebra("io", 3) != Algebra("iso", 3)
    assert GroupElem(Mat.identity(2), zero, Mat.zero(1, 2)) != \
        GroupElem(Mat.identity(2), Mat.col([1, 0]), Mat.zero(1, 2))


def test_construction_still_validates():
    y, w = Mat([[0, 1], [-1, 0]]), Mat([[1, 2]])
    with pytest.raises(ValueError, match="unknown algebra family"):
        Algebra("gl", 2)
    with pytest.raises(ValueError, match="xi = -wstar"):
        DualPoint(y, w, Mat.zero(2, 1), "io")
    with pytest.raises(ValueError, match="singular"):
        GroupElem(Mat.zero(2, 2), Mat.zero(2, 1), Mat.zero(1, 2))
    # a copy goes through the same checks: the constructor rebuilds it
    point = DualPoint(y, w, family="io")
    assert copy.deepcopy(point) == point


def test_algebra_is_a_cache_key():
    calls = []

    @cache
    def size(alg):
        calls.append(alg)
        return alg.n

    assert size(Algebra("glvv", 3)) == size(Algebra("glvv", 3)) == 3
    assert calls == [Algebra("glvv", 3)]

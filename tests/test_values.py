"""Value semantics of the validated classes (`Family`, `Permutation`,
`Decomposition`) and the field layout of the result records."""

import copy
import operator
import pickle

import pytest

from supersat.bounds import BoundReport, MinMaxYZReport, bound_report, min_max_yz_verification
from supersat.core import Family, binom, build_b_family
from supersat.oracle import KleitmanRow, OracleResult, min_chain_count_exact
from supersat.scd import (
    Decomposition,
    Permutation,
    ScdValidation,
    chain_through,
    permute_decomposition,
    scd_inductive,
    validate_scd,
)
from supersat.verify import Check

# each builds a fresh value on every call; (class, fields, build, a different value)
VALUES = {
    "family": (
        Family,
        ("n", "mask"),
        lambda: build_b_family(5, 2),
        lambda: build_b_family(5, 2).with_words([0]),
    ),
    "permutation": (
        Permutation,
        ("image",),
        lambda: Permutation((3, 1, 2, 5, 4)),
        lambda: Permutation((1, 3, 2, 5, 4)),
    ),
    "decomposition": (
        Decomposition,
        ("n", "chains"),
        lambda: scd_inductive(6),
        lambda: permute_decomposition(scd_inductive(6), Permutation((2, 3, 4, 5, 6, 1))),
    ),
}


@pytest.fixture(params=sorted(VALUES))
def value(request):
    return VALUES[request.param]


def _fields_of(obj, fields):
    return tuple(getattr(obj, name) for name in fields)


def test_copies_are_equal_and_hash_alike(value):
    cls, fields, build, other = value
    a, b = build(), build()
    assert a is not b and type(a) is cls
    assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != other() and b != other()


def test_a_value_is_unequal_to_the_tuple_of_its_fields(value):
    _, fields, build, _ = value
    a = build()
    assert a != _fields_of(a, fields) and _fields_of(a, fields) != a
    assert a != _fields_of(a, fields)[0]
    assert a != None  # noqa: E711 - the comparison itself is under test


def test_a_value_equals_only_its_own_class(value):
    cls, fields, build, _ = value
    a = build()

    class Sub(cls):
        pass

    assert Sub(*_fields_of(a, fields)) != a and a != Sub(*_fields_of(a, fields))


def test_a_family_is_unequal_to_a_decomposition_with_the_same_fields():
    # a decomposition is not validated, so it can hold a family's n and,
    # one word a chain, its members; the two classes still never compare equal
    fam = build_b_family(3, 2)
    dec = Decomposition(fam.n, ((w,) for w in fam.words()))
    assert dec.chains == tuple((w,) for w in fam.words())
    assert dec != fam and fam != dec


def test_a_decomposition_owns_its_chains_given_as_lists():
    chains = [[0, 1, 3], [2]]
    dec = Decomposition(2, chains)
    assert dec.chains == ((0, 1, 3), (2,)) and all(type(ch) is tuple for ch in dec.chains)
    assert dec == scd_inductive(2) and hash(dec) == hash(scd_inductive(2))
    # no alias of the caller's list, or of a chain in it, reaches the value
    chains.append([5])
    chains[0].append(7)
    assert dec == scd_inductive(2) and validate_scd(dec).ok


def test_a_decomposition_stores_a_generator_whole():
    chains = scd_inductive(6).chains
    dec = Decomposition(6, (ch for ch in chains))
    assert len(dec.chains) == binom(6, 3) and validate_scd(dec).ok
    # a chain given as a tuple is kept, not copied
    assert all(map(operator.is_, dec.chains, chains))


def test_assignment_and_deletion_raise(value):
    _, fields, build, other = value
    a = build()
    replacement = _fields_of(other(), fields)
    for name, new in zip(fields, replacement):
        with pytest.raises(AttributeError):
            setattr(a, name, new)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == build() and not hasattr(a, "extra")


def test_pickle_and_copies_round_trip(value):
    cls, fields, build, _ = value
    a = build()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(a, protocol))
        assert type(loaded) is cls and loaded == a and hash(loaded) == hash(a)
    for clone in (copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is cls and clone == a
        assert _fields_of(clone, fields) == _fields_of(a, fields)


def test_reprs_name_the_fields_but_not_the_mask():
    fam = build_b_family(5, 2)
    assert repr(fam) == "Family(n=5)" and "mask" not in repr(fam)
    assert repr(Permutation((2, 1))) == "Permutation(image=(2, 1))"
    assert repr(scd_inductive(2)) == "Decomposition(n=2, chains=((0, 1, 3), (2,)))"


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: Family(3, bytes(7)), ValueError),
        (lambda: Family(3, b"\2" * 8), ValueError),
        (lambda: Family(0, b"\0"), ValueError),
        (lambda: Family(21, b""), ValueError),
        (lambda: Family(3, bytearray(8)), TypeError),
        (lambda: Family(3, memoryview(bytes(8))), TypeError),
        (lambda: Permutation((1, 1, 2)), ValueError),
        (lambda: Permutation((2, 3)), ValueError),
        (lambda: Permutation(()), ValueError),
        (lambda: Decomposition(0, ((0,),)), ValueError),
        (lambda: Decomposition(21, ()), ValueError),
    ],
)
def test_invalid_values_raise_the_same_error_types(make, error):
    with pytest.raises(error):
        make()


def test_keyword_construction_matches_positional():
    fam = build_b_family(4, 1)
    assert Family(n=4, mask=fam.mask) == fam
    assert Permutation(image=(2, 1)) == Permutation((2, 1))
    assert Decomposition(n=2, chains=((0, 1, 3), (2,))) == scd_inductive(2)


def test_locator_is_built_once_then_reused_and_is_not_a_field(monkeypatch):
    # the word -> chain lookup reads the chains: `nperm --enumerate` builds its
    # first-chain table once per call and reuses it for all n! relabelings,
    # and nothing is left on the value, which holds only n and chains
    import supersat.scd
    from supersat.bounds import n_permutations_enumerate

    dec, same = scd_inductive(6), scd_inductive(6)
    first_chains, built = supersat.scd._first_chains, []

    def recording(d):
        built.append(first_chains(d))
        return built[-1]

    monkeypatch.setattr(supersat.scd, "_first_chains", recording)
    assert n_permutations_enumerate(dec, (0, 1, 3)) == 24
    assert len(built) == 1 and len(built[0]) == 1 << 6
    assert chain_through(dec, 5) == (2, 1) and dec.chains[built[0][5]] == dec.chains[2]
    assert validate_scd(dec).ok
    assert set(vars(dec)) == {"n", "chains"}
    assert dec == same and hash(dec) == hash(same)
    assert set(vars(pickle.loads(pickle.dumps(dec)))) == {"n", "chains"}
    with pytest.raises(AttributeError):
        dec.locator = {}
    assert set(vars(dec)) == {"n", "chains"}


RECORDS = [
    (OracleResult, ("n", "k", "family_size", "min_count", "witness", "exact"), {}),
    (KleitmanRow, ("size", "min_count", "exact", "construction_count", "equal"), {}),
    (Check, ("name", "ok", "detail"), {"detail": ""}),
    (
        BoundReport,
        ("n", "k", "x", "sigma_threshold", "bound_value", "tight_x_max"),
        {},
    ),
    (
        MinMaxYZReport,
        (
            "n",
            "k",
            "closed_form",
            "predicted_minimizer",
            "predicted_attains",
            "exhaustive_min",
            "exhaustive_argmin",
            "confirmed",
            "span_free_min",
            "span_free_confirmed",
            "below_closed_form",
        ),
        {},
    ),
    (
        ScdValidation,
        ("partition", "skipless", "symmetric", "chain_count", "locator", "problems"),
        {"problems": ()},
    ),
]


@pytest.mark.parametrize("record, fields, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_and_defaults_are_pinned(record, fields, defaults):
    assert record._fields == fields
    assert record._field_defaults == defaults


def test_records_keep_their_methods_and_are_immutable():
    report = bound_report(4, 2, 1)
    assert report._replace(x=3).to_payload()["x"] == 3
    assert validate_scd(scd_inductive(5)).ok
    assert not ScdValidation(True, True, True, True, False).ok
    assert Check("c", True).detail == ""
    yz = min_max_yz_verification(5, 3)
    assert repr(yz).startswith("MinMaxYZReport(n=5, k=3, closed_form=")
    result = min_chain_count_exact(3, 2, 4)
    with pytest.raises(AttributeError):
        result.min_count = 0

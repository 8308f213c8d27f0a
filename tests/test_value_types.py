"""The public value types keep their contract: repr, equality and hash,
ordering, keyword construction, defaults, read-only fields and the messages
of their validation errors."""

import copy
import pickle
import re

import pytest

from z2z8 import (
    CountBreakdown,
    DeltaExponents,
    IdentityReport,
    MixedWord,
    ParityCheckMatrix,
    StandardFormMatrix,
    TypeCensus,
    TypeProfile,
    census,
    count_product,
    delta_exponents,
    parity_check,
    span,
    verify_formula,
)
from z2z8.census import VerifyReport, VerifyRow
from z2z8.codes import zero_standard_form
from z2z8.counting import IdentityCheck


def equal_pair_contract(a, b):
    """a and b are equal, distinct instances: == and hash agree, != is False."""
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


def read_only(obj, field):
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(obj, field)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_type_profile_contract():
    p = TypeProfile(2, 3, 1, 1, 1, 0)
    assert repr(p) == "TypeProfile(alpha=2, beta=3, k0=1, k1=1, k2=1, k3=0)"
    assert str(p) == "(2,3;1,1,1,0)"
    kw = TypeProfile(alpha=2, beta=3, k0=1, k1=1, k2=1, k3=0)
    equal_pair_contract(p, kw)
    assert hash(p) == hash((2, 3, 1, 1, 1, 0))
    assert (p.l, p.ks, p.is_valid()) == (2, (1, 1, 1, 0), True)
    assert p != TypeProfile(2, 3, 1, 1, 0, 1)
    assert len({p, kw, TypeProfile(2, 3, 1, 1, 0, 1)}) == 2
    for field in ("alpha", "k3"):
        read_only(p, field)
    with pytest.raises(AttributeError):
        p.l = 5
    assert pickle.loads(pickle.dumps(p)) == p
    assert copy.deepcopy(p) == p


def test_type_profile_orders_field_by_field():
    ps = [TypeProfile(2, 1, 0, 0, 0, 1), TypeProfile(1, 3, 1, 0, 0, 0),
          TypeProfile(2, 1, 0, 0, 1, 0), TypeProfile(1, 3, 0, 2, 0, 0)]
    assert sorted(ps) == [ps[3], ps[1], ps[0], ps[2]]
    assert ps[1] < ps[0] <= ps[0] < ps[2] and ps[2] > ps[0] >= ps[0]
    assert max(ps) == ps[2] and min(ps) == ps[3]


@pytest.mark.parametrize("slots,message", [
    ((-1, 0, 0, 0, 0, 0), "alpha must be a non-negative integer, got -1"),
    ((1, "2", 0, 0, 0, 0), "beta must be a non-negative integer, got '2'"),
    ((1, 1, 0, 0, 0, 1.0), "k3 must be a non-negative integer, got 1.0"),
    ((1, 1, -2, None, 0, 0), "k0 must be a non-negative integer, got -2"),
    ((True, 1, 0, 0, 0, -1), "k3 must be a non-negative integer, got -1"),
])
def test_type_profile_validation_messages(slots, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TypeProfile(*slots)
    names = ("alpha", "beta", "k0", "k1", "k2", "k3")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TypeProfile(**dict(zip(names, slots)))


def test_type_profile_accepts_bool_fields():
    # bool is an int subclass: it misses the six-plain-ints test and passes the per-field loop
    p = TypeProfile(True, 1, False, 0, 0, True)
    assert p == TypeProfile(1, 1, 0, 0, 0, 1) and p.alpha is True


def test_count_breakdown_and_delta_exponents_contract():
    b = count_product(TypeProfile(2, 3, 1, 1, 1, 0))
    assert repr(b) == ("CountBreakdown(n1=24, n2=1792, n3=192, n4=1, "
                       "d1=4, d2=32, d3=16, d4=1, total=4032)")
    kw = CountBreakdown(n1=24, n2=1792, n3=192, n4=1, d1=4, d2=32, d3=16, d4=1, total=4032)
    equal_pair_contract(b, kw)
    assert (b.numerator, b.denominator) == (24 * 1792 * 192, 4 * 32 * 16)
    read_only(b, "total")

    d = delta_exponents(TypeProfile(2, 3, 1, 1, 1, 0))
    assert repr(d) == "DeltaExponents(delta=6, delta_bar=5)"
    equal_pair_contract(d, DeltaExponents(delta_bar=5, delta=6))
    read_only(d, "delta")


def test_identity_check_and_report_contract():
    c = IdentityCheck("a", "s", True, True)
    assert c.detail == ""
    assert repr(c) == "IdentityCheck(key='a', statement='s', passed=True, expected=True, detail='')"
    equal_pair_contract(c, IdentityCheck(key="a", statement="s", passed=True, expected=True, detail=""))
    assert IdentityCheck("x", "s", False, False, "why").ok
    assert not IdentityCheck("x", "s", True, False).ok
    read_only(c, "passed")

    r = IdentityReport(1, 2, (c, IdentityCheck("b", "t", False, True, "no")))
    assert repr(r) == (
        "IdentityReport(max_alpha=1, max_beta=2, entries=(IdentityCheck(key='a', statement='s', "
        "passed=True, expected=True, detail=''), IdentityCheck(key='b', statement='t', "
        "passed=False, expected=True, detail='no')))"
    )
    equal_pair_contract(r, IdentityReport(max_alpha=1, max_beta=2, entries=r.entries))
    assert r.entry("b").detail == "no" and not r.success
    with pytest.raises(KeyError):
        r.entry("zz")
    read_only(r, "entries")


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

def test_mixed_word_contract():
    w = MixedWord((0, 1), (3,))
    assert repr(w) == "MixedWord(bin=(0, 1), mod=(3,), e=3)"
    assert str(w) == "0 1 | 3"
    kw = MixedWord(bin=(0, 1), mod=(3,), e=3)
    equal_pair_contract(w, kw)
    assert hash(w) == hash(((0, 1), (3,), 3))
    assert w != MixedWord((0, 1), (3,), 2) and w != MixedWord((0, 1), (5,))
    assert w != ((0, 1), (3,), 3)
    # a word is not a tuple: * is the scalar multiple and there is no length
    assert not isinstance(w, tuple)
    assert 3 * w == MixedWord((0, 1), (1,))
    with pytest.raises(TypeError):
        len(w)
    for field in ("bin", "mod", "e"):
        read_only(w, field)
    assert pickle.loads(pickle.dumps(w)) == w
    assert copy.copy(w) == w and copy.deepcopy(w) == w


def test_mixed_word_stores_tuples():
    # lists in, tuples out: a word built from lists equals and hashes as the
    # word built from tuples, so it can be looked up in a code
    w = MixedWord([1], [2])
    assert (w.bin, w.mod) == ((1,), (2,))
    assert w == MixedWord((1,), (2,)) and hash(w) == hash(MixedWord((1,), (2,)))
    assert w in span([MixedWord([1], [2])])
    assert MixedWord([0], [4]) in span([w]) and MixedWord([1], [0]) not in span([w])


@pytest.mark.parametrize("args,message", [
    (((0,), (0,), 4), "ring exponent must be 2 or 3, got 4"),
    (((2,), (0,), 3), "binary entries must be 0/1, got (2,)"),
    (((0,), (8,), 3), "modular entries must lie in [0,8), got (8,)"),
    (((0,), (4,), 2), "modular entries must lie in [0,4), got (4,)"),
])
def test_mixed_word_validation_messages(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MixedWord(*args)


@pytest.mark.parametrize("args,message", [
    (((1.0,), (2.0,)), "entries must be integers, got 1.0"),
    (((0,), (2.0,)), "entries must be integers, got 2.0"),
    (((0,), ("3",)), "entries must be integers, got '3'"),
    (((None,), (0,)), "entries must be integers, got None"),
])
def test_mixed_word_refuses_non_integer_entries(args, message):
    # 1.0 == 1 and 2.0 == 2 pass the range checks, and such a word would
    # equal MixedWord((1,), (2,)) but fail deep inside `span`
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MixedWord(*args)


def test_mixed_word_accepts_bool_entries():
    # bool is an int subclass, as in TypeProfile
    w = MixedWord((True,), (False, True))
    assert w == MixedWord((1,), (0, 1)) and span([w]).words == span([MixedWord((1,), (0, 1))]).words


def test_standard_form_matrix_contract():
    m = zero_standard_form(TypeProfile(1, 1, 1, 0, 0, 0))
    assert repr(m) == (
        "StandardFormMatrix(alpha=1, beta=1, e=3, ks=(1, 0, 0, 0), blocks=mappingproxy("
        "{'A01': (), 'A02': (), 'A03': (), 'A12': (), 'A13': (), 'A23': (), "
        "'Abar01': ((),), 'S1': (), 'S2': (), 'T03': ((0,),)}))"
    )
    # lists and mutable mappings in, tuples and a read-only mapping out
    blocks = {name: [list(row) for row in blk] for name, blk in m.blocks.items()}
    kw = StandardFormMatrix(alpha=1, beta=1, e=3, ks=[1, 0, 0, 0], blocks=blocks)
    equal_pair_contract(m, kw)
    assert kw.ks == (1, 0, 0, 0) and kw.blocks["T03"] == ((0,),)
    blocks["T03"] = [[1]]
    assert kw.blocks["T03"] == ((0,),)
    with pytest.raises(TypeError):
        kw.blocks["T03"] = ((1,),)
    assert m != StandardFormMatrix(1, 1, 3, (1, 0, 0, 0), {**m.blocks, "T03": ((1,),)})
    read_only(m, "blocks")


def test_standard_form_matrix_validation_messages():
    blocks = dict(zero_standard_form(TypeProfile(2, 2, 1, 1, 1, 0)).blocks)
    cases = [
        ((2, 2, 4, (1, 1, 1, 0), blocks), "ring exponent must be 2 or 3, got 4"),
        ((2, 2, 3, (1, 1), blocks), "e=3 standard form needs 4 generator counts, got (1, 1)"),
        ((2, 2, 3, (1, -1, 1, 0), blocks), "negative dimensions in (2,2;1,-1,1,0)"),
        ((2, 2, 3, (3, 1, 1, 0), blocks), "profile (2,2;3,1,1,0) is not realizable"),
        ((2, 2, 3, (1, 1, 1, 0), {**blocks, "X": ()}),
         "expected blocks ['A01', 'A02', 'A03', 'A12', 'A13', 'A23', 'Abar01', 'S1', 'S2', "
         "'T03'], got ['A01', 'A02', 'A03', 'A12', 'A13', 'A23', 'Abar01', 'S1', 'S2', 'T03', 'X']"),
        ((2, 2, 3, (1, 1, 1, 0), {**blocks, "Abar01": ((1, 0),)}), "block Abar01 must be 1x1"),
        ((2, 2, 3, (1, 1, 1, 0), {**blocks, "A01": ((9,),)}), "block A01 entries must lie in [0,8)"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StandardFormMatrix(*args)


def test_parity_check_matrix_contract():
    m = zero_standard_form(TypeProfile(1, 1, 1, 0, 0, 0))
    h = parity_check(m)
    assert repr(h) == "ParityCheckMatrix(alpha=1, beta=1, e=3, rows=(MixedWord(bin=(0,), mod=(1,), e=3),))"
    equal_pair_contract(h, ParityCheckMatrix(alpha=1, beta=1, e=3, rows=(MixedWord((0,), (1,)),)))
    read_only(h, "rows")


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def test_census_types_contract():
    c = census(1, 0, 3)
    assert repr(c) == ("TypeCensus(alpha=1, beta=0, e=3, counts={(0, 0, 0, 0): 1, (1, 0, 0, 0): 1}, "
                       "total_subgroups=2, provenance='enumeration')")
    kw = TypeCensus(alpha=1, beta=0, e=3, counts={(0, 0, 0, 0): 1, (1, 0, 0, 0): 1},
                    total_subgroups=2, provenance="enumeration")
    assert c == kw and c is not kw
    with pytest.raises(TypeError):  # its counts are a dict
        hash(c)
    read_only(c, "counts")

    v = verify_formula(1, 0, 3)
    assert repr(v) == (
        "VerifyReport(alpha=1, beta=0, e=3, rows=(VerifyRow(profile=(0, 0, 0, 0), enumerated=1, "
        "formula=1), VerifyRow(profile=(1, 0, 0, 0), enumerated=1, formula=1)), "
        "total_enumerated=2, total_formula=2)"
    )
    equal_pair_contract(v, verify_formula(1, 0, 3))
    assert v.all_match
    row = VerifyRow(profile=(1, 0, 0, 0), enumerated=1, formula=2)
    equal_pair_contract(row, VerifyRow((1, 0, 0, 0), 1, 2))
    assert not row.match
    assert not VerifyReport(1, 0, 3, (row,), 1, 2).all_match
    read_only(row, "formula")
    read_only(v, "rows")


# ---------------------------------------------------------------------------
# the records are tuples (MixedWord excepted)
# ---------------------------------------------------------------------------

def test_records_unpack_and_replace_with_validation():
    p = TypeProfile(2, 3, 1, 1, 1, 0)
    a, b, *ks = p
    assert (a, b, tuple(ks)) == (2, 3, p.ks)
    assert p == (2, 3, 1, 1, 1, 0)
    assert p._replace(k3=1) == TypeProfile(2, 3, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="^k0 must be a non-negative integer, got -1$"):
        p._replace(k0=-1)

    m = zero_standard_form(TypeProfile(2, 2, 1, 1, 1, 0))
    assert m._replace(ks=[1, 1, 1, 0]).ks == (1, 1, 1, 0)
    with pytest.raises(ValueError, match=re.escape("profile (2,2;3,1,1,0) is not realizable")):
        m._replace(ks=(3, 1, 1, 0))

"""Tests for exhaustive subgroup enumeration and formula verification."""

import hashlib
import importlib
import json
import math
import time
import tracemalloc
from collections import Counter

import pytest

from reference import coset_scan, subgroup_sets_by_covers
from z2z8.census import (
    _box,
    _walk,
    census,
    census_to_json,
    enumerate_subgroups,
    formula_census,
    verify_formula,
)
from z2z8.codes import Code, MixedWord, _Ambient, _classify, _torsion_sizes, classify_type, span
from z2z8.errors import AmbientTooLargeError


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "alpha,beta,e,expected",
    [
        (1, 1, 3, 11),  # 1+2+2+2+1+1+1+1 over the eight realizable types
        (0, 1, 3, 4),   # the subgroup chain of Z8
        (1, 0, 3, 2),
        (0, 0, 3, 1),
        (1, 1, 2, 8),
    ],
)
def test_subgroup_totals(alpha, beta, e, expected):
    assert len(enumerate_subgroups(alpha, beta, e)) == expected


def test_enumerated_subgroups_are_distinct_and_closed():
    subs = enumerate_subgroups(2, 1, 3)
    assert len({c.words for c in subs}) == len(subs)
    for c in subs:
        assert c.is_subgroup()
        classify_type(c)  # must not raise


def test_enumeration_is_deterministic():
    a = enumerate_subgroups(1, 1, 3)
    b = enumerate_subgroups(1, 1, 3)
    assert [c.words for c in a] == [c.words for c in b]


def test_enumeration_finds_known_subgroups():
    subs = enumerate_subgroups(1, 1, 3)
    assert span([MixedWord((1,), (4,))]).words in {c.words for c in subs}
    assert span([MixedWord((1,), (2,))]).words in {c.words for c in subs}


# Every ambient of at most 2^8 words with alpha <= 4, (2,2,3) among them, and
# (3,2,3) of 2^9 words.  The cover walk costs its subgroups times the ambient
# words: 0.35 s for (5,1,3), 1 s for Z2^7 (29,212 subgroups), 3 s for
# (6,1,2) and 28 s for Z2^8 (417,199), so larger alpha is left out.
COVER_WALK_AMBIENTS = [
    (alpha, beta, e)
    for e in (2, 3)
    for beta in range(8 // e + 1)
    for alpha in range(min(4, 8 - e * beta) + 1)
] + [(3, 2, 3)]


def walked_subgroups(ambient):
    """The subgroups of the ambient, in the order of the walk over every coordinate."""
    return [ambient.adjoin(sub, x) if x else sub for sub, x, *_ in _walk(ambient)]


@pytest.mark.parametrize("alpha,beta,e", COVER_WALK_AMBIENTS)
def test_coordinate_walk_matches_cover_walk(alpha, beta, e):
    # the same packed subgroups, in the same order, as the lattice walk by covers
    subs = enumerate_subgroups(alpha, beta, e)
    assert [c._packed for c in subs] == subgroup_sets_by_covers(_Ambient(alpha, beta, e))


@pytest.mark.parametrize("alpha,beta,e", COVER_WALK_AMBIENTS + [(0, 3, 3)])
def test_carried_coset_words_are_the_coset_scans(alpha, beta, e):
    # every subgroup of the ambient, in walk order, with the box its bounds
    # fix, against the scan of the ambient: the same words in the same
    # order, so the same lifts once grouped by their order modulo the
    # subgroup, as a further coordinate would see them
    ambient = _Ambient(alpha, beta, e)
    n = len(ambient.moduli)
    walked = 0
    for sub, x, _, bounds in _walk(ambient):
        sub = ambient.adjoin(sub, x) if x else sub
        words = _box(ambient, bounds, {(): [0]})
        assert len(bounds) == n and len(words) == math.prod(bounds) == 2 ** ambient.bits // len(sub)
        assert words == coset_scan(ambient, n, sub)
        walked += 1
    assert walked == census(alpha, beta, e).total_subgroups


def test_walk_holds_one_subgroup_per_coordinate(monkeypatch):
    # the levels are chained generators: the first item of a 2^120-word
    # ambient, the zero subgroup, comes through all 40 of them at once,
    # with no subgroup built and no box, whose first would be the zero
    # subgroup's coset words on the first 39 coordinates, 2^117 words
    module = importlib.import_module("z2z8.census")

    def refuse(*args):
        raise AssertionError("the walk built a subgroup or a box")

    monkeypatch.setattr(_Ambient, "adjoin", refuse)
    monkeypatch.setattr(module, "_box", refuse)
    start = time.perf_counter()
    item = next(_walk(_Ambient(0, 40, 3)))
    assert time.perf_counter() - start < 1.0
    assert item == (frozenset([0]), 0, (0, 0, 0, 0), (8,) * 40)


def test_first_item_holds_no_prefix_group():
    # the walk's memory grows with the subgroups it holds, not with the
    # prefix group: the zero subgroup's coset words on the first 6
    # coordinates of (0,7,3) are 262,144 words, about 13 MiB as a list
    tracemalloc.start()
    try:
        next(_walk(_Ambient(0, 7, 3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_walk_builds_no_prefix_group(monkeypatch):
    # the walk reads its coset words off boxes: neither the ambient's words
    # nor the scan of a prefix group is ever needed (any such scan,
    # `coset_scan`'s among them, lists the group by `_Ambient.elements`)
    def refuse(*args):
        raise AssertionError("the walk built a group of words")

    monkeypatch.setattr(_Ambient, "elements", refuse)
    assert census(3, 2, 3).total_subgroups == 4162
    assert len(enumerate_subgroups(2, 2, 3)) == 671


def test_no_coset_words_for_the_last_coordinate(monkeypatch):
    # the census and the enumeration build each distinct box once, and only
    # on the first n - 1 = 4 coordinates of (3,2,3): never one for the last
    # coordinate's subgroups
    module = importlib.import_module("z2z8.census")
    box, built = module._box, []

    def recorded(ambient, bounds, boxes):
        if bounds not in boxes:
            built.append(bounds)
        return box(ambient, bounds, boxes)

    monkeypatch.setattr(module, "_box", recorded)
    for run in (census, enumerate_subgroups):
        built.clear()
        run(3, 2, 3)
        assert built and max(map(len, built)) <= 4
        assert len(built) == len(set(built))


def test_guard_rejects_large_ambient():
    with pytest.raises(AmbientTooLargeError):
        enumerate_subgroups(4, 4, 3)  # exactly 2^16 words: at the guard
    with pytest.raises(AmbientTooLargeError):
        census(17, 0, 3)


def test_guard_refuses_before_building_anything():
    # 2^40 words: refused from the dimensions alone, before any word is built
    start = time.perf_counter()
    with pytest.raises(AmbientTooLargeError):
        enumerate_subgroups(40, 0, 3)
    with pytest.raises(AmbientTooLargeError):
        census(40, 0, 3)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("walk", [census, enumerate_subgroups, verify_formula])
@pytest.mark.parametrize("alpha,beta,e", [
    (15, 0, 3),  # 6.2 * 10^17 subgroups in 2^15 words
    (0, 100, 3),  # 176,851 types, refused before the first
    (1, 5, 3),  # 6.2 * 10^7 subgroups
])
def test_guard_refuses_on_the_predicted_subgroups_at_once(walk, alpha, beta, e):
    start = time.perf_counter()
    with pytest.raises(AmbientTooLargeError, match="subgroups"):
        walk(alpha, beta, e)
    assert time.perf_counter() - start < 1.0


def test_guard_lays_out_nothing_by_the_dimensions():
    # the types come one at a time: (0, 150, 3) has 585,276 of them and is
    # refused before the first; the ambient's masks take linear time
    tracemalloc.start()
    try:
        with pytest.raises(AmbientTooLargeError):
            census(0, 150, 3)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    start = time.perf_counter()
    _Ambient(200_000, 200_000, 3)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("alpha,beta", [(15, 0), (10**6, 0), (0, 10**6)])
def test_guard_refuses_before_any_count(monkeypatch, alpha, beta):
    # the 2-torsion alone has too many subgroups: no count, such as
    # [10^6; 1]_2 = 2^(10^6) - 1, is built to find that out
    from z2z8 import counting

    monkeypatch.setattr(counting, "count", lambda profile: pytest.fail(f"counted {profile}"))
    for walk in (census, enumerate_subgroups, verify_formula):
        with pytest.raises(AmbientTooLargeError, match="subgroups"):
            walk(alpha, beta, 3)


def test_verify_formula_counts_each_profile_once(monkeypatch):
    # the guard's running total is the formula census that verify compares
    from z2z8 import counting

    calls = []
    count = counting.count
    monkeypatch.setattr(counting, "count", lambda profile: calls.append(profile) or count(profile))
    assert verify_formula(2, 2, 3).all_match
    assert calls == [counting._z8_slots(2, 2, ks) for ks in counting._valid_ks(2, 2, 3)]


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def test_census_golden_entries():
    c = census(2, 2, 3)
    assert c.counts[(1, 1, 1, 0)] == 36
    assert c.counts[(2, 1, 0, 0)] == 48
    assert c.total_subgroups == sum(c.counts.values()) == 671
    assert c.provenance == "enumeration"


def test_census_z4_golden_entries():
    c = census(2, 2, 2)
    assert c.counts[(1, 1, 1)] == 18
    assert c.total_subgroups == 249


def test_census_streams_the_subgroups():
    # census classifies each subgroup as the walk yields it and keeps none
    def peak(f):
        tracemalloc.start()
        try:
            f(2, 2, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(census) < peak(enumerate_subgroups) / 2


@pytest.mark.parametrize("alpha,beta,e", COVER_WALK_AMBIENTS)
def test_census_matches_per_subgroup_classification(alpha, beta, e):
    # reference: one Code and one _classify per subgroup, no sizes tally
    ambient = _Ambient(alpha, beta, e)
    expected = Counter(_classify(Code._from_packed(ambient, s)) for s in walked_subgroups(ambient))
    c = census(alpha, beta, e)
    assert c.counts == dict(expected)
    assert c.total_subgroups == sum(expected.values())


# with a third Z8 coordinate, whose children read the walk's one table of
# child sizes for sizes first tabled on the coordinates before it
@pytest.mark.parametrize("alpha,beta,e", COVER_WALK_AMBIENTS + [(0, 3, 3), (1, 3, 3)])
def test_carried_sizes_match_counted_signatures(alpha, beta, e):
    # subgroup by subgroup, in walk order: the sizes `_walk` carries
    # against the words of the full walk's subgroups, counted by the
    # reference
    ambient = _Ambient(alpha, beta, e)
    counted = [_torsion_sizes(sub, ambient) for sub in walked_subgroups(ambient)]
    assert [sizes for _, _, sizes, *_ in _walk(ambient)] == counted


def test_census_builds_no_subgroup_of_the_last_coordinate(monkeypatch):
    # only the subgroups of (3,1,3), the last coordinate's parents, are built;
    # adjoin once per subgroup of (3,2,3) would be 4,161 calls
    prefixes = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1)]
    bound = sum(census(alpha, beta, 3).total_subgroups for alpha, beta in prefixes)
    calls = 0
    adjoin = _Ambient.adjoin

    def counted(self, group, g):
        nonlocal calls
        calls += 1
        return adjoin(self, group, g)

    monkeypatch.setattr(_Ambient, "adjoin", counted)
    assert census(3, 2, 3).total_subgroups == 4162
    assert 0 < calls < bound


def test_census_output_unchanged():
    # sha256 over census_to_json(census(...)) for every COVER_WALK_AMBIENTS
    # ambient, taken before the census typed its carried sizes directly
    digest = hashlib.sha256()
    for alpha, beta, e in COVER_WALK_AMBIENTS:
        digest.update(census_to_json(census(alpha, beta, e)).encode())
    assert digest.hexdigest() == "87a76b7ecc3d672765c567b948dac9977d910933b31306b073314be15d802536"


def test_census_small():
    c = census(1, 1, 3)
    assert c.counts[(1, 0, 0, 0)] == 2  # spans of (1|0) and (1|4)
    assert c.counts[(0, 1, 0, 0)] == 2
    assert c.total_subgroups == 11


def test_census_keys_are_valid_profiles():
    c = census(1, 2, 3)
    for k0, k1, k2, k3 in c.counts:
        assert k0 <= 1 and k1 + k2 + k3 <= 2


def test_z8_specialization_against_pure_z8_census():
    # linear codes over Z8^n are the subgroups of the alpha = 0 ambient
    from z2z8.counting import count_z8

    for n in (1, 2):
        c = census(0, n, 3)
        for (k0, k1, k2, k3), enumerated in c.counts.items():
            assert k0 == 0
            assert count_z8(n, k1, k2, k3) == enumerated, (n, k1, k2, k3)
    assert census(0, 2, 3).total_subgroups == 37


# ---------------------------------------------------------------------------
# formula verification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,beta,e", [(1, 1, 3), (2, 1, 3), (2, 1, 2), (1, 2, 2), (3, 2, 2)])
def test_verify_formula_matches(alpha, beta, e):
    report = verify_formula(alpha, beta, e)
    assert report.all_match
    assert report.total_enumerated == report.total_formula
    for row in report.rows:
        assert row.match, row


@pytest.mark.parametrize(
    "alpha,beta,e,total",
    [(3, 2, 3, 4162), (1, 3, 3, 4229), (3, 3, 2, 33858), (0, 4, 3, 43339), (5, 2, 2, 129858)],
)
def test_verify_formula_at_oracle_reach(alpha, beta, e, total):
    # the largest ambients the suite walks, 2^9 to 2^12 words
    report = verify_formula(alpha, beta, e)
    assert report.all_match
    assert report.total_enumerated == report.total_formula == total


def test_verify_covers_every_valid_profile():
    report = verify_formula(1, 1, 3)
    assert len(report.rows) == 8
    assert report.total_enumerated == 11


@pytest.mark.parametrize("alpha,beta,e", [(2, 2, 1), (2, 2, 4), (-1, 2, 3), (2, -1, 2)])
def test_formula_census_rejects_what_census_rejects(alpha, beta, e):
    # the ring exponent and the dimensions, with census's ValueError
    with pytest.raises(ValueError) as enumerated:
        census(alpha, beta, e)
    with pytest.raises(ValueError) as formula:
        formula_census(alpha, beta, e)
    assert str(formula.value) == str(enumerated.value)


def test_formula_census_is_refused_on_its_types_at_once(monkeypatch):
    # (300+1) C(303, 3) = 1,381,755,851 types, refused before the first count
    from z2z8 import counting

    monkeypatch.setattr(counting, "count", lambda profile: pytest.fail(f"counted {profile}"))
    start = time.perf_counter()
    with pytest.raises(AmbientTooLargeError, match=r"formula_census\(300, 300, 3\) \(its types\)"):
        formula_census(300, 300, 3)
    assert time.perf_counter() - start < 1


def test_formula_census_is_refused_on_the_bits_of_its_counts():
    # 501 types, each admitted by count's own guard, but over 10^7 bits in all: refused part way
    start = time.perf_counter()
    with pytest.raises(AmbientTooLargeError, match=r"formula_census\(500, 0, 3\) \(the bits of its counts\)"):
        formula_census(500, 0, 3)
    assert time.perf_counter() - start < 1
    assert formula_census(300, 0, 3).total_subgroups > 0  # 4.5 * 10^6 bits


def test_formula_census_mirrors_enumeration():
    predicted = formula_census(1, 2, 3)
    enumerated = census(1, 2, 3)
    assert predicted.provenance == "formula"
    assert predicted.counts == enumerated.counts
    assert predicted.total_subgroups == enumerated.total_subgroups == 140


def test_formula_census_output_unchanged():
    # sha256 over census_to_json for alpha, beta = 0..6 and both rings, taken
    # before the Z2Z4 types went through counting._valid_ks and _z8_slots
    digest = hashlib.sha256()
    for e in (2, 3):
        for alpha in range(7):
            for beta in range(7):
                digest.update(census_to_json(formula_census(alpha, beta, e)).encode())
    assert digest.hexdigest() == "cfe5c9f4073d02cfa3708c9fc0a82b4b4e93928c212ca3f09d9cfb592ded3d9d"


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------

def test_census_json_schema_and_round_trip():
    c = census(1, 1, 3)
    doc = json.loads(census_to_json(c))
    assert doc["alpha"] == 1 and doc["beta"] == 1 and doc["e"] == 3
    assert doc["total"] == "11"
    assert all(isinstance(entry["count"], str) for entry in doc["counts"])
    rebuilt = {tuple(entry["profile"]): int(entry["count"]) for entry in doc["counts"]}
    assert rebuilt == c.counts
    profiles = [tuple(entry["profile"]) for entry in doc["counts"]]
    assert profiles == sorted(profiles)

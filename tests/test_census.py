"""Tests for exhaustive subgroup enumeration and formula verification."""

import json
import time

import pytest

from z2z8.census import (
    census,
    census_to_json,
    enumerate_subgroups,
    formula_census,
    verify_formula,
)
from z2z8.codes import MixedWord, classify_type, span
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


@pytest.mark.parametrize("alpha,beta,e,total", [(3, 2, 3, 4162), (1, 3, 3, 4229)])
def test_verify_formula_at_oracle_reach(alpha, beta, e, total):
    # the largest Z8 ambients (2^9 and 2^10 words) the suite walks
    report = verify_formula(alpha, beta, e)
    assert report.all_match
    assert report.total_enumerated == report.total_formula == total


def test_verify_covers_every_valid_profile():
    report = verify_formula(1, 1, 3)
    assert len(report.rows) == 8
    assert report.total_enumerated == 11


def test_formula_census_mirrors_enumeration():
    predicted = formula_census(1, 2, 3)
    enumerated = census(1, 2, 3)
    assert predicted.provenance == "formula"
    assert predicted.counts == enumerated.counts
    assert predicted.total_subgroups == enumerated.total_subgroups == 140


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

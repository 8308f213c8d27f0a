"""Ground-truth engine: exhaustive subgroup enumeration and type census.

Every subgroup of Z2^alpha x Z_{2^e}^beta (desk scale only) is produced by
a walk over the coordinates and tallied by its torsion signature; each
distinct signature is then typed once, by the steps of `codes.classify_type`,
into a census that `verify_formula` compares with the formulas type by type.

The walk adds one coordinate at a time, the column-by-column construction
behind echelon and Howell forms over Z_{2^e}.  A subgroup M of P x Z_m, P the
group on the coordinates already added, is fixed by its part K in P, the
image of its new coordinate and one coset of K in P (see `_extend`), so every
subgroup is built exactly once, with no seen-set and no scan of the whole
ambient.  The levels are chained generators: `census` reads each subgroup
as it comes and holds none of them.  The walk runs on the packed
words of `codes`, and no subgroup is decoded.  The older walk by index-2
covers stays as the test reference, `_subgroup_sets_by_covers`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Iterator

from . import codes, counting
from .codes import Code
from .errors import AmbientTooLargeError

__all__ = [
    "TypeCensus",
    "VerifyRow",
    "VerifyReport",
    "enumerate_subgroups",
    "census",
    "formula_census",
    "verify_formula",
    "census_to_json",
]

AMBIENT_GUARD_BITS = 16  # enumeration refuses ambient groups of 2^16 words or more


def check_ambient_size(alpha: int, beta: int, e: int) -> None:
    """Refuse an ambient group at or above the enumeration guard.

    The size is worked out from the dimensions, before any word is built.
    """
    bits = alpha + e * beta
    if bits >= AMBIENT_GUARD_BITS:
        raise AmbientTooLargeError(
            f"ambient group has 2^{bits} words, at or above the 2^{AMBIENT_GUARD_BITS} guard"
        )


def _extend(ambient: codes._Ambient, i: int, prefix: list[int],
            subgroups: Iterable[frozenset[int]]) -> Iterator[frozenset[int]]:
    """The subgroups of P x Z_m, from the subgroups of P.

    P is the group `prefix` on the coordinates below i and Z_m, m = 2^top, is
    coordinate i.  A subgroup M of P x Z_m is fixed by its part K in P (`sub`
    below), by its image 2^a Z_m in coordinate i, and by the coset v + K of
    the lifts of 2^a: the words v of P with x = v + 2^a e_i in M.  Such a v
    needs 2^(top-a) v in K, that is, the order of v modulo K divides
    2^(top-a).  Conversely each such triple gives M = K | K + x | K + 2x | ...,
    so every subgroup is built once.  The moduli never decrease along the
    coordinates, so the order of a word of P divides m.
    """
    mask, unit = ambient.mask, 1 << (4 * i)
    top = ambient.moduli[i].bit_length() - 1
    for sub in subgroups:
        yield sub
        # lifts[b]: one word of each coset of `sub` in P of order 2^b modulo `sub`
        lifts: list[list[int]] = [[0]] + [[] for _ in range(top)]
        covered = set(sub)
        for v in prefix:
            if v not in covered:
                covered.update([(w + v) & mask for w in sub])
                b, y = 1, (v + v) & mask
                while y not in sub:
                    b, y = b + 1, (y + y) & mask
                lifts[b].append(v)
        for b in range(1, top + 1):
            image = unit << (top - b)  # 2^a e_i with a = top - b
            for v in chain.from_iterable(lifts[: b + 1]):
                yield ambient.adjoin(sub, v | image)


def _subgroup_stream(ambient: codes._Ambient) -> Iterator[frozenset[int]]:
    """Every subgroup of the ambient group, once each, adding one coordinate
    at a time.  The levels are chained generators, so a walk holds one
    subgroup per coordinate and no list of them."""
    level: Iterable[frozenset[int]] = [frozenset([0])]
    for i, prefix in zip(range(len(ambient.moduli)), ambient.prefixes()):
        level = _extend(ambient, i, prefix, level)
    return iter(level)


def _subgroup_sets_by_covers(ambient: codes._Ambient) -> list[frozenset[int]]:
    """Test reference for `_subgroup_stream`: the lattice walked layer by
    layer, ordered as `enumerate_subgroups` orders it.

    A maximal subgroup S of a finite abelian 2-group T has index 2, so
    T = S | (S + g) for any g in T outside S, and 2g is in S.  Layer n+1 is
    the set of these covers of layer n.  Each subgroup is built once per
    maximal subgroup and every S scans the whole ambient, so nothing but the
    tests calls this.
    """
    mask, elements = ambient.mask, ambient.elements()
    layer = [frozenset([0])]
    ordered: list[frozenset[int]] = []
    while layer:
        ordered += layer
        covers = set()
        for sub in layer:
            covered = set(sub)
            for g in elements:
                if g not in covered and (g + g) & mask in sub:
                    coset = [(w + g) & mask for w in sub]
                    covered.update(coset)
                    covers.add(sub.union(coset))
        layer = sorted(covers, key=sorted)
    return ordered


def enumerate_subgroups(alpha: int, beta: int, e: int = 3) -> list[Code]:
    """Every distinct subgroup of Z2^alpha x Z_{2^e}^beta, exactly once.

    Ordered by size then by packed word content, so repeated runs agree.
    """
    check_ambient_size(alpha, beta, e)
    ambient = codes._Ambient(alpha, beta, e)
    subgroups = sorted(_subgroup_stream(ambient), key=lambda s: (len(s), sorted(s)))
    return [Code._from_packed(ambient, sub) for sub in subgroups]


@dataclass(frozen=True)
class TypeCensus:
    """Exact per-type subgroup counts for one ambient group."""

    alpha: int
    beta: int
    e: int
    counts: dict[tuple[int, ...], int]  # (k0,k1,k2,k3) keys for e=3, (k0,k1,k2) for e=2
    total_subgroups: int
    provenance: str  # "enumeration" or "formula"


def census(alpha: int, beta: int, e: int = 3) -> TypeCensus:
    """Enumerate all subgroups and tally them by classified type.

    The walk's subgroups are tallied by torsion signature as they come, so
    the census holds none of them.  Each distinct signature is then typed
    once; a type fixes its torsion sizes, so no two signatures share one.
    """
    check_ambient_size(alpha, beta, e)
    ambient = codes._Ambient(alpha, beta, e)
    signatures = Counter(codes._torsion_signature(s, ambient) for s in _subgroup_stream(ambient))
    tallies = {codes._type_from_signature(sig, e): n for sig, n in signatures.items()}
    total = sum(tallies.values())
    return TypeCensus(alpha, beta, e, dict(sorted(tallies.items())), total, "enumeration")


def formula_census(alpha: int, beta: int, e: int = 3) -> TypeCensus:
    """Census predicted by the counting formulas, one entry per valid profile.

    A type (k0; k_1..k_e) is counted as the Z8 type with 3 - e leading zero
    modular slots: over Z_{2^e} there are no generators of the higher orders.
    """
    counts: dict[tuple[int, ...], int] = {}
    for k0 in range(alpha + 1):
        for ks in product(range(beta + 1), repeat=e):
            if sum(ks) <= beta:
                profile = counting.TypeProfile(alpha, beta, k0, *(0,) * (3 - e), *ks)
                counts[(k0, *ks)] = counting.count(profile)
    total = sum(counts.values())
    return TypeCensus(alpha, beta, e, dict(sorted(counts.items())), total, "formula")


@dataclass(frozen=True)
class VerifyRow:
    profile: tuple[int, ...]
    enumerated: int
    formula: int

    @property
    def match(self) -> bool:
        return self.enumerated == self.formula


@dataclass(frozen=True)
class VerifyReport:
    alpha: int
    beta: int
    e: int
    rows: tuple[VerifyRow, ...]
    total_enumerated: int
    total_formula: int

    @property
    def all_match(self) -> bool:
        return self.total_enumerated == self.total_formula and all(r.match for r in self.rows)


def verify_formula(alpha: int, beta: int, e: int = 3) -> VerifyReport:
    """Compare the enumerated census with the formula, profile by profile."""
    enumerated = census(alpha, beta, e)
    formula = formula_census(alpha, beta, e)
    keys = sorted(set(enumerated.counts) | set(formula.counts))
    rows = tuple(
        VerifyRow(k, enumerated.counts.get(k, 0), formula.counts.get(k, 0)) for k in keys
    )
    return VerifyReport(alpha, beta, e, rows, enumerated.total_subgroups, formula.total_subgroups)


def census_to_json(c: TypeCensus) -> str:
    """JSON with counts as decimal strings, stable profile order."""
    doc = {
        "alpha": c.alpha,
        "beta": c.beta,
        "e": c.e,
        "total": str(c.total_subgroups),
        "provenance": c.provenance,
        "counts": [
            {"profile": list(profile), "count": str(n)}
            for profile, n in sorted(c.counts.items())
        ],
    }
    return json.dumps(doc, indent=2) + "\n"

"""Ground-truth engine: exhaustive subgroup enumeration and type census.

Every subgroup of Z2^alpha x Z_{2^e}^beta (desk scale only) is produced by
a breadth-first walk of the subgroup lattice, classified through
`codes.classify_type`, and tallied into a census that `verify_formula`
compares against the counting formulas profile by profile.

The walk grows layer by layer: in a finite abelian 2-group every maximal
subgroup of T has index 2, so every T is reached from some already-known S
by adjoining a single element g with 2g in S, and T = S + (S + g).  It runs
on the packed words of `codes`, and no subgroup is decoded.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import product

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


def _subgroup_sets(ambient: codes._Ambient) -> list[frozenset[int]]:
    adjoin = ambient.adjoin
    pairs = [(g, ambient.double(g)) for g in ambient.elements()]
    zero = frozenset([0])
    found: set[frozenset[int]] = {zero}
    frontier = [zero]
    while frontier:
        next_frontier = []
        for sub in frontier:
            for g, g2 in pairs:
                if g in sub or g2 not in sub:
                    continue
                enlarged = adjoin(sub, g)
                if enlarged not in found:
                    found.add(enlarged)
                    next_frontier.append(enlarged)
        frontier = next_frontier
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def enumerate_subgroups(alpha: int, beta: int, e: int = 3) -> list[Code]:
    """Every distinct subgroup of Z2^alpha x Z_{2^e}^beta, exactly once.

    Ordered by size then by packed word content, so repeated runs agree.
    """
    check_ambient_size(alpha, beta, e)
    ambient = codes._Ambient(alpha, beta, e)
    return [Code._from_packed(ambient, sub) for sub in _subgroup_sets(ambient)]


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
    """Enumerate all subgroups and tally them by classified type."""
    subgroups = enumerate_subgroups(alpha, beta, e)
    types = (codes.classify_type(code) for code in subgroups)
    tallies = Counter(t.ks if e == 3 else t for t in types)
    return TypeCensus(alpha, beta, e, dict(sorted(tallies.items())), len(subgroups), "enumeration")


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

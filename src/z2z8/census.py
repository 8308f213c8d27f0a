"""Ground-truth engine: exhaustive subgroup enumeration and type census.

Every subgroup of Z2^alpha x Z_{2^e}^beta (desk scale only) is reached by
a walk over the coordinates that carries its torsion sizes (s_1, ..., s_e, z);
`census` tallies the sizes and types each distinct sizes tuple once, by
`codes._type_from_sizes`, into a census that `verify_formula` compares with
the formulas type by type.

The walk adds one coordinate at a time, the column-by-column construction
behind echelon and Howell forms over Z_{2^e}.  A subgroup M of P x Z_m, P the
group on the coordinates already added, is fixed by its part K in P, the
image of its new coordinate and one coset of K in P (see `_children`), so
every subgroup comes exactly once, with no seen-set.  `_walk` yields each
subgroup as K and a word x to adjoin, with its torsion sizes and the bounds
of the box of its coset words (see `_box`); a further coordinate builds M
and reads that box, each distinct one built once per walk, so no group of
words is ever scanned.  The last coordinate's subgroups are yielded
unbuilt: `census` tallies their sizes and `enumerate_subgroups` builds them.
The sizes follow from K's and a few lookups in tables built once per K, so
no word of M is counted.  It runs on the packed words of `codes`, and no
subgroup is decoded.  `codes._torsion_sizes` is the word-counting reference
for the carried sizes; the tests keep the other references, the older walk
by index-2 covers and a scan of P for the cosets of K.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from . import codes, counting
from .codes import Code
from .errors import check_work

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

# an item of `_walk`: (K, x, torsion sizes, bounds of the subgroup's coset box)
_Item = tuple[frozenset[int], int, tuple[int, ...], tuple[int, ...]]


def _box(ambient: codes._Ambient, bounds: tuple[int, ...], boxes: dict) -> list[int]:
    """The box of `bounds` = (r_0, ..., r_i), the words sum d_j e_j with d_j < r_j,
    last coordinate outermost, built once per walk in `boxes` from `bounds[:-1]`'s.

    These are the coset words of a walk item, r_j = m_j >> b_j for its image
    order 2^b_j in coordinate j, by induction on i: let M in P x Z_m have
    part K in P, whose coset words are the box u of `bounds[:-1]`, and image
    2^a Z_m, 2^a = r_i.  Two words u + d e_i and u' + d' e_i with d, d' < 2^a
    lie in one coset of M only if d = d' and then u - u' lies in K, so
    u = u'; and there are |P x Z_m| / |M| = 2^a |P| / |K| of them.  With d
    outer and u inner, each is the first of its coset in the order of the
    group on coordinates 0..i, as a scan of that group finds them.
    """
    box = boxes.get(bounds)
    if box is None:
        axis = ambient.axes[len(bounds) - 1][: bounds[-1]]
        box = boxes[bounds] = [u | y for y in axis for u in _box(ambient, bounds[:-1], boxes)]
    return box


def _children(ambient: codes._Ambient, i: int, sub: frozenset[int], reps: list[int],
              sizes: tuple[int, ...], bounds: tuple[int, ...], grown: dict) -> Iterator[_Item]:
    """The subgroups of P x Z_m whose part in P is `sub`, other than `sub`
    itself, as items of `_walk`: `sub` + <x>, with image order 2^b in
    coordinate i and bounds `bounds` + (m >> b,), one tuple per b.

    P is the group on the coordinates below i, Z_m with m = 2^top is
    coordinate i, and `reps` is `sub`'s box in P, its coset words (see
    `_box`); the moduli never decrease along the coordinates, so the order
    of a word of P divides m.  A subgroup M of P x Z_m is fixed by its part
    K in P (`sub`), by its image 2^a Z_m in coordinate i, and by the coset
    v + K of the lifts of 2^a: the words v of P with x = v + 2^a e_i in M.
    Such a v needs 2^b v in K, b = top - a, that is, the order 2^c of v
    modulo K has c <= b.  Conversely each such triple gives
    M = K | K + x | K + 2x | ..., so every subgroup comes once.

    The sizes are (s_1, ..., s_e, z): M has 2^s_t words killed by 2^t and 2^z
    words of order <= 2 with zero binary part; K's are `sizes`.  M / K is
    cyclic of order 2^b, so |M[2^t]| = |K[2^t]| 2^(b-u) for u the least
    u >= max(b - t, 0) with 2^(t+u) v in 2^t K: s_t gains min(t, b, t + b - j)
    for j the least j with 2^j v in 2^t K, and s_e gains b, as M[2^e] = M.
    The words of order <= 2 with zero binary part double iff one of them is
    2^(top-1) in coordinate i: iff 2^b v = 2h for an h in K with
    h + 2^(b-1) v equal to a word of K[2] on the binary coordinates.  For
    b > c, h = 2^(b-1) v is one, so only b = c needs the lookup.  On a binary
    coordinate every s_t gains one, and z stays 0.

    The sizes of a child depend on its coset only through c, the j for each
    t < e, and the lookup at b = c, and not on i; `grown` keeps them by K's
    sizes and these, one table for the whole walk.
    """
    axis = ambient.axes[i]  # axis[d] = d e_i
    if i < ambient.alpha:
        # P is binary, so every word has order <= 2 modulo K: the lifts of
        # 1 are all the coset words, in their order
        doubled, box = (*(s + 1 for s in sizes[:-1]), sizes[-1]), bounds + (1,)
        for v in reps:
            yield sub, v | axis[1], doubled, box
        return
    mask, e = ambient.mask, ambient.e  # top = e on a Z_{2^e} coordinate
    # built once per K: a half in K of each word of 2K, 2^t K for t < e, and
    # the binary parts of K[2]
    halves = {(w + w) & mask: w for w in sub}
    multiples = [sub, halves.keys()]
    for _ in range(2, e):
        multiples.append({(w + w) & mask for w in multiples[-1]})
    bin_mask = ambient.bin_mask
    binary_2 = {w & bin_mask for w in sub if not (w + w) & mask}
    *s, z = sizes
    shapes = grown.setdefault(sizes, {})
    cosets: list[list[tuple[int, list]]] = [[] for _ in range(e + 1)]  # (v, sizes by b), by c
    for v in reps:
        # one chain w = 2^j v: 2^e v = 0 lies in every 2^t K, and 2^t K lies
        # in 2^(t-1) K, so j never decreases and v is doubled at most e times
        half, w, c = v, v, 0
        while w not in sub:
            half, w, c = w, (w + w) & mask, c + 1
        h = halves.get(w)
        doubles = c > 0 and h is not None and (h + half) & bin_mask in binary_2
        j, least = c, []
        for t in range(1, e):
            while w not in multiples[t]:
                w, j = (w + w) & mask, j + 1
            least.append(j)
        key = (c, *least, doubles)
        by_b = shapes.get(key)
        if by_b is None:
            by_b = shapes[key] = [None] * max(c, 1) + [
                (*(x + min(t, b, t + b - j) for t, x, j in zip(range(1, e), s, least)),
                 s[-1] + b, z + (b > c or doubles))
                for b in range(max(c, 1), e + 1)
            ]
        cosets[c].append((v, by_b))
    for b in range(1, e + 1):
        r = 1 << (e - b)  # m >> b = 2^a
        image, box = axis[r], bounds + (r,)
        for v, by_b in chain.from_iterable(cosets[: b + 1]):
            yield sub, v | image, by_b[b], box


def _extend(ambient: codes._Ambient, i: int, level: Iterable[_Item], grown: dict,
            boxes: dict) -> Iterator[_Item]:
    """The step of `_walk`: the subgroups of P x Z_m from those of P, each
    one, with bounds + (m,), then its children (see `_children`).  A
    subgroup of P is built, and its box fetched from the walk's `boxes`,
    only here, where coordinate i needs them; siblings share one bounds
    tuple, so a run of them fetches its box once."""
    m, last = ambient.moduli[i], None
    for sub, x, sizes, bounds in level:
        if x:
            sub = ambient.adjoin(sub, x)
        yield sub, 0, sizes, bounds + (m,)
        if bounds is not last:
            last, reps = bounds, _box(ambient, bounds, boxes)
        yield from _children(ambient, i, sub, reps, sizes, bounds, grown)


def _walk(ambient: codes._Ambient) -> Iterator[_Item]:
    """Every subgroup of the ambient, grown from the zero subgroup by
    `_extend` one coordinate at a time, as items (K, x, sizes, bounds): the
    subgroup is K when x == 0, else K + <x>, with K on the coordinates
    before the last, torsion sizes `sizes` and coset words the box of
    `bounds` (see `_box`), so its index is the product of `bounds`.  The
    reader builds the subgroup if it needs it.  The levels are chained
    generators, so a walk holds one subgroup and its bounds per coordinate;
    one `grown` table of child sizes and one `boxes` table serve every
    coordinate."""
    level: Iterable[_Item] = [(frozenset([0]), 0, (0,) * (ambient.e + 1), ())]
    grown: dict = {}
    boxes = {(): [0]}
    for i in range(len(ambient.moduli)):
        level = _extend(ambient, i, level, grown, boxes)
    return iter(level)


def enumerate_subgroups(alpha: int, beta: int, e: int = 3) -> list[Code]:
    """Every distinct subgroup of Z2^alpha x Z_{2^e}^beta, exactly once, unless too many (see `census`).

    Ordered by size then by packed word content, so repeated runs agree.
    """
    _formula_census(alpha, beta, e, "enumerate_subgroups")
    ambient = codes._Ambient(alpha, beta, e)
    walked = (ambient.adjoin(sub, x) if x else sub for sub, x, *_ in _walk(ambient))
    subgroups = sorted(walked, key=lambda s: (len(s), sorted(s)))
    return [Code._from_packed(ambient, sub) for sub in subgroups]


class TypeCensus(NamedTuple):
    """Exact per-type subgroup counts for one ambient group."""

    alpha: int
    beta: int
    e: int
    counts: dict[tuple[int, ...], int]  # (k0,k1,k2,k3) keys for e=3, (k0,k1,k2) for e=2
    total_subgroups: int
    provenance: str  # "enumeration" or "formula"


def census(alpha: int, beta: int, e: int = 3) -> TypeCensus:
    """Enumerate all subgroups and tally them by type, unless the formula counts too many (`check_work`).

    The torsion sizes of `_walk` are tallied as they come, so the
    census holds no subgroup, and builds none of the last coordinate's.
    Each distinct sizes tuple is then typed once; a type fixes its torsion
    sizes, so no two sizes tuples share one.
    """
    _formula_census(alpha, beta, e, "census")
    return _tally(alpha, beta, e)


def _tally(alpha: int, beta: int, e: int) -> TypeCensus:
    """The census of `census`, unguarded."""
    ambient = codes._Ambient(alpha, beta, e)
    tallies = {
        codes._type_from_sizes(sizes, e): n
        for sizes, n in Counter(map(itemgetter(2), _walk(ambient))).items()
    }
    total = sum(tallies.values())
    return TypeCensus(alpha, beta, e, dict(sorted(tallies.items())), total, "enumeration")


def formula_census(alpha: int, beta: int, e: int = 3) -> TypeCensus:
    """Census predicted by the counting formulas, one per valid profile; bad input raises as in `census`.
    Refused (AmbientTooLargeError) before the first count if its types, (alpha+1) C(beta+e, e), pass the
    work limit; each count is guarded on its bits as in `counting.count`, and all on their summed bits."""
    return _formula_census(alpha, beta, e, None)


def _formula_census(alpha: int, beta: int, e: int, job: str | None) -> TypeCensus:
    """`formula_census`, refused once its counts' summed bits, or for a `job` their sum, pass the limit."""
    codes._Ambient(alpha, beta, e)  # raises ValueError as census does; builds no words
    name = f"{job or 'formula_census'}({alpha}, {beta}, {e})"
    what, bits_what = f"{name} (subgroups, counted up to the limit)", f"{name} (the bits of its counts)"
    if job:  # before any count, its 2-torsion (Z2)^n alone: [n; n//2]_2 >= 2^(n//2 * (n+1)//2), n = alpha+beta
        check_work(1 << min((alpha + beta) // 2 * ((alpha + beta + 1) // 2), 64), what)
    check_work((alpha + 1) * math.comb(beta + e, e), f"{name} (its types)")
    counts, total, bits = {}, 0, 0
    for ks in counting._valid_ks(alpha, beta, e):
        counts[ks] = n = counting.count(counting._z8_slots(alpha, beta, ks))
        total += n
        bits += n.bit_length()
        check_work(bits, bits_what)
        if job:
            check_work(total, what)
    return TypeCensus(alpha, beta, e, counts, total, "formula")


class VerifyRow(NamedTuple):
    profile: tuple[int, ...]
    enumerated: int
    formula: int

    @property
    def match(self) -> bool:
        return self.enumerated == self.formula


class VerifyReport(NamedTuple):
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
    """Compare the enumerated census with the formula, profile by profile; the formula is the guard."""
    formula = _formula_census(alpha, beta, e, "verify_formula")
    enumerated = _tally(alpha, beta, e)
    keys = sorted(set(enumerated.counts) | set(formula.counts))
    rows = tuple(
        VerifyRow(k, enumerated.counts.get(k, 0), formula.counts.get(k, 0)) for k in keys
    )
    return VerifyReport(alpha, beta, e, rows, enumerated.total_subgroups, formula.total_subgroups)


def census_to_json(c: TypeCensus) -> str:
    """JSON with counts as decimal strings, stable profile order."""
    import json  # loaded on first use, as verify and census need no JSON

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

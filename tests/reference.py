"""Slow references that only the tests use, each the independent check of a
faster path in `z2z8`.

* `subgroup_sets_by_covers` walks the subgroup lattice by index-2 covers,
  the reference for the coordinate walk of `z2z8.census`.
* `coset_scan` finds the first word of each coset of a subgroup by a scan of
  the whole prefix group, the reference for the coset words that walk
  carries.
"""

from __future__ import annotations

from z2z8.codes import _Ambient


def coset_scan(ambient: _Ambient, i: int, sub: frozenset[int]) -> list[int]:
    """Test reference for the carried coset words: the first word of each
    coset of `sub` in P, in P's order, found by a scan of the whole of P,
    which the walk never builds.

    0 comes first, for `sub` itself; each word of P not yet covered is the
    first of its coset, and its coset is then covered.  P, the group on the
    first i coordinates, is packed and ordered as `_Ambient.elements`
    gives it.
    """
    mask = ambient.mask
    prefix = _Ambient(min(i, ambient.alpha), max(0, i - ambient.alpha), ambient.e)
    words, covered = [0], set(sub)
    for v in prefix.elements():
        if v not in covered:
            covered.update([(w + v) & mask for w in sub])
            words.append(v)
    return words


def subgroup_sets_by_covers(ambient: _Ambient) -> list[frozenset[int]]:
    """Test reference for the coordinate walk of `z2z8.census`: the lattice
    walked layer by layer, ordered as `enumerate_subgroups` orders it.

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

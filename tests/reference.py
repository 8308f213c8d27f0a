"""Slow references that only the tests use, each the independent check of a
faster path in `z2z8`.

* `subgroup_sets_by_covers` walks the subgroup lattice by index-2 covers,
  the reference for the coordinate walk of `z2z8.census`.
* `coset_scan` finds the first word of each coset of a subgroup by a scan of
  the whole prefix group, the reference for the boxes of coset words that
  walk reads.
* `paper_product_factors` multiplies out the product formula N1..N4 /
  D1..D4 term by term, as the paper writes it, the reference for the rows
  of `z2z8.counting._product_rows`.
"""

from __future__ import annotations

from z2z8.codes import _Ambient


def coset_scan(ambient: _Ambient, i: int, sub: frozenset[int]) -> list[int]:
    """Test reference for the walk's boxes of coset words: the first word of each
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


def paper_product_factors(profile) -> tuple[int, ...]:
    """Test reference for `counting._product_factors`: N1, N2, N3, N4, D1,
    D2, D3, D4 of the product formula, each a loop over its terms as the
    paper writes them; all 1 for invalid profiles."""
    if not profile.is_valid():
        return (1,) * 8
    a, b = profile.alpha, profile.beta
    k0, k1, k2, k3 = profile.ks

    n1 = n2 = n3 = n4 = 1
    for i in range(k0):
        n1 *= (2**a - 2**i) * 2**b
    for i in range(k1):
        n2 *= (8**b - 4**b * 2**i) * 2**a
    for i in range(k2):
        n3 *= (4**b - 2 ** (b + k1 + i)) * 2**a
    for i in range(k3):
        n4 *= 2**b - 2 ** (k2 + k1 + i)

    d1 = d2 = d3 = d4 = 1
    for i in range(k0):
        d1 *= 2 ** (k0 + k1 + k2 + k3) - 2 ** (k1 + k2 + k3 + i)
    for i in range(k1):
        d2 *= (8**k1 - 4**k1 * 2**i) * 2 ** (k0 + 2 * k2 + k3)
    for i in range(k2):
        d3 *= (4**k2 - 2 ** (k2 + i)) * 2 ** (k0 + 2 * k1 + k3)
    for i in range(k3):
        d4 *= 2 ** (k1 + k2 + k3) - 2 ** (k1 + k2 + i)
    return n1, n2, n3, n4, d1, d2, d3, d4

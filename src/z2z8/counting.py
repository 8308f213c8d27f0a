"""Counting additive codes over Z2^alpha x Z8^beta by type.

The central quantity is the number of distinct additive codes (subgroups)
of a given type (alpha, beta; k0, k1, k2, k3), known as a Mixed Generalized
Gaussian Number.  Two independent derivations are kept side by side: the
ordered-generator product formula and a closed form, built as a power of
two and four Gaussian binomials [n; k]_2, each a run of 2^j - 1 over
(n - k, n] divided by the run over (0, k].  Every factor of the
product formula is 2^i (2^j - 1), so `count` factors it, with no big
integer, into a power of two and eight runs; it insists that these are the
closed form's, factor by factor, run by run, and then multiplies the
integer out once, with `_product`, from the Phi_d(2), the values at 2 of
the cyclotomic polynomials, that divide each binomial, each read off
2^d - 1 = prod_{m | d} Phi_m(2).  `count_product` multiplies the same
eight rows, `_product_rows`, out with `_product` too and stays the
reference that the tests compare against, with the q-kernel in `qnum`.

Specializations cover linear codes over Z8, additive codes over Z2 x Z4,
and the classical 2-binomial coefficients, plus the duality arithmetic
relating a type to the type of its dual code, whose power of two delta_bar
is delta of the dual type.  One private helper holds each rule on a type
(alpha, beta, ks), ks = (k0, k_1..k_e), for both rings: `_valid_ks` lists
the realizable ks, `_z8_slots` embeds a type in the Z8 slots the formulas
count, `_dual_ks` is the dual's slot rule and `_type_str` prints it.  The
identity sweeps (`check_identities` and its records) live in
`z2z8.identities`, which loads on first use; they stay importable from here.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator, NamedTuple

from .errors import SelfCheckError, check_work
from .qnum import q_binomial

__all__ = [
    "TypeProfile",
    "CountBreakdown",
    "DeltaExponents",
    "IdentityCheck",  # this, IdentityReport and check_identities: see __getattr__
    "IdentityReport",
    "count",
    "count_product",
    "count_closed_form",
    "count_z8",
    "count_z2z4",
    "binary_binomial_identity",
    "delta_exponents",
    "dual_type",
    "count_dual",
    "self_dual_count_condition",
    "lemma_swap_k_l",
    "check_identities",
    "valid_profiles",
]


def __getattr__(name: str):
    # the identity sweeps live in z2z8.identities, compiled only when asked
    # for: most runs never check identities
    if name in ("IdentityCheck", "IdentityReport", "check_identities"):
        from . import identities

        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The value types are NamedTuples, not dataclasses: `dataclasses` imports
# `inspect`, which would load on every run of the command line.  A type that
# validates its fields does so in `__new__` on a subclass of its fields.

class _TypeProfileFields(NamedTuple):
    alpha: int
    beta: int
    k0: int
    k1: int
    k2: int
    k3: int


class TypeProfile(_TypeProfileFields):
    """Type (alpha, beta; k0, k1, k2, k3) of an additive code in Z2^a x Z8^b.

    k0 counts order-2 generators seen through the binary coordinates; k1, k2,
    k3 count order-8, order-4 and order-2 generators through the Z8
    coordinates.
    """

    __slots__ = ()

    def __new__(cls, alpha: int, beta: int, k0: int, k1: int, k2: int, k3: int) -> TypeProfile:
        self = tuple.__new__(cls, (alpha, beta, k0, k1, k2, k3))
        # six plain ints pass in one test; the loop names a bad field and lets bool through
        if not (type(alpha) is type(beta) is type(k0) is type(k1) is type(k2) is type(k3) is int
                and alpha | beta | k0 | k1 | k2 | k3 >= 0):
            for name, v in zip(cls._fields, self):
                if not isinstance(v, int) or v < 0:
                    raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> TypeProfile:  # so that _replace validates too
        return cls(*iterable)

    @property
    def l(self) -> int:
        """Total number of generators through the Z8 part."""
        return self.k1 + self.k2 + self.k3

    @property
    def ks(self) -> tuple[int, int, int, int]:
        return self[2:]

    def is_valid(self) -> bool:
        """A profile is realizable iff k0 <= alpha and k1+k2+k3 <= beta."""
        return self.k0 <= self.alpha and self.l <= self.beta

    def __str__(self) -> str:
        return _type_str(self.alpha, self.beta, self.ks)


def _valid_ks(alpha: int, beta: int, e: int) -> Iterator[tuple[int, ...]]:
    """Every realizable ks = (k0, k_1..k_e) over Z2^alpha x Z_{2^e}^beta, in
    lexicographic order: k0 <= alpha and k_1 + ... + k_e <= beta; lazily, as a guard may stop early."""
    if not e:
        return ((k0,) for k0 in range(alpha + 1))
    return ((*ks, k) for ks in _valid_ks(alpha, beta, e - 1) for k in range(beta - sum(ks[1:]) + 1))


def _z8_slots(alpha: int, beta: int, ks: tuple[int, ...]) -> TypeProfile:
    """The Z8 type that counts type ks; a Z2Z4 type has no order-8 generators, so k1 = 0."""
    if len(ks) == 3:
        ks = (ks[0], 0, *ks[1:])
    return TypeProfile(alpha, beta, *ks)


def _dual_ks(alpha: int, beta: int, ks: tuple[int, ...]) -> tuple[int, ...]:
    """(alpha-k0, beta-l, k_e..k_2): over Z4 every dual's type, over Z8 true of counts only."""
    return (alpha - ks[0], beta - sum(ks[1:]), *ks[:1:-1])


def _type_str(alpha: int, beta: int, ks: tuple[int, ...]) -> str:
    return f"({alpha},{beta};{','.join(map(str, ks))})"


class CountBreakdown(NamedTuple):
    """The eight factors of the product formula and their exact quotient."""

    n1: int
    n2: int
    n3: int
    n4: int
    d1: int
    d2: int
    d3: int
    d4: int
    total: int

    @property
    def numerator(self) -> int:
        return _product(self[:4])

    @property
    def denominator(self) -> int:
        return _product(self[4:8])


class DeltaExponents(NamedTuple):
    """Powers of two in the closed form (delta) and its dual (delta_bar)."""

    delta: int
    delta_bar: int


def _require_valid(profile: TypeProfile) -> None:
    if not profile.is_valid():
        raise ValueError(f"invalid type profile {profile}: needs k0 <= alpha and k1+k2+k3 <= beta")


def count_product(profile: TypeProfile) -> CountBreakdown:
    """Evaluate the ordered-generator product formula N1..N4 / D1..D4.

    Each Ni counts ordered generator choices in the whole ambient group, the
    matching Di counts them inside one code of the type; zero ki leave the
    corresponding factors at 1.  The factors are `_product_rows` evaluated
    in integers, the rows that `count` checks against the closed form.
    Invalid profiles yield total 0 with all factors 1.  The exact division
    makes this the labelled test oracle for `count`, which never divides.
    """
    breakdown = CountBreakdown(*_product_factors(profile), 0)
    if not profile.is_valid():
        return breakdown
    total, rem = divmod(breakdown.numerator, breakdown.denominator)
    if rem:
        raise SelfCheckError(f"product formula quotient not integral at {profile}")
    return breakdown._replace(total=total)


def _product_rows(profile: TypeProfile) -> tuple[tuple[int, int, int, int], ...]:
    """N1..N4, D1..D4 of the product formula as rows (sign, k, s, m) (valid profiles).

    The i-th of a row's k terms, i < k, is 2^(s+i) (2^(m-i) - 1), so the row
    is 2^(ks + k(k-1)/2) times the run of 2^j - 1 over (m - k, m]; sign is 1
    for a numerator and -1 for a denominator.
    """
    a, b, k0, k1, k2, k3 = profile
    l = k1 + k2 + k3
    return (
        (1, k0, b, a),                            # N1: (2^a - 2^i) 2^b
        (1, k1, 2 * b + a, b),                    # N2: (8^b - 4^b 2^i) 2^a
        (1, k2, b + k1 + a, b - k1),              # N3: (4^b - 2^(b+k1+i)) 2^a
        (1, k3, k1 + k2, b - k1 - k2),            # N4: 2^b - 2^(k2+k1+i)
        (-1, k0, l, k0),                          # D1: 2^(k0+l) - 2^(l+i)
        (-1, k1, 2 * k1 + k0 + 2 * k2 + k3, k1),  # D2: (8^k1 - 4^k1 2^i) 2^(k0+2k2+k3)
        (-1, k2, k2 + k0 + 2 * k1 + k3, k2),      # D3: (4^k2 - 2^(k2+i)) 2^(k0+2k1+k3)
        (-1, k3, k1 + k2, k3),                    # D4: 2^l - 2^(k1+k2+i)
    )


def _product_factors(profile: TypeProfile) -> tuple[int, ...]:
    """N1, N2, N3, N4, D1, D2, D3, D4: each row of `_product_rows` in integers; all 1 for
    invalid profiles.  Refused first if their bits, at most twice the numerator's
    (Di <= Ni), 2 sum k(s + m) over the numerator rows, pass the work limit."""
    if not profile.is_valid():
        return (1,) * 8
    rows = _product_rows(profile)
    check_work(2 * sum(k * (s + m) for sign, k, s, m in rows if sign > 0),
               "count --breakdown (the bits of its eight factors)")
    return tuple(_product((1 << j) - 1 for j in range(m - k + 1, m + 1)) << (k * s + k * (k - 1) // 2)
                 for _, k, s, m in rows)


def delta_exponents(profile: TypeProfile) -> DeltaExponents:
    """The powers of 2 of the closed forms (valid profiles): delta_bar is delta of the dual type."""
    _require_valid(profile)
    alpha, beta = profile.alpha, profile.beta
    return DeltaExponents(_delta(profile), _delta((alpha, beta, *_dual_ks(alpha, beta, profile.ks))))


def _delta(slots: tuple[int, ...]) -> int:
    """delta of the type (alpha, beta, k0, k1, k2, k3), without the validity check."""
    a, b, k0, k1, k2, k3 = slots
    r = b - k1 - k2 - k3
    return k0 * r + k1 * (a - k0 + 2 * r + k3) + k2 * (r + (a - k0))


def count_closed_form(profile: TypeProfile) -> int:
    """2^delta * [alpha; k0]_2 * [beta; k1,k2,k3]_2; 0 for invalid profiles."""
    if not profile.is_valid():
        return 0
    return _evaluate(*_closed_form(profile))


def count(profile: TypeProfile) -> int:
    """Number of distinct additive codes of the given type.

    The closed form is a power of two and four Gaussian binomials [n; k]_2,
    each the run of 2^j - 1 over (n - k, n] divided by the run over (0, k].
    The product formula is factored, with no big integer, into a power of
    two and eight such runs (see below), and must give the same power of two
    and the binomials' runs in the same order, factor by factor.  That makes
    the two agree as polynomials in q before q = 2 is put in, which is
    stronger than agreeing as integers; a disagreement raises SelfCheckError
    (it would mean a bug, not a bad input).  `_evaluate` then refuses the
    count (AmbientTooLargeError) if its bits pass `errors.WORK_LIMIT`, and
    builds the integer once from the Phi_d(2), the values at 2 of the
    cyclotomic polynomials, that divide each binomial.  [n; 0]_2 and
    [n; n]_2 take no step, so (10^20, 1; 0, 0, 0, 0) and
    (10^12, 0; 10^12, 0, 0, 0) count 1 at once.  Invalid profiles count 0.
    """
    if not profile.is_valid():
        return 0
    return _evaluate(*_agreed_form(profile))


def _agreed_form(profile: TypeProfile) -> tuple[int, list[tuple[int, int]]]:
    """The closed form (two, the four binomials (n, k)), once the product
    formula has given the same power of two and the binomials' runs
    (n - k, n] then (0, k], run by run (valid profiles); SelfCheckError if not."""
    two, binomials = _closed_form(profile)
    product = _product_form(profile)
    if product != (two, [(n - k, n, 1) for n, k in binomials] + [(0, k, -1) for _, k in binomials]):
        raise SelfCheckError(
            f"formula disagreement at {profile}: the closed form and the product formula "
            f"factor differently (exponent of 2: {two} vs {product[0]})"
        )
    return two, binomials


# ---------------------------------------------------------------------------
# factored evaluation
# ---------------------------------------------------------------------------
#
# Every term of the product formula is 2^i (2^j - 1), so `_product_form`
# gives it as (two, runs): the exponent of 2 and eight runs (lo, hi, sign),
# each the product of (2^j - 1)^sign over lo < j <= hi, in the order
# N1..N4, D1..D4 of `_product_rows`.
#
# 2^j - 1 is the product of Phi_d(2) over the divisors d of j: `_phi2`
# reads each Phi_d(2) off it, and Phi_d(2) divides [n; k]_2 exactly
# n//d - k//d - (n-k)//d times: 1 when n % d < k % d and 0 otherwise.
# `_evaluate` multiplies those Phi_d(2), 2 <= d <= n, out with `_product`,
# and skips [n; 0]_2 and [n; n]_2.  For 0 < k < n it takes n - 1 <= k(n - k)
# steps, so its guard on the bits, two + sum k(n - k), bounds the loop too.


def _closed_form(profile: TypeProfile) -> tuple[int, list[tuple[int, int]]]:
    """2^delta * [alpha; k0]_2 * [beta; k1,k2,k3]_2 as (delta, the four pairs
    (n, k)) (valid profiles): [beta; k1, k2, k3]_2 is the telescoping product
    [beta; k1]_2 [beta-k1; k2]_2 [beta-k1-k2; k3]_2."""
    alpha, beta, k0, k1, k2, k3 = profile
    return _delta(profile), [(alpha, k0), (beta, k1), (beta - k1, k2), (beta - k1 - k2, k3)]


def _product_form(profile: TypeProfile) -> tuple[int, list]:
    """`_product_rows` as a form (two, runs): the sum of the rows' powers of two
    and their runs (m - k, m], with signs (valid profiles)."""
    two, runs = 0, []
    for sign, k, s, m in _product_rows(profile):
        two += sign * (k * s + k * (k - 1) // 2)
        runs.append((m - k, m, sign))
    return two, runs


@functools.lru_cache(maxsize=4096)  # bounded: a long-lived process keeps at most this many values
def _phi2(d: int) -> int:
    """Phi_d(2) from 2^d - 1 = prod_{m | d} Phi_m(2): 2^d - 1 over the Phi_m(2) of the proper
    divisors m of d, in pairs {m, d // m} with 2 <= m <= sqrt(d), as Phi_1(2) = 1."""
    den = _product(_phi2(f) for m in range(2, math.isqrt(d) + 1) if d % m == 0 for f in {m, d // m})
    phi, rem = divmod((1 << d) - 1, den)
    if rem:
        raise SelfCheckError(f"2^{d} - 1 is not divisible by the Phi_m(2) of the proper divisors of {d}")
    return phi


def _evaluate(two: int, binomials: list[tuple[int, int]]) -> int:
    """2^two times the Gaussian binomials [n; k]_2, each the product of the
    Phi_d(2) with 2 <= d <= n and n % d < k % d; AmbientTooLargeError first
    if the count's bits, two + sum k(n - k), pass the work limit."""
    check_work(two + sum(k * (n - k) for n, k in binomials), "count (its bits)")
    if two < 0:
        raise SelfCheckError(f"the power of two has exponent {two}")
    leaves = (_phi2(d) for n, k in binomials if 0 < k < n for d in range(2, n + 1) if n % d < k % d)
    return _product(leaves) << two


def _product(xs: Iterable[int]) -> int:
    """The product of xs, 1 if none: pairwise, level by level, so most products are of like sizes."""
    xs, step = list(xs) or [1], 1
    while step < len(xs):  # xs[i] becomes the product of xs[i : i + 2 * step]
        for i in range(0, len(xs) - step, 2 * step):
            xs[i] *= xs[i + step]
        step *= 2
    return xs[0]


def count_z8(n: int, k1: int, k2: int, k3: int) -> int:
    """Number of distinct linear codes of type (k1,k2,k3) over Z8^n.

    Equal to count(1, n; 1, k1, k2, k3) divided by 2^(n - k1 - k2 - k3).
    The division comes off the power of two of `_agreed_form`, and
    `_evaluate` guards the quotient's bits, then raises SelfCheckError if
    that exponent went negative.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    profile = TypeProfile(1, n, 1, k1, k2, k3)
    if not profile.is_valid():
        return 0
    two, binomials = _agreed_form(profile)
    return _evaluate(two - (n - profile.l), binomials)


def count_z2z4(alpha: int, beta: int, k0: int, k1: int, k2: int) -> int:
    """Number of distinct additive codes of type (alpha,beta;k0,k1,k2) over Z2 x Z4; see `_z8_slots`."""
    return count(_z8_slots(alpha, beta, (k0, k1, k2)))


def binary_binomial_identity(n: int, k: int) -> int:
    """count(n,1;k,0,0,1), checked to equal the 2-binomial [n choose k]_2."""
    value = count(TypeProfile(n, 1, k, 0, 0, 1))
    expected = q_binomial(n, k, 2)
    if value != expected:
        raise SelfCheckError(f"binary specialization broke at (n,k)=({n},{k}): {value} != {expected}")
    return value


def dual_type(profile: TypeProfile) -> TypeProfile:
    """Type of the dual code: (alpha, beta; alpha-k0, beta-l, k3, k2)."""
    _require_valid(profile)
    return TypeProfile(profile.alpha, profile.beta, *_dual_ks(profile.alpha, profile.beta, profile.ks))


def count_dual(profile: TypeProfile) -> int:
    """Number of codes of the dual type, count(dual_type(profile)), with its two formulas
    cross-checked; its closed form, 2^delta_bar [alpha; alpha-k0]_2 [beta; beta-l, k3, k2]_2,
    is the closed form of the dual type, so delta_bar is that type's delta."""
    return count(dual_type(profile))


def self_dual_count_condition(profile: TypeProfile) -> bool:
    """True iff alpha*k2 = k0*(k2+k3), i.e. a type and its dual are equinumerous."""
    _require_valid(profile)
    return profile.alpha * profile.k2 == profile.k0 * (profile.k2 + profile.k3)


def lemma_swap_k_l(r: int, s: int, m: int, k: int, l: int) -> bool:
    """Whether count(r,s;m,k,l,0) equals count(r,s;m,l,k,0) (requires s = k+l, m <= r)."""
    if m > r:
        raise ValueError(f"need m <= r, got m={m}, r={r}")
    if s != k + l:
        raise ValueError(f"need s = k + l, got s={s}, k+l={k + l}")
    return count(TypeProfile(r, s, m, k, l, 0)) == count(TypeProfile(r, s, m, l, k, 0))


def valid_profiles(max_alpha: int, max_beta: int) -> Iterator[TypeProfile]:
    """All valid profiles with alpha <= max_alpha and beta <= max_beta."""
    for a in range(max_alpha + 1):
        for b in range(max_beta + 1):
            for ks in _valid_ks(a, b, 3):
                yield TypeProfile(a, b, *ks)

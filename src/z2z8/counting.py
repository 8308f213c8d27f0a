"""Counting additive codes over Z2^alpha x Z8^beta by type.

The central quantity is the number of distinct additive codes (subgroups)
of a given type (alpha, beta; k0, k1, k2, k3), known as a Mixed Generalized
Gaussian Number.  Two independent derivations are kept side by side: the
ordered-generator product formula and a closed form built from a power of
two and Gaussian binomials/multinomials.  Every factor of both is
2^i (2^j - 1), so `count` factors both, with no big integer, into a power
of two times powers of Phi_d(2), the values at 2 of the cyclotomic
polynomials; it insists that the two factorisations are equal, exponent by
exponent, and then multiplies the integer out once.  `count_product`
evaluates the product formula in integers and stays the reference that the
tests compare against, with the q-kernel in `qnum`.

Specializations cover linear codes over Z8, additive codes over Z2 x Z4,
and the classical 2-binomial coefficients, plus the duality arithmetic
relating a type to the type of its dual code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from .errors import SelfCheckError
from .qnum import q_binomial

__all__ = [
    "TypeProfile",
    "CountBreakdown",
    "DeltaExponents",
    "IdentityCheck",
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


@dataclass(frozen=True, order=True)
class TypeProfile:
    """Type (alpha, beta; k0, k1, k2, k3) of an additive code in Z2^a x Z8^b.

    k0 counts order-2 generators seen through the binary coordinates; k1, k2,
    k3 count order-8, order-4 and order-2 generators through the Z8
    coordinates.
    """

    alpha: int
    beta: int
    k0: int
    k1: int
    k2: int
    k3: int

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "k0", "k1", "k2", "k3"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")

    @property
    def l(self) -> int:
        """Total number of generators through the Z8 part."""
        return self.k1 + self.k2 + self.k3

    @property
    def ks(self) -> tuple[int, int, int, int]:
        return (self.k0, self.k1, self.k2, self.k3)

    def is_valid(self) -> bool:
        """A profile is realizable iff k0 <= alpha and k1+k2+k3 <= beta."""
        return self.k0 <= self.alpha and self.l <= self.beta

    def __str__(self) -> str:
        return f"({self.alpha},{self.beta};{self.k0},{self.k1},{self.k2},{self.k3})"


@dataclass(frozen=True)
class CountBreakdown:
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
        return self.n1 * self.n2 * self.n3 * self.n4

    @property
    def denominator(self) -> int:
        return self.d1 * self.d2 * self.d3 * self.d4


@dataclass(frozen=True)
class DeltaExponents:
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
    corresponding factors at 1.  Invalid profiles yield total 0 with all
    factors 1.
    """
    if not profile.is_valid():
        return CountBreakdown(1, 1, 1, 1, 1, 1, 1, 1, 0)
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

    total, rem = divmod(n1 * n2 * n3 * n4, d1 * d2 * d3 * d4)
    if rem:
        raise SelfCheckError(f"product formula quotient not integral at {profile}")
    return CountBreakdown(n1, n2, n3, n4, d1, d2, d3, d4, total)


def delta_exponents(profile: TypeProfile) -> DeltaExponents:
    """The exponents delta and delta_bar of the closed forms (valid profiles)."""
    _require_valid(profile)
    return DeltaExponents(*_deltas(profile))


def _deltas(profile: TypeProfile) -> tuple[int, int]:
    """(delta, delta_bar), without the validity check."""
    a, b, k0, k1, k2, k3 = profile.alpha, profile.beta, profile.k0, profile.k1, profile.k2, profile.k3
    r = b - k1 - k2 - k3
    delta = k0 * r + k1 * (a - k0 + 2 * r + k3) + k2 * (r + (a - k0))
    delta_bar = k1 * (a - k0) + r * (k0 + 2 * k1 + k2) + k3 * (k1 + k0)
    return delta, delta_bar


def count_closed_form(profile: TypeProfile) -> int:
    """2^delta * [alpha; k0]_2 * [beta; k1,k2,k3]_2; 0 for invalid profiles."""
    if not profile.is_valid():
        return 0
    return _evaluate(*_closed_form(profile))


def count(profile: TypeProfile) -> int:
    """Number of distinct additive codes of the given type.

    Both formulas are factored, with no big integer: the closed form and the
    product formula must give the same power of two and the same exponent
    of every Phi_d(2), the value at 2 of the d-th cyclotomic polynomial
    (compared through the exponents of 2^j - 1, see below).  That makes
    them agree as polynomials in q before q = 2 is put in, which is
    stronger than agreeing as integers.  A disagreement or a negative
    exponent raises SelfCheckError (it would mean a bug, not a bad input).
    The integer is then built once from the factorisation.  Invalid
    profiles count 0.
    """
    if not profile.is_valid():
        return 0
    return _evaluate(*_agreed_form(profile))


def _agreed_form(profile: TypeProfile) -> tuple[int, list[int]]:
    """The factorisation (two, c) on which the closed form and the product
    formula agree (valid profiles); SelfCheckError if they do not."""
    closed = _closed_form(profile)
    product = _product_form(profile)
    if closed != product:
        raise SelfCheckError(
            f"formula disagreement at {profile}: the closed form and the product formula "
            f"factor differently (exponent of 2: {closed[0]} vs {product[0]})"
        )
    return closed


# ---------------------------------------------------------------------------
# factored evaluation
# ---------------------------------------------------------------------------
#
# Every factor of both formulas is 2^i (2^j - 1), and 2^j - 1 is the product
# of Phi_d(2) over the divisors d of j.  A formula is factored as (two, c):
# the exponent of 2, and c[j], the net exponent of 2^j - 1 for 0 < j <= top
# (c[0] = 0).  Its factors come in runs (lo, hi, sign), each the product of
# (2^j - 1)^sign over lo < j <= hi.  The exponent of Phi_d(2) is
# sum(c[d::d]), so a run adds sign * (hi//d - lo//d) to it; and c is fixed
# by those exponents (Moebius inversion), so two formulas have the same
# exponents of 2 and of every Phi_d(2) exactly when their (two, c) are equal.


def _mersenne_exponents(top: int, runs) -> list[int]:
    """c[0..top] of runs (lo, hi, sign) with hi <= top, via a difference array."""
    c = [0] * (top + 2)
    for lo, hi, sign in runs:
        c[lo + 1] += sign
        c[hi + 1] -= sign
    return list(accumulate(c[: top + 1]))


def _gaussian_form(two: int, alpha: int, k0: int, beta: int, parts: tuple[int, ...]) -> tuple[int, list[int]]:
    """2^two * [alpha; k0]_2 * [beta; parts]_2.

    [n; k1, k2, ...]_2 is the telescoping product [n; k1]_2 [n-k1; k2]_2 ...,
    and [m; k]_2 is the run (m - k, m] over the run (0, k].
    """
    runs = []
    for n, ks in ((alpha, (k0,)), (beta, parts)):
        for k in ks:
            runs += [(n - k, n, 1), (0, k, -1)]
            n -= k
    return two, _mersenne_exponents(max(alpha, beta), runs)


def _closed_form(profile: TypeProfile) -> tuple[int, list[int]]:
    """2^delta * [alpha; k0]_2 * [beta; k1,k2,k3]_2 (valid profiles)."""
    p = profile
    return _gaussian_form(_deltas(p)[0], p.alpha, p.k0, p.beta, (p.k1, p.k2, p.k3))


def _product_form(profile: TypeProfile) -> tuple[int, list[int]]:
    """N1..N4 / D1..D4 of `count_product`, read off its loop bounds (valid profiles).

    The i-th factor of each Ni and Di is 2^(s+i) (2^(m-i) - 1) for i < k, with
    the k, s and m below; over i < k that is 2^(ks + k(k-1)/2) times the run
    (m - k, m].
    """
    a, b, k0, k1, k2, k3 = profile.alpha, profile.beta, profile.k0, profile.k1, profile.k2, profile.k3
    l = k1 + k2 + k3
    factors = (  # (sign, k, s, m)
        (1, k0, b, a),                            # N1: (2^a - 2^i) 2^b
        (1, k1, 2 * b + a, b),                    # N2: (8^b - 4^b 2^i) 2^a
        (1, k2, b + k1 + a, b - k1),              # N3: (4^b - 2^(b+k1+i)) 2^a
        (1, k3, k1 + k2, b - k1 - k2),            # N4: 2^b - 2^(k2+k1+i)
        (-1, k0, l, k0),                          # D1: 2^(k0+l) - 2^(l+i)
        (-1, k1, 2 * k1 + k0 + 2 * k2 + k3, k1),  # D2: (8^k1 - 4^k1 2^i) 2^(k0+2k2+k3)
        (-1, k2, k2 + k0 + 2 * k1 + k3, k2),      # D3: (4^k2 - 2^(k2+i)) 2^(k0+2k1+k3)
        (-1, k3, k1 + k2, k3),                    # D4: 2^l - 2^(k1+k2+i)
    )
    two, runs = 0, []
    for sign, k, s, m in factors:
        two += sign * (k * s + k * (k - 1) // 2)
        runs.append((m - k, m, sign))
    return two, _mersenne_exponents(max(a, b), runs)


@functools.lru_cache(maxsize=4096)  # bounded: a long-lived process keeps at most this many values
def _phi2(d: int) -> int:
    """Phi_d(2), by Moebius inversion of 2^m - 1 over the divisors m of d."""
    squarefree = [(1, 1)]  # (s, mu(s)) for the squarefree divisors s of d
    n, p = d, 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            squarefree += [(s * p, -mu) for s, mu in squarefree]
            while n % p == 0:
                n //= p
        p += 1
    num = den = 1
    for s, mu in squarefree:
        if mu > 0:
            num *= (1 << d // s) - 1
        else:
            den *= (1 << d // s) - 1
    phi, rem = divmod(num, den)
    if rem:
        raise SelfCheckError(f"Moebius inversion for Phi_{d}(2) is not exact")
    return phi


def _evaluate(two: int, c: list[int]) -> int:
    """2^two times the product over d of Phi_d(2)^e, e = sum(c[d::d])."""
    factors = []
    for d in range(1, len(c)):
        e = sum(c[d::d])
        if e < 0:
            raise SelfCheckError(f"Phi_{d}(2) has exponent {e}: the quotient is not a polynomial in 2")
        if e and d > 1:
            factors.append(_phi2(d) ** e)
    if two < 0:
        raise SelfCheckError(f"the power of two has exponent {two}")
    return _product_tree(factors) << two


def _product_tree(xs: list[int]) -> int:
    """Product of xs, split into halves so that most products are of equal-size numbers."""
    if len(xs) < 2:
        return xs[0] if xs else 1
    half = len(xs) // 2
    return _product_tree(xs[:half]) * _product_tree(xs[half:])


def count_z8(n: int, k1: int, k2: int, k3: int) -> int:
    """Number of distinct linear codes of type (k1,k2,k3) over Z8^n.

    Equal to count(1, n; 1, k1, k2, k3) divided by 2^(n - k1 - k2 - k3).
    The division comes off the exponent of 2 of the factorisation, and
    `_evaluate` raises SelfCheckError if that exponent goes negative.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    profile = TypeProfile(1, n, 1, k1, k2, k3)
    if not profile.is_valid():
        return 0
    two, c = _agreed_form(profile)
    return _evaluate(two - (n - profile.l), c)


def count_z2z4(alpha: int, beta: int, k0: int, k1: int, k2: int) -> int:
    """Number of distinct additive codes of type (alpha,beta;k0,k1,k2) over Z2 x Z4.

    A Z2Z4 code of that type is a code in Z2^alpha x Z8^beta with no order-8
    generators, so the order-4 and order-2 counts land in the k2 and k3 slots.
    """
    return count(TypeProfile(alpha, beta, k0, 0, k1, k2))


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
    return TypeProfile(
        profile.alpha,
        profile.beta,
        profile.alpha - profile.k0,
        profile.beta - profile.l,
        profile.k3,
        profile.k2,
    )


def count_dual(profile: TypeProfile) -> int:
    """Number of codes whose type is the dual of the given one.

    Evaluated directly as 2^delta_bar * [alpha; alpha-k0]_2 *
    [beta; beta-l, k3, k2]_2, through the same factored evaluation as the
    closed form; it agrees with count(dual_type(profile)).
    """
    _require_valid(profile)
    p = profile
    return _evaluate(*_gaussian_form(_deltas(p)[1], p.alpha, p.alpha - p.k0, p.beta, (p.beta - p.l, p.k3, p.k2)))


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
            for k0 in range(a + 1):
                for k1 in range(b + 1):
                    for k2 in range(b - k1 + 1):
                        for k3 in range(b - k1 - k2 + 1):
                            yield TypeProfile(a, b, k0, k1, k2, k3)


# ---------------------------------------------------------------------------
# identity checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of sweeping one identity over a bounded profile range."""

    key: str
    statement: str
    passed: bool
    expected: bool  # False marks an identity known to be misstated
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.passed == self.expected


@dataclass(frozen=True)
class IdentityReport:
    max_alpha: int
    max_beta: int
    entries: tuple[IdentityCheck, ...]

    @property
    def success(self) -> bool:
        return all(e.ok for e in self.entries)

    def entry(self, key: str) -> IdentityCheck:
        for e in self.entries:
            if e.key == key:
                return e
        raise KeyError(key)


def _n(a: int, b: int, k0: int, k1: int, k2: int, k3: int) -> int:
    return count(TypeProfile(a, b, k0, k1, k2, k3))


def check_identities(max_alpha: int, max_beta: int) -> IdentityReport:
    """Sweep the known count identities over all profiles within the bounds.

    Every identity is evaluated exactly; a failing sweep records its first
    counterexample.  Two entries cover a misstated textbook relation: the
    literal reading `lemma4-literal` is expected to fail (counterexample
    (2,2;2,1,0,0): 48 vs 24) and `lemma4-corrected` carries the repaired
    factor 2^((alpha-1)(beta-l)).
    """
    if max_alpha < 1 or max_beta < 1:
        raise ValueError("bounds must be >= 1")
    entries: list[IdentityCheck] = []

    def sweep(key: str, statement: str, cases, expected: bool = True) -> None:
        failure = ""
        passed = True
        for label, lhs, rhs in cases:
            if lhs != rhs:
                passed = False
                failure = f"first counterexample {label}: {lhs} != {rhs}"
                break
        entries.append(IdentityCheck(key, statement, passed, expected, failure))

    A, B = max_alpha, max_beta

    def cases_a():
        for r in range(1, A + 1):
            for s in range(1, B + 1):
                yield (f"(r,s)=({r},{s}) k1-slot", _n(r, s, r, s, 0, 0), 1)
                yield (f"(r,s)=({r},{s}) k2-slot", _n(r, s, r, 0, s, 0), 1)
                yield (f"(r,s)=({r},{s}) k3-slot", _n(r, s, r, 0, 0, s), 1)

    sweep("a", "N(r,s;r,s,0,0) = N(r,s;r,0,s,0) = N(r,s;r,0,0,s) = 1", cases_a())

    def cases_b():
        # ratio identity, checked multiplicatively in integers
        for r in range(1, A):
            for s in range(2, B + 1):
                lhs = _n(r + 1, s, 1, 1, 1, 0) * (2**r - 1)
                rhs = 4 * (2 ** (r + 1) - 1) * _n(r, s, 1, 1, 1, 0)
                yield (f"(r,s)=({r},{s})", lhs, rhs)

    sweep("b", "N(r+1,s;1,1,1,0)/N(r,s;1,1,1,0) = 4(2^(r+1)-1)/(2^r-1)", cases_b())

    def cases_c():
        for r in range(2, B + 1):
            closed = 2 ** (4 * r - 8) * (2 ** (r - 1) - 1) * (2**r - 1)
            yield (f"r={r}", _n(1, r, 1, 1, 1, 0), closed)

    sweep("c", "N(1,r;1,1,1,0) = 2^(4r-8) (2^(r-1)-1)(2^r-1) for r >= 2", cases_c())

    def cases_d():
        for a in range(1, A):
            for r in range(2, B + 1):
                lhs = _n(a + 1, r, 1, 1, 1, 0)
                rhs = 4 * _n(a, r, 1, 1, 1, 0) + (2**r - 1) * (2 ** (r - 1) - 1) * 2 ** (
                    3 * a + 4 * (r - 2)
                )
                yield (f"(alpha,r)=({a},{r})", lhs, rhs)

    sweep("d", "N(a+1,r;1,1,1,0) = 4 N(a,r;1,1,1,0) + (2^r-1)(2^(r-1)-1) 2^(3a+4(r-2))", cases_d())

    def cases_e():
        for j in range(1, A + 1):
            for k in range(3, B + 1):
                lhs = _n(j, k, j, 1, 1, 1)
                rhs = 2 ** ((k - 3) * (j - 1)) * _n(1, k, 1, 1, 1, 1)
                yield (f"(j,k)=({j},{k})", lhs, rhs)

    sweep("e", "N(j,k;j,1,1,1) = 2^((k-3)(j-1)) N(1,k;1,1,1,1) for k >= 3", cases_e())

    def cases_f():
        for r in range(1, A + 1):
            for s in range(2, B + 1):
                target = 2**s - 1
                yield (f"(r,s)=({r},{s}) (0,1,s-1)", _n(r, s, r, 0, 1, s - 1), target)
                yield (f"(r,s)=({r},{s}) (0,s-1,1)", _n(r, s, r, 0, s - 1, 1), target)
                yield (f"(r,s)=({r},{s}) (s-1,1,0)", _n(r, s, r, s - 1, 1, 0), target)
                yield (f"(r,s)=({r},{s}) (1,s-1,0)", _n(r, s, r, 1, s - 1, 0), target)

    sweep("f", "N(r,s;r,0,1,s-1) = ... = N(r,s;r,1,s-1,0) = 2^s - 1 for s >= 2", cases_f())

    def cases_g():
        for r in range(1, A + 1):
            for s in range(1, B + 1):
                for k in range(s + 1):
                    yield (
                        f"(r,s,k)=({r},{s},{k}) middle",
                        _n(r, s, r, 0, k, s - k),
                        _n(r, s, r, s - k, k, 0),
                    )
                    yield (
                        f"(r,s,k)=({r},{s},{k}) outer",
                        _n(r, s, r, k, 0, s - k),
                        _n(r, s, r, s - k, 0, k),
                    )

    sweep("g", "N(r,s;r,0,k,s-k) = N(r,s;r,s-k,k,0) and N(r,s;r,k,0,s-k) = N(r,s;r,s-k,0,k)", cases_g())

    def cases_h():
        for p in valid_profiles(A, B):
            d = delta_exponents(p)
            yield (
                str(p),
                d.delta - d.delta_bar,
                p.alpha * p.k2 - p.k0 * (p.k2 + p.k3),
            )

    sweep("h", "delta - delta_bar = alpha*k2 - k0*(k2+k3)", cases_h())

    # (N(a,b;a,k1,k2,k3), N(1,b;1,k1,k2,k3)) for a, b >= 1, shared by both readings
    lemma4 = [(p, count(p), _n(1, p.beta, 1, p.k1, p.k2, p.k3))
              for p in valid_profiles(A, B) if p.k0 == p.alpha >= 1 and p.beta >= 1]
    # canonical documented counterexample first, so the report names it
    canonical = []
    if A >= 2 and B >= 2:
        canonical.append(("(2,2;2,1,0,0)", _n(2, 2, 2, 1, 0, 0), _n(1, 2, 1, 1, 0, 0)))

    sweep(
        "lemma4-literal",
        "N(a,b;a,k1,k2,k3) = N(1,b;1,k1,k2,k3) for all a >= 1 (misstated; fails)",
        canonical + [(str(p), lhs, rhs) for p, lhs, rhs in lemma4],
        expected=False,
    )

    sweep(
        "lemma4-corrected",
        "N(a,b;a,k1,k2,k3) = 2^((a-1)(b-l)) N(1,b;1,k1,k2,k3)",
        [(str(p), lhs, 2 ** ((p.alpha - 1) * (p.beta - p.l)) * rhs) for p, lhs, rhs in lemma4],
    )

    def cases_self_dual():
        for p in valid_profiles(A, B):
            condition = self_dual_count_condition(p)
            equal = count(p) == count(dual_type(p))
            yield (str(p), condition, equal)

    sweep(
        "self-dual-criterion",
        "count(p) = count(dual_type(p)) exactly when alpha*k2 = k0*(k2+k3)",
        cases_self_dual(),
    )

    def cases_swap():
        for r in range(1, A + 1):
            for m in range(r + 1):
                for s in range(1, B + 1):
                    for k in range(s + 1):
                        yield (
                            f"(r,s;m,{k},{s - k},0)",
                            _n(r, s, m, k, s - k, 0),
                            _n(r, s, m, s - k, k, 0),
                        )

    sweep("swap", "N(r,s;m,k,l,0) = N(r,s;m,l,k,0) when s = k + l", cases_swap())

    # diagonal family (r,2r;r,r,0,r): the printed fourth term 13158776832
    # must agree with the diagonal reading of the two-index row
    t1_expected = [6, 560, 714240, 13158776832]
    t1_actual = [_n(r, 2 * r, r, r, 0, r) for r in range(1, 5)]
    entries.append(
        IdentityCheck(
            "t1-fourth-term",
            "diagonal family (r,2r;r,r,0,r) reproduces {6, 560, 714240, 13158776832}",
            t1_actual == t1_expected,
            True,
            "" if t1_actual == t1_expected else f"got {t1_actual}",
        )
    )

    return IdentityReport(max_alpha, max_beta, tuple(entries))

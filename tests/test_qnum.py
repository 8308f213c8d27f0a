"""Tests for the q-combinatorics kernel.

The brute-force oracles here (direct summation, exhaustive subspace spans,
q-factorial quotients) are deliberately independent of the telescoping
product used by the implementation.
"""

import time
from itertools import permutations, product

import pytest

from z2z8 import qnum
from z2z8.errors import AmbientTooLargeError
from z2z8.qnum import q_binomial, q_factorial, q_integer, q_multinomial


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def span_fq(vectors, q, n):
    """All F_q-linear combinations of the given vectors, as a frozenset."""
    out = set()
    for coeffs in product(range(q), repeat=len(vectors)):
        w = tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) % q for i in range(n))
        out.add(w)
    return frozenset(out)


def count_subspaces_by_pairs(n, k, q):
    """Count k <= 2 dimensional subspaces of F_q^n by enumerating all spans."""
    assert k <= 2
    if k == 0:
        return 1
    vecs = list(product(range(q), repeat=n))
    seen = set()
    for combo in product(vecs, repeat=k):
        s = span_fq(combo, q, n)
        if len(s) == q**k:
            seen.add(s)
    return len(seen)


def subspace_census(n, q):
    """dimension -> number of subspaces of F_q^n, by walking the subspace lattice."""
    vecs = list(product(range(q), repeat=n))

    def extend(space, v):
        # space is a subspace and v a vector outside it: union of its q cosets
        out = set(space)
        for c in range(1, q):
            cv = tuple((c * x) % q for x in v)
            out |= {tuple((a + b) % q for a, b in zip(w, cv)) for w in space}
        return frozenset(out)

    zero = frozenset([tuple([0] * n)])
    found = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for space in frontier:
            for v in vecs:
                if v in space:
                    continue
                bigger = extend(space, v)
                if bigger not in found:
                    found.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    census = {}
    for space in found:
        dim = 0
        while q**dim < len(space):
            dim += 1
        census[dim] = census.get(dim, 0) + 1
    return census


def multinomial_by_factorials(n, parts, q):
    """[n; parts]_q via the q-factorial quotient, the other standard route."""
    if sum(parts) > n:
        return 0
    num = q_factorial(n, q)
    den = 1
    for k in list(parts) + [n - sum(parts)]:
        den *= q_factorial(k, q)
    quot, rem = divmod(num, den)
    assert rem == 0
    return quot


# ---------------------------------------------------------------------------
# q_integer / q_factorial
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,q,expected", [(0, 2, 0), (3, 2, 7), (5, 2, 31)])
def test_q_integer_values(n, q, expected):
    assert q_integer(n, q) == expected


def test_q_integer_matches_direct_sum():
    for q in (2, 3, 5):
        for n in range(10):
            assert q_integer(n, q) == sum(q**i for i in range(n))


@pytest.mark.parametrize("n,q,expected", [(0, 2, 1), (2, 2, 3), (4, 2, 315)])
def test_q_factorial_values(n, q, expected):
    assert q_factorial(n, q) == expected


# ---------------------------------------------------------------------------
# q_binomial
# ---------------------------------------------------------------------------

def test_q_binomial_k_zero_is_one():
    for n in range(8):
        assert q_binomial(n, 0, 2) == 1
        assert q_binomial(n, n, 2) == 1


def test_q_binomial_k_above_n_is_zero():
    assert q_binomial(3, 4, 2) == 0
    assert q_binomial(0, 1, 5) == 0


@pytest.mark.parametrize(
    "n,k,q,expected",
    [
        (2, 1, 2, 3),    # 1-dim subspaces of F2^2, counted by span enumeration
        (4, 2, 2, 35),   # 2-dim subspaces of F2^4
        (4, 1, 3, 40),   # 1-dim subspaces of F3^4
        (3, 2, 3, 13),
    ],
)
def test_q_binomial_frozen_subspace_counts(n, k, q, expected):
    assert q_binomial(n, k, q) == expected


def test_q_binomial_against_pair_span_enumeration():
    for q in (2, 3):
        for n in range(4):
            for k in range(min(n, 2) + 1):
                assert q_binomial(n, k, q) == count_subspaces_by_pairs(n, k, q)


def test_q_binomial_against_subspace_lattice_walk():
    for q, max_n in ((2, 5), (3, 4)):
        for n in range(max_n + 1):
            census = subspace_census(n, q)
            for k in range(n + 1):
                assert q_binomial(n, k, q) == census.get(k, 0), (n, k, q)


def test_symmetry_property():
    for q in (2, 3):
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k, q) == q_binomial(n, n - k, q)


def test_pascal_recurrence():
    for q in (2, 3):
        for n in range(1, 13):
            for k in range(1, n + 1):
                lhs = q_binomial(n, k, q)
                rhs = q**k * q_binomial(n - 1, k, q) + q_binomial(n - 1, k - 1, q)
                assert lhs == rhs


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        q_binomial(-1, 0, 2)
    with pytest.raises(ValueError):
        q_binomial(3, -1, 2)
    with pytest.raises(ValueError):
        q_integer(3, 1)
    with pytest.raises(ValueError):
        q_factorial(-2, 2)


@pytest.mark.parametrize("function,args,name", [
    (q_binomial, (5.0, 2, 2), "n"),  # 155.0 before it was refused
    (q_integer, (3.0, 2), "n"),  # 7.0
    (q_multinomial, (5.0, [1, 2], 2), "n"),  # 1085.0
    (q_factorial, (3.0, 2), "n"),
    (q_binomial, (5, 2.0, 2), "k"),
    (q_multinomial, (5, [1, 2.0], 2), "parts"),
    (q_integer, (3, 2.0), "q"),
])
def test_refuses_a_non_integer_argument_by_name(function, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        function(*args)


def test_bool_arguments_pass_as_integers():
    assert q_binomial(True, True, 2) == 1 and q_multinomial(2, [True], 2) == 3


@pytest.mark.parametrize("function,args", [
    (q_integer, (10**8, 2)),
    (q_factorial, (10**4, 2)),
    (q_binomial, (200000, 100000, 2)),
])
def test_refuses_a_result_past_the_work_limit_at_once(function, args):
    start = time.perf_counter()
    with pytest.raises(AmbientTooLargeError, match=f"{function.__name__} \\(its bits\\)"):
        function(*args)
    assert time.perf_counter() - start < 1


def test_q_multinomial_is_refused_before_its_first_binomial(monkeypatch):
    # each of [4000; 1000]_2, [3000; 1000]_2 and [2000; 1000]_2 passes the
    # binomial's guard, but together they pass the work limit
    monkeypatch.setattr(qnum, "q_binomial", lambda *args: pytest.fail(f"q_binomial{args}"))
    start = time.perf_counter()
    with pytest.raises(AmbientTooLargeError, match=r"q_multinomial \(its bits\)"):
        q_multinomial(4000, [1000, 1000, 1000], 2)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# q_multinomial
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,parts,q,expected",
    [
        (2, [1, 1, 0], 2, 3),
        (4, [2, 0, 2], 2, 35),
        (7, [], 2, 1),
        (3, [4], 2, 0),
    ],
)
def test_q_multinomial_values(n, parts, q, expected):
    assert q_multinomial(n, parts, q) == expected


def test_q_multinomial_matches_factorial_quotient():
    for q in (2, 3):
        for n in range(9):
            for a in range(n + 1):
                for b in range(n - a + 1):
                    for c in range(n - a - b + 1):
                        parts = [a, b, c]
                        assert q_multinomial(n, parts, q) == multinomial_by_factorials(n, parts, q)


def test_q_multinomial_single_part_is_binomial():
    for n in range(9):
        for k in range(n + 2):
            assert q_multinomial(n, [k], 2) == q_binomial(n, k, 2)


def test_part_permutation_invariance():
    # invariant under permuting the parts, with or without spelling out the
    # implicit residual part explicitly
    for n in range(11):
        for a in range(n + 1):
            for b in range(n - a + 1):
                for c in range(n - a - b + 1):
                    base = q_multinomial(n, [a, b, c], 2)
                    for perm in permutations([a, b, c]):
                        assert q_multinomial(n, list(perm), 2) == base
                    residual = n - a - b - c
                    for perm in permutations([a, b, c, residual]):
                        assert q_multinomial(n, list(perm), 2) == base

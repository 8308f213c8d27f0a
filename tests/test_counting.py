"""Tests for the type-counting formulas and their identities."""

import hashlib
import random
import time

import pytest
from reference import paper_product_factors

from z2z8 import counting, identities
from z2z8.counting import (
    TypeProfile,
    binary_binomial_identity,
    check_identities,
    count,
    count_closed_form,
    count_dual,
    count_product,
    count_z2z4,
    count_z8,
    delta_exponents,
    dual_type,
    lemma_swap_k_l,
    self_dual_count_condition,
    valid_profiles,
)
from z2z8.errors import AmbientTooLargeError, SelfCheckError
from z2z8.qnum import q_binomial, q_multinomial


def N(a, b, k0, k1, k2, k3):
    return count(TypeProfile(a, b, k0, k1, k2, k3))


# ---------------------------------------------------------------------------
# golden values
# ---------------------------------------------------------------------------

def test_worked_example_breakdown():
    b = count_product(TypeProfile(2, 2, 1, 1, 1, 0))
    assert (b.n1, b.n2, b.n3, b.n4) == (12, 192, 32, 1)
    assert (b.d1, b.d2, b.d3, b.d4) == (4, 32, 16, 1)
    assert b.numerator == 73728
    assert b.denominator == 2048
    assert b.total == 36


@pytest.mark.parametrize(
    "profile,expected",
    [
        ((2, 2, 1, 1, 1, 0), 36),
        ((3, 2, 3, 2, 0, 0), 1),
        ((1, 1, 1, 0, 0, 0), 2),   # spans of (1|0) and (1|4) in Z2 x Z8
        ((2, 3, 1, 0, 0, 5), 0),   # invalid: l > beta
        ((1, 2, 1, 1, 0, 1), 6),
        ((1, 3, 1, 1, 1, 1), 42),
        ((0, 5, 0, 0, 0, 0), 1),
    ],
)
def test_count_values(profile, expected):
    assert N(*profile) == expected


def test_closed_form_pieces_for_worked_example():
    p = TypeProfile(2, 2, 1, 1, 1, 0)
    d = delta_exponents(p)
    assert d.delta == 2
    assert count_closed_form(p) == 2**2 * 3 * 3 == 36


@pytest.mark.parametrize(
    "args,expected",
    [
        ((4, 2, 1, 1), 420),
        ((5, 3, 0, 0), 634880),
        ((6, 2, 0, 1), 159989760),
        ((3, 0, 0, 0), 1),
        ((3, 4, 0, 0), 0),  # k1 > n
    ],
)
def test_count_z8(args, expected):
    assert count_z8(*args) == expected


@pytest.mark.parametrize(
    "args,expected",
    [
        ((3, 4, 2, 1, 2), 11760),
        ((2, 2, 1, 1, 1), 18),
        ((1, 1, 1, 0, 0), 2),  # spans of (1|0) and (1|2), per the Z2 x Z4 census
        ((1, 1, 1, 1, 0), 1),  # the whole group Z2 x Z4 is the only code of its type
        ((1, 1, 0, 0, 0), 1),
    ],
)
def test_count_z2z4(args, expected):
    assert count_z2z4(*args) == expected


# ---------------------------------------------------------------------------
# formula equivalence and specializations
# ---------------------------------------------------------------------------

def test_product_equals_closed_form_small_sweep():
    for p in valid_profiles(4, 4):
        assert count_product(p).total == count_closed_form(p), p


def closed_form_reference(p):
    """2^delta [alpha; k0]_2 [beta; k1,k2,k3]_2 from the telescoping integer q-kernel."""
    return (2 ** delta_exponents(p).delta * q_binomial(p.alpha, p.k0, 2)
            * q_multinomial(p.beta, [p.k1, p.k2, p.k3], 2))


def test_cyclotomic_values_multiply_to_mersenne_numbers():
    for n in range(1, 301):
        product = 1
        for d in range(1, n + 1):
            if n % d == 0:
                product *= counting._phi2(d)
        assert product == 2**n - 1, n


@pytest.mark.parametrize("n", [5040, 55440])
def test_phi2_recursion_over_many_divisors_matches_the_q_kernel(n):
    # 5040 and 55440 have 60 and 120 divisors: [n; 1]_2 and [n; n - 1]_2 are
    # the product of Phi_d(2) over every divisor d >= 2 of n, each built from
    # the Phi_m(2) of its own divisors, against the independent q-kernel
    for k in (1, 2, n - 1):
        assert binary_binomial_identity(n, k) == q_binomial(n, k, 2), k


def test_factored_count_matches_the_integer_oracles():
    for p in valid_profiles(5, 5):
        assert count(p) == count_product(p).total == closed_form_reference(p), p
        assert count_closed_form(p) == count(p), p
        d = delta_exponents(p).delta_bar
        assert count_dual(p) == (2**d * q_binomial(p.alpha, p.alpha - p.k0, 2)
                                 * q_multinomial(p.beta, [p.beta - p.l, p.k3, p.k2], 2)), p


LARGE_PROFILES = [(100, 200, 50, 50, 50, 50), (300, 400, 7, 0, 250, 1),
                  (40, 80, 0, 79, 0, 1), (150, 300, 150, 150, 150, 0)]


@pytest.mark.parametrize("profile", LARGE_PROFILES)
def test_factored_count_matches_the_integer_oracles_on_large_profiles(profile):
    p = TypeProfile(*profile)
    assert count(p) == count_product(p).total == closed_form_reference(p)


def test_product_factors_are_the_papers_eight_loops():
    # count checks only the rows' total power of two and their runs, so a
    # power of two moved from one row to another would change count_product's
    # factors and --breakdown without failing it; invalid profiles give all 1
    for p in [*valid_profiles(6, 6), *(TypeProfile(*q) for q in LARGE_PROFILES), TypeProfile(1, 2, 2, 0, 0, 0)]:
        assert counting._product_factors(p) == paper_product_factors(p), p


def test_t7_term_is_the_central_binomial_at_large_r():
    assert N(150, 300, 150, 150, 150, 0) == q_binomial(300, 150, 2)


def test_count_raises_when_the_product_form_disagrees(monkeypatch):
    p = TypeProfile(4, 5, 2, 1, 1, 1)
    product_form = counting._product_form

    def more_two(profile):
        two, runs = product_form(profile)
        return two + 1, runs

    def one_run_moved(profile):  # the run (m - k, m] of N1 moved to (m - k - 1, m - 1]
        two, runs = product_form(profile)
        (lo, hi, sign), *rest = runs
        return two, [(lo - 1, hi - 1, sign), *rest]

    for perturbed in (more_two, one_run_moved):
        monkeypatch.setattr(counting, "_product_form", perturbed)
        with pytest.raises(SelfCheckError, match="formula disagreement"):
            count(p)
    monkeypatch.setattr(counting, "_product_form", product_form)
    assert count(p) == count_product(p).total


def test_negative_cyclotomic_exponent_raises(monkeypatch):
    # (2^2 - 1) / (2^3 - 1) would give Phi_3(2) the exponent -1, and the
    # binomials' runs in another order are no binomials: a product form laid
    # out so is refused before any exponent is read, since only the four
    # Gaussian binomials [n; k]_2 of the closed form are sure to be
    # polynomials in 2
    p = TypeProfile(4, 5, 2, 1, 1, 1)
    product_form = counting._product_form
    two, runs = product_form(p)
    for form in ((0, [(1, 2, 1), (2, 3, -1)]), (two, runs[::-1]), (two, runs[:4] + runs[5:] + runs[4:5])):
        monkeypatch.setattr(counting, "_product_form", lambda profile: form)
        with pytest.raises(SelfCheckError, match="formula disagreement"):
            count(p)
    monkeypatch.setattr(counting, "_product_form", product_form)
    assert count(p) == count_product(p).total


def test_the_two_forms_give_the_same_runs_in_factor_order():
    # the closed form is [alpha; k0], [beta; k1], [beta-k1; k2] and
    # [beta-k1-k2; k3]; the product formula's N1..N4 are their numerator
    # runs (n - k, n] and D1..D4 their denominator runs (0, k]
    for p in valid_profiles(5, 5):
        a, b, k0, k1, k2, k3 = p
        delta = delta_exponents(p).delta
        assert counting._closed_form(p) == (delta, [(a, k0), (b, k1), (b - k1, k2), (b - k1 - k2, k3)]), p
        runs = [(a - k0, a, 1), (b - k1, b, 1), (b - k1 - k2, b - k1, 1), (b - p.l, b - k1 - k2, 1),
                (0, k0, -1), (0, k1, -1), (0, k2, -1), (0, k3, -1)]
        assert counting._product_form(p) == (delta, runs), p


def test_phi_d_divides_a_gaussian_binomial_once_exactly_when_n_mod_d_is_below_k_mod_d():
    # the multiples of d in (n - k, n] less those in (0, k] number 0 or 1,
    # and 1 exactly when n % d < k % d: the whole of `_evaluate`'s criterion
    for n in range(301):
        for d in range(2, n + 1):
            exponents = [n // d - k // d - (n - k) // d for k in range(n + 1)]
            assert exponents == [int(n % d < k % d) for k in range(n + 1)], (n, d)


def naive_evaluate(two, runs):
    """(product over d >= 2 of Phi_d(2)^e) << two, one factor at a time, where
    e = sum(sign * (hi//d - lo//d)) counts the multiples of d in the runs."""
    value = 1
    for d in range(2, max((hi for lo, hi, _ in runs if lo < hi), default=1) + 1):
        e = sum(sign * (hi // d - lo // d) for lo, hi, sign in runs if lo < hi)
        assert e >= 0, (d, e)
        value *= counting._phi2(d) ** e
    return value << two


def small_profile(rng):
    alpha, beta = rng.randint(0, 40), rng.randint(0, 40)
    k1 = rng.randint(0, beta)
    k2 = rng.randint(0, beta - k1)
    return TypeProfile(alpha, beta, rng.randint(0, alpha), k1, k2, rng.randint(0, beta - k1 - k2))


def sparse_profile(rng):
    """alpha, beta up to 3000 and each k in {0, 1, 2} or within 2 of its
    bound: every Gaussian binomial is [n; k]_2 with k or n - k at most 2."""
    def near(bound):
        return rng.choice([k for k in (0, 1, 2, bound - 2, bound - 1, bound) if 0 <= k <= bound])

    alpha, beta = rng.randint(0, 3000), rng.randint(0, 3000)
    k1 = near(beta)
    k2 = near(beta - k1)
    return TypeProfile(alpha, beta, near(alpha), k1, k2, near(beta - k1 - k2))


def test_evaluate_is_the_naive_product():
    # on small profiles and on large sparse ones, the count from the four
    # binomials is the product of every Phi_d(2)^e, e read off the product
    # formula's runs
    rng = random.Random(2013)
    for draw in (small_profile, sparse_profile):
        for _ in range(150):
            p = draw(rng)
            assert counting._evaluate(*counting._agreed_form(p)) == naive_evaluate(*counting._product_form(p)), p


def test_count_needs_no_table_up_to_beta():
    # only the divisors of 99,999 and 100,000 carry a Phi_d(2): a dense table
    # of every Phi_d(2) up to beta would take seconds and tens of MiB
    p = TypeProfile(1, 100000, 1, 1, 0, 0)
    start = time.perf_counter()
    value = count(p)
    assert time.perf_counter() - start < 2
    assert value == count_product(p).total


def test_count_allocates_nothing_for_empty_runs():
    # every run of (10^12, 1; 0, 0, 0, 0) is empty: a loop or a list as long
    # as alpha would not end or fit in memory
    assert count(TypeProfile(10**12, 1, 0, 0, 0, 0)) == 1
    # nor is alpha bounded by anything but the work: 10^20 fits no index
    assert count(TypeProfile(10**20, 1, 0, 0, 0, 0)) == 1
    # [10^12; 10^12]_2 = 1 takes no step, although its runs (0, 10^12] are long
    start = time.perf_counter()
    assert count(TypeProfile(10**12, 0, 10**12, 0, 0, 0)) == 1
    assert time.perf_counter() - start < 1


def unguarded_phi2(d):
    raise AssertionError(f"Phi_{d}(2) built past the guard")


@pytest.mark.parametrize("profile", [
    (2 * 10**7, 1, 1, 0, 0, 0),  # [2 * 10^7; 1]_2 as [alpha; k0]_2
    (0, 2 * 10**7, 0, 1, 2 * 10**7 - 1, 0),  # as [beta; k1]_2
    (0, 2 * 10**7, 0, 0, 1, 2 * 10**7 - 1),  # as [beta-k1; k2]_2
    (0, 2 * 10**7, 0, 0, 0, 1),  # as [beta-k1-k2; k3]_2
])
def test_each_binomial_counts_toward_the_guard(profile, monkeypatch):
    # each type's power of two is at most 1 and three of its binomials are 1:
    # the one [2 * 10^7; 1]_2, about 2 * 10^7 bits, alone must refuse it
    # before any Phi_d(2) is built, by either formula
    monkeypatch.setattr(counting, "_phi2", unguarded_phi2)
    for counter in (count, count_closed_form):
        with pytest.raises(AmbientTooLargeError, match="^count"):
            counter(TypeProfile(*profile))


def test_count_z8_refuses_an_empty_ambient():
    with pytest.raises(ValueError, match="^n must be positive, got 0$"):
        count_z8(0, 0, 0, 0)


def test_count_z8_is_guarded_on_its_quotient(monkeypatch):
    # (1, 2 * 10^7; 1, 0, 0, 1) over 2^(2 * 10^7 - 1) leaves 2^0 [2 * 10^7; 1]_2
    monkeypatch.setattr(counting, "_phi2", unguarded_phi2)
    with pytest.raises(AmbientTooLargeError, match="^count"):
        count_z8(2 * 10**7, 0, 0, 1)


def test_invalid_profiles_count_zero():
    assert count_product(TypeProfile(1, 2, 2, 0, 0, 0)).total == 0
    assert count_closed_form(TypeProfile(1, 2, 0, 1, 1, 1)) == 0
    assert N(1, 2, 0, 1, 1, 1) == 0


def test_binary_specialization():
    for n in range(7):
        for k in range(n + 1):
            assert binary_binomial_identity(n, k) == q_binomial(n, k, 2)
    assert binary_binomial_identity(4, 2) == 35
    assert binary_binomial_identity(5, 0) == 1


def test_breakdown_divisibility_invariant():
    for p in valid_profiles(3, 3):
        b = count_product(p)
        assert b.total * b.denominator == b.numerator


# ---------------------------------------------------------------------------
# duality arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "profile,expected",
    [
        ((2, 2, 1, 1, 1, 0), (2, 2, 1, 0, 0, 1)),
        ((1, 4, 1, 2, 1, 1), (1, 4, 0, 0, 1, 1)),
    ],
)
def test_dual_type_values(profile, expected):
    assert dual_type(TypeProfile(*profile)) == TypeProfile(*expected)


def test_dual_type_is_involution():
    for p in valid_profiles(4, 4):
        assert dual_type(dual_type(p)) == p
    p = TypeProfile(3, 4, 2, 0, 1, 2)
    assert dual_type(dual_type(p)) == p


def test_dual_type_rejects_invalid():
    with pytest.raises(ValueError):
        dual_type(TypeProfile(1, 1, 2, 0, 0, 0))


def test_count_dual_matches_count_of_dual_type():
    for p in valid_profiles(5, 5):
        assert count_dual(p) == count_product(dual_type(p)).total, p


def test_count_dual_values():
    assert count_dual(TypeProfile(2, 2, 1, 1, 1, 0)) == N(2, 2, 1, 0, 0, 1) == 18
    assert count_dual(TypeProfile(1, 2, 1, 1, 0, 1)) == N(1, 2, 0, 0, 1, 0)
    assert count_dual(TypeProfile(3, 3, 3, 3, 0, 0)) == 1


def test_z2z4_dual_slots_keep_the_count_and_are_an_involution():
    # over Z4 the slot rule (alpha-k0, beta-k1-k2, k2) is the type of every
    # code's dual (tests/test_codes.py), so each type and its image must be
    # equinumerous; the Z8 rule has no such law (self_dual_count_condition)
    types = [(a, b, ks) for a in range(9) for b in range(9) for ks in counting._valid_ks(a, b, 2)]
    assert len(types) == 7425
    for a, b, ks in types:
        dual = counting._dual_ks(a, b, ks)
        assert counting._dual_ks(a, b, dual) == ks
        assert count_z2z4(a, b, *ks) == count_z2z4(a, b, *dual), (a, b, ks)


def test_valid_profiles_is_the_six_nested_loops():
    def nested(max_alpha, max_beta):
        for a in range(max_alpha + 1):
            for b in range(max_beta + 1):
                for k0 in range(a + 1):
                    for k1 in range(b + 1):
                        for k2 in range(b - k1 + 1):
                            for k3 in range(b - k1 - k2 + 1):
                                yield TypeProfile(a, b, k0, k1, k2, k3)

    profiles = list(valid_profiles(6, 6))
    assert profiles == list(nested(6, 6))
    assert all(type(p) is TypeProfile for p in profiles)


def test_self_dual_condition():
    assert not self_dual_count_condition(TypeProfile(2, 2, 1, 1, 1, 0))
    assert N(2, 2, 1, 1, 1, 0) != count_dual(TypeProfile(2, 2, 1, 1, 1, 0))
    assert self_dual_count_condition(TypeProfile(3, 2, 2, 1, 0, 0))  # k2 = k3 = 0
    assert self_dual_count_condition(TypeProfile(2, 2, 1, 0, 1, 1))
    assert N(2, 2, 1, 0, 1, 1) == count_dual(TypeProfile(2, 2, 1, 0, 1, 1))


def test_self_dual_criterion_is_exact_on_valid_profiles():
    for p in valid_profiles(5, 5):
        assert self_dual_count_condition(p) == (count(p) == count(dual_type(p))), p


def test_delta_identity():
    for p in valid_profiles(5, 5):
        d = delta_exponents(p)
        assert d.delta - d.delta_bar == p.alpha * p.k2 - p.k0 * (p.k2 + p.k3)
        assert d.delta >= 0


def test_delta_bar_is_the_papers_dual_exponent():
    # delta_bar is delta read at the dual type; the paper states it as
    # k1(alpha - k0) + r(k0 + 2k1 + k2) + k3(k1 + k0), r = beta - l
    for p in valid_profiles(8, 8):
        r = p.beta - p.l
        expected = p.k1 * (p.alpha - p.k0) + r * (p.k0 + 2 * p.k1 + p.k2) + p.k3 * (p.k1 + p.k0)
        assert delta_exponents(p).delta_bar == expected, p


def test_self_dual_family_needs_the_condition():
    # type (r,s;k0,0,k2,s-k2) equals its dual count only under r*k2 = s*k0;
    # (1,2;1,0,1,1) shows the unconditional reading is wrong: 3 vs 6
    p = TypeProfile(1, 2, 1, 0, 1, 1)
    assert count(p) == 3
    assert count(dual_type(p)) == 6
    for r in range(1, 5):
        for s in range(1, 5):
            for k2 in range(s + 1):
                for k0 in range(r + 1):
                    p = TypeProfile(r, s, k0, 0, k2, s - k2)
                    if r * k2 == s * k0:
                        assert count(p) == count(dual_type(p)), p


# ---------------------------------------------------------------------------
# published identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [(2, 3, 1, 1, 2), (1, 2, 1, 2, 0), (3, 4, 2, 1, 3)])
def test_lemma_swap(args):
    assert lemma_swap_k_l(*args) is True


def test_lemma_swap_rejects_bad_preconditions():
    with pytest.raises(ValueError):
        lemma_swap_k_l(1, 3, 2, 1, 2)  # m > r
    with pytest.raises(ValueError):
        lemma_swap_k_l(2, 3, 1, 1, 1)  # s != k + l


def test_check_identities_passes():
    report = check_identities(4, 4)
    for key in "abcdefgh":
        assert report.entry(key).passed, report.entry(key)
    assert report.success


def test_check_identities_flags_misstated_lemma():
    report = check_identities(4, 4)
    literal = report.entry("lemma4-literal")
    assert not literal.passed and not literal.expected and literal.ok
    assert "48 != 24" in literal.detail
    corrected = report.entry("lemma4-corrected")
    assert corrected.passed and corrected.ok


def test_identity_f_instance():
    # s = 3 row of the 2^s - 1 family
    for r in range(1, 4):
        assert N(r, 3, r, 0, 2, 1) == 7
        assert N(r, 3, r, 0, 1, 2) == 7
        assert N(r, 3, r, 1, 2, 0) == 7
        assert N(r, 3, r, 2, 1, 0) == 7


def test_identity_c_at_r2_matches_direct_count():
    assert 2**0 * 1 * 3 == N(1, 2, 1, 1, 1, 0) == 3


def test_check_identities_rejects_bad_bounds():
    with pytest.raises(ValueError):
        check_identities(0, 4)


def test_check_identities_counts_each_profile_once(monkeypatch):
    # every valid profile of the box once, plus the t1-fourth-term profiles
    # (r,2r;r,r,0,r), r <= 4, that fall outside it; the sweeps used to count
    # 8,001 times at (5,5)
    calls = []
    monkeypatch.setattr(identities, "count", lambda p: calls.append(p) or count(p))
    report = check_identities(5, 5)
    box = sum(1 for _ in valid_profiles(5, 5))
    assert box == 2646
    assert len(calls) <= box + 4
    assert len(set(calls)) == len(calls)
    assert report.success


def test_check_identities_reports_unchanged():
    # sha256 over repr(check_identities(A, B)) for A, B = 1..4 in turn, taken
    # when every sweep counted its terms afresh
    digest = hashlib.sha256()
    for a in range(1, 5):
        for b in range(1, 5):
            digest.update(repr(check_identities(a, b)).encode())
    assert digest.hexdigest() == "5c8e6db037a61dd72ff1e2053a0fd196a61b90f405fa7e3aee9a82eaf9b778a9"


# (wrong profile, the entries it makes fail, each with the detail the sweeps
# printed when every label was formatted up front)
WRONG_COUNT_CASES = {
    "a": ((2, 3, 2, 0, 3, 0), {
        "a": "first counterexample (r,s)=(2,3) k2-slot: 2 != 1",
        "lemma4-corrected": "first counterexample (2,3;2,0,3,0): 2 != 1",
        "self-dual-criterion": "first counterexample (2,3;0,0,0,3): True != False",
        "swap": "first counterexample (r,s;m,0,3,0): 2 != 1",
    }),
    "b": ((3, 2, 1, 1, 1, 0), {"b": "first counterexample (r,s)=(2,2): 1011 != 1008"}),
    "g": ((2, 3, 2, 0, 1, 2), {"g": "first counterexample (r,s,k)=(2,3,1) middle: 8 != 7"}),
    "swap": ((2, 3, 1, 1, 2, 0), {"swap": "first counterexample (r,s;m,1,2,0): 169 != 168"}),
}


@pytest.mark.parametrize("case", WRONG_COUNT_CASES)
def test_failing_sweep_names_its_first_counterexample(monkeypatch, case):
    # labels are formatted only for the first counterexample; they must read
    # as they did when every case formatted its own
    wrong, details = WRONG_COUNT_CASES[case]
    monkeypatch.setattr(identities, "count", lambda p: count(p) + (tuple(p) == wrong))
    report = check_identities(3, 3)
    for key, detail in details.items():
        entry = report.entry(key)
        assert not entry.passed and entry.detail == detail
    assert not report.success


# ---------------------------------------------------------------------------
# published sequence families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "terms,expected",
    [
        ([(r, 2 * r, r, r, 0, r) for r in range(1, 5)], [6, 560, 714240, 13158776832]),
        ([(r + 1, 2, r, 1, 1, 0) for r in range(1, 6)], [36, 84, 180, 372, 756]),
        ([(r + 1, 3, r, 1, 1, 1) for r in range(1, 6)], [504, 1176, 2520, 5208, 10584]),
        ([(r + 1, 2 * r + 1, r, 0, r, r) for r in range(1, 4)], [504, 486080, 1360627200]),
        ([(r + 2, 2 * r + 1, r, 0, 1, r) for r in range(1, 4)], [2352, 9721600, 449914060800]),
        ([(r, r + 2, 2, 0, 1, r) for r in range(2, 5)], [840, 52080, 2187360]),
        ([(r, 2 * r, r, r, r, 0) for r in range(1, 5)], [3, 35, 1395, 200787]),
        ([(1, r, 1, 1, 1, 1) for r in range(3, 7)], [42, 10080, 1666560, 239984640]),
    ],
)
def test_sequence_families(terms, expected):
    assert [N(*t) for t in terms] == expected


def test_central_binomial_family_is_gaussian():
    # (r,2r;r,r,r,0) reduces to the central 2-binomial [2r choose r]_2
    for r in range(1, 6):
        assert N(r, 2 * r, r, r, r, 0) == q_binomial(2 * r, r, 2)
        assert N(r, 2 * r, r, 0, r, r) == q_binomial(2 * r, r, 2)


def test_profile_validation():
    with pytest.raises(ValueError):
        TypeProfile(1, 1, -1, 0, 0, 0)
    p = TypeProfile(2, 3, 1, 1, 1, 1)
    assert p.l == 3
    assert p.is_valid()
    assert not TypeProfile(1, 1, 2, 0, 0, 0).is_valid()
    assert str(TypeProfile(2, 2, 1, 1, 1, 0)) == "(2,2;1,1,1,0)"

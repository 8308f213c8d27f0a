"""Property tests: the packed word kernel against the `MixedWord` reference
arithmetic, and the laws that spans, duals, classification and the mod-4
reduction obey on random small codes, for e in {2, 3}; the parity-check
rows of a random standard form, over either ring, against the brute-force
dual; and the coordinate walk against `span`."""

from collections import Counter
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from z2z8.census import _walk
from z2z8.codes import (
    MixedWord,
    _Ambient,
    _classify,
    _standard_form,
    ambient_words,
    assemble,
    dual_bruteforce,
    inner_product,
    parity_check,
    phi_reduce,
    span,
)
from z2z8.counting import (
    TypeProfile,
    _valid_ks,
    count,
    count_dual,
    count_product,
    delta_exponents,
)
from z2z8.qnum import q_binomial, q_multinomial

few = settings(max_examples=30, deadline=None)  # few examples keep the suite fast


@st.composite
def ambients(draw, max_bits=8, es=(2, 3)):
    """(alpha, beta, e) with at most 2^max_bits words."""
    e = draw(st.sampled_from(es))
    beta = draw(st.integers(0, max_bits // e))
    alpha = draw(st.integers(0, min(4, max_bits - e * beta)))
    return alpha, beta, e


def words(alpha, beta, e):
    return st.builds(
        MixedWord,
        st.tuples(*[st.integers(0, 1)] * alpha),
        st.tuples(*[st.integers(0, (1 << e) - 1)] * beta),
        st.just(e),
    )


@st.composite
def generator_sets(draw, max_bits=8, es=(2, 3)):
    alpha, beta, e = draw(ambients(max_bits, es))
    gens = draw(st.lists(words(alpha, beta, e), max_size=3))
    return alpha, beta, e, gens


def reference_span(alpha, beta, e, gens):
    """Every sum of generators, reached from zero with MixedWord addition."""
    zero = MixedWord((0,) * alpha, (0,) * beta, e)
    reached, frontier = {zero}, [zero]
    while frontier:
        w = frontier.pop()
        for g in gens:
            if w + g not in reached:
                reached.add(w + g)
                frontier.append(w + g)
    return reached


@few
@given(st.data())
def test_packed_kernel_matches_reference(data):
    alpha, beta, e = data.draw(ambients())
    u, v = data.draw(words(alpha, beta, e)), data.draw(words(alpha, beta, e))
    kernel = _Ambient(alpha, beta, e)
    x, y = kernel.encode(u), kernel.encode(v)
    assert kernel.decode(x) == u
    assert kernel.decode((x + y) & kernel.mask) == u + v
    assert kernel.decode((x + x) & kernel.mask) == 2 * u
    order, z = 1, x
    while z:
        z = (z + z) & kernel.mask
        order *= 2
    assert order == u.order()
    assert (x & kernel.bin_mask == 0) == (not any(u.bin))


@few
@given(ambients(max_bits=7))
def test_packed_elements_are_the_ambient(amb):
    kernel = _Ambient(*amb)
    elements = kernel.elements()
    assert len(elements) == len(set(elements)) == 2 ** kernel.bits
    assert set(map(kernel.decode, elements)) == set(ambient_words(*amb))


@few
@given(generator_sets())
def test_span_is_the_closure_of_its_generators(case):
    alpha, beta, e, gens = case
    c = span(gens, alpha=alpha, beta=beta, e=e)
    assert all(g in c for g in gens)
    assert all(w + g in c for w in c.words for g in gens)
    assert c.words == reference_span(alpha, beta, e, gens)


@few
@given(generator_sets(max_bits=7))
def test_dual_laws(case):
    alpha, beta, e, gens = case
    c = span(gens, alpha=alpha, beta=beta, e=e)
    d = dual_bruteforce(c)
    assert len(c) * len(d) == 2 ** (alpha + e * beta)
    assert dual_bruteforce(d) == c
    assert d.words == {
        v for v in ambient_words(alpha, beta, e) if all(inner_product(g, v) == 0 for g in gens)
    }


@cache
def walked_subgroups(alpha, beta, e):
    """How often the coordinate walk yields each subgroup, once per ambient."""
    ambient = _Ambient(alpha, beta, e)
    return Counter(ambient.adjoin(sub, x) if x else sub for sub, x, *_ in _walk(ambient))


@few
@given(generator_sets(max_bits=7))
def test_walk_yields_each_span_once(case):
    # the span of any generators is a subgroup, so the walk must reach it,
    # and exactly once: a check on the walk from outside the cover walk
    alpha, beta, e, gens = case
    assert walked_subgroups(alpha, beta, e)[span(gens, alpha=alpha, beta=beta, e=e)._packed] == 1


@st.composite
def standard_forms(draw, max_bits=12):
    """(alpha, beta, e, ks, seed): a realizable type over Z2^alpha x Z_{2^e}^beta
    with alpha + e * beta <= max_bits, ks drawn from `_valid_ks`."""
    e = draw(st.sampled_from((2, 3)))
    beta = draw(st.integers(0, max_bits // e))
    alpha = draw(st.integers(0, max_bits - e * beta))
    ks = draw(st.sampled_from(list(_valid_ks(alpha, beta, e))))
    return alpha, beta, e, ks, draw(st.integers(0, 2**16))


@few
@given(standard_forms())
def test_classify_round_trips_standard_forms(case):
    alpha, beta, e, ks, seed = case
    m = _standard_form(alpha, beta, ks, e, seed)
    assert _classify(span(assemble(m), alpha=alpha, beta=beta, e=e)) == ks


@few
@given(standard_forms())
def test_parity_rows_span_the_dual(case):
    alpha, beta, e, ks, seed = case
    m = _standard_form(alpha, beta, ks, e, seed)
    h = span(list(parity_check(m).rows), alpha=alpha, beta=beta, e=e)
    assert h == dual_bruteforce(span(assemble(m), alpha=alpha, beta=beta, e=e))


@few
@given(generator_sets(es=(3,)))
def test_phi_reduce_is_entrywise_mod_4(case):
    alpha, beta, e, gens = case
    c = span(gens, alpha=alpha, beta=beta, e=e)
    assert phi_reduce(c).words == {
        MixedWord(w.bin, tuple(x % 4 for x in w.mod), 2) for w in c.words
    }


@st.composite
def profiles(draw, max_size=60):
    """Valid type profiles with alpha, beta <= max_size."""
    alpha, beta = draw(st.integers(0, max_size)), draw(st.integers(0, max_size))
    k0 = draw(st.integers(0, alpha))
    k1 = draw(st.integers(0, beta))
    k2 = draw(st.integers(0, beta - k1))
    k3 = draw(st.integers(0, beta - k1 - k2))
    return TypeProfile(alpha, beta, k0, k1, k2, k3)


@st.composite
def sparse_profiles(draw, max_size=3000):
    """Valid type profiles with alpha, beta <= max_size and each k in
    {0, 1, 2} or within 2 of its bound: every Gaussian binomial is [n; k]_2
    with k or n - k at most 2.  `count` takes each as the product of the
    Phi_d(2) with n % d < k % d, and here every such d divides n or n - 1."""
    def near(bound):
        return draw(st.sampled_from([k for k in (0, 1, 2, bound - 2, bound - 1, bound) if 0 <= k <= bound]))

    alpha, beta = draw(st.integers(0, max_size)), draw(st.integers(0, max_size))
    k1 = near(beta)
    k2 = near(beta - k1)
    return TypeProfile(alpha, beta, near(alpha), k1, k2, near(beta - k1 - k2))


def closed_form_by_q_kernel(p):
    return (2 ** delta_exponents(p).delta * q_binomial(p.alpha, p.k0, 2)
            * q_multinomial(p.beta, [p.k1, p.k2, p.k3], 2))


def dual_closed_form_by_q_kernel(p):
    return (2 ** delta_exponents(p).delta_bar * q_binomial(p.alpha, p.alpha - p.k0, 2)
            * q_multinomial(p.beta, [p.beta - p.l, p.k3, p.k2], 2))


@few
@given(profiles())
def test_factored_count_matches_the_integer_formulas(p):
    closed = closed_form_by_q_kernel(p)
    assert count(p) == count_product(p).total == closed
    assert count_dual(p) == dual_closed_form_by_q_kernel(p)


@few
@given(sparse_profiles())
def test_factored_count_matches_the_q_kernel_on_large_sparse_profiles(p):
    # count_product would multiply out thousands of factors here: the
    # q-kernel, which needs at most two per Gaussian binomial, is the check
    assert count(p) == closed_form_by_q_kernel(p)
    assert count_dual(p) == dual_closed_form_by_q_kernel(p)

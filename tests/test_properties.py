"""Property tests: the packed word kernel against the `MixedWord` reference
arithmetic, and the laws that spans, duals, classification and the mod-4
reduction obey on random small codes, for e in {2, 3}; the parity-check
rows of a random e = 3 standard form against the brute-force dual."""

from hypothesis import given, settings
from hypothesis import strategies as st

from z2z8.codes import (
    MixedWord,
    _Ambient,
    ambient_words,
    assemble,
    classify_type,
    dual_bruteforce,
    inner_product,
    parity_check,
    phi_reduce,
    random_standard_form,
    random_standard_form_z4,
    span,
)
from z2z8.counting import (
    TypeProfile,
    count,
    count_dual,
    count_product,
    delta_exponents,
    dual_type,
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
    assert kernel.decode(kernel.double(x)) == 2 * u
    order, z = 1, x
    while z:
        z = kernel.double(z)
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


@st.composite
def standard_form_cases(draw):
    e = draw(st.sampled_from((2, 3)))
    alpha, beta = draw(st.integers(0, 2)), draw(st.integers(0, 3 if e == 3 else 4))
    k0 = draw(st.integers(0, alpha))
    ks = [0] * e
    for i in draw(st.permutations(range(e))):
        ks[i] = draw(st.integers(0, beta - sum(ks)))
    return alpha, beta, e, (k0, *ks), draw(st.integers(0, 2**16))


@few
@given(standard_form_cases())
def test_classify_round_trips_standard_forms(case):
    alpha, beta, e, ks, seed = case
    if e == 3:
        expected = TypeProfile(alpha, beta, *ks)
        m = random_standard_form(expected, seed)
    else:
        expected = ks
        m = random_standard_form_z4(alpha, beta, *ks, seed=seed)
    assert classify_type(span(assemble(m), alpha=alpha, beta=beta, e=e)) == expected


@st.composite
def z8_standard_forms(draw, max_bits=12):
    """(profile, seed): a valid e = 3 profile with alpha + 3 beta <= max_bits."""
    beta = draw(st.integers(0, max_bits // 3))
    alpha = draw(st.integers(0, max_bits - 3 * beta))
    k0 = draw(st.integers(0, alpha))
    k1 = draw(st.integers(0, beta))
    k2 = draw(st.integers(0, beta - k1))
    k3 = draw(st.integers(0, beta - k1 - k2))
    return TypeProfile(alpha, beta, k0, k1, k2, k3), draw(st.integers(0, 2**16))


@few
@given(z8_standard_forms())
def test_parity_rows_span_the_dual(case):
    p, seed = case
    m = random_standard_form(p, seed)
    h = span(list(parity_check(m).rows), alpha=p.alpha, beta=p.beta, e=3)
    assert h == dual_bruteforce(span(assemble(m), alpha=p.alpha, beta=p.beta, e=3))


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


@few
@given(profiles())
def test_factored_count_matches_the_integer_formulas(p):
    closed = (2 ** delta_exponents(p).delta * q_binomial(p.alpha, p.k0, 2)
              * q_multinomial(p.beta, [p.k1, p.k2, p.k3], 2))
    assert count(p) == count_product(p).total == closed
    assert count_dual(p) == count(dual_type(p))

"""Tests for words, standard forms, spans, classification and duality."""

import hashlib
import time
from itertools import product

import pytest

from z2z8.codes import (
    _classify,
    _standard_form,
    _torsion_sizes,
    _type_from_sizes,
    Code,
    MixedWord,
    StandardFormMatrix,
    ambient_words,
    assemble,
    classify_type,
    dual_bruteforce,
    format_matrix,
    format_words,
    inner_product,
    parity_check,
    parse_words,
    phi_reduce,
    random_standard_form,
    random_standard_form_z4,
    span,
    zero_standard_form,
)
from z2z8.counting import TypeProfile, _dual_ks, _valid_ks, dual_type, valid_profiles
from z2z8.errors import AmbientTooLargeError, NotASubgroupError


def W(bins, mods, e=3):
    return MixedWord(tuple(bins), tuple(mods), e)


# ---------------------------------------------------------------------------
# words and inner product
# ---------------------------------------------------------------------------

def test_word_arithmetic():
    u = W([1, 0], [3, 5])
    v = W([1, 1], [7, 4])
    assert u + v == W([0, 1], [2, 1])
    assert 2 * u == W([0, 0], [6, 2])
    assert (-u) + u == W([0, 0], [0, 0])
    assert u.order() == 8
    assert W([1], [4]).order() == 2
    assert W([0], [0]).is_zero()


def test_word_validation():
    with pytest.raises(ValueError):
        MixedWord((2,), (0,), 3)
    with pytest.raises(ValueError):
        MixedWord((0,), (8,), 3)
    with pytest.raises(ValueError):
        MixedWord((0,), (4,), 2)
    with pytest.raises(ValueError):
        MixedWord((0,), (0,), 4)


@pytest.mark.parametrize(
    "u,v,expected",
    [
        (W([1, 0], [0, 0]), W([1, 0], [0, 0]), 4),
        (W([0, 0], [1, 0]), W([0, 0], [1, 0]), 1),
        (W([1, 0], [2, 0]), W([1, 0], [0, 2]), 4),
    ],
)
def test_inner_product_values(u, v, expected):
    assert inner_product(u, v) == expected


def test_inner_product_e2():
    assert inner_product(W([1], [0], 2), W([1], [0], 2)) == 2
    assert inner_product(W([0], [3], 2), W([0], [3], 2)) == 1


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        inner_product(W([1], [0]), W([1, 0], [0]))
    with pytest.raises(ValueError):
        inner_product(W([1], [0], 3), W([1], [0], 2))


# ---------------------------------------------------------------------------
# standard forms and assembly
# ---------------------------------------------------------------------------

def _assert_zero_blocks(e):
    # (2,2;1,1,1,0) over Z8 and (2,2;1,1,1) over Z4 have the same rows
    rows = assemble(_standard_form(2, 2, (1, 1, 1, 0)[: e + 1], e, None))
    assert rows == [W([1, 0], [0, 0], e), W([0, 0], [1, 0], e), W([0, 0], [0, 2], e)]


def test_assemble_zero_blocks():
    _assert_zero_blocks(3)


def test_assemble_zero_blocks_z4():
    _assert_zero_blocks(2)


def test_assemble_block_placement():
    m = zero_standard_form(TypeProfile(2, 2, 1, 1, 1, 0))
    blocks = dict(m.blocks)
    blocks["Abar01"] = ((1,),)
    m2 = StandardFormMatrix(2, 2, 3, (1, 1, 1, 0), blocks)
    assert assemble(m2)[0] == W([1, 1], [0, 0])


def test_assemble_scales_stripes():
    # order-2 rows carry 4*T03, order-4 rows 2*A12/2*A13, order-2 rows 4*A23
    p = TypeProfile(1, 4, 1, 1, 1, 1)
    m = random_standard_form(p, 7)
    rows = assemble(m)
    assert [r.order() for r in rows] == [2, 8, 4, 2]


def test_standard_form_shape_validation():
    m = zero_standard_form(TypeProfile(2, 2, 1, 1, 1, 0))
    blocks = dict(m.blocks)
    blocks["Abar01"] = ((1, 0),)  # wrong width
    with pytest.raises(ValueError):
        StandardFormMatrix(2, 2, 3, (1, 1, 1, 0), blocks)
    blocks = dict(m.blocks)
    blocks["A01"] = ((9,),)  # out of modulus
    with pytest.raises(ValueError):
        StandardFormMatrix(2, 2, 3, (1, 1, 1, 0), blocks)
    with pytest.raises(ValueError):
        zero_standard_form(TypeProfile(3, 2, 4, 0, 0, 0))  # k0 > alpha


def test_standard_form_refuses_too_many_entries_before_drawing_any():
    start = time.perf_counter()
    with pytest.raises(AmbientTooLargeError, match="^standard form"):
        _standard_form(20000, 0, (10000, 0, 0, 0), 3, 0)  # 10^4 rows of 2 * 10^4 entries
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="not realizable"):  # validated first
        _standard_form(20000, 0, (30000, 0, 0, 0), 3, 0)


def test_parity_check_refuses_a_cubic_substitution_at_once():
    # (0,2000;0,100,0,0): 3.9 * 10^8 entry updates; its generator matrix is cheap
    m = random_standard_form(TypeProfile(0, 2000, 0, 100, 0, 0), 0)
    start = time.perf_counter()
    with pytest.raises(AmbientTooLargeError, match="^parity_check"):
        parity_check(m)
    assert time.perf_counter() - start < 1.0


def test_standard_form_is_hashable_and_read_only():
    p = TypeProfile(2, 2, 1, 1, 1, 0)
    m, same = random_standard_form(p, 0), random_standard_form(p, 0)
    assert m == same and hash(m) == hash(same)
    assert len({m, same, random_standard_form(p, 1)}) == 2
    rebuilt = StandardFormMatrix(2, 2, 3, (1, 1, 1, 0),
                                 {name: [list(row) for row in blk] for name, blk in m.blocks.items()})
    assert rebuilt == m and hash(rebuilt) == hash(m)
    with pytest.raises(TypeError):
        m.blocks["S1"] = ((0,),)


def test_standard_form_ks_list_or_tuple_give_equal_hashable_matrices():
    blocks = dict(zero_standard_form(TypeProfile(2, 2, 1, 1, 1, 0)).blocks)
    from_list = StandardFormMatrix(2, 2, 3, [1, 1, 1, 0], blocks)
    from_tuple = StandardFormMatrix(2, 2, 3, (1, 1, 1, 0), blocks)
    assert from_list.ks == (1, 1, 1, 0)
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)


def test_random_standard_form_is_deterministic():
    p = TypeProfile(2, 3, 1, 1, 1, 0)
    assert random_standard_form(p, 5) == random_standard_form(p, 5)
    assert random_standard_form(p, 5) != random_standard_form(p, 6)


def test_random_standard_form_rejects_invalid_profile():
    with pytest.raises(ValueError):
        random_standard_form(TypeProfile(3, 2, 4, 0, 0, 0), 0)
    with pytest.raises(ValueError):
        random_standard_form_z4(1, 1, 0, 1, 1, seed=0)


def test_random_standard_form_refuses_a_negative_seed():
    # random.Random(-s) draws the blocks of random.Random(s)
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -5$"):
        random_standard_form(TypeProfile(2, 3, 1, 1, 1, 0), -5)
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        random_standard_form_z4(2, 2, 1, 1, 1, seed=-1)


# ---------------------------------------------------------------------------
# spans and classification
# ---------------------------------------------------------------------------

def test_span_empty_is_zero_code():
    c = span([], alpha=2, beta=1, e=3)
    assert len(c) == 1
    assert W([0, 0], [0]) in c


def test_span_of_nothing_needs_its_ambient():
    with pytest.raises(ValueError, match="^empty generator list needs explicit alpha, beta, e$"):
        span([])
    with pytest.raises(ValueError, match=r"^dimensions must be non-negative, got \(-1, 1\)$"):
        span([], alpha=-1, beta=1, e=3)


def test_code_refuses_a_word_from_another_ambient():
    with pytest.raises(ValueError, match=r"does not live in \(2,1,e=3\)"):
        Code([W([0, 0], [0]), MixedWord((1,), (1,), 3)], 2, 1, 3)


def test_span_refuses_dimensions_that_contradict_its_generators():
    g = MixedWord((1,), (1,), 3)
    with pytest.raises(ValueError, match=r"\(1,1,e=3\).*\(5,5,e=2\)"):
        span([g], alpha=5, beta=5, e=2)
    with pytest.raises(ValueError, match="ambient mismatch"):
        span([g], e=2)
    assert span([g], alpha=1, beta=1, e=3) == span([g])


def test_span_cyclic_generator_fills_z8():
    c = span([W([], [1])])
    assert len(c) == 8
    assert sorted(w.mod[0] for w in c.words) == list(range(8))


def test_span_of_worked_example_has_64_words():
    rows = assemble(zero_standard_form(TypeProfile(2, 2, 1, 1, 1, 0)))
    c = span(rows)
    assert len(c) == 64
    assert c.is_subgroup()


def test_span_refuses_a_code_past_the_work_limit_at_once():
    # twelve order-8 rows: 2^36 words, each step of the closure 8 times the last
    rows = assemble(zero_standard_form(TypeProfile(0, 12, 0, 12, 0, 0)))
    start = time.perf_counter()
    with pytest.raises(AmbientTooLargeError, match="^span"):
        span(rows)
    assert time.perf_counter() - start < 1


def test_span_guards_the_code_not_the_ambient():
    # one order-2 word in Z8^40, an ambient of 2^120 words, spans its 2 words
    c = span([W([], [4] + [0] * 39)])
    assert len(c) == 2
    assert W([], [0] * 40) in c


def test_classify_trivial_code():
    # the public shapes: a TypeProfile over Z8, the bare ks over Z4
    found = classify_type(span([], alpha=0, beta=2, e=3))
    assert type(found) is TypeProfile and found == TypeProfile(0, 2, 0, 0, 0, 0)
    found = classify_type(span([], alpha=0, beta=2, e=2))
    assert type(found) is tuple and found == (0, 0, 0)


def test_classify_single_binary_generator():
    c = span([W([1], [0])])
    assert classify_type(c) == TypeProfile(1, 1, 1, 0, 0, 0)


def test_classify_rejects_non_subgroup():
    c = Code([W([0], [0]), W([0], [1]), W([0], [2])], 1, 1, 3)
    with pytest.raises(NotASubgroupError):
        classify_type(c)
    c = Code([W([0], [1])], 1, 1, 3)  # missing zero
    with pytest.raises(NotASubgroupError):
        classify_type(c)


@pytest.mark.parametrize(
    "alpha,beta,words,message",
    [
        (0, 1, [((), (0,)), ((), (1,)), ((), (2,))], "code has size 3, not a power of two"),
        (0, 1, [((), (1,))], "code does not contain the zero word"),
        (0, 1, [((), (m,)) for m in (0, 2, 4, 1)], "4-torsion has size 3, not a power of two"),
        (1, 2, [((0,), (0, 0)), ((0,), (4, 0)), ((0,), (0, 4)), ((1,), (0, 0))],
         "zero-binary 2-torsion has size 3, not a power of two"),
        # sizes (0, 1, 2, 0): every count a power of two, but they give k3 = -1
        (0, 1, [((), (m,)) for m in (0, 1, 2, 3)], "inconsistent torsion profile (s=[0, 1, 2], z=0)"),
    ],
    ids=["code-size", "no-zero-word", "4-torsion", "zero-binary-2-torsion", "inconsistent"],
)
def test_forged_word_sets_are_refused(alpha, beta, words, message):
    # each check of `_torsion_sizes` and `_type_from_sizes`, in the order
    # they run, with the message classify_type gives for the same words
    c = Code([W(b, m) for b, m in words], alpha, beta, 3)
    with pytest.raises(NotASubgroupError) as forged:
        _type_from_sizes(_torsion_sizes(c._packed, c._ambient), 3)
    assert str(forged.value) == message
    with pytest.raises(NotASubgroupError) as code:
        classify_type(c)
    assert str(code.value) == message


def _assert_classify_round_trips(e):
    # every realizable type with alpha, beta <= 3
    for alpha, beta in product(range(4), range(4)):
        for ks, seed in product(_valid_ks(alpha, beta, e), range(20)):
            c = span(assemble(_standard_form(alpha, beta, ks, e, seed)), alpha=alpha, beta=beta, e=e)
            assert len(c) == 2 ** (ks[0] + sum(k * (e - i) for i, k in enumerate(ks[1:])))
            assert _classify(c) == ks, (alpha, beta, e, ks, seed)


def test_classify_round_trip_all_small_profiles():
    _assert_classify_round_trips(3)


def test_classify_round_trip_z4():
    _assert_classify_round_trips(2)


# ---------------------------------------------------------------------------
# parity check and duality
# ---------------------------------------------------------------------------

def test_parity_check_zero_blocks():
    m = zero_standard_form(TypeProfile(2, 2, 1, 1, 1, 0))
    h = parity_check(m)
    assert list(h.rows) == [W([0, 1], [0, 0]), W([0, 0], [0, 4])]


def test_parity_check_block_placement():
    m = zero_standard_form(TypeProfile(2, 2, 1, 1, 1, 0))
    blocks = dict(m.blocks)
    blocks["Abar01"] = ((1,),)
    h = parity_check(StandardFormMatrix(2, 2, 3, (1, 1, 1, 0), blocks))
    assert h.rows[0].bin == (1, 1)  # -Abar01^t reduced mod 2, then the identity


def test_parity_check_orthogonal_exhaustive_small_profile():
    # profile (1,2;1,1,0,0): free blocks are T03 (mod 2) and A03 (mod 8) only
    for t in range(2):
        for a in range(8):
            m = zero_standard_form(TypeProfile(1, 2, 1, 1, 0, 0))
            blocks = dict(m.blocks)
            blocks["T03"] = ((t,),)
            blocks["A03"] = ((a,),)
            m = StandardFormMatrix(1, 2, 3, (1, 1, 0, 0), blocks)
            gens = assemble(m)
            h = parity_check(m)
            assert all(inner_product(g, v) == 0 for g in gens for v in h.rows)


@pytest.mark.parametrize("profile", [(2, 2, 1, 1, 1, 0), (3, 3, 1, 1, 1, 1)])
def test_parity_check_orthogonal_seeded(profile):
    p = TypeProfile(*profile)
    for seed in range(50):
        m = random_standard_form(p, seed)
        gens = assemble(m)
        h = parity_check(m)
        assert all(inner_product(g, v) == 0 for g in gens for v in h.rows), seed


@pytest.mark.parametrize(
    "profile",
    [(2, 2, 1, 1, 1, 0), (1, 2, 1, 1, 0, 0), (2, 2, 2, 1, 0, 0), (2, 3, 1, 0, 1, 1), (1, 3, 0, 1, 2, 0)],
)
def test_parity_rows_generate_the_exact_dual(profile):
    p = TypeProfile(*profile)
    for seed in range(10):
        m = random_standard_form(p, seed)
        c = span(assemble(m))
        h_span = span(list(parity_check(m).rows), alpha=p.alpha, beta=p.beta, e=3)
        assert h_span == dual_bruteforce(c), (p, seed)


# sha256 of format_matrix(alpha, beta, 3, parity rows) over every valid profile
# with alpha, beta <= 4 and seeds 0-2, in valid_profiles order
PARITY_ROWS_SHA256 = "489f228df8d358be0b364335cc9877f78a13af4f264cd3cbd81160e547d6bcda"


def test_parity_check_rows_golden():
    digest = hashlib.sha256()
    for p in valid_profiles(4, 4):
        for seed in range(3):
            rows = parity_check(random_standard_form(p, seed)).rows
            digest.update(format_matrix(p.alpha, p.beta, 3, rows).encode())
    assert digest.hexdigest() == PARITY_ROWS_SHA256


def test_dual_of_trivial_code_is_everything():
    c = span([], alpha=1, beta=1, e=3)
    assert len(dual_bruteforce(c)) == 16


def test_dual_cardinality_and_involution_sweep():
    from z2z8.census import enumerate_subgroups

    for alpha, beta in [(1, 1), (2, 1)]:
        for c in enumerate_subgroups(alpha, beta, 3):
            d = dual_bruteforce(c)
            assert len(c) * len(d) == 2**alpha * 8**beta
            assert dual_bruteforce(d) == c


def test_dual_type_formula_is_not_pointwise():
    # The type of the dual is NOT a function of the type of the code: the
    # self-dual code <(1|2)> in Z2 x Z8 has type (0,0,1,0) while the claimed
    # dual type would be (1,0,0,1).  Counting shows why no such pointwise law
    # can hold: 36 codes of type (2,2;1,1,1,0) cannot all have duals among
    # the 18 codes of type (2,2;1,0,0,1).
    c = span([W([1], [2])])
    assert classify_type(c) == TypeProfile(1, 1, 0, 0, 1, 0)
    assert dual_bruteforce(c) == c
    assert dual_type(classify_type(c)) == TypeProfile(1, 1, 1, 0, 0, 1)

    # an explicit pair of same-type codes with structurally different duals
    zero = span(assemble(zero_standard_form(TypeProfile(2, 2, 1, 1, 1, 0))))
    seeded = span(assemble(random_standard_form(TypeProfile(2, 2, 1, 1, 1, 0), 0)))
    assert classify_type(zero) == classify_type(seeded)
    d0, d1 = dual_bruteforce(zero), dual_bruteforce(seeded)
    assert classify_type(d0) == TypeProfile(2, 2, 1, 0, 0, 1)  # Klein four-group
    assert classify_type(d1) == TypeProfile(2, 2, 0, 0, 1, 0)  # cyclic of order 4


Z2Z4_DUAL_AMBIENTS = [(a, b) for b in range(1, 4) for a in range(8 - 2 * b)]  # alpha + 2 beta <= 7


@pytest.mark.parametrize("alpha,beta", Z2Z4_DUAL_AMBIENTS)
def test_z2z4_dual_type_is_the_slot_rule_pointwise(alpha, beta):
    # over Z4 the type alone fixes the dual's type: (alpha-k0, beta-k1-k2, k2)
    # holds on every subgroup, unlike the Z8 rule below
    from z2z8.census import enumerate_subgroups, formula_census

    seen = 0
    for c in enumerate_subgroups(alpha, beta, 2):
        assert classify_type(dual_bruteforce(c)) == _dual_ks(alpha, beta, classify_type(c))
        seen += 1
    assert seen == formula_census(alpha, beta, 2).total_subgroups


def test_z8_dual_slot_rule_fails_pointwise_at_1_1_3():
    # the same rule over Z8 is refuted, so acceptance criterion 4 keeps failing
    from z2z8.census import enumerate_subgroups

    bad = [c for c in enumerate_subgroups(1, 1, 3)
           if classify_type(dual_bruteforce(c)).ks != _dual_ks(1, 1, classify_type(c).ks)]
    assert bad
    assert span([W([1], [2])]) in bad  # the self-dual <(1|2)>


def test_dual_bruteforce_guard():
    c = span([], alpha=3, beta=8, e=3)  # 2^27 ambient
    with pytest.raises(AmbientTooLargeError):
        dual_bruteforce(c)


def test_dual_bruteforce_matches_all_codeword_definition():
    # generator shortcut == literal all-codewords scan
    c = span([W([1, 0], [3]), W([0, 1], [4])])
    via_gens = dual_bruteforce(c)
    literal = [
        v for v in ambient_words(2, 1, 3)
        if all(inner_product(u, v) == 0 for u in c.words)
    ]
    assert via_gens == Code(literal, 2, 1, 3)


# ---------------------------------------------------------------------------
# mod-4 reduction
# ---------------------------------------------------------------------------

def test_phi_of_zero_code():
    img = phi_reduce(span([], alpha=1, beta=1, e=3))
    assert len(img) == 1 and img.e == 2


def test_phi_of_full_z8_is_full_z4():
    img = phi_reduce(span([W([], [1])]))
    assert len(img) == 4
    assert sorted(w.mod[0] for w in img.words) == [0, 1, 2, 3]


def test_phi_images_are_codes_on_sweeps():
    from z2z8.census import enumerate_subgroups

    for alpha, beta in [(1, 1), (2, 1)]:
        for c in enumerate_subgroups(alpha, beta, 3):
            img = phi_reduce(c)
            assert img.is_subgroup()


def test_phi_image_size_and_order4_count():
    from z2z8.census import enumerate_subgroups

    for c in enumerate_subgroups(1, 2, 3):
        t = classify_type(c)
        img = phi_reduce(c)
        k0i, k1i, k2i = classify_type(img)
        assert len(img) == 2 ** (t.k0 + 2 * t.k1 + t.k2)
        assert k1i == t.k1


def test_phi_image_type_with_zero_s2():
    # with the S2 block zero the image type is exactly (k0, k1, k2)
    for profile in [(2, 2, 1, 1, 1, 0), (2, 3, 1, 1, 1, 1), (1, 3, 0, 1, 2, 0)]:
        p = TypeProfile(*profile)
        for seed in range(10):
            m = random_standard_form(p, seed)
            blocks = dict(m.blocks)
            blocks["S2"] = tuple((0,) * (p.alpha - p.k0) for _ in range(p.k2))
            m = StandardFormMatrix(p.alpha, p.beta, 3, p.ks, blocks)
            img = phi_reduce(span(assemble(m)))
            assert classify_type(img) == (p.k0, p.k1, p.k2), (p, seed)


def test_phi_requires_e3():
    with pytest.raises(ValueError):
        phi_reduce(span([], alpha=1, beta=1, e=2))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_matrix_format_round_trip():
    p = TypeProfile(2, 3, 1, 1, 1, 0)
    rows = assemble(random_standard_form(p, 3))
    text = format_matrix(2, 3, 3, rows)
    assert text.splitlines()[0] == "2 3 3"
    alpha, beta, e, parsed = parse_words(text)
    assert (alpha, beta, e) == (2, 3, 3)
    assert parsed == rows


def test_code_format_round_trip():
    c = span([W([1], [2]), W([0], [4])])
    text = format_words(c)
    _, _, _, parsed = parse_words(text)
    assert Code(parsed, 1, 1, 3) == c


def test_parse_rejects_bad_rows():
    # each refusal of a row names the row and its text
    with pytest.raises(ValueError, match=r"^row 2 '1 \| 0 0': does not match header \(1,1\)$"):
        parse_words("1 1 3\n1 | 4\n1 | 0 0\n")
    with pytest.raises(ValueError, match=r"^row 1 '1 \| x': entry 'x' is not an integer$"):
        parse_words("1 1 3\n1 | x\n")
    with pytest.raises(ValueError, match=r"^row 1 '1 \| 4 \| 5': a second '\|'$"):
        parse_words("1 1 3\n1 | 4 | 5\n")
    with pytest.raises(ValueError, match=r"^row 1 '1 \| 9': modular entries must lie in \[0,8\), got \(9,\)$"):
        parse_words("1 1 3\n1 | 9\n")
    with pytest.raises(ValueError):
        parse_words("")
    with pytest.raises(ValueError, match=r"ring exponent must be 2 or 3, got 5"):
        parse_words("1 1 5\n")
    with pytest.raises(ValueError, match=r"dimensions must be non-negative, got \(-1, 2\)"):
        parse_words("-1 2 3\n")
    for header in ("1 1", "1 1 3 0"):
        with pytest.raises(ValueError, match="is not three integers alpha beta e"):
            parse_words(header + "\n")


def test_parse_skips_comments_and_blanks():
    text = "# generator\n1 1 3\n\n1 | 4\n"
    _, _, _, rows = parse_words(text)
    assert rows == [W([1], [4])]

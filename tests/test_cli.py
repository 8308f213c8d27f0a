"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import json
import subprocess
import sys
import time

import pytest

from z2z8.cli import FAMILIES, family_term, main, parse_affine
from z2z8.codes import dual_bruteforce, parse_words, span
from z2z8 import counting
from z2z8.counting import TypeProfile, count, valid_profiles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def digit_limit():
    """Python 3.11+ caps int <-> str conversion at 4300 digits; None before."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@contextlib.contextmanager
def no_digit_limit():
    """Parse decimal strings of any length."""
    limit = digit_limit()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def test_count_worked_example(capsys):
    code, out = run(capsys, "count", "--alpha", "2", "--beta", "2",
                    "--k0", "1", "--k1", "1", "--k2", "1", "--k3", "0")
    assert code == 0
    assert out == "36\n"


def test_count_z2z4_via_slot_mapping(capsys):
    code, out = run(capsys, "count", "--alpha", "3", "--beta", "4",
                    "--k0", "2", "--k1", "0", "--k2", "1", "--k3", "2")
    assert code == 0
    assert out == "11760\n"


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_count_prints_counts_over_4300_digits(capsys, fmt):
    limit = digit_limit()
    code, out = run(capsys, "count", "--alpha", "100", "--beta", "200", "--k0", "50",
                    "--k1", "50", "--k2", "50", "--k3", "50", "--format", fmt)
    assert code == 0
    assert digit_limit() == limit  # main gives the caller's limit back
    text = json.loads(out)["count"] if fmt == "json" else out
    assert len(text.strip()) > 4300
    with no_digit_limit():
        assert int(text) == count(TypeProfile(100, 200, 50, 50, 50, 50))


def test_count_invalid_profile_prints_zero(capsys):
    code, out = run(capsys, "count", "--alpha", "1", "--beta", "2",
                    "--k0", "0", "--k1", "0", "--k2", "0", "--k3", "5")
    assert code == 0
    assert out == "0\n"


def test_count_breakdown_and_dual(capsys):
    code, out = run(capsys, "count", "--alpha", "2", "--beta", "2",
                    "--k0", "1", "--k1", "1", "--k2", "1", "--k3", "0",
                    "--breakdown", "--dual")
    assert code == 0
    assert "N1 = 12" in out and "N2 = 192" in out and "N3 = 32" in out
    assert "D1 = 4" in out and "D2 = 32" in out and "D3 = 16" in out
    assert "delta = 2" in out
    assert "dual type = (2,2;1,0,0,1)" in out
    assert "dual count = 18" in out


def test_count_json_breakdown_and_dual(capsys):
    code, out = run(capsys, "count", "--alpha", "2", "--beta", "2",
                    "--k0", "1", "--k1", "1", "--k2", "1", "--k3", "0",
                    "--breakdown", "--dual", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == "36"
    assert doc["breakdown"] == {
        "N1": "12", "N2": "192", "N3": "32", "N4": "1",
        "D1": "4", "D2": "32", "D3": "16", "D4": "1",
        "delta": 2,
    }
    assert doc["dual"] == {"profile": [2, 2, 1, 0, 0, 1], "count": "18"}


def test_count_breakdown_does_not_divide(capsys, monkeypatch):
    # --breakdown prints N1..D4 and count()'s value, so count_product, whose
    # big division is most of its time, is left to the tests as the oracle;
    # the digest is of the same output taken when --breakdown called it
    def refuse(profile):
        raise AssertionError("count --breakdown called count_product")

    monkeypatch.setattr(counting, "count_product", refuse)
    digest = hashlib.sha256()
    profiles = [*valid_profiles(2, 2), (1, 2, 2, 0, 0, 0)]  # the last is invalid
    for p in profiles:
        flags = [x for name, v in zip(("alpha", "beta", "k0", "k1", "k2", "k3"), p)
                 for x in (f"--{name}", str(v))]
        for fmt in ("plain", "json"):
            code, out = run(capsys, "count", *flags, "--breakdown", "--format", fmt)
            assert code == 0
            digest.update(out.encode())
    assert len(profiles) == 91
    assert digest.hexdigest() == "bd272a9c85d9487271bb6bb56fcdba5e05a089d134259c626d45e77b1c3f58ab"


def test_count_json(capsys):
    code, out = run(capsys, "count", "--alpha", "1", "--beta", "4",
                    "--k0", "1", "--k1", "2", "--k2", "1", "--k3", "1",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == "420"
    assert doc["valid"] is True


def test_count_rejects_negative_argument(capsys):
    assert main(["count", "--alpha", "-2", "--beta", "0",
                 "--k0", "0", "--k1", "0", "--k2", "0", "--k3", "0"]) == 2
    assert capsys.readouterr().err == "error: alpha must be a non-negative integer, got -2\n"


@pytest.mark.parametrize("argv,message", [
    (["count", "--alpha", "two", "--beta", "0", "--k0", "0", "--k1", "0", "--k2", "0", "--k3", "0"],
     "invalid int value: 'two'"),
    # each subcommand accepts only the formats it writes
    (["count", "--alpha", "1", "--beta", "0", "--k0", "0", "--k1", "0", "--k2", "0", "--k3", "0",
      "--format", "bfile"], "invalid choice: 'bfile'"),
    (["census-export", "--alpha", "1", "--beta", "1", "--format", "plain"],
     "unrecognized arguments: --format plain"),
    (["matrix", "--alpha", "1", "--beta", "1", "--k0", "1", "--k1", "0", "--k2", "0",
      "--zero", "--seed", "-1"], "argument --seed: not allowed with argument --zero"),
], ids=["non-integer", "count-bfile", "census-export-format", "matrix-zero-seed"])
def test_parser_refusal_is_bad_input(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: z2z8") and message in err


def test_every_negative_flag_is_refused_by_the_library(capsys):
    # no flag is checked twice: the library's ValueError names the value, exit 2
    profile = {"alpha": "2", "beta": "2", "k0": "1", "k1": "1", "k2": "1", "k3": "0"}
    commands = {
        "count": profile,
        "verify": {"alpha": "1", "beta": "1"},
        "check-identities": {"max-alpha": "2", "max-beta": "2"},
        "matrix": {**profile, "seed": "0"},
        "census-export": {"alpha": "1", "beta": "1"},
    }
    refused = 0
    for command, flags in commands.items():
        for name in flags:
            argv = [command, *(x for k, v in flags.items()
                               for x in (f"--{k}", "-1" if k == name else v))]
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and "-1" in err, (argv, err)
            refused += 1
    assert refused == 19


def test_count_dual_of_invalid_profile_is_usage_error(capsys):
    code = main(["count", "--alpha", "1", "--beta", "1",
                 "--k0", "2", "--k1", "0", "--k2", "0", "--k3", "0", "--dual"])
    capsys.readouterr()
    assert code == 2


def test_count_with_only_empty_runs_allocates_nothing(capsys):
    # every run of 2^j - 1 is empty, so count lays out no list as long as alpha
    assert run(capsys, "count", "--alpha", "1000000000000", "--beta", "1", "--k0", "0",
               "--k1", "0", "--k2", "0", "--k3", "0") == (0, "1\n")


def test_count_slot_too_large_for_an_index_is_usage_error(capsys):
    # no longer an error: every run of (10^20, 1; 0, 0, 0, 0) is empty, so its
    # predicted work is 0 and it counts 1; an invalid type still counts 0
    assert run(capsys, "count", "--alpha", "99999999999999999999", "--beta", "1",
               "--k0", "0", "--k1", "0", "--k2", "0", "--k3", "0") == (0, "1\n")
    assert run(capsys, "count", "--alpha", "1", "--beta", "1", "--k0", "99999999999999999999",
               "--k1", "0", "--k2", "0", "--k3", "0") == (0, "0\n")


@pytest.mark.parametrize("slots", [
    (10**12, 1, 0, 0, 1, 0),  # 2^(10^12) codes: a count of 10^12 bits
    (10**9, 1, 1, 0, 0, 0),  # [10^9; 1]_2: about 10^9 bits
])
def test_count_too_large_to_build_is_refused_without_a_traceback(capsys, slots):
    names = ("--alpha", "--beta", "--k0", "--k1", "--k2", "--k3")
    assert main(["count", *(x for pair in zip(names, map(str, slots)) for x in pair)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource guard: count") and "Traceback" not in err


def test_count_whose_runs_cancel_prints_one(capsys):
    # [10^12; 10^12]_2 = 1: its runs (0, 10^12] are long, but the binomial takes no step
    assert run(capsys, "count", "--alpha", "1000000000000", "--beta", "0", "--k0", "1000000000000",
               "--k1", "0", "--k2", "0", "--k3", "0") == (0, "1\n")


def test_count_breakdown_is_refused_on_the_bits_of_its_factors(capsys):
    start = time.perf_counter()
    assert main(["count", "--alpha", "100000", "--beta", "0", "--k0", "50000",
                 "--k1", "0", "--k2", "0", "--k3", "0", "--breakdown"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("resource guard: count")
    # a count of 1 whose factors N1 = D1 have about 9 * 10^6 bits each
    flags = ["--alpha", "3000", "--beta", "0", "--k0", "3000", "--k1", "0", "--k2", "0", "--k3", "0"]
    assert run(capsys, "count", *flags) == (0, "1\n")
    assert main(["count", *flags, "--breakdown"]) == 3
    assert capsys.readouterr().err.startswith("resource guard: count --breakdown")


# ---------------------------------------------------------------------------
# sequence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "family,start,end,expected",
    [
        ("t1", 1, 3, [6, 560, 714240]),
        ("t2", 1, 5, [36, 84, 180, 372, 756]),
        ("t3", 1, 5, [504, 1176, 2520, 5208, 10584]),
        ("t4", 1, 3, [504, 486080, 1360627200]),
        ("t5", 1, 3, [2352, 9721600, 449914060800]),
        ("t6", 2, 4, [840, 52080, 2187360]),
        ("t7", 1, 4, [3, 35, 1395, 200787]),
        ("t8", 3, 6, [42, 10080, 1666560, 239984640]),
    ],
)
def test_builtin_families(capsys, family, start, end, expected):
    code, out = run(capsys, "sequence", family, "--start", str(start), "--end", str(end))
    assert code == 0
    assert [int(x) for x in out.split()] == expected


def test_sequence_default_range_uses_natural_offset(capsys):
    code, out = run(capsys, "sequence", "t8")
    assert code == 0
    assert out.splitlines()[0] == "42"  # starts at r = 3


def test_sequence_t1_reaches_the_large_fourth_term(capsys):
    code, out = run(capsys, "sequence", "t1", "--start", "4", "--end", "4")
    assert code == 0
    assert out == "13158776832\n"


def test_sequence_bfile_round_trip(capsys):
    code, out = run(capsys, "sequence", "t2", "--start", "1", "--end", "5",
                    "--format", "bfile")
    assert code == 0
    lines = out.splitlines()
    parsed = [tuple(int(x) for x in ln.split(" ")) for ln in lines]
    assert [r for r, _ in parsed] == [1, 2, 3, 4, 5]
    exprs, _ = FAMILIES["t2"]
    assert all(family_term(exprs, r) == v for r, v in parsed)
    assert out.endswith("\n") and "\r" not in out


def test_sequence_json(capsys):
    code, out = run(capsys, "sequence", "t7", "--start", "1", "--end", "3",
                    "--format", "json")
    assert code == 0
    assert json.loads(out) == ["3", "35", "1395"]


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_sequence_prints_terms_over_4300_digits(capsys, fmt):
    code, out = run(capsys, "sequence", "t1", "--start", "100", "--end", "102",
                    "--format", fmt)
    assert code == 0
    terms = json.loads(out) if fmt == "json" else out.split()
    with no_digit_limit():
        assert [int(t) for t in terms] == [family_term(FAMILIES["t1"][0], r) for r in (100, 101, 102)]


def test_sequence_custom_exprs(capsys):
    code, out = run(capsys, "sequence", "--exprs", "r+1,2,r,1,1,0",
                    "--start", "1", "--end", "3")
    assert code == 0
    assert [int(x) for x in out.split()] == [36, 84, 180]


def test_sequence_usage_errors(capsys):
    assert run(capsys, "sequence", "nope")[0] == 2
    assert run(capsys, "sequence")[0] == 2  # neither family nor exprs
    assert run(capsys, "sequence", "t1", "--exprs", "r,r,r,r,r,r")[0] == 2
    assert run(capsys, "sequence", "--exprs", "r,r,r")[0] == 2
    assert run(capsys, "sequence", "t1", "--start", "1", "--end", "99999")[0] == 2
    assert main(["sequence", "t2", "--start", "5", "--end", "3"]) == 2
    assert capsys.readouterr().err == "error: empty range: start 5 > end 3\n"


def test_sequence_slot_too_large_for_an_index_is_usage_error(capsys):
    huge = "99999999999999999999"
    # refused by the work guard of its count: t1 at r = 10^20 has about 10^40 bits
    code = main(["sequence", "t1", "--start", huge, "--end", huge])
    assert code == 3
    assert capsys.readouterr().err.startswith("resource guard: count")
    # types that are invalid at every index still print their zeros
    assert run(capsys, "sequence", "--exprs", f"{huge}r,1,{huge}r+1,0,0,0",
               "--start", "1", "--end", "2") == (0, "0\n0\n")


def test_sequence_is_guarded_term_by_term(capsys):
    # each term of t7 up to r = 400 is within the work limit, though their
    # summed bits (about 2.1e7) are not
    code, out = run(capsys, "sequence", "t7", "--start", "1", "--end", "400", "--format", "bfile")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 400 and lines[-1].startswith("400 ")


def test_parse_affine():
    assert parse_affine("r") == (1, 0)
    assert parse_affine("2r") == (2, 0)
    assert parse_affine("2*r + 1") == (2, 1)
    assert parse_affine("r-1") == (1, -1)
    assert parse_affine("7") == (0, 7)
    from z2z8.cli import UsageError

    # a sign must part the r term from the constant, and a '*' needs a coefficient
    for bad in ("x+1", "r1", "2r3", "*r"):
        with pytest.raises(UsageError):
            parse_affine(bad)
        assert main(["sequence", "--exprs", f"{bad},2,r,1,1,0"]) == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_ambient(capsys):
    code, out = run(capsys, "verify", "--alpha", "1", "--beta", "1", "--e", "3")
    assert code == 0
    assert "total subgroups: 11" in out
    assert "all 8 profiles match" in out


def test_verify_at_oracle_reach(capsys):
    # 33,858 subgroups of a 2^9-word ambient: the whole census in one command
    code, out = run(capsys, "verify", "--alpha", "3", "--beta", "3", "--e", "2")
    assert code == 0
    assert "total subgroups: 33858" in out
    assert "all 40 profiles match" in out


def test_verify_json(capsys):
    code, out = run(capsys, "verify", "--alpha", "1", "--beta", "1", "--e", "2")
    assert code == 0
    code, out = run(capsys, "verify", "--alpha", "1", "--beta", "1", "--e", "2",
                    "--format", "json")
    doc = json.loads(out)
    assert doc["all_match"] is True
    assert doc["total_enumerated"] == "8"


def test_verify_output_unchanged(capsys):
    # sha256 over stdout and exit code, plain then JSON, taken before the
    # profile text came from counting._type_str
    digest = hashlib.sha256()
    for alpha, beta, e in [(1, 1, 3), (2, 1, 2), (1, 2, 2), (0, 2, 3), (2, 2, 2)]:
        for fmt in ("plain", "json"):
            code, out = run(capsys, "verify", "--alpha", str(alpha), "--beta", str(beta),
                            "--e", str(e), "--format", fmt)
            digest.update(out.encode())
            digest.update(str(code).encode())
    assert digest.hexdigest() == "8decb21e83f4fd4179152ce27f006d299b1d4d8e8aa3d975aa22a96b8bdb6876"


def test_verify_guard_refuses_huge_ambient_at_once(capsys):
    assert main(["verify", "--alpha", "40", "--beta", "0"]) == 3
    assert capsys.readouterr().err.startswith("resource guard: ")


def test_verify_guard_exit_code(capsys):
    code = main(["verify", "--alpha", "4", "--beta", "4", "--e", "3"])
    capsys.readouterr()
    assert code == 3


# ---------------------------------------------------------------------------
# check-identities
# ---------------------------------------------------------------------------

def test_check_identities_report(capsys):
    code, out = run(capsys, "check-identities", "--max-alpha", "4", "--max-beta", "4")
    assert code == 0
    for key in "abcdefgh":
        assert f"[PASS] {key}:" in out
    assert "[FAIL (as expected, misstated identity)] lemma4-literal" in out
    assert "48 != 24" in out
    assert "[PASS] lemma4-corrected" in out
    assert "[PASS] t1-fourth-term" in out


def test_check_identities_json(capsys):
    code, out = run(capsys, "check-identities", "--format", "json",
                    "--max-alpha", "2", "--max-beta", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["success"] is True
    by_key = {e["key"]: e for e in doc["entries"]}
    assert by_key["lemma4-literal"]["passed"] is False
    assert by_key["lemma4-literal"]["ok"] is True


def test_check_identities_output_bytes_unchanged(capsys):
    # sha256 over stdout, plain then JSON, for the boxes 1 x 1..6, then for
    # 2..6 x 1..6; the second taken before the sweeps moved to
    # z2z8.identities and stopped formatting every case's label.  With
    # --max-alpha 1 the box holds no a >= 2, so lemma4-literal is expected to
    # pass there, its detail says why, and the command exits 0
    digests = {1: hashlib.sha256(), 2: hashlib.sha256()}
    for a in range(1, 7):
        for b in range(1, 7):
            for fmt in ("plain", "json"):
                code, out = run(capsys, "check-identities", "--max-alpha", str(a),
                                "--max-beta", str(b), "--format", fmt)
                assert code == 0
                digests[min(a, 2)].update(out.encode())
    assert {a: d.hexdigest() for a, d in digests.items()} == {
        1: "a0bb11364c32a3cfcd69485f15bb2e69998fd2867533049ae53cae184c225427",
        2: "789e062907679ab34eb3af4ea68eef16408c123b85c9076ae511f2082f2f42c0",
    }


def test_check_identities_guard_refuses_a_large_box_at_once(capsys):
    # 41 * 42 / 2 * C(44, 4) = 1.2 * 10^8 profiles, predicted in closed form
    start = time.perf_counter()
    assert main(["check-identities", "--max-alpha", "40", "--max-beta", "40"]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("resource guard: check_identities")


def test_check_identities_guard_refuses_the_bits_of_its_counts(capsys):
    # 25,755 profiles pass the box guard, but their counts hold 2.2 * 10^7 bits
    start = time.perf_counter()
    assert main(["check-identities", "--max-alpha", "100", "--max-beta", "1"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("resource guard: check_identities (the bits of its counts)")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

def test_matrix_zero_blocks(capsys):
    code, out = run(capsys, "matrix", "--alpha", "2", "--beta", "2",
                    "--k0", "1", "--k1", "1", "--k2", "1", "--k3", "0", "--zero")
    assert code == 0
    assert out == "# generator\n2 2 3\n1 0 | 0 0\n0 0 | 1 0\n0 0 | 0 2\n"


def test_matrix_deterministic(capsys):
    args = ("matrix", "--alpha", "2", "--beta", "3", "--k0", "1", "--k1", "1",
            "--k2", "1", "--k3", "0", "--seed", "9", "--parity", "--span")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_matrix_span_counts_codewords(capsys):
    code, out = run(capsys, "matrix", "--alpha", "2", "--beta", "2",
                    "--k0", "1", "--k1", "1", "--k2", "1", "--k3", "0",
                    "--zero", "--span")
    assert code == 0
    assert "# codewords (64)" in out
    rows = [ln for ln in out.splitlines()[out.splitlines().index("# codewords (64)") + 2:]]
    assert len(rows) == 64


def test_matrix_invalid_profile_is_usage_error(capsys):
    code = main(["matrix", "--alpha", "3", "--beta", "2",
                 "--k0", "4", "--k1", "0", "--k2", "0", "--k3", "0"])
    capsys.readouterr()
    assert code == 2


def test_matrix_z4_refuses_k3(capsys):
    assert main(["matrix", "--alpha", "2", "--beta", "2", "--k0", "1", "--k1", "1", "--k2", "0",
                 "--e", "2", "--k3", "1"]) == 2
    assert capsys.readouterr().err == "error: --k3 has no meaning for e = 2 profiles, got --k3 1\n"


def test_matrix_z4(capsys):
    code, out = run(capsys, "matrix", "--alpha", "2", "--beta", "2",
                    "--k0", "1", "--k1", "1", "--k2", "1", "--e", "2", "--zero")
    assert code == 0
    assert out == "# generator\n2 2 2\n1 0 | 0 0\n0 0 | 1 0\n0 0 | 0 2\n"


def test_matrix_span_guard(capsys):
    # 2^24 codewords of 24 entries each: above the work limit
    code = main(["matrix", "--alpha", "24", "--beta", "0",
                 "--k0", "24", "--k1", "0", "--k2", "0", "--k3", "0", "--span"])
    assert capsys.readouterr().err.startswith("resource guard: matrix --span")
    assert code == 3


@pytest.mark.parametrize("flags,what", [
    # 10^4 rows of 2 * 10^4 entries each
    (("--alpha", "20000", "--beta", "0", "--k0", "10000", "--k1", "0", "--k2", "0"), "standard form"),
    # the parity check's substitution: 3.9 * 10^8 entry updates, cubic in beta
    (("--alpha", "0", "--beta", "2000", "--k0", "0", "--k1", "100", "--k2", "0", "--parity"), "parity_check"),
], ids=["rows", "parity"])
def test_matrix_too_large_to_build_is_refused_at_once(capsys, flags, what):
    start = time.perf_counter()
    assert main(["matrix", *flags]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"resource guard: {what}") and "Traceback" not in err


def test_matrix_span_guards_the_code_not_the_ambient(capsys):
    # codes of 2 and 1 words in ambients of 2^16 words are listed
    code, out = run(capsys, "matrix", "--alpha", "16", "--beta", "0", "--k0", "1",
                    "--k1", "0", "--k2", "0", "--k3", "0", "--span")
    assert code == 0
    assert out.split("# codewords (2)\n16 0 3\n")[1].count("\n") == 2
    code, out = run(capsys, "matrix", "--alpha", "4", "--beta", "4", "--k0", "0",
                    "--k1", "0", "--k2", "0", "--k3", "0", "--span")
    assert code == 0
    assert out.endswith("# codewords (1)\n4 4 3\n0 0 0 0 | 0 0 0 0\n")


def test_matrix_z4_parity_rows_span_the_dual(capsys):
    args = ("matrix", "--alpha", "2", "--beta", "3", "--k0", "1", "--k1", "1",
            "--k2", "1", "--e", "2", "--seed", "4", "--parity")
    code, out = run(capsys, *args)
    assert code == 0
    generator, parity = (parse_words(chunk)[3] for chunk in out.split("# parity-check\n"))
    code, out = run(capsys, *args, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [[list(w.bin), list(w.mod)] for w in parity] == doc["parity"]
    assert [[list(w.bin), list(w.mod)] for w in generator] == doc["rows"]
    assert span(parity, alpha=2, beta=3, e=2) == dual_bruteforce(span(generator))


def test_matrix_json_lists_rows(capsys):
    code, out = run(capsys, "matrix", "--alpha", "2", "--beta", "2",
                    "--k0", "1", "--k1", "1", "--k2", "1", "--k3", "0",
                    "--zero", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 2]]]


# ---------------------------------------------------------------------------
# census-export
# ---------------------------------------------------------------------------

def test_census_export(capsys, tmp_path):
    out_path = tmp_path / "census.json"
    code = main(["census-export", "--alpha", "1", "--beta", "1", "--e", "3",
                 "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["total"] == "11"
    assert {"profile": [1, 0, 0, 0], "count": "2"} in doc["counts"]


def test_out_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "seq.txt"
    code = main(["sequence", "t2", "--start", "1", "--end", "2", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    assert out_path.read_text() == "36\n84\n"


def test_formula_disagreement_is_internal_inconsistency(capsys, monkeypatch):
    # N1's power of two one too high: the product formula no longer agrees with the closed form
    rows = counting._product_rows

    def skewed(profile):
        (sign, k, s, m), *rest = rows(profile)
        return ((sign, k, s + 1, m), *rest)

    monkeypatch.setattr(counting, "_product_rows", skewed)
    assert main(["count", "--alpha", "2", "--beta", "2",
                 "--k0", "1", "--k1", "1", "--k2", "1", "--k3", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal inconsistency: formula disagreement") and "Traceback" not in err


def test_out_unwritable_is_usage_error(capsys, tmp_path):
    code = main(["sequence", "t2", "--out", str(tmp_path / "missing" / "seq.txt")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv,message", [
    (["matrix", "--alpha", "1", "--beta", "1", "--k0", "2", "--k1", "0", "--k2", "0"],
     "profile (1,1;2,0,0,0) is not realizable"),
    (["check-identities", "--max-alpha", "0"], "bounds must be >= 1"),
    (["count", "--alpha", "1", "--beta", "1", "--k0", "2", "--k1", "0", "--k2", "0", "--k3", "0",
      "--dual"], "invalid type profile (1,1;2,0,0,0): needs k0 <= alpha and k1+k2+k3 <= beta"),
    (["count", "--alpha", "1", "--beta", "-1", "--k0", "0", "--k1", "0", "--k2", "0", "--k3", "0"],
     "beta must be a non-negative integer, got -1"),
    (["verify", "--alpha", "-1", "--beta", "1"], "dimensions must be non-negative, got (-1, 1)"),
    (["check-identities", "--max-alpha", "-1"], "bounds must be >= 1, got (-1, 4)"),
    (["matrix", "--alpha", "2", "--beta", "2", "--k0", "1", "--k1", "-1", "--k2", "1"],
     "negative dimensions in (2,2;1,-1,1,0)"),
    (["matrix", "--alpha", "2", "--beta", "2", "--k0", "1", "--k1", "1", "--k2", "1", "--seed", "-1"],
     "seed must be non-negative, got -1"),
    (["census-export", "--alpha", "1", "--beta", "-1"], "dimensions must be non-negative, got (1, -1)"),
], ids=["matrix", "check-identities", "count-dual", "count-negative", "verify-negative",
        "check-identities-negative", "matrix-negative", "matrix-negative-seed",
        "census-export-negative"])
def test_library_refusal_is_bad_input(capsys, argv, message):
    # the library's ValueError reaches main as it was raised: exit 2, its own message
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "z2z8", "count", "--alpha", "2", "--beta", "2",
         "--k0", "1", "--k1", "1", "--k2", "1", "--k3", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "36\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--alpha", "1", "--beta", "1", "--format", "json"],
    ["matrix", "--alpha", "2", "--beta", "3", "--k0", "1", "--k1", "1", "--k2", "1",
     "--e", "2", "--parity", "--span"],
    ["matrix", "--alpha", "1", "--beta", "2", "--k0", "1", "--k1", "1", "--k2", "1", "--parity"],
    ["census-export", "--alpha", "1", "--beta", "1", "--e", "2"],
    # three Z8 coordinates: the walk reads its table of child sizes on a third
    ["verify", "--alpha", "1", "--beta", "3", "--e", "3"],
    # [n; 1]_2 = 2^n - 1 with n near 3000, each the product of Phi_d(2) over
    # the divisors d of n
    ["count", "--alpha", "1", "--beta", "3000", "--k0", "1", "--k1", "1", "--k2", "1", "--k3", "1"],
    ["sequence", "t8", "--start", "2998", "--end", "3000"],
    # 6.2 * 10^17 predicted subgroups in a 2^15-word ambient: exit 3
    ["verify", "--alpha", "15", "--beta", "0"],
], ids=["verify-json", "matrix-e2-parity-span", "matrix-e3-parity", "census-export",
        "verify-1-3-3", "count-beta-3000", "sequence-t8-3000", "verify-15-0-refused"])
def test_module_invocation_matches_in_process(capsys, argv):
    # a fresh interpreter loads codes and census on first use; this process
    # has imported them already
    proc = subprocess.run([sys.executable, "-m", "z2z8", *argv], capture_output=True, text=True)
    code = main(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


# run in a child whose address space is capped at 2 GB: the six library jobs
# ([10^9; 1]_2 by the closed form and by count_z8, the 2^36 words of
# (0,12;0,12,0,0) by span, the 1.4 * 10^9 types of formula_census(300, 300, 3),
# the 10^7 bits of formula_census(2000, 0, 3)'s counts and the bits of
# [200000; 100000]_2 by the q-kernel), then the count command lines of
# 2^(10^12) and [10^9; 1]_2; each prints how it was refused
REFUSED_UNDER_A_MEMORY_CAP = """
import contextlib, io
from z2z8.census import formula_census
from z2z8.cli import main
from z2z8.codes import assemble, span, zero_standard_form
from z2z8.counting import TypeProfile, count_closed_form, count_z8
from z2z8.errors import AmbientTooLargeError
from z2z8.qnum import q_binomial
jobs = [
    lambda: count_closed_form(TypeProfile(10**9, 1, 1, 0, 0, 0)),
    lambda: count_z8(10**9, 0, 0, 1),
    lambda: span(assemble(zero_standard_form(TypeProfile(0, 12, 0, 12, 0, 0)))),
    lambda: formula_census(300, 300, 3),
    lambda: formula_census(2000, 0, 3),
    lambda: q_binomial(200000, 100000, 2),
]
for job in jobs:
    try:
        job()
    except AmbientTooLargeError:
        print("refused")
    else:
        print("not refused")
for argv in (
    ["count", "--alpha", "1000000000000", "--beta", "1", "--k0", "0", "--k1", "0", "--k2", "1", "--k3", "0"],
    ["count", "--alpha", "1000000000", "--beta", "1", "--k0", "1", "--k1", "0", "--k2", "0", "--k3", "0"],
):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    print(f"exit {code}: {err.getvalue().partition(':')[0]}")
"""


def test_too_large_jobs_are_refused_under_a_memory_cap():
    # a guard that let a job start would meet a MemoryError or run past 5 s
    resource = pytest.importorskip("resource")
    cap = 2_000_000 * 1024

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run([sys.executable, "-c", REFUSED_UNDER_A_MEMORY_CAP], capture_output=True,
                          text=True, timeout=5, preexec_fn=cap_address_space)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["refused"] * 6 + ["exit 3: resource guard"] * 2

"""End-to-end tests of the command-line interface."""

import contextlib
import json
import subprocess
import sys

import pytest

from z2z8.cli import FAMILIES, family_term, main, parse_affine
from z2z8.counting import TypeProfile, count


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


def test_count_json(capsys):
    code, out = run(capsys, "count", "--alpha", "1", "--beta", "4",
                    "--k0", "1", "--k1", "2", "--k2", "1", "--k3", "1",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == "420"
    assert doc["valid"] is True


def test_count_rejects_negative_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--alpha", "-2", "--beta", "0",
              "--k0", "0", "--k1", "0", "--k2", "0", "--k3", "0"])
    assert exc.value.code == 2


def test_count_dual_of_invalid_profile_is_usage_error(capsys):
    code = main(["count", "--alpha", "1", "--beta", "1",
                 "--k0", "2", "--k1", "0", "--k2", "0", "--k3", "0", "--dual"])
    capsys.readouterr()
    assert code == 2


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


def test_parse_affine():
    assert parse_affine("r") == (1, 0)
    assert parse_affine("2r") == (2, 0)
    assert parse_affine("2*r + 1") == (2, 1)
    assert parse_affine("r-1") == (1, -1)
    assert parse_affine("7") == (0, 7)
    from z2z8.cli import UsageError

    with pytest.raises(UsageError):
        parse_affine("x+1")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_ambient(capsys):
    code, out = run(capsys, "verify", "--alpha", "1", "--beta", "1", "--e", "3")
    assert code == 0
    assert "total subgroups: 11" in out
    assert "all 8 profiles match" in out


def test_verify_json(capsys):
    code, out = run(capsys, "verify", "--alpha", "1", "--beta", "1", "--e", "2")
    assert code == 0
    code, out = run(capsys, "verify", "--alpha", "1", "--beta", "1", "--e", "2",
                    "--format", "json")
    doc = json.loads(out)
    assert doc["all_match"] is True
    assert doc["total_enumerated"] == "8"


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


def test_matrix_z4(capsys):
    code, out = run(capsys, "matrix", "--alpha", "2", "--beta", "2",
                    "--k0", "1", "--k1", "1", "--k2", "1", "--e", "2", "--zero")
    assert code == 0
    assert out == "# generator\n2 2 2\n1 0 | 0 0\n0 0 | 1 0\n0 0 | 0 2\n"


def test_matrix_span_guard(capsys):
    code = main(["matrix", "--alpha", "4", "--beta", "4",
                 "--k0", "0", "--k1", "0", "--k2", "0", "--k3", "0", "--span"])
    capsys.readouterr()
    assert code == 3


def test_matrix_parity_rejected_for_z4(capsys):
    code = main(["matrix", "--alpha", "1", "--beta", "1",
                 "--k0", "1", "--k1", "0", "--k2", "0", "--e", "2", "--parity"])
    capsys.readouterr()
    assert code == 2


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


def test_out_unwritable_is_usage_error(capsys, tmp_path):
    code = main(["sequence", "t2", "--out", str(tmp_path / "missing" / "seq.txt")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


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

"""Command-line interface: count queries, sequence families, oracle checks.

Exit codes: 0 success / all checks match, 1 internal inconsistency,
2 usage error, 3 resource guard exceeded.  Counts are printed as decimal
strings everywhere, JSON included, so no output ever truncates.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Sequence

from . import codes, counting
from .census import census, census_to_json, check_ambient_size, verify_formula
from .counting import TypeProfile
from .errors import AmbientTooLargeError, SelfCheckError

__all__ = ["main", "entry", "FAMILIES"]

# built-in sequence families: six affine slot expressions a*r + b and the
# natural first index of the published terms
FAMILIES: dict[str, tuple[tuple[tuple[int, int], ...], int]] = {
    "t1": (((1, 0), (2, 0), (1, 0), (1, 0), (0, 0), (1, 0)), 1),
    "t2": (((1, 1), (0, 2), (1, 0), (0, 1), (0, 1), (0, 0)), 1),
    "t3": (((1, 1), (0, 3), (1, 0), (0, 1), (0, 1), (0, 1)), 1),
    "t4": (((1, 1), (2, 1), (1, 0), (0, 0), (1, 0), (1, 0)), 1),
    "t5": (((1, 2), (2, 1), (1, 0), (0, 0), (0, 1), (1, 0)), 1),
    "t6": (((1, 0), (1, 2), (0, 2), (0, 0), (0, 1), (1, 0)), 2),
    "t7": (((1, 0), (2, 0), (1, 0), (1, 0), (1, 0), (0, 0)), 1),
    "t8": (((0, 1), (1, 0), (0, 1), (0, 1), (0, 1), (0, 1)), 3),
}

MAX_SEQUENCE_SPAN = 10**4

_AFFINE_RE = re.compile(r"(?:(\d*)\*?r)?([+-]?\d+)?")


class UsageError(Exception):
    pass


def parse_affine(text: str) -> tuple[int, int]:
    """Parse 'a*r + b' style expressions: 'r', '2r', 'r+1', '2r-1', '3', ..."""
    s = text.replace(" ", "")
    m = _AFFINE_RE.fullmatch(s)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise UsageError(f"cannot parse affine expression {text!r}")
    a = 0 if m.group(1) is None else (int(m.group(1)) if m.group(1) else 1)
    b = int(m.group(2)) if m.group(2) else 0
    return (a, b)


def family_term(exprs: Sequence[tuple[int, int]], r: int) -> int:
    slots = [a * r + b for a, b in exprs]
    if any(s < 0 for s in slots):
        return 0
    return counting.count(TypeProfile(*slots))


def _nonneg(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if v < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {v}")
    return v


def _profile_str(ks: Sequence[int], alpha: int, beta: int) -> str:
    return f"({alpha},{beta};{','.join(str(k) for k in ks)})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z2z8",
        description="Exact counts of additive codes over Z2^alpha x Z8^beta by type.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["plain", "json", "bfile"], default="plain",
                        help="output format (bfile applies to sequences only)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="count codes of one type")
    for name in ("alpha", "beta", "k0", "k1", "k2", "k3"):
        p.add_argument(f"--{name}", type=_nonneg, required=True)
    p.add_argument("--breakdown", action="store_true",
                   help="also print the product-formula factors and delta")
    p.add_argument("--dual", action="store_true", help="also print the dual type and its count")

    p = sub.add_parser("sequence", parents=[common], help="emit terms of a sequence family")
    p.add_argument("family", nargs="?", default=None,
                   help=f"built-in family name ({', '.join(sorted(FAMILIES))})")
    p.add_argument("--exprs", default=None, metavar="A,B,K0,K1,K2,K3",
                   help="six comma-separated affine expressions in r, e.g. 'r+1,2,r,1,1,0'")
    p.add_argument("--start", type=int, default=None, help="first index (family default)")
    p.add_argument("--end", type=int, default=None, help="last index, inclusive")

    p = sub.add_parser("verify", parents=[common],
                       help="compare the counting formula with exhaustive enumeration")
    p.add_argument("--alpha", type=_nonneg, required=True)
    p.add_argument("--beta", type=_nonneg, required=True)
    p.add_argument("--e", type=int, choices=[2, 3], default=3)

    p = sub.add_parser("check-identities", parents=[common],
                       help="sweep the known count identities")
    p.add_argument("--max-alpha", type=_nonneg, default=4)
    p.add_argument("--max-beta", type=_nonneg, default=4)

    p = sub.add_parser("matrix", parents=[common], help="emit a standard-form generator matrix")
    for name in ("alpha", "beta", "k0", "k1", "k2", "k3"):
        p.add_argument(f"--{name}", type=_nonneg, required=name not in ("k3",), default=0 if name == "k3" else None)
    p.add_argument("--e", type=int, choices=[2, 3], default=3)
    p.add_argument("--seed", type=_nonneg, default=0)
    p.add_argument("--zero", action="store_true", help="use all-zero free blocks instead of seeded random ones")
    p.add_argument("--parity", action="store_true", help="also emit the parity-check matrix")
    p.add_argument("--span", action="store_true", help="also emit every codeword")

    p = sub.add_parser("census-export", parents=[common],
                       help="export the enumerated type census as JSON")
    p.add_argument("--alpha", type=_nonneg, required=True)
    p.add_argument("--beta", type=_nonneg, required=True)
    p.add_argument("--e", type=int, choices=[2, 3], default=3)

    return parser


# ---------------------------------------------------------------------------
# subcommands: each returns (exit_code, output_text)
# ---------------------------------------------------------------------------

def cmd_count(args) -> tuple[int, str]:
    profile = TypeProfile(args.alpha, args.beta, args.k0, args.k1, args.k2, args.k3)
    value = counting.count(profile)
    factors = delta = dual = None
    if args.breakdown:
        b = counting.count_product(profile)
        factors = {"N1": b.n1, "N2": b.n2, "N3": b.n3, "N4": b.n4,
                   "D1": b.d1, "D2": b.d2, "D3": b.d3, "D4": b.d4}
        if profile.is_valid():
            delta = counting.delta_exponents(profile).delta
    if args.dual:
        if not profile.is_valid():
            raise UsageError(f"--dual needs a valid profile, got {profile}")
        dual = counting.dual_type(profile)
        dual_count = counting.count(dual)

    if args.format == "json":
        doc = {
            "alpha": args.alpha, "beta": args.beta,
            "k0": args.k0, "k1": args.k1, "k2": args.k2, "k3": args.k3,
            "valid": profile.is_valid(),
            "count": str(value),
        }
        if factors is not None:
            doc["breakdown"] = {name: str(v) for name, v in factors.items()}
            if delta is not None:
                doc["breakdown"]["delta"] = delta
        if dual is not None:
            doc["dual"] = {"profile": [dual.alpha, dual.beta, *dual.ks], "count": str(dual_count)}
        return 0, json.dumps(doc, indent=2) + "\n"

    lines = [str(value)]
    if factors is not None:
        lines += [f"{name} = {v}" for name, v in factors.items()]
        if delta is not None:
            lines.append(f"delta = {delta}")
    if dual is not None:
        lines += [f"dual type = {dual}", f"dual count = {dual_count}"]
    return 0, "\n".join(lines) + "\n"


def cmd_sequence(args) -> tuple[int, str]:
    if (args.family is None) == (args.exprs is None):
        raise UsageError("give exactly one of a family name or --exprs")
    if args.family is not None:
        if args.family not in FAMILIES:
            raise UsageError(f"unknown family {args.family!r}; known: {', '.join(sorted(FAMILIES))}")
        exprs, natural_start = FAMILIES[args.family]
    else:
        pieces = args.exprs.split(",")
        if len(pieces) != 6:
            raise UsageError(f"--exprs needs 6 comma-separated expressions, got {len(pieces)}")
        exprs = tuple(parse_affine(t) for t in pieces)
        natural_start = 1
    start = args.start if args.start is not None else natural_start
    end = args.end if args.end is not None else start + 4
    if end < start:
        raise UsageError(f"empty range: start {start} > end {end}")
    if end - start > MAX_SEQUENCE_SPAN:
        raise UsageError(f"range too long: {end - start} > {MAX_SEQUENCE_SPAN}")

    terms = [(r, family_term(exprs, r)) for r in range(start, end + 1)]
    if args.format == "json":
        return 0, json.dumps([str(v) for _, v in terms]) + "\n"
    if args.format == "bfile":
        return 0, "".join(f"{r} {v}\n" for r, v in terms)
    return 0, "".join(f"{v}\n" for _, v in terms)


def cmd_verify(args) -> tuple[int, str]:
    report = verify_formula(args.alpha, args.beta, args.e)
    if args.format == "json":
        doc = {
            "alpha": report.alpha, "beta": report.beta, "e": report.e,
            "all_match": report.all_match,
            "total_enumerated": str(report.total_enumerated),
            "total_formula": str(report.total_formula),
            "profiles": [
                {
                    "profile": list(r.profile),
                    "enumerated": str(r.enumerated),
                    "formula": str(r.formula),
                    "match": r.match,
                }
                for r in report.rows
            ],
        }
        return (0 if report.all_match else 1), json.dumps(doc, indent=2) + "\n"
    lines = []
    for r in report.rows:
        tag = "ok" if r.match else "MISMATCH"
        lines.append(
            f"profile {_profile_str(r.profile, report.alpha, report.beta)}: "
            f"enumeration {r.enumerated} formula {r.formula} {tag}"
        )
    lines.append(f"total subgroups: {report.total_enumerated} (formula {report.total_formula})")
    n = len(report.rows)
    lines.append(f"all {n} profiles match" if report.all_match else "MISMATCHES FOUND")
    return (0 if report.all_match else 1), "\n".join(lines) + "\n"


def cmd_check_identities(args) -> tuple[int, str]:
    if args.max_alpha < 1 or args.max_beta < 1:
        raise UsageError("bounds must be >= 1")
    report = counting.check_identities(args.max_alpha, args.max_beta)
    if args.format == "json":
        doc = {
            "max_alpha": report.max_alpha,
            "max_beta": report.max_beta,
            "success": report.success,
            "entries": [
                {
                    "key": e.key,
                    "statement": e.statement,
                    "passed": e.passed,
                    "expected_to_pass": e.expected,
                    "ok": e.ok,
                    "detail": e.detail,
                }
                for e in report.entries
            ],
        }
        return (0 if report.success else 1), json.dumps(doc, indent=2) + "\n"
    lines = []
    for e in report.entries:
        if e.passed:
            tag = "PASS" if e.expected else "PASS (unexpected!)"
        else:
            tag = "FAIL (as expected, misstated identity)" if not e.expected else "FAIL"
        lines.append(f"[{tag}] {e.key}: {e.statement}")
        if e.detail:
            lines.append(f"        {e.detail}")
    lines.append("all identity checks consistent" if report.success else "UNEXPECTED IDENTITY RESULTS")
    return (0 if report.success else 1), "\n".join(lines) + "\n"


def cmd_matrix(args) -> tuple[int, str]:
    ks = (args.k0, args.k1, args.k2) if args.e == 2 else (args.k0, args.k1, args.k2, args.k3)
    if args.e == 2 and args.k3:
        raise UsageError("--k3 has no meaning for e = 2 profiles")
    try:
        if args.zero and args.e == 3:
            m = codes.zero_standard_form(TypeProfile(args.alpha, args.beta, *ks))
        elif args.zero:
            m = codes.zero_standard_form_z4(args.alpha, args.beta, *ks)
        elif args.e == 3:
            m = codes.random_standard_form(TypeProfile(args.alpha, args.beta, *ks), args.seed)
        else:
            m = codes.random_standard_form_z4(args.alpha, args.beta, *ks, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    rows = codes.assemble(m)
    sections: list[tuple[str, list]] = [("generator", rows)]
    if args.parity:
        if args.e != 3:
            raise UsageError("--parity is only available for e = 3")
        sections.append(("parity-check", list(codes.parity_check(m).rows)))
    if args.span:
        check_ambient_size(args.alpha, args.beta, args.e)
        code = codes.span(rows, alpha=args.alpha, beta=args.beta, e=args.e)
        sections.append((f"codewords ({len(code)})", list(code)))

    if args.format == "json":
        doc = {
            "alpha": args.alpha, "beta": args.beta, "e": args.e,
            "profile": list(ks),
            "blocks": "zero" if args.zero else f"seed {args.seed}",
        }
        for name, words in sections:
            key = {"generator": "rows", "parity-check": "parity"}.get(name, "codewords")
            doc[key] = [[list(w.bin), list(w.mod)] for w in words]
        return 0, json.dumps(doc, indent=2) + "\n"

    chunks = []
    for name, words in sections:
        chunks.append(f"# {name}")
        chunks.append(codes.format_matrix(args.alpha, args.beta, args.e, words).rstrip("\n"))
    return 0, "\n".join(chunks) + "\n"


def cmd_census_export(args) -> tuple[int, str]:
    c = census(args.alpha, args.beta, args.e)
    return 0, census_to_json(c)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "count": cmd_count,
        "sequence": cmd_sequence,
        "verify": cmd_verify,
        "check-identities": cmd_check_identities,
        "matrix": cmd_matrix,
        "census-export": cmd_census_export,
    }
    # counts of any length print in full: lift the int -> str digit limit
    # (Python 3.11+) for the command and give the caller's back afterwards
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code, output = handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AmbientTooLargeError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except SelfCheckError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(output)
    return code


def entry() -> None:
    sys.exit(main())

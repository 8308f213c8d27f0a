"""Sweeps of the known identities among the Mixed Generalized Gaussian Numbers.

`check_identities` checks, exactly and over a bounded box of profiles, the
properties and identities the source states for the counts of `counting`,
together with the duality arithmetic and two readings of a misstated lemma.
Only `z2z8 check-identities` needs it, so the package loads this module on
first use; `z2z8.counting` still offers its three names.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .counting import (
    TypeProfile,
    count,
    delta_exponents,
    dual_type,
    self_dual_count_condition,
    valid_profiles,
)
from .errors import check_work

__all__ = ["IdentityCheck", "IdentityReport", "check_identities"]


class IdentityCheck(NamedTuple):
    """Outcome of sweeping one identity over a bounded profile range."""

    key: str
    statement: str
    passed: bool
    expected: bool  # False marks an identity known to be misstated
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.passed == self.expected


class IdentityReport(NamedTuple):
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


def check_identities(max_alpha: int, max_beta: int) -> IdentityReport:
    """Sweep the known count identities over all profiles within the bounds.

    Every identity is evaluated exactly; a failing sweep records its first
    counterexample.  Two entries cover a misstated textbook relation: the
    literal reading `lemma4-literal` is expected to fail once max_alpha >= 2
    (counterexample (2,2;2,1,0,0): 48 vs 24; at a = 1 it holds trivially) and
    `lemma4-corrected` carries the repaired factor 2^((alpha-1)(beta-l)).

    Each valid profile within the bounds is counted once, up front; the
    sweeps read those counts and count only the profiles outside the bounds.
    """
    if max_alpha < 1 or max_beta < 1:
        raise ValueError(f"bounds must be >= 1, got {(max_alpha, max_beta)}")
    entries: list[IdentityCheck] = []
    A, B = max_alpha, max_beta
    check_work((A + 1) * (A + 2) // 2 * comb(B + 4, 4), "check_identities (profiles in the box)")
    table, bits = {}, 0
    for p in valid_profiles(A, B):
        table[p] = n = count(p)
        bits += n.bit_length()
        check_work(bits, "check_identities (the bits of its counts)")

    def _n(*slots: int) -> int:
        # a TypeProfile hashes and compares as the tuple of its fields, so
        # the table is read by the plain tuple; a miss builds the profile
        value = table.get(slots)
        return count(TypeProfile(*slots)) if value is None else value

    def sweep(key: str, statement: str, label: str, cases, expected: bool = True,
              detail: str = "") -> None:
        """`cases` yields (lhs, rhs, args); the first with lhs != rhs is
        reported, named `label.format(*args)`, in place of `detail`."""
        passed = True
        for lhs, rhs, args in cases:
            if lhs != rhs:
                passed = False
                detail = f"first counterexample {label.format(*args)}: {lhs} != {rhs}"
                break
        entries.append(IdentityCheck(key, statement, passed, expected, detail))

    def cases_a():
        for r in range(1, A + 1):
            for s in range(1, B + 1):
                yield _n(r, s, r, s, 0, 0), 1, (r, s, "k1")
                yield _n(r, s, r, 0, s, 0), 1, (r, s, "k2")
                yield _n(r, s, r, 0, 0, s), 1, (r, s, "k3")

    sweep("a", "N(r,s;r,s,0,0) = N(r,s;r,0,s,0) = N(r,s;r,0,0,s) = 1",
          "(r,s)=({},{}) {}-slot", cases_a())

    def cases_b():
        # ratio identity, checked multiplicatively in integers
        for r in range(1, A):
            for s in range(2, B + 1):
                lhs = _n(r + 1, s, 1, 1, 1, 0) * (2**r - 1)
                rhs = 4 * (2 ** (r + 1) - 1) * _n(r, s, 1, 1, 1, 0)
                yield lhs, rhs, (r, s)

    sweep("b", "N(r+1,s;1,1,1,0)/N(r,s;1,1,1,0) = 4(2^(r+1)-1)/(2^r-1)", "(r,s)=({},{})", cases_b())

    def cases_c():
        for r in range(2, B + 1):
            closed = 2 ** (4 * r - 8) * (2 ** (r - 1) - 1) * (2**r - 1)
            yield _n(1, r, 1, 1, 1, 0), closed, (r,)

    sweep("c", "N(1,r;1,1,1,0) = 2^(4r-8) (2^(r-1)-1)(2^r-1) for r >= 2", "r={}", cases_c())

    def cases_d():
        for a in range(1, A):
            for r in range(2, B + 1):
                lhs = _n(a + 1, r, 1, 1, 1, 0)
                rhs = 4 * _n(a, r, 1, 1, 1, 0) + (2**r - 1) * (2 ** (r - 1) - 1) * 2 ** (
                    3 * a + 4 * (r - 2)
                )
                yield lhs, rhs, (a, r)

    sweep("d", "N(a+1,r;1,1,1,0) = 4 N(a,r;1,1,1,0) + (2^r-1)(2^(r-1)-1) 2^(3a+4(r-2))",
          "(alpha,r)=({},{})", cases_d())

    def cases_e():
        for j in range(1, A + 1):
            for k in range(3, B + 1):
                lhs = _n(j, k, j, 1, 1, 1)
                rhs = 2 ** ((k - 3) * (j - 1)) * _n(1, k, 1, 1, 1, 1)
                yield lhs, rhs, (j, k)

    sweep("e", "N(j,k;j,1,1,1) = 2^((k-3)(j-1)) N(1,k;1,1,1,1) for k >= 3", "(j,k)=({},{})", cases_e())

    def cases_f():
        for r in range(1, A + 1):
            for s in range(2, B + 1):
                target = 2**s - 1
                yield _n(r, s, r, 0, 1, s - 1), target, (r, s, "(0,1,s-1)")
                yield _n(r, s, r, 0, s - 1, 1), target, (r, s, "(0,s-1,1)")
                yield _n(r, s, r, s - 1, 1, 0), target, (r, s, "(s-1,1,0)")
                yield _n(r, s, r, 1, s - 1, 0), target, (r, s, "(1,s-1,0)")

    sweep("f", "N(r,s;r,0,1,s-1) = ... = N(r,s;r,1,s-1,0) = 2^s - 1 for s >= 2",
          "(r,s)=({},{}) {}", cases_f())

    def cases_g():
        for r in range(1, A + 1):
            for s in range(1, B + 1):
                for k in range(s + 1):
                    yield _n(r, s, r, 0, k, s - k), _n(r, s, r, s - k, k, 0), (r, s, k, "middle")
                    yield _n(r, s, r, k, 0, s - k), _n(r, s, r, s - k, 0, k), (r, s, k, "outer")

    sweep("g", "N(r,s;r,0,k,s-k) = N(r,s;r,s-k,k,0) and N(r,s;r,k,0,s-k) = N(r,s;r,s-k,0,k)",
          "(r,s,k)=({},{},{}) {}", cases_g())

    # the table's keys are valid_profiles(A, B), in that order; a profile
    # formats as its label
    def cases_h():
        for p in table:
            d = delta_exponents(p)
            yield d.delta - d.delta_bar, p.alpha * p.k2 - p.k0 * (p.k2 + p.k3), (p,)

    sweep("h", "delta - delta_bar = alpha*k2 - k0*(k2+k3)", "{}", cases_h())

    # (N(a,b;a,k1,k2,k3), N(1,b;1,k1,k2,k3)) for a, b >= 1, shared by both readings
    lemma4 = [(p, n, table[1, p.beta, 1, p.k1, p.k2, p.k3])
              for p, n in table.items() if p.k0 == p.alpha >= 1 and p.beta >= 1]
    # canonical documented counterexample first, so the report names it
    canonical = []
    if A >= 2 and B >= 2:
        canonical.append((_n(2, 2, 2, 1, 0, 0), _n(1, 2, 1, 1, 0, 0), ("(2,2;2,1,0,0)",)))

    sweep(
        "lemma4-literal",
        "N(a,b;a,k1,k2,k3) = N(1,b;1,k1,k2,k3) for all a >= 1 (misstated; fails)",
        "{}",
        canonical + [(lhs, rhs, (p,)) for p, lhs, rhs in lemma4],
        expected=A < 2,
        detail="" if A >= 2 else "the bounds hold no a >= 2, where it fails",
    )

    sweep(
        "lemma4-corrected",
        "N(a,b;a,k1,k2,k3) = 2^((a-1)(b-l)) N(1,b;1,k1,k2,k3)",
        "{}",
        ((lhs, 2 ** ((p.alpha - 1) * (p.beta - p.l)) * rhs, (p,)) for p, lhs, rhs in lemma4),
    )

    def cases_self_dual():
        for p, n in table.items():
            yield self_dual_count_condition(p), n == table[dual_type(p)], (p,)

    sweep(
        "self-dual-criterion",
        "count(p) = count(dual_type(p)) exactly when alpha*k2 = k0*(k2+k3)",
        "{}",
        cases_self_dual(),
    )

    def cases_swap():
        for r in range(1, A + 1):
            for m in range(r + 1):
                for s in range(1, B + 1):
                    for k in range(s + 1):
                        yield _n(r, s, m, k, s - k, 0), _n(r, s, m, s - k, k, 0), (k, s - k)

    sweep("swap", "N(r,s;m,k,l,0) = N(r,s;m,l,k,0) when s = k + l", "(r,s;m,{},{},0)", cases_swap())

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

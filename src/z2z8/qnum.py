"""Exact q-combinatorics kernel: q-integers, q-factorials, q-binomials, q-multinomials.

Everything here is plain arbitrary-precision integer arithmetic.  Division
happens only where divisibility is guaranteed and is checked at every step.
Each function refuses its result (AmbientTooLargeError), before any product,
if its bits, predicted from n, k and b = q.bit_length() since q^n has at
most n*b bits, pass the work limit of `errors.check_work`.
"""

from __future__ import annotations

from typing import Sequence

from .errors import check_work

__all__ = ["q_integer", "q_factorial", "q_binomial", "q_multinomial"]


def _check_args(n: int, q: int) -> None:
    # 5.0 would pass the range checks and turn every result into a float; bool passes as an int
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")


def q_integer(n: int, q: int) -> int:
    """[n]_q = 1 + q + ... + q^(n-1); 0 when n = 0.  Guarded on n*b bits."""
    _check_args(n, q)
    check_work(n * q.bit_length(), "q_integer (its bits)")
    return (q**n - 1) // (q - 1)


def q_factorial(n: int, q: int) -> int:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q; empty product 1 when n = 0.
    Guarded on n(n+1)/2*b bits."""
    _check_args(n, q)
    check_work(n * (n + 1) // 2 * q.bit_length(), "q_factorial (its bits)")
    out = 1
    for i in range(1, n + 1):
        out *= q_integer(i, q)
    return out


def q_binomial(n: int, k: int, q: int) -> int:
    """Gaussian binomial [n choose k]_q: number of k-dim subspaces of F_q^n.

    Computed as the telescoping product of exact integer ratios
    (q^(n-k+i) - 1) / (q^i - 1) for i = 1..k; each partial product is itself
    a Gaussian binomial, so every division is exact.  Returns 0 for k > n.
    Guarded on k(n-k+1)*b bits, with k = min(k, n-k), which bound every
    product it forms.
    """
    _check_args(n, q)
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    if k > n:
        return 0
    k = min(k, n - k)  # symmetry keeps the product short
    check_work(k * (n - k + 1) * q.bit_length(), "q_binomial (its bits)")
    out = 1
    for i in range(1, k + 1):
        out, rem = divmod(out * (q ** (n - k + i) - 1), q**i - 1)
        if rem:  # pragma: no cover - guards an impossible state
            raise ArithmeticError(f"inexact division in q_binomial({n},{k},{q})")
    return out


def q_multinomial(n: int, parts: Sequence[int], q: int) -> int:
    """q-multinomial [n; k1,...,km]_q, counting flags of nested subspaces.

    The residual n - sum(parts) acts as an implicit final part.  Evaluated as
    the telescoping product [n;k1]_q [n-k1;k2]_q ...; 0 when sum(parts) > n.
    Guarded, before the first binomial, on the sum of their guards.
    """
    _check_args(n, q)
    for k in parts:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"parts must be non-negative integers, got {list(parts)}")
    if sum(parts) > n:
        return 0
    bits, rest = 0, n
    for k in parts:
        bits += min(k, rest - k) * (max(k, rest - k) + 1)
        rest -= k
    check_work(bits * q.bit_length(), "q_multinomial (its bits)")
    out = 1
    rest = n
    for k in parts:
        out *= q_binomial(rest, k, q)
        rest -= k
    return out

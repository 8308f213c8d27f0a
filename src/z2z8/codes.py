"""Concrete code machinery over Z2^alpha x Z_{2^e}^beta for e in {2, 3}.

Words carry a binary segment and a modular segment.  Inside this module a
word is a packed integer, 4 bits per coordinate, and `_Ambient` is the only
code that knows that format (other modules place values by `_Ambient.axes`);
`MixedWord` is the view used for input and output, and its arithmetic is
the reference the packed kernel is tested against.  Both rings take one
path, on a type ks = (k0, k_1, ..., k_e) as in `counting`: `_standard_form`
builds a standard form from its named free blocks, `_classify` reads any
subgroup's type off its torsion sizes, and the public wrappers only fix the
ring or the shape of a result.  Spans are materialized explicitly.  The
parity-check matrix of a standard form is read off (U^-1)^T, where U is the
unitriangular matrix that the A_ij blocks form; it is validated
behaviorally against `dual_bruteforce`, which searches the ambient group
exhaustively.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import accumulate, combinations, product
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .counting import TypeProfile, _type_str
from .errors import NotASubgroupError, check_work

__all__ = [
    "MixedWord",
    "Code",
    "StandardFormMatrix",
    "ParityCheckMatrix",
    "inner_product",
    "assemble",
    "span",
    "classify_type",
    "parity_check",
    "dual_bruteforce",
    "phi_reduce",
    "random_standard_form",
    "random_standard_form_z4",
    "zero_standard_form",
    "ambient_words",
    "format_matrix",
    "format_words",
    "parse_words",
]

class MixedWord:
    """One element of Z2^alpha x Z_{2^e}^beta; immutable.

    Not a tuple, unlike the module's other value types: `3 * w` is a scalar
    multiple and a word has no length.  `bin` and `mod` are kept as tuples.
    """

    __slots__ = ("bin", "mod", "e")
    bin: tuple[int, ...]
    mod: tuple[int, ...]
    e: int

    def __init__(self, bin: Iterable[int], mod: Iterable[int], e: int = 3) -> None:
        if e not in (2, 3):
            raise ValueError(f"ring exponent must be 2 or 3, got {e}")
        bin, mod, m = tuple(bin), tuple(mod), 1 << e
        for x in bin + mod:  # 1.0 == 1 would pass the range checks; bool passes as an int
            if not isinstance(x, int):
                raise ValueError(f"entries must be integers, got {x!r}")
        if any(x not in (0, 1) for x in bin):
            raise ValueError(f"binary entries must be 0/1, got {bin}")
        if any(not 0 <= x < m for x in mod):
            raise ValueError(f"modular entries must lie in [0,{m}), got {mod}")
        object.__setattr__(self, "bin", bin)
        object.__setattr__(self, "mod", mod)
        object.__setattr__(self, "e", e)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return MixedWord, (self.bin, self.mod, self.e)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.bin, self.mod, self.e) == (other.bin, other.mod, other.e)

    def __hash__(self) -> int:
        return hash((self.bin, self.mod, self.e))

    def __repr__(self) -> str:
        return f"MixedWord(bin={self.bin!r}, mod={self.mod!r}, e={self.e!r})"

    @property
    def alpha(self) -> int:
        return len(self.bin)

    @property
    def beta(self) -> int:
        return len(self.mod)

    def __add__(self, other: "MixedWord") -> "MixedWord":
        _check_same_ambient(self, other)
        m = 1 << self.e
        return MixedWord(
            tuple((a + b) & 1 for a, b in zip(self.bin, other.bin)),
            tuple((a + b) % m for a, b in zip(self.mod, other.mod)),
            self.e,
        )

    def __rmul__(self, t: int) -> "MixedWord":
        m = 1 << self.e
        return MixedWord(
            tuple((t * a) & 1 for a in self.bin),
            tuple((t * a) % m for a in self.mod),
            self.e,
        )

    def __neg__(self) -> "MixedWord":
        return (-1) * self

    def is_zero(self) -> bool:
        return not any(self.bin) and not any(self.mod)

    def order(self) -> int:
        """Additive order; always a power of two dividing 2^e."""
        t, w = 1, self
        while not w.is_zero():
            w = w + w
            t *= 2
        return t

    def __str__(self) -> str:
        left = " ".join(str(x) for x in self.bin)
        right = " ".join(str(x) for x in self.mod)
        return f"{left} | {right}".strip()


def _check_same_ambient(u: MixedWord, v: MixedWord) -> None:
    if (u.alpha, u.beta, u.e) != (v.alpha, v.beta, v.e):
        raise ValueError(
            f"ambient mismatch: ({u.alpha},{u.beta},e={u.e}) vs ({v.alpha},{v.beta},e={v.e})"
        )


def inner_product(u: MixedWord, v: MixedWord) -> int:
    """2^(e-1) * (binary dot) + (modular dot), reduced mod 2^e."""
    _check_same_ambient(u, v)
    m = 1 << u.e
    b = sum(a * c for a, c in zip(u.bin, v.bin))
    z = sum(a * c for a, c in zip(u.mod, v.mod))
    return ((m // 2) * b + z) % m


def ambient_words(alpha: int, beta: int, e: int = 3) -> Iterator[MixedWord]:
    """All words of Z2^alpha x Z_{2^e}^beta, in lexicographic order."""
    for bins in product((0, 1), repeat=alpha):
        for mods in product(range(1 << e), repeat=beta):
            yield MixedWord(bins, mods, e)


# ---------------------------------------------------------------------------
# packed words
# ---------------------------------------------------------------------------

def _pack(digits: Iterable[int]) -> int:
    """Digit i (below 16) into bits 4i..4i+3."""
    x = 0
    for i, d in enumerate(digits):
        x |= d << (4 * i)
    return x


def _unpack(x: int, n: int) -> tuple[int, ...]:
    return tuple((x >> (4 * i)) & 0xF for i in range(n))


class _Ambient:
    """Packed-word arithmetic for one ambient group Z2^alpha x Z_{2^e}^beta.

    Coordinate i of a word sits in bits 4i..4i+3, binary coordinates first.
    Entries stay below 8, so the sum of two words never carries from one
    nibble into the next and addition is one add-and-mask.  A left shift by
    more than one does carry, so multiples are taken by repeated addition.
    Construction builds no words; `elements` materializes the group on
    demand.
    """

    def __init__(self, alpha: int, beta: int, e: int):
        if e not in (2, 3):
            raise ValueError(f"ring exponent must be 2 or 3, got {e}")
        if alpha < 0 or beta < 0:
            raise ValueError(f"dimensions must be non-negative, got {(alpha, beta)}")
        self.alpha, self.beta, self.e = alpha, beta, e
        self.bits = alpha + e * beta  # the group has 2^bits words
        self.moduli = (2,) * alpha + (1 << e,) * beta
        self.bin_mask = ((1 << 4 * alpha) - 1) // 15  # a word has zero binary part iff x & bin_mask == 0
        self.mask = self.bin_mask | ((1 << 4 * beta) - 1) // 15 * ((1 << e) - 1) << 4 * alpha

    def encode(self, w: MixedWord) -> int:
        return _pack(w.bin + w.mod)

    def decode(self, x: int) -> MixedWord:
        digits = _unpack(x, self.alpha + self.beta)
        return MixedWord(digits[: self.alpha], digits[self.alpha:], self.e)

    @cached_property
    def axes(self) -> tuple[range, ...]:
        """axes[i][d] is the word d e_i, for 0 <= d < moduli[i]."""
        return tuple(range(0, m << (4 * i), 1 << (4 * i)) for i, m in enumerate(self.moduli))

    def elements(self) -> list[int]:
        """Every word, the last coordinate outermost: for each i, the words
        of the group on the first i coordinates come first, in this order."""
        words = [0]
        for axis in self.axes:
            words = [x | y for y in axis for x in words]
        return words

    def adjoin(self, group: frozenset[int], g: int) -> frozenset[int]:
        """The subgroup generated by `group` (a subgroup) and g: the union of
        the cosets group + j*g until j*g falls back into group."""
        mask = self.mask
        words = list(group)
        step = g
        while step not in group:
            words.extend([(w + step) & mask for w in group])
            step = (step + g) & mask
        return frozenset(words)


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

class Code:
    """An explicitly materialized additive code: the set of its words."""

    def __init__(self, words: Iterable[MixedWord], alpha: int, beta: int, e: int = 3):
        ambient = _Ambient(alpha, beta, e)
        packed = set()
        for w in words:
            if (w.alpha, w.beta, w.e) != (alpha, beta, e):
                raise ValueError(f"word {w} does not live in ({alpha},{beta},e={e})")
            packed.add(ambient.encode(w))
        self._init(ambient, frozenset(packed))

    @classmethod
    def _from_packed(cls, ambient: _Ambient, packed: frozenset[int]) -> "Code":
        """A code from packed words already known to lie in `ambient`."""
        code = cls.__new__(cls)
        code._init(ambient, packed)
        return code

    def _init(self, ambient: _Ambient, packed: frozenset[int]) -> None:
        self.alpha, self.beta, self.e = ambient.alpha, ambient.beta, ambient.e
        self._ambient = ambient
        self._packed = packed

    @cached_property
    def words(self) -> frozenset[MixedWord]:
        """The codewords as `MixedWord`s, decoded on first use."""
        return frozenset(map(self._ambient.decode, self._packed))

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[MixedWord]:
        return iter(sorted(self.words, key=lambda w: (w.bin, w.mod)))

    def __contains__(self, w: object) -> bool:
        # looks the packed word up, so that no codeword is decoded
        return (isinstance(w, MixedWord) and (w.alpha, w.beta, w.e) == (self.alpha, self.beta, self.e)
                and self._ambient.encode(w) in self._packed)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Code)
            and (self.alpha, self.beta, self.e) == (other.alpha, other.beta, other.e)
            and self._packed == other._packed
        )

    def __hash__(self) -> int:
        return hash((self.alpha, self.beta, self.e, self._packed))

    def __repr__(self) -> str:
        return f"Code(alpha={self.alpha}, beta={self.beta}, e={self.e}, size={len(self)})"

    def is_subgroup(self) -> bool:
        """Full closure check; quadratic, intended for small codes and tests."""
        words, mask = self._packed, self._ambient.mask
        return 0 in words and all((u + v) & mask in words for u in words for v in words)


def span(generators: Sequence[MixedWord], *, alpha: int | None = None,
         beta: int | None = None, e: int | None = None) -> Code:
    """Additive closure of the generators (ambient dims required when empty,
    and ValueError if given ones differ from the generators'); refused first
    if the product of their orders, which bounds the code's words, passes the
    work limit."""
    gens = list(generators)
    if gens:
        g0 = gens[0]
        if any(x is not None and x != y for x, y in zip((alpha, beta, e), (g0.alpha, g0.beta, g0.e))):
            raise ValueError(f"ambient mismatch: generators in ({g0.alpha},{g0.beta},e={g0.e}) "
                             f"but ({alpha},{beta},e={e}) given")
        alpha, beta, e = g0.alpha, g0.beta, g0.e
        for g in gens[1:]:
            _check_same_ambient(g0, g)
    elif alpha is None or beta is None or e is None:
        raise ValueError("empty generator list needs explicit alpha, beta, e")
    ambient = _Ambient(alpha, beta, e)
    packed = [ambient.encode(g) for g in gens]
    bits = 0  # the sum of the generators' log2 orders: at most e doublings each
    for x in packed:
        while x:
            x = (x + x) & ambient.mask
            bits += 1
    check_work(1 << min(bits, ambient.bits), "span (its words)")
    group = frozenset([0])
    for g in packed:
        group = ambient.adjoin(group, g)
    return Code._from_packed(ambient, group)


def _log2_exact(n: int, what: str) -> int:
    b = n.bit_length() - 1
    if n <= 0 or 1 << b != n:
        raise NotASubgroupError(f"{what} has size {n}, not a power of two")
    return b


def _torsion_sizes(words: Iterable[int], ambient: _Ambient) -> tuple[int, ...]:
    """The torsion sizes (s_1, ..., s_e, z) of a word set: 2^s_t words killed
    by 2^t and 2^z of order <= 2 with zero binary part; `NotASubgroupError`
    at the first count that no subgroup has."""
    mask, bin_mask = ambient.mask, ambient.bin_mask
    counts = [0] * (ambient.e + 2)  # counts[j]: words of order exactly 2^j, for j <= e
    for x in words:
        j, y = 0, x
        while y:
            y, j = (y + y) & mask, j + 1
        counts[j] += 1
        if j <= 1 and not x & bin_mask:
            counts[-1] += 1
    *of_order, zero_binary = counts
    _log2_exact(sum(of_order), "code")
    if not of_order[0]:
        raise NotASubgroupError("code does not contain the zero word")
    s = [_log2_exact(n, f"{1 << j}-torsion") for j, n in enumerate(accumulate(of_order))]
    return (*s[1:], _log2_exact(zero_binary, "zero-binary 2-torsion"))


def _type_from_sizes(sizes: tuple[int, ...], e: int) -> tuple[int, ...]:
    """The type (k0, k_1, ..., k_e) read off torsion sizes (s_1, ..., s_e, z).

    With 2^s_j elements killed by 2^j and 2^z order <= 2 elements with zero
    binary part, s_j - s_(j-1) counts the cyclic factors of order above
    2^(j-1), so k_1 + ... + k_i = s_(e-i+1) - s_(e-i) for i < e,
    k_1 + ... + k_e = z, and k0 = s_1 - z.  `census` carries the same sizes
    down its coordinate walk instead of counting words, and types each once.
    """
    *s, z = sizes  # s[t - 1] = s_t
    tops = [0] + [s[e - i] - s[e - i - 1] for i in range(1, e)] + [z]
    ks = (s[0] - z, *(b - a for a, b in zip(tops, tops[1:])))
    if min(ks) < 0:
        raise NotASubgroupError(f"inconsistent torsion profile (s={s}, z={z})")
    return ks


def _classify(code: Code) -> tuple[int, ...]:
    """The type ks of any subgroup over either ring, basis-free: read off its torsion sizes."""
    return _type_from_sizes(_torsion_sizes(code._packed, code._ambient), code.e)


def classify_type(code: Code):
    """The type of a subgroup (`_classify`) in its public shape: a
    TypeProfile for e = 3, the bare (k0, k1, k2) for e = 2."""
    ks = _classify(code)
    return TypeProfile(code.alpha, code.beta, *ks) if code.e == 3 else ks


# ---------------------------------------------------------------------------
# standard-form generator matrices
# ---------------------------------------------------------------------------

def _block_shapes(alpha: int, beta: int, ks: tuple[int, ...], e: int) -> dict[str, tuple[int, int, int]]:
    """name -> (rows, cols, modulus) for the free blocks of the standard form.

    Row stripe 0 holds the k0 binary generators and stripe i the k_i
    generators of order 2^(e-i+1).  The modular columns split into stripes
    of widths k_1, ..., k_e and r_e = beta - (k_1 + ... + k_e); block A_ij
    sits in row stripe i+1 and column stripe j+1 with modulus 2^(e-i), and
    S_i holds the binary part of row stripe i for i < e.
    """
    r0 = alpha - ks[0]
    widths = (*ks[2:], beta - sum(ks[1:]))  # modular column stripes 2..e+1
    shapes = {"Abar01": (ks[0], r0, 2), f"T0{e}": (ks[0], widths[-1], 2)}
    for i in range(e):
        if i + 1 < e:
            shapes[f"S{i + 1}"] = (ks[i + 1], r0, 2)
        for j in range(i + 1, e + 1):
            shapes[f"A{i}{j}"] = (ks[i + 1], widths[j - 1], 1 << (e - i))
    return shapes


def _validate_ks(alpha: int, beta: int, ks: tuple[int, ...], e: int) -> None:
    if e not in (2, 3):
        raise ValueError(f"ring exponent must be 2 or 3, got {e}")
    if len(ks) != e + 1:
        raise ValueError(f"e={e} standard form needs {e + 1} generator counts, got {ks}")
    if any(k < 0 for k in ks) or alpha < 0 or beta < 0:
        raise ValueError(f"negative dimensions in {_type_str(alpha, beta, ks)}")
    if ks[0] > alpha or sum(ks[1:]) > beta:
        raise ValueError(f"profile {_type_str(alpha, beta, ks)} is not realizable")


class _StandardFormFields(NamedTuple):
    alpha: int
    beta: int
    e: int
    ks: tuple[int, ...]
    blocks: Mapping[str, tuple[tuple[int, ...], ...]]


class StandardFormMatrix(_StandardFormFields):
    """Block generator matrix in standard form, stored by its free blocks.

    Blocks hold the unscaled entries, read-only and with tuple rows, and `ks`
    is a tuple, whatever sequences were passed in; `assemble` applies the
    per-stripe identity scaling (1, 1, 2, 4 down the stripes for e = 3).
    """

    __slots__ = ()

    def __new__(cls, alpha: int, beta: int, e: int, ks: Sequence[int],
                blocks: Mapping[str, Sequence[Sequence[int]]]) -> StandardFormMatrix:
        blocks = MappingProxyType({name: tuple(map(tuple, blk)) for name, blk in blocks.items()})
        ks = tuple(ks)
        _validate_ks(alpha, beta, ks, e)
        shapes = _block_shapes(alpha, beta, ks, e)
        if set(blocks) != set(shapes):
            raise ValueError(f"expected blocks {sorted(shapes)}, got {sorted(blocks)}")
        for name, (rows, cols, modulus) in shapes.items():
            blk = blocks[name]
            if len(blk) != rows or any(len(r) != cols for r in blk):
                raise ValueError(f"block {name} must be {rows}x{cols}")
            if any(not 0 <= x < modulus for row in blk for x in row):
                raise ValueError(f"block {name} entries must lie in [0,{modulus})")
        return super().__new__(cls, alpha, beta, e, ks, blocks)

    @classmethod
    def _make(cls, iterable) -> StandardFormMatrix:  # so that _replace validates too
        return cls(*iterable)

    def __hash__(self) -> int:  # the mapping of blocks is unhashable
        return hash((self.alpha, self.beta, self.e, self.ks, tuple(sorted(self.blocks.items()))))


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def assemble(matrix: StandardFormMatrix) -> list[MixedWord]:
    """Generator rows of the standard form, identity blocks and scalings in place.

    Row stripe i is scaled by 2^(i-1); the binary rows carry 2^(e-1) * T0e.
    """
    e, ks, blocks = matrix.e, matrix.ks, matrix.blocks
    mod = 1 << e

    def scaled(v: Sequence[int], c: int) -> tuple[int, ...]:
        return tuple((c * x) % mod for x in v)

    rows = [
        MixedWord(_unit(ks[0], r) + blocks["Abar01"][r],
                  (0,) * sum(ks[1:]) + scaled(blocks[f"T0{e}"][r], mod // 2), e)
        for r in range(ks[0])
    ]
    for i in range(1, e + 1):
        for r in range(ks[i]):
            bin_part = (0,) * ks[0] + blocks[f"S{i}"][r] if i < e else (0,) * matrix.alpha
            stripe = _unit(ks[i], r) + sum((blocks[f"A{i - 1}{j}"][r] for j in range(i, e + 1)), ())
            rows.append(MixedWord(bin_part, (0,) * sum(ks[1:i]) + scaled(stripe, 1 << (i - 1)), e))
    return rows


def _standard_form(alpha: int, beta: int, ks: tuple[int, ...], e: int,
                   seed: int | None) -> StandardFormMatrix:
    """Standard form whose free blocks are all zero (seed None) or drawn
    uniformly by random.Random(seed), block by block in name order and row by
    row within a block; the one builder for both rings.  Refused before any
    entry is drawn if its k0 + l rows of alpha + beta entries are too many."""
    _validate_ks(alpha, beta, ks, e)
    if seed is not None and seed < 0:  # Random(-s) draws the blocks of Random(s)
        raise ValueError(f"seed must be non-negative, got {seed}")
    check_work((ks[0] + sum(ks[1:])) * (alpha + beta), "standard form (the entries of its rows)")
    entry = (lambda m: 0) if seed is None else random.Random(seed).randrange
    shapes = sorted(_block_shapes(alpha, beta, ks, e).items())
    return StandardFormMatrix(alpha, beta, e, ks, {
        name: tuple(tuple(entry(modulus) for _ in range(cols)) for _ in range(rows))
        for name, (rows, cols, modulus) in shapes
    })


def zero_standard_form(profile: TypeProfile) -> StandardFormMatrix:
    """Standard form over Z8 columns with every free block zero."""
    return _standard_form(profile.alpha, profile.beta, profile.ks, 3, None)


def random_standard_form(profile: TypeProfile, seed: int) -> StandardFormMatrix:
    """Standard form with uniformly drawn free blocks; reproducible per seed (>= 0)."""
    return _standard_form(profile.alpha, profile.beta, profile.ks, 3, seed)


def random_standard_form_z4(alpha: int, beta: int, k0: int, k1: int, k2: int,
                            seed: int) -> StandardFormMatrix:
    return _standard_form(alpha, beta, (k0, k1, k2), 2, seed)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

class ParityCheckMatrix(NamedTuple):
    """Generator rows for the dual code, in block row stripes
    (alpha-k0, beta-l, k_e, ..., k_2) with l = k_1 + ... + k_e."""

    alpha: int
    beta: int
    e: int
    rows: tuple[MixedWord, ...]


def parity_check(matrix: StandardFormMatrix) -> ParityCheckMatrix:
    """Generator matrix of the dual of a standard-form code, for e = 2 or 3.

    The blocks A_ij form a block unitriangular matrix U on the modular column
    stripes k_1, ..., k_e, r_e, and the modular part of row stripe i of the
    code is 2^(i-1) times row stripe i-1 of U.  W = (U^-1)^T is built row by
    row by forward substitution, W[c] = e_c - sum over m < c of U[m][c] W[m],
    so that U W^T = I.  The dual is then generated by:
    - the binary stripe (-Abar01^T | I), whose modular part
      -sum_s 2^(e-s) S_s^T W_(s-1) cancels the binary part S_s of row stripe s;
    - for each stripe j = e, ..., 1, the rows 2^(e-j) W_j, with -T0e^T on the
      binary part of stripe e.
    The row stripes have the sizes `counting._dual_ks` gives.  Entries are
    reduced mod 2 on binary columns and mod 2^e on the others.  Refused
    before anything is built if the dual's entries plus the substitution's
    entry updates, read off the loop bounds below and cubic in beta, are too many.
    """
    alpha, beta, e, ks, blocks = matrix.alpha, matrix.beta, matrix.e, matrix.ks, matrix.blocks
    mod, r0 = 1 << e, alpha - ks[0]
    widths = (*ks[1:], beta - sum(ks[1:]))  # modular column stripes k_1..k_e, r_e
    check_work((r0 + beta - ks[1]) * (alpha + beta)
               + beta * (beta + sum(a * b for a, b in combinations(widths, 2)) + r0 * sum(ks[1:e])),
               "parity_check (the dual's entries and its substitution's entry updates)")
    starts = tuple(accumulate(widths, initial=0))
    w: list[tuple[int, ...]] = []  # the rows of W

    def combine(start: tuple[int, ...], terms: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """start plus the sum of coef * W[m] over (coef, m) in terms, mod 2^e."""
        out = start
        for coef, m in terms:
            if coef:
                out = tuple((x + coef * y) % mod for x, y in zip(out, w[m]))
        return out

    for j, width in enumerate(widths):  # U[starts[i] + r][starts[j] + c] is A_ij[r][c]
        for c in range(width):
            w.append(combine(_unit(beta, starts[j] + c), (
                (-blocks[f"A{i}{j}"][r][c], starts[i] + r) for i in range(j) for r in range(widths[i]))))

    zero = (0,) * beta
    rows = [  # -x = x mod 2 on the binary columns
        MixedWord(tuple(row[t] for row in blocks["Abar01"]) + _unit(r0, t),
                  combine(zero, ((-(1 << (e - s)) * blocks[f"S{s}"][r][t], starts[s - 1] + r)
                                 for s in range(1, e) for r in range(ks[s]))), e)
        for t in range(r0)
    ]
    for j in range(e, 0, -1):
        for c in range(widths[j]):
            bin_part = tuple(row[c] for row in blocks[f"T0{e}"]) + (0,) * r0 if j == e else (0,) * alpha
            rows.append(MixedWord(bin_part, combine(zero, [(1 << (e - j), starts[j] + c)]), e))
    return ParityCheckMatrix(alpha, beta, e, tuple(rows))


def dual_bruteforce(code: Code) -> Code:
    """All ambient words orthogonal to every codeword, by exhaustive search.

    Orthogonality is checked against a generating subset; by bilinearity of
    the inner product this coincides with orthogonality to every codeword.
    The products of a word with all t generators are carried as one packed
    integer (nibble t holds the t-th product mod 2^e), built coordinate by
    coordinate from the definition 2^(e-1) * (binary dot) + (modular dot).
    The coordinates are cut in two halves of about equal size; each half's
    words are listed with their partial products (refused if they and the
    dual's words hold too many objects); a dual word is a pair that cancels.
    """
    ambient = code._ambient
    split, low_bits = 0, 0  # the first half, of 2^low_bits words, the larger
    while 2 * low_bits < ambient.bits:
        low_bits += ambient.moduli[split].bit_length() - 1
        split += 1
    tables = (1 << low_bits) + (1 << (ambient.bits - low_bits))  # entries of the two half tables
    check_work(3 * tables + (1 << ambient.bits) // max(len(code), 1),
               "dual_bruteforce (objects held: a tuple of two ints per table entry, an int per dual word)")
    n, top = code.alpha + code.beta, 1 << code.e
    gens, covered = [], frozenset([0])  # a generating subset, found greedily
    for w in code._packed:
        if w not in covered:
            gens.append(_unpack(w, n))
            covered = ambient.adjoin(covered, w)
    products_mask = _pack([top - 1] * len(gens))

    def half(coords: range) -> list[tuple[int, int]]:
        table = [(0, 0)]  # (word supported on coords, its packed products)
        for c in coords:
            weight = top // 2 if c < code.alpha else 1
            column = _pack([g[c] * weight % top for g in gens])
            multiples = accumulate([column] * (ambient.moduli[c] - 1),
                                   lambda p, q: (p + q) & products_mask, initial=0)
            table = [(w | d << (4 * c), (p + dp) & products_mask)
                     for d, dp in enumerate(multiples) for w, p in table]
        return table

    high: dict[int, list[int]] = {}
    for w, p in half(range(split, n)):
        high.setdefault(p, []).append(w)
    cancel = _pack([top] * len(gens))  # cancel - p negates every nibble mod 2^e
    dual = frozenset(
        w | u for w, p in half(range(split)) for u in high.get((cancel - p) & products_mask, ())
    )
    return Code._from_packed(ambient, dual)


def phi_reduce(code: Code) -> Code:
    """Image of a Z8-column code under entrywise mod-4 reduction of the Z8 part."""
    if code.e != 3:
        raise ValueError("phi_reduce expects a code with e = 3")
    z4 = _Ambient(code.alpha, code.beta, 2)
    return Code._from_packed(z4, frozenset(x & z4.mask for x in code._packed))


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------

def format_matrix(alpha: int, beta: int, e: int, rows: Sequence[MixedWord]) -> str:
    """Line format: header `alpha beta e`, then one `bin | mod` row per line."""
    lines = [f"{alpha} {beta} {e}"]
    lines.extend(str(w) for w in rows)
    return "\n".join(lines) + "\n"


def format_words(code: Code) -> str:
    return format_matrix(code.alpha, code.beta, code.e, list(code))


def parse_words(text: str) -> tuple[int, int, int, list[MixedWord]]:
    """Inverse of format_matrix; ignores blank and `#` comment lines."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty matrix text")
    try:
        alpha, beta, e = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"header {lines[0]!r} is not three integers alpha beta e") from None
    _Ambient(alpha, beta, e)  # refuses a ring exponent or dimensions no ambient has
    rows = []
    for n, ln in enumerate(lines[1:], 1):
        try:  # every refusal of a row names the row and its text
            left, _, right = ln.partition("|")
            if "|" in right:
                raise ValueError("a second '|'")
            bin_part, mod_part = ([_entry(x) for x in half.split()] for half in (left, right))
            if len(bin_part) != alpha or len(mod_part) != beta:
                raise ValueError(f"does not match header ({alpha},{beta})")
            rows.append(MixedWord(bin_part, mod_part, e))
        except ValueError as exc:
            raise ValueError(f"row {n} {ln!r}: {exc}") from None
    return alpha, beta, e, rows


def _entry(text: str) -> int:
    """One entry of a `parse_words` row, refused unless it is an integer."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"entry {text!r} is not an integer") from None

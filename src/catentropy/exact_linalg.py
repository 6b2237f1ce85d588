"""Exact linear algebra over the rationals.

Certified spectral radius and polynomial growth rate of integer/rational
square matrices.  The growth data of ``M**n`` (asymptotically
``rho**n * n**s``) is computed without an explicit Jordan basis: the
multiplicity of a squarefree part of the minimal polynomial equals the
largest Jordan block size among that part's roots, so ``rho`` and ``s``
can be read off from the squarefree structure plus certified root-modulus
comparisons.

Arithmetic is exact.  An ``ExactMatrix`` is one int numerator matrix, and
an ``ExactPoly`` one tuple of int numerators, over one positive common
denominator, normalised so that the representation is unique.  Products,
powers, determinants, inverses, polynomial division, gcds and the
squarefree split run on Python ints (fraction-free elimination,
pseudo-division, exact integer division, and a gcd modulo a prime that
proves most coprime pairs coprime before Euclid runs), and so do the
characteristic polynomial chi (Newton's identities on the power sums
``tr(M^k)``), the minimal polynomial ``chi / gcd(entries of adj(xI - M))``
and the integer roots (p-adic lifts of the roots modulo a small prime).
``fractions.Fraction`` appears only at the edges: ``rows``, ``entry`` and
``coefficients``.  Roots without an exact form are isolated on
Gaussian-dyadic grids ``(x + iy) / 2**bits``: a Durand-Kerner iteration
in Gaussian ints, then disks of radius ``n |p(z) / p'(z)|`` certified by
exact int Horner values and compared as squares of ints.  Floating point
only appears in reported approximations and in the start points of the
root iteration, never in the decision path.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import struct
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import (
    DimensionMismatch,
    DomainError,
    InternalInconsistency,
    NilpotentInput,
    NonIntegerEntries,
    PrecisionExhausted,
    TiedModuli,
)

Rat = Union[int, Fraction, str]

#: Escalation schedule for root-modulus separation: root disks on the grid
#: ``2**-START_BITS``, the bits doubling at each level up to ``MAX_BITS``.
START_BITS = 64
MAX_BITS = 1024
#: Largest escalation cap a caller may ask for: with a true tie over the
#: proof's degree cap, the precision climbs all the way to the cap.
MAX_PRECISION_BITS = 4096

#: Default width cap for the reported spectral-radius interval.
DEFAULT_TOLERANCE = Fraction(1, 10**12)


def _to_fraction(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(
        "exact entries must be int, Fraction, or string; got %r" % type(x).__name__
    )


def _over_common_denominator(xs: Sequence[Rat]) -> tuple[list[int], int]:
    """Int numerators of xs over their least common denominator, and it."""
    fracs = [_to_fraction(x) for x in xs]
    den = math.lcm(*[x.denominator for x in fracs])
    return [x.numerator * (den // x.denominator) for x in fracs], den


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class ExactPoly:
    """Immutable univariate rational polynomial, stored as ``num / den``.

    ``num`` is a tuple of Python ints, lowest degree first with no trailing
    zeros (the zero polynomial is the empty tuple), and ``den`` one
    positive int with ``gcd(den, every entry of num) == 1``, so each
    polynomial has exactly one representation.  All arithmetic runs on
    these ints.  ``coefficients``, ``[k]`` and ``leading`` give the
    ``Fraction`` view, built when asked for.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence[int], den: int = 1):
        """Wrap int numerators (lowest degree first) over ``den`` (any nonzero
        int), dropping trailing zeros and normalising sign and common factor."""
        num = list(num)
        while num and not num[-1]:
            num.pop()
        if den != 1:
            g = math.gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = [x // g for x in num]
                den //= g
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("ExactPoly is immutable")

    def __reduce__(self):
        return ExactPoly, (self.num, self.den)

    @staticmethod
    def from_coefficients(coeffs: Sequence[Rat]) -> "ExactPoly":
        return ExactPoly(*_over_common_denominator(coeffs))

    @staticmethod
    def zero() -> "ExactPoly":
        return ExactPoly(())

    @staticmethod
    def one() -> "ExactPoly":
        return ExactPoly((1,))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients as ``Fraction``s, lowest degree first."""
        return tuple([Fraction(x, self.den) for x in self.num])

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.num) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.num[k] if 0 <= k < len(self.num) else 0, self.den)

    def __eq__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        return self._combine(other, operator.add)

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        return self._combine(other, operator.sub)

    def _combine(self, other: "ExactPoly", op) -> "ExactPoly":
        """Coefficientwise ``op`` of both numerators over the least common
        denominator."""
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        pairs = itertools.zip_longest(self.num, other.num, fillvalue=0)
        return ExactPoly([op(fa * x, fb * y) for x, y in pairs], den)

    def __neg__(self) -> "ExactPoly":
        return ExactPoly([-x for x in self.num], self.den)

    def __mul__(self, other: "ExactPoly") -> "ExactPoly":
        if self.is_zero or other.is_zero:
            return ExactPoly.zero()
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    out[i + j] += a * b
        return ExactPoly(out, self.den * other.den)

    def scale(self, c: Rat) -> "ExactPoly":
        c = _to_fraction(c)
        return ExactPoly([c.numerator * x for x in self.num], self.den * c.denominator)

    def __divmod__(self, other: "ExactPoly") -> tuple["ExactPoly", "ExactPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r, d = _divide(self.num, other.num)
        den = d * self.den
        return ExactPoly([other.den * x for x in q], den), ExactPoly(r, den)

    def exact_div(self, other: "ExactPoly") -> "ExactPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("polynomial division was not exact")
        return q

    def monic(self) -> "ExactPoly":
        return ExactPoly(self.num, self.num[-1]) if self.num else self

    def derivative(self) -> "ExactPoly":
        return ExactPoly(_derivative(self.num), self.den)

    def reflect(self) -> "ExactPoly":
        """The polynomial p(-x)."""
        return ExactPoly([-c if k % 2 else c for k, c in enumerate(self.num)], self.den)

    def __pow__(self, n: int) -> "ExactPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = ExactPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x: Rat) -> Fraction:
        """The value at x, by Horner on ``sum num_k a**k b**(deg - k)``
        for ``x = a / b``."""
        x = _to_fraction(x)
        a, b = x.numerator, x.denominator
        acc, bk = 0, 1
        for c in reversed(self.num):
            acc = acc * a + c * bk
            bk *= b
        return Fraction(acc * b, self.den * bk)

    def __repr__(self) -> str:
        return "ExactPoly(coefficients=%r)" % (self.coefficients,)

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            xs = "x" if k == 1 else "x^%d" % k
            if k == 0:
                body = str(abs(c))
            else:
                body = xs if abs(c) == 1 else "%s*%s" % (abs(c), xs)
            if c:
                terms.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(terms) or "+ 0"
        return out[2:] if out[0] == "+" else "-" + out[2:]


def _divide(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Division of int polynomials (lowest degree first, b nonzero) over the
    rationals: ``(q, r, d)`` with ``a = (q / d) * b + r / d``, r of length
    ``deg b`` and ``d > 0``.  Each step scales by the part of the leading
    coefficient of b that the remainder's leading coefficient lacks, so
    division by a monic b never scales."""
    lead = b[-1]
    db = len(b) - 1
    r = list(a)
    q = [0] * max(0, len(r) - db)
    d = 1
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db]
        if not c:
            continue
        g = math.gcd(lead, c) if lead > 0 else -math.gcd(lead, c)
        f = lead // g
        if f != 1:
            r = [f * x for x in r[: k + db]]
            q = [f * x for x in q]
            d *= f
        c //= g
        q[k] = c
        for j in range(db):
            r[k + j] -= c * b[j]
    return q, r[:db], d


def _primitive(v: Sequence[int]) -> list[int]:
    """The int polynomial v (lowest degree first) without trailing zeros,
    divided by its content."""
    v = list(v)
    while v and not v[-1]:
        v.pop()
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def poly_gcd(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    """Monic greatest common divisor over the rationals, by Euclid on
    primitive int numerators."""
    x, y = _primitive(a.num), _primitive(b.num)
    while y:
        x, y = y, _primitive(_divide(x, y)[1])
    return ExactPoly(x, x[-1] if x else 1)


def _gcd_degree_mod(a: Sequence[int], b: Sequence[int], q: int) -> int:
    """Degree of ``gcd(a mod q, b mod q)`` over GF(q), for int polynomials
    and a prime q not dividing lead(a).  A primitive int multiple of the
    rational gcd divides a in Z[x] (Gauss's lemma), so it keeps its degree
    mod q: 0 proves ``gcd(a, b) = 1``."""
    x, y = [c % q for c in a], [c % q for c in b]
    while True:
        while y and not y[-1]:
            y.pop()
        if not y:
            return len(x) - 1
        inv, dy = pow(y[-1], -1, q), len(y) - 1
        for k in range(len(x) - 1, dy - 1, -1):
            if c := x[k] * inv % q:
                for j in range(dy):
                    x[k - dy + j] = (x[k - dy + j] - c * y[j]) % q
        x, y = y, x[:dy]


#: Prime of the coprimality certificate.  A squarefree f fails it only when
#: it divides disc(f), so a derogatory input pays for one modular gcd.
_CERTIFICATE_PRIME = 32749


def _coprime(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether a gcd modulo ``_CERTIFICATE_PRIME`` proves the int
    polynomials a and b coprime over the rationals; False decides nothing."""
    q = _CERTIFICATE_PRIME
    return bool(a[-1] % q) and not _gcd_degree_mod(a, b, q)


def _derivative(a: Sequence[int]) -> list[int]:
    return [k * c for k, c in enumerate(a)][1:]


def squarefree_decomposition(p: ExactPoly) -> list[tuple[ExactPoly, int]]:
    """Yun decomposition ``p = c * prod h_j ** j`` into monic, pairwise
    coprime squarefree parts, returned as ``(h_j, j)`` sorted by
    multiplicity and skipping trivial parts.  Yun's first ``gcd(p, p')``
    runs only where ``_coprime`` cannot prove it 1."""
    if p.is_zero:
        raise DomainError("squarefree decomposition of the zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    if _coprime(p.num, _derivative(p.num)):
        return [(p, 1)]
    g = poly_gcd(p, p.derivative())
    out = []
    c = p.exact_div(g)
    d = p.derivative().exact_div(g) - c.derivative()
    j = 1
    while c.degree > 0:
        h = poly_gcd(c, d)
        if h.degree > 0:
            out.append((h, j))
        c = c.exact_div(h) if h.degree > 0 else c
        d = (d.exact_div(h) if h.degree > 0 else d) - c.derivative()
        j += 1
    return out


@functools.cache
def cyclotomic_poly(d: int) -> ExactPoly:
    """The d-th cyclotomic polynomial, computed by exact division of x^d - 1."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    num = ExactPoly.from_coefficients([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            num = num.exact_div(cyclotomic_poly(e))
    return num


def euler_phi(k: int) -> int:
    out, m, p = k, k, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    return out - out // m if m > 1 else out


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


class ExactMatrix:
    """Immutable square rational matrix, stored as ``num / den``.

    ``num`` is a tuple of rows of Python ints and ``den`` one positive int
    with ``gcd(den, every entry of num) == 1``, so each matrix has exactly
    one representation and an integer matrix is its int rows over
    ``den == 1``.  All arithmetic runs on these ints.  ``rows`` and
    ``entry`` give the ``Fraction`` view, built only when asked for.

    As the right factor of a product of size at least ``_PACKED_FROM``,
    the matrix packs each row into one int (``_product``) and keeps that
    packing in the private slot ``_packed``: ``(max|entry|, digit width,
    decoder, packed rows)``, filled on first use and replaced when a
    product needs another width.  So a loop that multiplies by the same M
    packs M once per width.  Keeping it is safe because the matrix never
    changes: the slot holds a form of ``num`` and never a result, every
    product is still computed in full, and equality, hashing, ``repr``
    and pickling read only ``num`` and ``den``.
    """

    __slots__ = ("num", "den", "_rows", "_packed")

    def __init__(self, num: tuple[tuple[int, ...], ...], den: int = 1):
        """Wrap int rows over ``den`` (any nonzero int), normalising the
        sign and the common factor.  Nonempty rows are trusted to be
        square; ``from_rows`` is the checked constructor."""
        if not num:
            raise DimensionMismatch("matrix must have dimension >= 1")
        if den != 1:
            if den < 0:
                num = tuple([tuple([-x for x in row]) for row in num])
                den = -den
            g = math.gcd(den, *[x for row in num for x in row])
            if g > 1:
                num = tuple([tuple([x // g for x in row]) for row in num])
                den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_packed", None)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        return ExactMatrix, (self.num, self.den)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Rat]]) -> "ExactMatrix":
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise DimensionMismatch("matrix must be square; got ragged rows")
        flat, den = _over_common_denominator([x for row in rows for x in row])
        return ExactMatrix(
            tuple([tuple(flat[i * n : i * n + n]) for i in range(n)]), den
        )

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(
            tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])
        )

    @staticmethod
    def zeros(n: int) -> "ExactMatrix":
        return ExactMatrix(tuple([(0,) * n for _ in range(n)]))

    @staticmethod
    def companion(p: ExactPoly) -> "ExactMatrix":
        """Companion matrix of a monic polynomial of degree >= 1."""
        if p.degree < 1:
            raise ValueError("companion matrix needs degree >= 1")
        n, den = p.degree, p.num[-1]
        rows = [[0] * (n - 1) + [-c] for c in p.num[:-1]]
        for i in range(1, n):
            rows[i][i - 1] = den
        return ExactMatrix(tuple([tuple(row) for row in rows]), den)

    @staticmethod
    def block_diag(*blocks: "ExactMatrix") -> "ExactMatrix":
        n = sum(b.n for b in blocks)
        den = math.lcm(*[b.den for b in blocks])
        rows = [[0] * n for _ in range(n)]
        off = 0
        for b in blocks:
            f = den // b.den
            for i, row in enumerate(b.num):
                rows[off + i][off : off + b.n] = [f * x for x in row]
            off += b.n
        return ExactMatrix(tuple([tuple(row) for row in rows]), den)

    @property
    def n(self) -> int:
        return len(self.num)

    @property
    def is_integer(self) -> bool:
        return self.den == 1

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as ``Fraction``s (built once, on first use)."""
        if self._rows is None:
            rows = [tuple([Fraction(x, self.den) for x in row]) for row in self.num]
            object.__setattr__(self, "_rows", tuple(rows))
        return self._rows

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i][j], self.den)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, operator.add)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, operator.sub)

    def _combine(self, other: "ExactMatrix", op) -> "ExactMatrix":
        """Entrywise ``op`` of both numerators over the least common
        denominator."""
        self._same_size(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return ExactMatrix(
            tuple([
                tuple([op(fa * x, fb * y) for x, y in zip(ra, rb)])
                for ra, rb in zip(self.num, other.num)
            ]),
            den,
        )

    def __neg__(self) -> "ExactMatrix":
        num = tuple([tuple([-x for x in row]) for row in self.num])
        return ExactMatrix(num, self.den)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_size(other)
        return ExactMatrix(tuple(_product(self.num, other)), self.den * other.den)

    __mul__ = __matmul__

    def scale(self, c: Rat) -> "ExactMatrix":
        c = _to_fraction(c)
        num = tuple([tuple([c.numerator * x for x in row]) for row in self.num])
        return ExactMatrix(num, self.den * c.denominator)

    def __pow__(self, m: int) -> "ExactMatrix":
        if not m:
            return ExactMatrix.identity(self.n)
        base = self if m > 0 else self.inverse()
        m = abs(m)
        while not m & 1:
            base = base @ base
            m >>= 1
        # out starts as the lowest set bit's power and squares are taken only
        # while bits remain: bit_length - 1 squares, popcount - 1 products.
        out = base
        while m > 1:
            m >>= 1
            base = base @ base
            if m & 1:
                out = out @ base
        return out

    def matvec(self, v: Sequence[Rat]) -> tuple[Fraction, ...]:
        if len(v) != self.n:
            raise DimensionMismatch("vector length does not match matrix size")
        vn, vden = _over_common_denominator(v)
        den = self.den * vden
        mul = operator.mul
        return tuple([Fraction(sum(map(mul, row, vn)), den) for row in self.num])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(tuple(list(zip(*self.num))), self.den)

    def trace(self) -> Fraction:
        return Fraction(sum(row[i] for i, row in enumerate(self.num)), self.den)

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def det(self) -> Fraction:
        """Determinant by fraction-free Bareiss elimination."""
        return Fraction(_bareiss_det(self.num), self.den**self.n)

    def inverse(self) -> "ExactMatrix":
        """Inverse by fraction-free Gauss-Jordan elimination on ``[num | I]``.

        Every division by the previous pivot is exact, and the left block
        ends as ``D * I`` with the right block ``R`` satisfying
        ``R @ num == D * I``; so ``inverse == den * R / D``.
        """
        n = self.n
        a = [
            list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(self.num)
        ]
        prev = 1
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k] != 0), None)
            if piv is None:
                raise DomainError("matrix is singular")
            a[k], a[piv] = a[piv], a[k]
            pivot_row = a[k]
            p = pivot_row[k]
            for i in range(n):
                if i != k:
                    f = a[i][k]
                    a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
            prev = p
        den = self.den
        num = tuple([tuple([den * x for x in row[n:]]) for row in a])
        return ExactMatrix(num, prev)

    def entry_abs_sum(self) -> Fraction:
        """Sum of absolute values of all entries (an exact matrix norm)."""
        return Fraction(sum(map(abs, itertools.chain.from_iterable(self.num))), self.den)

    def _packing(self, amax: int) -> tuple[Callable, list[int]]:
        """For ``A @ self`` with ``max|A| = amax``: the decoder of its rows
        and the rows of ``self`` packed at their digit width (kept in
        ``_packed``, with ``max|self|`` and the width)."""
        kept, n = self._packed, len(self.num)
        bmax = kept[0] if kept else max(map(abs, itertools.chain.from_iterable(self.num)))
        # The digits of A @ self are at most n amax bmax, and so is bmax
        # itself unless A == 0: max(amax, 1) covers self's own digits.
        wb = _digit_width(n * max(amax, 1) * bmax)
        if kept is None or kept[1] != wb:
            off = _digit_offset(wb, n)
            flat = list(itertools.chain.from_iterable(self.num))
            kept = (bmax, wb, _decoder(n, wb, off), _pack(flat, n, wb, off))
            object.__setattr__(self, "_packed", kept)
        return kept[2:]

    def _same_size(self, other: "ExactMatrix"):
        if self.n != other.n:
            raise DimensionMismatch("matrix sizes differ: %d vs %d" % (self.n, other.n))

    def __repr__(self) -> str:
        return "ExactMatrix(%s)" % self

    def __str__(self) -> str:
        return "[" + "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        ) + "]"


def _bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an int matrix; every Bareiss division is exact."""
    n = len(rows)
    a = [list(row) for row in rows]
    sign = prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if i is None:
                return 0
            a[k], a[i], sign = a[i], a[k], -sign
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - f * pivot_row[j]) // prev
            row[k] = 0
        prev = p
    return sign * a[n - 1][n - 1]


def tensor_product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product, dimension ``a.n * b.n``, row-major block layout."""
    return ExactMatrix(
        tuple([
            tuple([x * y for x in ra for y in rb])
            for ra in a.num
            for rb in b.num
        ]),
        a.den * b.den,
    )


def exterior_power(m: ExactMatrix, k: int) -> ExactMatrix:
    """Matrix of the k-th exterior power in the lexicographic basis of
    k-element subsets; entries are k x k minors."""
    n = m.n
    if not 1 <= k <= n:
        raise DomainError("exterior power index must satisfy 1 <= k <= n")
    subsets = list(itertools.combinations(range(n), k))
    return ExactMatrix(
        tuple([
            tuple([
                _bareiss_det([[m.num[i][j] for j in cset] for i in rset])
                for cset in subsets
            ])
            for rset in subsets
        ]),
        m.den**k,
    )


# ---------------------------------------------------------------------------
# Packed int products
# ---------------------------------------------------------------------------

#: Smallest size whose products pack rows into ints: below it, n^2 dot
#: products cost less than packing and decoding (measured in CHANGES.md).
_PACKED_FROM = 6


def _digit_width(bound: int) -> int:
    """Bytes per digit that hold every int of absolute value at most bound
    with its sign: the bit length plus a sign bit, rounded up to whole
    bytes and to at least 8, the width ``struct`` packs and reads."""
    return max(8, bound.bit_length() // 8 + 1)


def _digit_offset(wb: int, count: int) -> int:
    """``2^(8 wb - 1)`` at each of count digits of wb bytes."""
    return int.from_bytes((bytes(wb - 1) + b"\x80") * count, "little")


def _pack(xs: list[int], count: int, wb: int, off: int) -> list[int]:
    """Each run of count consecutive xs as the int ``sum_j x_j 2^(8 wb j)``
    (Kronecker substitution), for ``off = _digit_offset(wb, count)`` and
    every ``|x| < 2^(8 wb - 1)``.  The digits' two's-complement bytes read
    as one unsigned int U, and ``(U ^ off) - off`` restores each borrow."""
    if wb == 8:
        buf = struct.pack("<%dq" % len(xs), *xs)
    else:
        buf = b"".join([x.to_bytes(wb, "little", signed=True) for x in xs])
    rw, frm = count * wb, int.from_bytes
    return [(frm(buf[s : s + rw], "little") ^ off) - off for s in range(0, len(buf), rw)]


def _decoder(count: int, wb: int, off: int) -> Callable[[int], tuple[int, ...]]:
    """The inverse of ``_pack`` on one int of count digits, for digits
    proven below ``2^(8 wb - 1)`` in size: ``(x + off) ^ off`` is their
    two's-complement bytes, read by one ``struct`` unpack at 8 bytes a
    digit and by ``int.from_bytes`` per digit when wider.  Both read
    little-endian bytes whatever the host's byte order."""
    rw = count * wb
    if wb == 8:
        unpack = struct.Struct("<%dq" % count).unpack
        return lambda x: unpack(((x + off) ^ off).to_bytes(rw, "little"))
    frm = int.from_bytes

    def decode(x: int) -> tuple[int, ...]:
        b = ((x + off) ^ off).to_bytes(rw, "little")
        return tuple([frm(b[s : s + wb], "little", signed=True) for s in range(0, rw, wb)])

    return decode


def _product(a: Sequence[Sequence[int]], b: ExactMatrix) -> list[tuple[int, ...]]:
    """The rows of the int product ``a @ b.num``, n^2 dot products below
    ``_PACKED_FROM``.  From there on, row k of b is the packed int ``P_k =
    sum_j b_kj 2^(w j)`` (``ExactMatrix._packing``), so row i of the
    product is the digits of the one int ``sum_k a_ik P_k``: n int
    products per row.  The digits are at most ``n max|a| max|b|`` in size,
    and w holds that bound with its sign, so none carries into the next."""
    mul = operator.mul
    if len(a) < _PACKED_FROM:
        cols = list(zip(*b.num))
        return [tuple([sum(map(mul, row, col)) for col in cols]) for row in a]
    decode, packed = b._packing(max(map(abs, itertools.chain.from_iterable(a))))
    return [decode(sum(map(mul, row, packed))) for row in a]


# ---------------------------------------------------------------------------
# Characteristic and minimal polynomials
# ---------------------------------------------------------------------------


def _power_sums(m: ExactMatrix) -> list[int]:
    """``[n, tr(N), ..., tr(N^n)]`` for the int matrix ``N = den * M``, from
    about 2 sqrt(n) products: baby steps ``N^1..N^r``, r = ceil(sqrt n), and
    giant steps ``N^r, N^2r, ...``, each ``tr(N^(qr) N^j)`` one entrywise
    sum (the split of Paterson and Stockmeyer, SIAM J. Comput. 2, 1973).
    Powers of N commute, so each product puts the higher power on the
    right, where ``_product`` packs it at the width of that product's own
    entries: n int products per row, not n dot products."""
    n, mul, flat = m.n, operator.mul, itertools.chain.from_iterable
    baby = [ExactMatrix(m.num)]
    for _ in range(_ceil_sqrt(n) - 1):
        baby.append(ExactMatrix(tuple(_product(m.num, baby[-1]))))
    p = [n] + [sum(map(operator.getitem, b.num, range(n))) for b in baby]
    # N^j flattened by columns: tr(G N^j) is its dot product with G by rows.
    cols = [list(flat(zip(*b.num))) for b in baby]
    giant = step = baby[-1]
    while len(p) <= n:
        by_rows = list(flat(giant.num))
        p += [sum(map(mul, by_rows, c)) for c in cols[: n + 1 - len(p)]]
        if len(p) <= n:
            giant = ExactMatrix(tuple(_product(step.num, giant)))
    return p


def _from_power_sums(p: Sequence[int]) -> list[int]:
    """The monic int polynomial (lowest degree first) of degree len(p) - 1
    whose roots have the power sums ``p[1:]``, by Newton's identities
    ``k c_k = -(c_{k-1} p_1 + ... + c_0 p_k)``, each division exact."""
    c, sums = [1], p[1:]
    for k in range(1, len(p)):
        q, r = divmod(-sum(map(operator.mul, reversed(c), sums)), k)
        if r:
            raise InternalInconsistency("power sum not divisible by %d" % k)
        c.append(q)
    return c[::-1]


def _adjugate_row(a: Sequence[Sequence[int]], f: Sequence[int], i: int) -> list:
    """Row i of ``adj(xI - N) = sum B_k x^(n-1-k)``, each entry an int
    polynomial lowest degree first, for the int matrix N with rows a and
    char poly f.  The B_k commute with N, so ``B_0 = I`` and ``B_k =
    B_{k-1} N + f_{n-k} I`` cost one row times N each."""
    n, mul = len(a), operator.mul
    cols = list(zip(*a))
    rows = [[int(j == i) for j in range(n)]]
    for k in range(1, n):
        rows.append([sum(map(mul, rows[-1], col)) for col in cols])
        rows[-1][i] += f[n - k]
    return list(zip(*rows[::-1]))


def _unscale(p: Sequence[int], den: int) -> ExactPoly:
    """``p(den * x) / den**deg p``: monic int p of ``N = den * M`` taken to M."""
    return ExactPoly([c * den**i for i, c in enumerate(p)], den ** (len(p) - 1))


def char_poly(m: ExactMatrix) -> ExactPoly:
    """The monic characteristic polynomial det(xI - M), exactly: Newton's
    identities on the power sums ``tr(N^k)``, k <= n, of ``N = den * M``,
    whose matrix products pack each row into one int (``_power_sums``)."""
    return _unscale(_from_power_sums(_power_sums(m)), m.den)


def min_poly(m: ExactMatrix) -> ExactPoly:
    """Monic least-degree polynomial annihilating M: that of N = den * M
    (``_min_poly_int``), taken back to M."""
    return _unscale(_min_poly_int(m)[0], m.den)


def _min_poly_int(m: ExactMatrix) -> tuple[list[int], bool]:
    """The monic int min poly of N = den * M, lowest degree first, and
    whether f = det(xI - N) is squarefree.  The min poly is ``f / d_{n-1}``
    for d_{n-1} the monic gcd of the entries of ``adj(xI - N)`` (Gantmacher,
    *The Theory of Matrices* I, ch. IV, sec. 6).  The gcd fold starts at
    ``gcd(f, f')``, which d_{n-1} divides (f / d_{n-1} has every root of f,
    so each root of d_{n-1} is one of f of higher multiplicity); a gcd
    modulo a prime (``_coprime``) proves most squarefree f squarefree
    before Euclid would run.  It reads the entries in row-major order,
    building each adjugate row when it reaches it, and stops once the gcd
    is 1: a squarefree f builds no row and is its own min poly."""
    f = _from_power_sums(_power_sums(m))
    df = _derivative(f)
    d = [1] if _coprime(f, df) else poly_gcd(ExactPoly(f), ExactPoly(df)).num
    squarefree = len(d) == 1
    entries = (e for i in range(m.n) for e in _adjugate_row(m.num, f, i))
    while len(d) > 1 and (e := next(entries, None)) is not None:
        if any(_divide(e, d)[1]):  # else d divides e: the gcd stays d
            d = poly_gcd(ExactPoly(d), ExactPoly(e)).num
    return _divide(f, d)[0], squarefree


def _abs_orbit(left: ExactMatrix, f: ExactMatrix, c: list[int], steps: int) -> list[list[int]]:
    """``|L F^k|`` for k = 1..steps, each row-major as int numerators over
    ``left.den``, for an int matrix F.  A caller that knows the orbit's
    period, such as ``F^k = I``, asks for that many terms only.

    ``T_1..T_{d-1}`` are int products (``_product``); after them the
    recurrence ``T_{k+d} = -(c_0 T_k + ... + c_{d-1} T_{k+d-1})`` gives
    each term, for c a monic int polynomial of degree d (lowest degree
    first) with ``c(F) = 0``, such as F's char or min poly.  A term's
    n^2 entries are the digits of one int (``_pack``), so a step is one sum
    of d int products and one decode.  The new digits are at most
    ``|c|_1 M`` with M the largest window digit (``|c|_1 >= 1`` counts the
    leading 1, so the window's own digits are covered too); before each
    step that bound is proven to fit a digit of w = 8 wb bits with its
    sign, and the window is repacked at least twice as wide when it does
    not."""
    d, mul, flat = len(c) - 1, operator.mul, itertools.chain.from_iterable
    rows = left.num
    window = [list(flat(rows))]
    for _ in range(min(steps, d - 1)):
        rows = _product(rows, f)
        window.append(list(flat(rows)))
    out = [list(map(abs, t)) for t in window[1:]]
    if steps < d:
        return out
    neg, norm = [-x for x in c[:d]], sum(map(abs, c))
    count = len(window[0])
    top = max(max(map(abs, t)) for t in window)
    wb, limit = 0, -1
    for _ in range(steps - d + 1):
        # Every window digit is at most limit, so |c|_1 times it fits: the
        # older terms passed this test at a width no wider than this one.
        if top > limit:
            if limit >= 0:
                window = list(map(decode, packed))
            wb = max(2 * wb, _digit_width(norm * top))
            off = _digit_offset(wb, count)
            decode = _decoder(count, wb, off)
            limit = ((1 << (8 * wb - 1)) - 1) // norm
            packed = _pack(list(flat(window)), count, wb, off)
        x = sum(map(mul, neg, packed))
        packed = packed[1:] + [x]
        vals = list(map(abs, decode(x)))
        out.append(vals)
        top = max(vals)
    return out


def entry_sum_sequence(m: ExactMatrix, steps: int) -> list[float]:
    """The entry sums ``(M ** k).entry_abs_sum()`` as floats, k = 1..steps:
    the brute-force growth sequence of M.

    The sums are read from the orbit of I under ``N = den * M``
    (``_abs_orbit``), so the powers come from the Cayley-Hamilton
    recurrence rather than repeated products.  The k-th sum of N is
    divided by ``den**k`` by int true division, which rounds as
    ``float(Fraction)`` does."""
    chi = _from_power_sums(_power_sums(m))
    out, scale = [], 1
    for total in map(sum, _abs_orbit(ExactMatrix.identity(m.n), ExactMatrix(m.num), chi, steps)):
        scale *= m.den
        out.append(total / scale)
    return out


def nilpotency_index(m: ExactMatrix) -> Optional[int]:
    """Smallest j with M^j = 0, or None if M is not nilpotent."""
    power = m
    for j in range(1, m.n + 1):
        if power.is_zero:
            return j
        power = power @ m
    return None


# ---------------------------------------------------------------------------
# Certified root moduli
# ---------------------------------------------------------------------------


class _NeedMoreBits(Exception):
    """A precision level that cannot certify."""


@dataclass
class _RootBox:
    """A root whose modulus is known exactly."""

    z: complex                    # float approximation of the root
    part: int                     # index of the owning squarefree part
    exact_sq: Fraction            # modulus squared
    order: Optional[int] = None   # order as a root of unity, when it is one


#: Iteration cap of the machine-precision start-point search.
_MACHINE_STEPS = 100


def _machine_roots(h: ExactPoly) -> Optional[list[complex]]:
    """Start points for the certified root iteration: a short Durand-Kerner
    loop on h in machine-precision complex arithmetic.  None when its
    coefficients or iterates leave the float range, or h is constant.  The
    points are only a starting guess; nothing is decided from them."""
    n = h.degree
    if n < 1:
        return None
    try:
        coeffs = [complex(c / h.num[-1]) for c in reversed(h.num)]
    except OverflowError:
        return None
    # Start on the circle whose radius is the geometric mean of the root
    # moduli: from the unit circle, the first steps on a polynomial with
    # large roots overflow the float range.
    radius = abs(coeffs[-1]) ** (1 / n) or 1.0
    roots = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    for _ in range(_MACHINE_STEPS):
        worst = 0.0
        for i in range(n):
            p = roots[i]
            x = 0j
            for c in coeffs:
                x = x * p + c
            for j in range(n):
                if j != i and p != roots[j]:
                    x /= p - roots[j]
            roots[i] = p - x
            worst = max(worst, abs(x) / max(1.0, abs(p)))
        if worst <= 2.0**-50:
            break
    if not all(cmath.isfinite(z) for z in roots):
        return None
    return roots


def _dyadic_points(
    points: Optional[Sequence[complex]], e: int
) -> Optional[tuple[int, list[tuple[int, int]]]]:
    """Start points ``(e, [(x, y), ...])`` of the root iteration: the
    Gaussian ints nearest ``2**e * z`` for the float points z; None for
    None."""
    if points is None:
        return None

    def nearest(v: float) -> int:
        num, den = v.as_integer_ratio()
        return ((num << (e + 1)) + den) // (2 * den)

    return e, [(nearest(z.real), nearest(z.imag)) for z in map(complex, points)]


def _scaled_coefficients(poly: Sequence[int], shift: int) -> list[int]:
    """``c * 2**(shift * j)`` for each coefficient c of x^(deg - j) of the
    int poly (lowest degree first), listed from j = 0: Horner on them at a
    Gaussian int x + iy gives ``2**(shift * deg) * poly((x + iy) / 2**shift)``."""
    return [c << (shift * j) for j, c in enumerate(reversed(poly))]


def _gaussian_value(scaled: Sequence[int], x: int, y: int) -> tuple[int, int]:
    """Horner on ``_scaled_coefficients`` output at x + iy, as (re, im)."""
    re = im = 0
    for c in scaled:
        re, im = re * x - im * y + c, re * y + im * x
    return re, im


#: Sweep cap of the certified root iteration.
_ROOT_STEPS = 200


def _durand_kerner(
    scaled: Sequence[int], points: Sequence[tuple[int, int]], e: int
) -> Optional[list[tuple[int, int]]]:
    """Durand-Kerner (Weierstrass) iteration on the grid ``2**-e``, in
    Gaussian ints.  ``scaled`` is ``_scaled_coefficients(p, e)``; each point
    (x, y) stands for ``(x + iy) / 2**e``.  Points update in place, with a
    rounded Gaussian division, and a factor ``z_i - z_j`` is skipped where
    two points coincide.  Returns the points after the first sweep that
    moves none of them by more than one grid step, or None after
    ``_ROOT_STEPS`` sweeps."""
    n = len(scaled) - 1
    pts = list(points)
    for _ in range(_ROOT_STEPS):
        worst = 0
        for i in range(n):
            x, y = pts[i]
            pr, pi = _gaussian_value(scaled, x, y)
            # Each product factor is 2**e times z_i - z_j; a skipped one
            # leaves a factor 2**e to restore.
            qr, qi, skipped = scaled[0], 0, 0
            for j, (u, v) in enumerate(pts):
                if j != i:
                    du, dv = x - u, y - v
                    if du or dv:
                        qr, qi = qr * du - qi * dv, qr * dv + qi * du
                    else:
                        skipped += 1
            qr, qi = qr << e * skipped, qi << e * skipped
            q2 = qr * qr + qi * qi
            dx = (2 * (pr * qr + pi * qi) + q2) // (2 * q2)
            dy = (2 * (pi * qr - pr * qi) + q2) // (2 * q2)
            pts[i] = (x - dx, y - dy)
            worst = max(worst, abs(dx), abs(dy))
        if worst <= 1:
            return pts
    return None


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _isolate_numeric(
    h: ExactPoly, bits: int, start: Optional[tuple[int, list]] = None
) -> tuple[Optional[tuple[int, list]], Optional[list[tuple[int, int, int]]]]:
    """Approximate all roots of a squarefree h with certified, pairwise
    disjoint position disks on the grid ``2**-bits``.  Returns the centres
    ``(bits, [(x, y), ...])`` the iteration converged to (None if it did
    not) and a disk (x, y, rho) of centre ``(x + iy) / 2**bits`` and radius
    ``rho / 2**bits`` per root (None if they cannot be certified).
    ``start``, centres ``(e, points)`` on a grid ``2**-e`` no finer than
    this one, only changes how many sweeps run: the ``_machine_roots``
    points at the first level, the previous level's centres after that, or
    for None the points ``(0.4 + 0.9i)**k``.  The disk of centre z and
    radius ``n |p(z) / p'(z)|`` holds a root of p (Henrici, Applied and
    Computational Complex Analysis I, 6.4), checked in exact ints, and
    disjoint disks hold one root each."""
    n = h.degree
    if start is None:
        start = _dyadic_points([(0.4 + 0.9j) ** k for k in range(n)], bits)
    e0, points = start
    shift = bits - e0
    scaled = _scaled_coefficients(h.num, bits)
    centres = _durand_kerner(
        scaled, [(x << shift, y << shift) for x, y in points], bits
    )
    if centres is None:
        return None, None
    dscaled = _scaled_coefficients(_derivative(h.num), bits)
    disks = []
    for x, y in centres:
        pr, pi = _gaussian_value(scaled, x, y)
        dr, di = _gaussian_value(dscaled, x, y)
        # In grid units the radius is n |P| / |D| for the Horner values P
        # of 2**(bits n) p and D of 2**(bits (n - 1)) p'.
        d2 = dr * dr + di * di
        if not d2:
            return (bits, centres), None
        rho = _ceil_sqrt(-(-(n * n * (pr * pr + pi * pi)) // d2))
        disks.append((x, y, rho))
    for (x1, y1, r1), (x2, y2, r2) in itertools.combinations(disks, 2):
        if (x1 - x2) ** 2 + (y1 - y2) ** 2 <= (r1 + r2) ** 2:
            return (bits, centres), None
    return (bits, centres), disks


def _integer_roots(h: ExactPoly) -> list[Fraction]:
    """Integer roots of the squarefree h, in increasing order, by p-adic
    lifting (Loos, SIAM J. Comput. 12, 1983).  At the first prime q where
    h's int numerator H keeps its degree and stays squarefree, each root
    of H mod q (found at every residue) is simple, so Newton's step lifts
    it to one root mod ``q**k``, past twice Fujiwara's root bound ``hi``.
    An integer root is the symmetric residue c of one of them, kept when
    ``H(c) == 0``.  A skipped prime divides ``res(H, H')``, so once their
    product passes Hadamard's bound on it, H was not squarefree."""
    a, da = h.num, _derivative(h.num)
    n = len(a) - 1
    if n < 1:
        return []
    top = a[-1].bit_length()
    # |c / lead| < 2**(j * e_j) for each nonzero coefficient c of x^(n - j)
    e = [(c.bit_length() - top + j) // j for j, c in enumerate(a[::-1]) if j and c]
    hi = 2 << max([0, *e])
    # |res(H, H')| <= |H|_2^(n - 1) |H'|_2^n, with |v|_2 below 2**bits(v).
    bits = [(sum([c * c for c in v]).bit_length() + 1) // 2 for v in (a, da)]
    budget, skipped, q = 1 << ((n - 1) * bits[0] + n * bits[1]), 1, 2
    while not a[-1] % q or _gcd_degree_mod(a, da, q):
        skipped *= q
        if skipped > budget:
            raise InternalInconsistency("integer roots asked of a non-squarefree part")
        # The next prime: skipped holds every prime up to q.
        q = next(k for k in itertools.count(q + 1) if math.gcd(k, skipped) == 1)
    roots, aq = [], [c % q for c in a]
    for r in [r for r in range(q) if not _dyadic_value(aq, r, 0) % q]:
        m = q
        while m <= 2 * hi:
            m *= m
            r = (r - _dyadic_value(a, r, 0) * pow(_dyadic_value(da, r, 0), -1, m)) % m
        c = r - m if 2 * r > m else r
        if not _dyadic_value(a, c, 0):
            roots.append(Fraction(c))
    return sorted(roots)


@dataclass
class _ModClass:
    """A set of roots sharing one modulus (known exactly, proven equal by
    ``_prove_tie``, or merged pessimistically at the precision cap); or,
    as a signature's top class, roots of one part whose largest modulus
    lies in the bracket."""

    exact_sq: Optional[Fraction]
    lo: Fraction
    hi: Fraction
    parts: set[int]
    positions: list[complex]
    merged_at_cap: bool = False

    def overlaps(self, other: "_ModClass") -> bool:
        return not (self.hi < other.lo or other.hi < self.lo)


def _sqrt_interval(m2: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bracket of sqrt(m2) of width at most ``width``; a point
    when m2 is a perfect square."""
    exact = _fraction_sqrt(m2)
    if exact is not None:
        return exact, exact
    scale = 4 * max(1, int(1 / width)) * 2**16
    t = math.isqrt((m2.numerator * scale * scale) // m2.denominator)
    return Fraction(t, scale), Fraction(t + 2, scale)


def _float(x: Fraction) -> float:
    """x as a float.  x is a root coordinate or modulus, so when it is
    beyond the float range, so is the spectral radius."""
    try:
        return float(x)
    except OverflowError:
        raise DomainError("the spectral radius exceeds the float range") from None


def _sqrt_float(q: Fraction) -> float:
    """sqrt(q) as a float for q >= 0, also where q itself is beyond the
    float range: q is scaled by a power of 4 to about 2**1000 first, so a
    q within the float range is converted as it is."""
    k = max(0, q.numerator.bit_length() - q.denominator.bit_length() - 1000) // 2
    return _float(Fraction(math.sqrt(q / 4**k)) * 2**k)


def _rational_box(r: Fraction, part: int) -> _RootBox:
    order = 1 if r == 1 else 2 if r == -1 else None
    return _RootBox(complex(_float(r), 0.0), part, r * r, order)


@functools.cache
def _cyclotomic_candidates(deg: int) -> list[tuple[int, int]]:
    """``(d, phi(d))`` for each d < 2 deg^2 + 2 with phi(d) <= deg, d
    increasing: every Phi_d of degree at most deg (phi(d) >= sqrt(d / 2)).
    phi comes from a sieve: each prime p scales its multiples by 1 - 1/p."""
    top = 2 * deg * deg + 1
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:  # no smaller prime divides p
            phi[p::p] = [x - x // p for x in phi[p::p]]
    return [(d, phi[d]) for d in range(1, top + 1) if phi[d] <= deg]


@functools.cache
def _cyclotomic_at_2(d: int) -> int:
    """``Phi_d(2)``, a divisor of ``H(2)`` for every int H that Phi_d
    divides: ``2^d - 1`` over ``Phi_e(2)`` for the e < d dividing d, so no
    Phi_d is built for a candidate d that the filter skips."""
    out = 2**d - 1
    for e in range(1, d):
        if d % e == 0:
            out //= _cyclotomic_at_2(e)
    return out


def _exact_roots_of_part(h: ExactPoly, part: int) -> tuple[list[_RootBox], ExactPoly]:
    """Split off roots whose modulus is exactly computable: rational roots,
    roots of cyclotomic factors (modulus 1), and complex quadratic pairs
    (modulus squared equals the constant term).  Each box records its order
    as a root of unity: 1 for the root 1, 2 for -1, d for a root of Phi_d."""
    boxes, rest = [], h.monic()
    for r in _integer_roots(rest):
        rest = rest.exact_div(ExactPoly([-r.numerator, 1]))
        boxes.append(_rational_box(r, part))
    # Phi_d is monic, so dividing by it never scales the numerators, and
    # Phi_d | H in Q[x] puts the quotient in Z[x] (H the int numerator of
    # rest): Phi_d(2) >= 1 then divides H(2), and most d fail that first.
    h2 = _dyadic_value(rest.num, 2, 0)
    for d, phi in _cyclotomic_candidates(rest.degree):
        if rest.degree < 1:
            break
        if phi > rest.degree or h2 % _cyclotomic_at_2(d):
            continue
        quot, rem = divmod(rest, cyclotomic_poly(d))
        if not rem.is_zero:
            continue
        rest, h2 = quot, _dyadic_value(quot.num, 2, 0)
        for j in range(d):
            if math.gcd(j, d) == 1:
                z = cmath.exp(2j * cmath.pi * j / d)
                boxes.append(_RootBox(z, part, Fraction(1), d))
    if rest.degree == 1:
        boxes.append(_rational_box(-rest[0] / rest[1], part))
        rest = ExactPoly.one()
    elif rest.degree == 2:
        b, c = rest[1], rest[0]
        disc = b * b - 4 * c
        if disc < 0:
            # Conjugate pair: modulus squared is the constant term.
            re = _float(-b / 2)
            im = _sqrt_float(-disc) / 2
            for sign in (1, -1):
                boxes.append(_RootBox(complex(re, sign * im), part, c))
            rest = ExactPoly.one()
        elif b == 0:
            # Real pair +-sqrt(-c): modulus squared is -c.
            r = _sqrt_float(-c)
            for sign in (1, -1):
                boxes.append(_RootBox(complex(sign * r, 0.0), part, -c))
            rest = ExactPoly.one()
    return boxes, rest


def _exact_classes(exact_boxes: list[_RootBox], width: Fraction) -> list[_ModClass]:
    """One class per exact modulus, with pairwise disjoint brackets of
    width at most ``width`` (points for rational moduli)."""
    by_sq: dict[Fraction, _ModClass] = {}
    for box in exact_boxes:
        cls = by_sq.get(box.exact_sq)
        if cls is None:
            lo, hi = _sqrt_interval(box.exact_sq, width)
            cls = by_sq[box.exact_sq] = _ModClass(box.exact_sq, lo, hi, set(), [])
        cls.parts.add(box.part)
        cls.positions.append(box.z)
    classes = list(by_sq.values())
    # Distinct exact moduli always separate: shrink their brackets.
    for ca, cb in itertools.combinations(classes, 2):
        width = min(ca.hi - ca.lo, cb.hi - cb.lo)
        for _ in range(300):
            if not ca.overlaps(cb):
                break
            width = width / 16
            ca.lo, ca.hi = _sqrt_interval(ca.exact_sq, width)
            cb.lo, cb.hi = _sqrt_interval(cb.exact_sq, width)
    return classes


def _numeric_classes(
    numeric_parts: list[tuple[int, ExactPoly]],
    neg_pairs_poly: ExactPoly,
    bits: int,
    starts: list[Optional[tuple[int, list]]],
) -> list[_ModClass]:
    """The classes of the numerically isolated roots on the grid
    ``2**-bits``; raises _NeedMoreBits when they cannot be certified.
    ``starts`` holds the iteration's start points for each numeric part,
    then for ``neg_pairs_poly``.  Each isolation replaces its entry with
    the centres it converged to, or None when it did not converge, so the
    next level starts from the default points."""

    def isolate(key: int, h: ExactPoly) -> list[tuple[int, int, int]]:
        starts[key], disks = _isolate_numeric(h, bits, starts[key])
        if disks is None:
            raise _NeedMoreBits()
        return disks

    disks = []  # (x, y, rho, part) on the grid
    for key, (idx, h) in enumerate(numeric_parts):
        disks += [(x, y, rho, idx) for x, y, rho in isolate(key, h)]

    # Union-find over the disks: conjugate partners always share a
    # modulus; so do +/- partners (roots of gcd(R(x), R(-x))).
    parent = list(range(len(disks)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def locate(x: int, y: int, r: int) -> Optional[int]:
        """Index of the unique disk that meets the disk of centre x + iy
        and radius r; None when there is none or more than one."""
        hits = [k for k, (xk, yk, rk, _) in enumerate(disks)
                if (xk - x) ** 2 + (yk - y) ** 2 <= (rk + r) ** 2]
        return hits[0] if len(hits) == 1 else None

    for i, (x, y, r, _) in enumerate(disks):
        if abs(y) > r:  # certainly not a real root
            j = locate(x, -y, r)
            if j is None:
                raise _NeedMoreBits()  # conjugate root not localizable
            if j != i:
                parent[find(i)] = find(j)
    if neg_pairs_poly.degree >= 1:
        for x, y, r in isolate(len(numeric_parts), neg_pairs_poly):
            i = locate(x, y, r)
            j = locate(-x, -y, r)
            if i is None or j is None:
                raise _NeedMoreBits()
            if i != j:
                parent[find(i)] = find(j)

    groups: dict[int, list[tuple[int, int, int, int]]] = {}
    for i, disk in enumerate(disks):
        groups.setdefault(find(i), []).append(disk)
    unit = 1 << bits
    classes = []
    for group in groups.values():
        # Each centre's modulus lies in [a, a + 1] in grid units.
        moduli = [(math.isqrt(x * x + y * y), r) for x, y, r, _ in group]
        lo = max(max(0, a - r) for a, r in moduli)
        hi = min(a + 1 + r for a, r in moduli)
        if hi < lo:
            # Members proven equal must have consistent intervals.
            raise _NeedMoreBits()
        parts = {part for *_, part in group}
        positions = [complex(x / unit, y / unit) for x, y, _, _ in group]
        classes.append(
            _ModClass(None, Fraction(lo, unit), Fraction(hi, unit), parts, positions)
        )
    return classes


def _squared_moduli_poly(g: Sequence[int]) -> list[int]:
    """``prod_{i <= j} (y - b_i b_j)`` over the roots b of the monic int
    polynomial g, both lowest degree first.

    Every ``|b|**2 = b * conj(b)`` is one of its roots.  Its k-th power sum
    is ``(p_k**2 + p_2k) / 2`` for the power sums p of g, and Newton's
    identities turn power sums into coefficients and back, exactly in ints.
    """
    n = len(g) - 1
    big_n = n * (n + 1) // 2
    p = [n]
    for k in range(1, 2 * big_n + 1):
        acc = k * g[n - k] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            acc += g[n - i] * p[k - i]
        p.append(-acc)
    return _from_power_sums(
        [big_n] + [(p[k] * p[k] + p[2 * k]) // 2 for k in range(1, big_n + 1)]
    )


def _sturm_chain(t: Sequence[int]) -> list[Sequence[int]]:
    """Sturm sequence of the int polynomial t (lowest degree first), each
    member a positive multiple of the classical one, divided by its
    content.  t need not be squarefree: the chain then ends at a multiple
    of gcd(t, t'), and sign changes still count distinct real roots."""
    chain = [t, _derivative(t)]
    while len(chain[-1]) > 1:
        r = _primitive(_divide(chain[-2], chain[-1])[1])
        if not r:
            break
        chain.append([-x for x in r])
    return chain


def _dyadic_value(poly: Sequence[int], num: int, shift: int) -> int:
    """``2**(shift * deg) * poly(num / 2**shift)``, an int of the sign of
    the value, for poly with int coefficients lowest degree first."""
    acc = 0
    for j, c in enumerate(reversed(poly)):
        acc = acc * num + (c << (shift * j))
    return acc


def _sign_changes(chain: list[list[int]], num: int, shift: int) -> int:
    """Sign changes of the chain at ``num / 2**shift``, zeros dropped."""
    signs = [v > 0 for v in (_dyadic_value(p, num, shift) for p in chain) if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


#: Largest degree of the squared-moduli polynomial of the product of the
#: tied parts for which a modulus tie is proven exactly; over it, ties
#: merge at the precision cap.
TIE_PROOF_MAX_DEGREE = 55


def _prove_tie(
    ca: _ModClass, cb: _ModClass, rests: dict[int, ExactPoly], bits: int
) -> bool:
    """Whether the moduli of two overlapping classes are provably equal.

    A squared modulus ``|b|**2 = b * conj(b)`` is a root of the squared-
    moduli polynomial of b's own part, which holds conj(b).  So both
    squared moduli are roots of T: the product of those polynomials over
    the numeric parts of the classes, times ``(x - exact_sq)`` for an exact
    class.  J is the hull of both squared brackets, rounded outward to the
    grid ``2**-bits``.  If a Sturm count finds exactly one distinct root of
    T in J, the two squared moduli are that root.  The degree cap counts
    the squared-moduli polynomial of the parts' product, of degree
    ``n(n + 1) / 2`` for their n roots together.
    """
    exact = ca.exact_sq if ca.exact_sq is not None else cb.exact_sq
    idx = sorted({i for c in (ca, cb) if c.exact_sq is None for i in c.parts})
    hs = [rests[i] for i in idx]
    n = sum(h.degree for h in hs)
    if n * (n + 1) // 2 + (exact is not None) > TIE_PROOF_MAX_DEGREE:
        return False
    # d is the denominator of the monic product, whose d**n * prod(y / d)
    # is monic in Z[y]: its roots, d times the parts' roots, are algebraic
    # integers.  So each part's g(y) = d**deg * h(y / d) is monic in Z[y].
    d = functools.reduce(operator.mul, hs).den
    t = list(functools.reduce(operator.mul, [
        ExactPoly(_squared_moduli_poly(
            [c * d ** (h.degree - k) // h.den for k, c in enumerate(h.num)]
        ))
        for h in hs
    ]).num)
    if exact is not None:
        # times (den * y - num) for exact * d**2 = num / den
        q = exact * d * d
        t = [y * q.denominator - x * q.numerator for x, y in zip(t + [0], [0] + t)]
    chain = _sturm_chain(t)
    scale = d * d * 2**bits
    lo = min(ca.lo, cb.lo) ** 2 * scale
    hi = max(ca.hi, cb.hi) ** 2 * scale
    a = math.floor(lo) - 1
    b = math.ceil(hi) + 1
    if not _dyadic_value(t, a, bits) or not _dyadic_value(t, b, bits):
        return False
    return _sign_changes(chain, a, bits) - _sign_changes(chain, b, bits) == 1


def _merge_pairs(classes: list[_ModClass], merge) -> list[_ModClass]:
    """Replace each overlapping pair of classes by ``merge(ca, cb)`` until
    no overlapping pair merges; ``merge`` returns None to keep a pair."""
    merged = list(classes)
    changed = True
    while changed:
        changed = False
        for ca, cb in itertools.combinations(merged, 2):
            new = merge(ca, cb) if ca.overlaps(cb) else None
            if new is not None:
                merged = [c for c in merged if c is not ca and c is not cb] + [new]
                changed = True
                break
    return merged


def _merge_if_tied(
    ca: _ModClass, cb: _ModClass, rests: dict[int, ExactPoly], bits: int
) -> Optional[_ModClass]:
    """One class for two overlapping classes, not both exact, whose moduli
    ``_prove_tie`` proves equal; its bracket is the intersection."""
    if None not in (ca.exact_sq, cb.exact_sq) or not _prove_tie(ca, cb, rests, bits):
        return None
    lo, hi = max(ca.lo, cb.lo), min(ca.hi, cb.hi)
    if hi < lo:
        raise InternalInconsistency(
            "moduli proven equal have disjoint certified brackets"
        )
    exact = ca.exact_sq if ca.exact_sq is not None else cb.exact_sq
    return _ModClass(exact, lo, hi, ca.parts | cb.parts, ca.positions + cb.positions)


def _merge_at_cap(ca: _ModClass, cb: _ModClass) -> _ModClass:
    """The pessimistic union of two classes still overlapping at the cap."""
    lo, hi = min(ca.lo, cb.lo), max(ca.hi, cb.hi)
    positions = ca.positions + cb.positions
    return _ModClass(None, lo, hi, ca.parts | cb.parts, positions, merged_at_cap=True)


def _split_roots(
    parts: Sequence[tuple[ExactPoly, int]],
) -> tuple[list[_RootBox], list[tuple[int, ExactPoly]]]:
    """The exact root boxes of all squarefree parts, and the (part index,
    remaining factor) pairs whose roots need numeric isolation."""
    exact_boxes, numeric_parts = [], []
    for idx, (h, _) in enumerate(parts):
        boxes, rest = _exact_roots_of_part(h, idx)
        exact_boxes.extend(boxes)
        if rest.degree >= 1:
            numeric_parts.append((idx, rest))
    return exact_boxes, numeric_parts


def _top_cluster(classes: list[_ModClass]) -> list[_ModClass]:
    """The classes that may hold the largest modulus: those whose bracket
    reaches the largest lower end, a point that all of them contain."""
    lo = max(c.lo for c in classes)
    return [c for c in classes if c.hi >= lo]


def _top_class(
    classes: list[_ModClass], width: Fraction, tie, last: bool
) -> Optional[_ModClass]:
    """The signature's stop test: the class of the largest modulus, or None
    to climb a level.  Only the top cluster is decided.

    Numeric classes of a single squarefree part need no proof: s depends
    only on that part, and rho is its largest modulus, in the hull
    ``[max lo, max hi]`` of the cluster.  Any other cluster, with several
    parts or with an exact modulus that a proof would make rho's, merges
    the ties that ``tie`` proves.  While it holds more than one class it
    climbs, and at the cap it merges them pessimistically
    (``merged_at_cap``).  The class found climbs while it is numeric and
    wider than ``width``.
    """
    cluster = _top_cluster(classes)
    parts = set().union(*[c.parts for c in cluster])
    if len(parts) == 1 and all(c.exact_sq is None for c in cluster):
        lo, hi = max(c.lo for c in cluster), max(c.hi for c in cluster)
        positions = [z for c in cluster for z in c.positions]
        top = _ModClass(None, lo, hi, parts, positions)
    else:
        cluster = _top_cluster(_merge_pairs(cluster, tie))
        if len(cluster) > 1 and not last:
            return None
        top = functools.reduce(_merge_at_cap, cluster)
    if top.exact_sq is None and top.hi - top.lo > width and not last:
        return None
    return top


def _separated(
    classes: list[_ModClass], width: Fraction, tie, last: bool
) -> Optional[list[_ModClass]]:
    """``root_moduli``'s stop test: all classes, after merging the ties that
    ``tie`` proves, pairwise disjoint and each exact or at most ``width``
    wide; None to climb a level.  At the cap, raises PrecisionExhausted
    with the overlapping classes merged pessimistically."""
    classes = _merge_pairs(classes, tie)
    pairs = itertools.combinations(classes, 2)
    unresolved = any(ca.overlaps(cb) for ca, cb in pairs)
    too_wide = any(c.exact_sq is None and c.hi - c.lo > width for c in classes)
    if not unresolved and not too_wide:
        return classes
    if last:
        raise PrecisionExhausted(
            "root moduli could not be separated at the escalation cap",
            classes=_merge_pairs(classes, _merge_at_cap),
        )
    return None


def _modulus_classes(
    exact_boxes: list[_RootBox],
    numeric_parts: list[tuple[int, ExactPoly]],
    width: Fraction,
    start_bits: int = START_BITS,
    max_bits: int = MAX_BITS,
    settle=_top_class,
):
    """Climb the precision ladder over the roots split by ``_split_roots``
    until ``settle`` decides, and return its answer.

    The classes of equal modulus carry certified rational brackets.  The
    exact classes are built once; each level isolates the numeric roots
    anew and adds their classes.  ``settle(classes, width, tie, last)``
    then gets ``tie(ca, cb)``, the class ``_merge_if_tied`` makes of two
    overlapping classes at this level's bits, and ``last``, whether this
    level is the cap.  It returns None to climb.  The default is the
    signature's top-cluster test, ``_top_class``; ``root_moduli`` passes
    ``_separated``, which separates every class.
    """
    neg_pairs_poly = ExactPoly.one()
    if numeric_parts:
        radical = ExactPoly.one()
        for _, h in numeric_parts:
            radical = radical * h
        if not _coprime(radical.num, radical.reflect().num):
            neg_pairs_poly = poly_gcd(radical, radical.reflect())
    starts = [
        _dyadic_points(_machine_roots(h), start_bits)
        for h in [h for _, h in numeric_parts] + [neg_pairs_poly]
    ]
    rests = dict(numeric_parts)
    exact = _exact_classes(exact_boxes, width)

    bits = start_bits
    while True:
        try:
            numeric = _numeric_classes(numeric_parts, neg_pairs_poly, bits, starts)
        except _NeedMoreBits:
            if bits >= max_bits:
                raise PrecisionExhausted(
                    "could not certify root positions at %d bits" % bits
                )
            bits *= 2
            continue
        out = settle(
            exact + numeric,
            width,
            lambda ca, cb: _merge_if_tied(ca, cb, rests, bits),
            bits >= max_bits,
        )
        if out is not None:
            return out
        bits *= 2


def root_moduli(
    h: ExactPoly, precision: int = 53
) -> list[tuple[complex, tuple[Fraction, Fraction]]]:
    """All complex roots of a squarefree polynomial, approximated, with
    certified modulus intervals of width <= 2**-precision; intervals of
    distinct moduli are refined until disjoint, and roots whose moduli are
    proven equal share one interval.  ``precision`` is at most
    MAX_PRECISION_BITS.  Raises PrecisionExhausted when moduli stay
    inseparable at the escalation cap and their tie is over the degree cap
    of the exact tie proof."""
    if not 1 <= precision <= MAX_PRECISION_BITS:
        raise DomainError(
            "precision must be between 1 and %d bits" % MAX_PRECISION_BITS
        )
    if h.is_zero or h.degree < 1:
        raise DomainError("root isolation needs a nonzero polynomial of degree >= 1")
    if not _coprime(h.num, _derivative(h.num)) and poly_gcd(h, h.derivative()).degree:
        raise DomainError("root isolation requires a squarefree polynomial")
    width = Fraction(1, 2**precision)
    start = max(START_BITS, precision + 48)
    bits = max(MAX_BITS, start * 2)
    classes = _modulus_classes(*_split_roots([(h, 1)]), width, start, bits, _separated)
    out = [(z, (cls.lo, cls.hi)) for cls in classes for z in cls.positions]
    out.sort(key=lambda item: (item[1][0], item[0].real, item[0].imag))
    return out


def quasi_unipotent_order(m: ExactMatrix) -> Optional[int]:
    """Smallest k with (M^k - I) nilpotent, or None."""
    if not m.is_integer:
        raise NonIntegerEntries("quasi-unipotence search needs integer entries")
    return _spectrum(m)[-1]


def _spectrum(m: ExactMatrix) -> tuple[list[int], list, list[_RootBox], list, Optional[int]]:
    """The one analysis of M that the signature, the quasi-unipotence order
    and the pairing orbit read: mu of ``_min_poly_int``, the squarefree
    parts of M's min poly (by Yun only when the char poly is not
    squarefree), their root split, and k: for an integer M whose roots all
    split off exactly as roots of unity, the lcm of their orders, else
    None.  The nilpotency check is the only test of k and s off the split."""
    mu, squarefree = _min_poly_int(m)
    p = _unscale(mu, m.den)
    parts = [(p, 1)] if squarefree else squarefree_decomposition(p)
    exact_boxes, numeric_parts = _split_roots(parts)
    orders = [box.order for box in exact_boxes]
    if not m.is_integer or numeric_parts or None in orders:
        return mu, parts, exact_boxes, numeric_parts, None
    k = math.lcm(*orders)
    idx = nilpotency_index(m**k - ExactMatrix.identity(m.n))
    if idx != max(mult for _, mult in parts):
        raise InternalInconsistency(
            "M^k - I has nilpotency index %s at k = %d, not s + 1" % (idx, k)
        )
    return mu, parts, exact_boxes, numeric_parts, k


# ---------------------------------------------------------------------------
# Growth signature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootOfFactor:
    """Exact tag: the modulus is that of a root of ``factor``, its rank
    counted with root moduli sorted in decreasing order (0 = largest)."""

    factor: ExactPoly
    modulus_rank: int


@dataclass(frozen=True)
class GrowthSignature:
    """Certified growth data of M^n ~ rho^n * n^s.

    ``s + 1`` equals the largest multiplicity among ``dominant_factors``,
    the squarefree parts of the minimal polynomial having a root of
    modulus rho.  ``tied`` is set only when the top moduli span several
    parts (or an exact modulus) and stayed inseparable at the precision
    cap, their tie not provable under the degree cap of the exact tie
    proof; the conservative (larger) s was then reported.  A tie the
    proof settles, or one within a single part, leaves ``tied`` unset.
    ``rho_float`` lies inside ``rho_interval`` unless it is farther than the
    tolerance from its midpoint (a huge rho, or a tolerance below an ulp).
    """

    rho_interval: tuple[Fraction, Fraction]
    rho_float: float
    rho_exact: Optional[Union[Fraction, RootOfFactor]]
    s: int
    dominant_factors: tuple[tuple[ExactPoly, int], ...]
    tied: bool = False
    quasi_unipotent_k: Optional[int] = None

    @property
    def log_rho(self) -> float:
        return math.log(self.rho_float)


def growth_signature(
    m: ExactMatrix,
    tolerance: Union[Fraction, float] = DEFAULT_TOLERANCE,
    max_bits: int = MAX_BITS,
) -> GrowthSignature:
    """Spectral radius and polynomial growth rate of a non-nilpotent matrix.

    rho is the maximal root modulus of the minimal polynomial; s is one
    less than the largest multiplicity among squarefree parts attaining it.
    Every matrix takes this one route; the quasi-unipotence order k is read
    off the exact root split and checked by nilpotency_index(M^k - I) = s + 1.
    """
    return _signature(m, tolerance, max_bits)[0]


def _signature(m: ExactMatrix, tolerance, max_bits: int) -> tuple[GrowthSignature, list]:
    """``growth_signature`` and the mu of ``_spectrum`` that it read."""
    if max_bits > MAX_PRECISION_BITS:
        raise DomainError(
            "max_bits %d exceeds the limit of %d bits" % (max_bits, MAX_PRECISION_BITS)
        )
    mu, parts, exact_boxes, numeric_parts, k = _spectrum(m)
    if len(parts) == 1 and _is_power_of_x(parts[0][0]):
        raise NilpotentInput("growth data is undefined for nilpotent matrices")

    width = tolerance if isinstance(tolerance, Fraction) else Fraction(tolerance)
    top = _modulus_classes(exact_boxes, numeric_parts, width, max_bits=max_bits)
    tied = top.merged_at_cap
    if tied:
        warnings.warn(
            "root moduli stayed inseparable at the precision cap; "
            "the reported exponent is the conservative larger value",
            TiedModuli,
        )

    dom_factors = tuple([parts[idx] for idx in sorted(top.parts)])
    s = max(mult for _, mult in dom_factors) - 1

    lo, hi = top.lo, top.hi
    rho_exact = None if top.exact_sq is None else _fraction_sqrt(top.exact_sq)
    if rho_exact is not None:
        lo = hi = rho_exact
    elif not tied and len(top.parts) == 1:
        rho_exact = RootOfFactor(parts[next(iter(top.parts))][0], modulus_rank=0)

    rho_float = _float((lo + hi) / 2)
    # Hull the float in when its rounding error (half an ulp) is within
    # the tolerance, so the interval stays about that wide at most.
    as_fraction = Fraction(rho_float)
    if abs(as_fraction - (lo + hi) / 2) <= width:
        lo, hi = min(lo, as_fraction), max(hi, as_fraction)
    return GrowthSignature(
        rho_interval=(lo, hi),
        rho_float=rho_float,
        rho_exact=rho_exact,
        s=s,
        dominant_factors=dom_factors,
        tied=tied,
        quasi_unipotent_k=k,
    ), mu


def _is_power_of_x(h: ExactPoly) -> bool:
    return h.degree >= 1 and not any(h.num[:-1])


def _fraction_sqrt(m2: Fraction) -> Optional[Fraction]:
    num, den = math.isqrt(m2.numerator), math.isqrt(m2.denominator)
    if num * num == m2.numerator and den * den == m2.denominator:
        return Fraction(num, den)
    return None

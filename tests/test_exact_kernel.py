"""Equivalence of the int/common-denominator ``ExactMatrix`` and
``ExactPoly`` kernels with plain ``Fraction`` arithmetic.

Every operation is compared against a reference written here on lists of
``Fraction`` rows or coefficients, over random integer and rational
matrices of size 1-6 and polynomials of degree at most 6; the char and
minimal polynomials also at every size 1-17, against a reference on
int matrices over cleared denominators, where the power sums are
also compared with traces of repeated ``ExactMatrix`` products on
inputs that push the packed products' digit width.  The pairing orbits
``|L F^k|`` are compared with repeated products too, also on orbits
that return to L, at step counts past the return.  Matrix products
are also compared at every size 1-10, on both sides of the size where
they start to pack rows into ints, with digits of 8 bytes and wider and
with one right factor reused at several widths.  The minimal polynomial
also runs on conjugated block matrices with a repeated factor in the
char poly, and on tensor squares against a product of root products
built from power sums.  The example count is bounded and the
search derandomised, so the module's run time and outcome are fixed.
"""

from __future__ import annotations

import itertools
import math
import operator
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catentropy import exact_linalg
from catentropy.corpus import kronecker_quiver, linear_quiver
from catentropy.errors import DomainError
from catentropy.exact_linalg import (
    ExactMatrix,
    ExactPoly,
    _squared_moduli_poly,
    char_poly,
    cyclotomic_poly,
    entry_sum_sequence,
    exterior_power,
    growth_signature,
    min_poly,
    poly_gcd,
    squarefree_decomposition,
    tensor_product,
)
from catentropy.quiver_hereditary import coxeter_matrix, euler_form

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

ints = st.integers(-9, 9)
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def matrices(draw, entries=st.one_of(ints, rationals), size=None):
    n = size if size is not None else draw(st.integers(1, 6))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@st.composite
def derogatory_matrices(draw):
    """``U diag(blocks) U^-1`` whose char poly has a repeated factor: a
    companion block A twice, a Jordan-coupled ``[[A, I], [0, A]]`` or a
    scalar block, beside an optional scalar block.  U is a product of
    rational unitriangular matrices, or I: on block-diagonal input the gcd
    fold of ``min_poly`` reads more than one adjugate entry."""
    k = draw(st.integers(1, 3))
    cs = draw(st.lists(ints, min_size=k, max_size=k))
    a = [list(row) for row in ExactMatrix.companion(ExactPoly(cs + [1])).num]
    kind = draw(st.sampled_from(["repeated", "jordan", "scalar"]))
    if kind == "repeated":
        blocks = [ExactMatrix.from_rows(a)] * 2
    elif kind == "jordan":
        ident = [[int(i == j) for j in range(k)] for i in range(k)]
        zero = [[0] * k for _ in range(k)]
        blocks = [ExactMatrix.from_rows(
            [x + y for x, y in zip(a, ident)] + [x + y for x, y in zip(zero, a)]
        )]
    else:
        blocks = [ExactMatrix.identity(draw(st.integers(2, 4))).scale(draw(rationals))]
    room = 6 - sum(b.n for b in blocks)
    if room and draw(st.booleans()):
        blocks.append(ExactMatrix.identity(draw(st.integers(1, room))).scale(draw(ints)))
    d = ExactMatrix.block_diag(*blocks)
    n = d.n
    if draw(st.booleans()):
        entries = st.one_of(ints, rationals)
        lower, upper = (
            ExactMatrix.from_rows([
                [draw(entries) if side(i, j) else int(i == j) for j in range(n)]
                for i in range(n)
            ])
            for side in (operator.gt, operator.lt)
        )
        u = lower @ upper
        d = u @ d @ u.inverse()
    return [list(row) for row in d.rows]


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(1, 6))
    return draw(matrices(size=n)), draw(matrices(size=n))


# -- Fraction reference ------------------------------------------------------


def ref(rows):
    return [[Fraction(x) for x in row] for row in rows]


def ref_matmul(a, b):
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


def ref_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def ref_det(a):
    """Gaussian elimination over the rationals."""
    a = [list(row) for row in a]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def ref_inverse(a):
    """Gauss-Jordan over the rationals; None when singular."""
    n = len(a)
    aug = [list(row) + ident for row, ident in zip(a, ref_identity(n))]
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if piv is None:
            return None
        aug[k], aug[piv] = aug[piv], aug[k]
        aug[k] = [x / aug[k][k] for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def ref_min_poly_degree(a):
    """Rank of the flattened powers I, A, A^2, ...: the min poly degree."""
    n = len(a)
    basis = []
    power = ref_identity(n)
    for k in range(n + 1):
        vec = [x for row in power for x in row]
        for bvec, piv in basis:
            if vec[piv] != 0:
                f = vec[piv] / bvec[piv]
                vec = [x - f * y for x, y in zip(vec, bvec)]
        piv = next((i for i, x in enumerate(vec) if x != 0), None)
        if piv is None:
            return k
        basis.append((vec, piv))
        power = ref_matmul(power, a)
    raise AssertionError("powers up to n are dependent by Cayley-Hamilton")


def eval_poly_at_matrix(p, a):
    n = len(a)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p.coefficients):
        acc = ref_matmul(acc, a)
        for i in range(n):
            acc[i][i] += c
    return acc


# -- int reference over cleared denominators --------------------------------


def ref_cleared(rows):
    """``(A, d)``: the int matrix ``A = d M`` for d the lcm of the
    denominators of M's entries."""
    f = ref(rows)
    d = math.lcm(*[x.denominator for row in f for x in row])
    return [[int(x * d) for x in row] for row in f], d


def ref_int_matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def ref_int_det(a):
    """Fraction-free (Bareiss) elimination on an int matrix: every division
    by the previous pivot is exact, and the last pivot is the determinant."""
    a = [list(row) for row in a]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = p
    return sign * prev


def ref_int_min_poly_degree(a):
    """Rank of the flattened powers I, A, A^2, ... of an int matrix A, by
    fraction-free elimination with each kept row divided by its content."""
    n = len(a)
    basis = []
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(n + 1):
        vec = [x for row in power for x in row]
        for bvec, piv in basis:
            if vec[piv] != 0:
                c, e = bvec[piv], vec[piv]
                vec = [c * x - e * y for x, y in zip(vec, bvec)]
        piv = next((i for i, x in enumerate(vec) if x != 0), None)
        if piv is None:
            return k
        g = math.gcd(*vec)
        basis.append(([x // g for x in vec], piv))
        power = ref_int_matmul(power, a)
    raise AssertionError("powers up to n are dependent by Cayley-Hamilton")


def ref_int_poly_at_matrix(p, a, d):
    """``l d^deg p(A / d)`` for an int matrix A, by Horner, with l the
    common denominator of p's coefficients: an int matrix that is zero
    exactly when ``p(A / d)`` is."""
    cs = p.coefficients
    deg, n = len(cs) - 1, len(a)
    l = math.lcm(*[c.denominator for c in cs])
    acc = [[0] * n for _ in range(n)]
    for k in range(deg, -1, -1):
        acc = ref_int_matmul(acc, a)
        c = cs[k] * l * d ** (deg - k)
        assert c.denominator == 1
        for i in range(n):
            acc[i][i] += c.numerator
    return acc


def view(m: ExactMatrix):
    assert all(type(x) is Fraction for row in m.rows for x in row)
    return [list(row) for row in m.rows]


# -- representation ----------------------------------------------------------


@SETTINGS
@given(matrices())
def test_representation_is_normalised(rows):
    m = ExactMatrix.from_rows(rows)
    assert m.den >= 1
    assert math.gcd(m.den, *(x for row in m.num for x in row)) == 1
    assert all(type(x) is int for row in m.num for x in row)
    f = ref(rows)
    assert view(m) == f
    assert all(m.entry(i, j) == x for i, row in enumerate(f) for j, x in enumerate(row))
    assert m.is_integer == all(x.denominator == 1 for row in f for x in row)
    assert m.is_zero == all(x == 0 for row in rows for x in row)


@SETTINGS
@given(matrices())
def test_equal_matrices_built_differently_agree_in_eq_and_hash(rows):
    m = ExactMatrix.from_rows(rows)
    n = m.n
    same = [
        ExactMatrix.from_rows([[str(Fraction(x)) for x in row] for row in rows]),
        m.scale(6).scale(Fraction(1, 6)),
        m + ExactMatrix.zeros(n),
        ExactMatrix.identity(n) @ m,
        m.transpose().transpose(),
        -(-m),
        (m.scale(Fraction(1, 4)) + m.scale(Fraction(3, 4))),
        pickle.loads(pickle.dumps(m)),
    ]
    for other in same:
        assert other == m
        assert hash(other) == hash(m)
    assert len({m, *same}) == 1
    assert (m + ExactMatrix.identity(n)) != m


# -- arithmetic --------------------------------------------------------------


@SETTINGS
@given(matrix_pairs())
def test_binary_operations_match_fraction_reference(pair):
    ra, rb = pair
    a, b = ExactMatrix.from_rows(ra), ExactMatrix.from_rows(rb)
    fa, fb = ref(ra), ref(rb)
    assert view(a @ b) == ref_matmul(fa, fb)
    assert view(a * b) == ref_matmul(fa, fb)
    assert view(a + b) == [[x + y for x, y in zip(r, s)] for r, s in zip(fa, fb)]
    assert view(a - b) == [[x - y for x, y in zip(r, s)] for r, s in zip(fa, fb)]
    assert view(tensor_product(a, b)) == [
        [x * y for x in r for y in s] for r in fa for s in fb
    ]


@SETTINGS
@given(matrices(), rationals)
def test_unary_operations_match_fraction_reference(rows, c):
    m = ExactMatrix.from_rows(rows)
    f = ref(rows)
    n = m.n
    assert view(-m) == [[-x for x in row] for row in f]
    assert view(m.scale(c)) == [[c * x for x in row] for row in f]
    assert view(m.transpose()) == [list(col) for col in zip(*f)]
    assert m.trace() == sum(f[i][i] for i in range(n))
    assert m.entry_abs_sum() == sum(abs(x) for row in f for x in row)
    for result in (m.trace(), m.entry_abs_sum()):
        assert type(result) is Fraction


@SETTINGS
@given(matrices(), st.integers(0, 5))
def test_powers_match_fraction_reference(rows, k):
    m = ExactMatrix.from_rows(rows)
    expected = ref_identity(m.n)
    for _ in range(k):
        expected = ref_matmul(expected, ref(rows))
    assert view(m**k) == expected
    if ref_det(ref(rows)) != 0:
        inv = ref_inverse(ref(rows))
        expected = ref_identity(m.n)
        for _ in range(k):
            expected = ref_matmul(expected, inv)
        assert view(m**-k) == expected


def test_powers_match_repeated_products_and_square_only_while_bits_remain(monkeypatch):
    # M**k for k in -5..70 against k-fold @ (of the inverse for k < 0), at
    # sizes on both sides of the packed-product cut-over.  Square-and-
    # multiply needs bit_length(k) - 1 squarings and popcount(k) - 1
    # products: it starts from the lowest set bit's power, not from I, and
    # a square after the last bit would be the largest product and unused.
    rng = random.Random(70)
    for n, entries in [(2, (-2, 2)), (3, (-9, 9)), (6, (-1, 1)), (8, (-1, 1))]:
        rows = [[rng.randint(*entries) for _ in range(n)] for _ in range(n)]
        rows[0][0] = Fraction(rng.randint(1, 9), 4)
        m = ExactMatrix.from_rows(rows)
        if m.det() == 0:
            m = m + ExactMatrix.identity(n).scale(Fraction(1, 3))
        inv, matmul = m.inverse(), ExactMatrix.__matmul__
        expected = {0: ExactMatrix.identity(n)}
        for k in range(1, 71):
            expected[k] = expected[k - 1] @ m
        for k in range(1, 6):
            expected[-k] = expected[1 - k] @ inv
        for k, power in sorted(expected.items()):
            calls = []

            def spy(a, b):
                calls.append(b.n)
                return matmul(a, b)

            monkeypatch.setattr(ExactMatrix, "__matmul__", spy)
            got = m**k
            monkeypatch.undo()
            assert got == power, (n, k)
            products = max(abs(k).bit_length() - 1, 0) + max(bin(k).count("1") - 1, 0)
            assert len(calls) == products, (n, k)


# -- elimination and polynomials ---------------------------------------------


@SETTINGS
@given(st.one_of(matrices(entries=ints), matrices()))
def test_det_and_inverse_match_fraction_reference(rows):
    m = ExactMatrix.from_rows(rows)
    f = ref(rows)
    det = m.det()
    assert type(det) is Fraction
    assert det == ref_det(f)
    expected = ref_inverse(f)
    if expected is None:
        with pytest.raises(DomainError):
            m.inverse()
    else:
        inv = m.inverse()
        assert view(inv) == expected
        assert inv @ m == ExactMatrix.identity(m.n)


@SETTINGS
@given(matrices(entries=st.integers(-3, 3), size=3))
def test_singular_integer_matrices_keep_exact_types(rows):
    # Rank-deficient inputs exercise the pivot search of both eliminations.
    rows[2] = [x + y for x, y in zip(rows[0], rows[1])]
    m = ExactMatrix.from_rows(rows)
    assert type(m.det()) is Fraction and m.det() == 0
    with pytest.raises(DomainError):
        m.inverse()


@SETTINGS
@given(matrices(), st.integers(1, 3))
def test_exterior_power_entries_are_minors(rows, k):
    m = ExactMatrix.from_rows(rows)
    if k > m.n:
        return
    subsets = list(itertools.combinations(range(m.n), k))
    f = ref(rows)
    expected = [
        [ref_det([[f[i][j] for j in cset] for i in rset]) for cset in subsets]
        for rset in subsets
    ]
    assert view(exterior_power(m, k)) == expected


@SETTINGS
@given(st.one_of(matrices(), derogatory_matrices()))
def test_char_and_min_poly_match_fraction_reference(rows):
    m = ExactMatrix.from_rows(rows)
    f = ref(rows)
    n = m.n
    p = char_poly(m)
    assert p.degree == n and p.leading == 1
    # det(xI - M) at n + 1 points determines a monic degree-n polynomial.
    for x in range(n + 1):
        shifted = [[x * (i == j) - f[i][j] for j in range(n)] for i in range(n)]
        assert p(Fraction(x)) == ref_det(shifted)
    q = min_poly(m)
    assert q.leading == 1
    assert all(type(c) is Fraction for c in q.coefficients)
    assert q.degree == ref_min_poly_degree(f)
    assert all(x == 0 for row in eval_poly_at_matrix(q, f) for x in row)
    assert divmod(p, q)[1].is_zero


@pytest.mark.parametrize("n", range(1, 18))
def test_char_and_min_poly_match_fraction_reference_at_each_size(n):
    # The power sums take baby steps N^1..N^r, r = ceil(sqrt n), and giant
    # steps N^r, N^2r, ...; sizes 1-17 cover each n = r^2 and n = r^2 + 1.
    # The reference runs on A = d M over cleared denominators, all in ints:
    # det(xI - M) = det(x d I - A) / d^n, the powers of A span the same
    # space as those of M, and q(M) = 0 iff its cleared form at A is 0.
    rng = random.Random(n)
    for entry in (lambda: rng.randint(-9, 9),
                  lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))):
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        m, (a, d) = ExactMatrix.from_rows(rows), ref_cleared(rows)
        p = char_poly(m)
        assert p.degree == n and p.leading == 1
        for x in range(n + 1):
            shifted = [[x * d * (i == j) - a[i][j] for j in range(n)] for i in range(n)]
            assert p(Fraction(x)) == Fraction(ref_int_det(shifted), d**n)
        q = min_poly(m)
        assert q.leading == 1 and q.degree == ref_int_min_poly_degree(a)
        assert all(x == 0 for row in ref_int_poly_at_matrix(q, a, d) for x in row)


@pytest.mark.parametrize("n", range(1, 18))
def test_power_sums_match_repeated_products_at_packing_widths(n):
    # Each packed product sizes its digits from n max|A| max|B|.  Constant
    # matrices reach that bound in every entry of every power (c J)^k =
    # c^k n^(k-1) J; with c < 0 every other power has only negative
    # digits, which borrow from their neighbours.  c = 2 and c = -128 make
    # every bound a power of 2 when n is one.
    rng = random.Random(n)
    huge = 10**30
    cases = [[[c] * n for _ in range(n)] for c in (0, 1, -1, -3, -7, 2, -128)]
    cases += [
        [[rng.choice((-huge, huge)) for _ in range(n)] for _ in range(n)],
        [[rng.randint(-huge, huge) for _ in range(n)] for _ in range(n)],
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
         for _ in range(n)],
    ]
    for rows in cases:
        m = ExactMatrix.from_rows(rows)
        num = ExactMatrix(m.num)
        expected, power = [n], num
        for _ in range(n):
            expected.append(power.trace())
            power = power @ num
        assert exact_linalg._power_sums(m) == expected


def _char_int(f: ExactMatrix) -> list:
    """The monic int char poly of the int matrix F, lowest degree first."""
    return exact_linalg._from_power_sums(exact_linalg._power_sums(f))


def _orbit_by_products(left: ExactMatrix, f: ExactMatrix, steps: int) -> list:
    """``|L F^k|``, k = 1..steps, row-major, by repeated ``@``."""
    out, power = [], left
    for _ in range(steps):
        power = power @ f
        out.append([abs(x) for row in power.rows for x in row])
    return out


def _return_step(left: ExactMatrix, f: ExactMatrix, steps: int) -> int:
    """The first k <= steps with ``L F^k == L`` by repeated ``@``, else steps."""
    power = left
    for k in range(1, steps + 1):
        power = power @ f
        if power == left:
            return k
    return steps


def _orbit_widths(monkeypatch, left: ExactMatrix, f: ExactMatrix, steps: int):
    """``|L F^k|``, k = 1..steps, from ``_abs_orbit`` as Fractions, and the
    digit width in bytes of each packing of its n^2 digits (the power sums'
    products pack n digits, and none at n = 1)."""
    widths, offset = [], exact_linalg._digit_offset

    def spy(wb, count):
        if count == f.n**2:
            widths.append(wb)
        return offset(wb, count)

    c = _char_int(f)
    monkeypatch.setattr(exact_linalg, "_digit_offset", spy)
    nums = exact_linalg._abs_orbit(left, f, c, steps)
    monkeypatch.undo()
    return [[Fraction(x, left.den) for x in t] for t in nums], widths


@pytest.mark.parametrize("n", range(1, 9))
def test_abs_orbit_matches_repeated_products(monkeypatch, n):
    # Random int F in [-3, 3] grows past 8-byte digits within the steps
    # taken; [-1, 1] mostly stays inside them.  The nilpotent shift has
    # char poly x^n, -I has (x + 1)^n.  L is random, zero, rational
    # (den > 1) or has entries above 2^63, which the first packing must
    # already fit.  Every steps < n stops inside the initial products; the
    # orbit of steps >= n packs, whether it returns to L (L = 0 at step 1,
    # -I at step 2) or not, and runs every step.
    rng = random.Random(n)

    def rand(draw):
        return [[draw() for _ in range(n)] for _ in range(n)]

    fs = [
        rand(lambda: rng.randint(-3, 3)),
        rand(lambda: rng.randint(-1, 1)),
        [[int(j == i + 1) for j in range(n)] for i in range(n)],
        [[-int(j == i) for j in range(n)] for i in range(n)],
    ]
    lefts = [
        rand(lambda: rng.randint(-9, 9)),
        [[0] * n for _ in range(n)],
        rand(lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))),
        rand(lambda: rng.choice((-1, 1)) * rng.randint(2**63, 2**90)),
    ]
    for f_rows in fs:
        f = ExactMatrix.from_rows(f_rows)
        for left_rows in lefts:
            left = ExactMatrix.from_rows(left_rows)
            for steps in [*range(n), 3 * n + 24]:
                got, widths = _orbit_widths(monkeypatch, left, f, steps)
                assert got == _orbit_by_products(left, f, steps), (steps, widths)
                assert all(b >= 2 * a for a, b in zip(widths, widths[1:]))
                assert (not widths) == (steps < n) and min(widths, default=8) >= 8
                if widths and left_rows is lefts[-1]:
                    assert widths[0] > 8


def test_abs_orbit_widens_its_digits_on_hyperbolic_growth(monkeypatch):
    # The Coxeter matrix of the 3-Kronecker quiver and [[2, 1], [1, 1]]
    # have spectral radius about 6.85 and 2.62: over 400 steps their
    # entries pass 2^1000 and 2^550, so the digits widen at least twice
    # past their first 8 bytes.  A rational L (den 3) goes along.
    for f_rows, left_rows in [
        ([[-1, 3], [-3, 8]], [[1, -3], [0, 1]]),
        ([[2, 1], [1, 1]], [["1/3", "-2/3"], [0, "5/3"]]),
    ]:
        f, left = ExactMatrix.from_rows(f_rows), ExactMatrix.from_rows(left_rows)
        got, widths = _orbit_widths(monkeypatch, left, f, 400)
        assert got == _orbit_by_products(left, f, 400)
        assert widths[0] == 8 and len(widths) >= 3, widths
        assert all(b >= 2 * a for a, b in zip(widths, widths[1:]))


def _unimodular_conjugate(rng: random.Random, f: ExactMatrix) -> ExactMatrix:
    """``U F U^-1`` for U a product of random int unitriangular matrices."""
    n = f.n
    lower, upper = (
        ExactMatrix.from_rows([
            [rng.randint(-2, 2) if side(i, j) else int(i == j) for j in range(n)]
            for i in range(n)
        ])
        for side in (operator.gt, operator.lt)
    )
    u = lower @ upper
    return u @ f @ u.inverse()


def _periodic_orbit_cases() -> list:
    """``(L, F, p)`` with ``L F^p == L`` first at step p.  Every orientation
    of A1-A6 with L its Euler form and F its Coxeter matrix, of order n + 1.
    Companion matrices of cyclotomic polynomials Phi_d, alone (order d,
    size phi(d) <= d) and as blocks whose order is below, at or above
    size n, conjugated by a unimodular U so that no entry is structural.
    Permutation matrices of one n-cycle and of two and three cycles.  And
    singular L: ``L F^p == L`` with ``F^p != I``, and L = 0 (p = 1)."""
    rng = random.Random(23)
    cases = []
    for n in range(1, 7):
        for o in range(2 ** (n - 1)):
            q = linear_quiver(n, o)
            cases.append((euler_form(q).gram, coxeter_matrix(q), n + 1))
    cyc = {d: ExactMatrix.companion(cyclotomic_poly(d)) for d in range(1, 13)}
    for d in range(1, 13):
        cases.append((ExactMatrix.identity(cyc[d].n), cyc[d], d))
    for ds, p in [((2, 2, 1), 2), ((4, 1, 1, 2), 4), ((3, 3, 1, 1), 3),
                  ((6, 3, 2, 1), 6), ((5, 1, 2), 10), ((4, 3), 12)]:
        f = _unimodular_conjugate(rng, ExactMatrix.block_diag(*[cyc[d] for d in ds]))
        n = f.n
        left = ExactMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        cases.append((left, f, p))
    for cycles, p in [((7,), 7), ((4, 3), 12), ((3, 2, 2), 6), ((2, 2, 1, 1, 1), 2)]:
        perm = list(range(7))
        start = 0
        for c in cycles:
            block = perm[start : start + c]
            perm[start : start + c] = block[1:] + block[:1]
            start += c
        f = ExactMatrix.from_rows([[int(j == perm[i]) for j in range(7)] for i in range(7)])
        cases.append((ExactMatrix.from_rows([[i * 7 + j for j in range(7)] for i in range(7)]), f, p))
    # F = Phi_2 + Phi_7 blocks has order 14; a rank-one L that reads only
    # the Phi_2 block returns at 2, one that reads only Phi_7 at 7 = n.
    f = ExactMatrix.block_diag(cyc[2], cyc[7])
    assert f**2 != ExactMatrix.identity(7) != f**7
    only = [[3] + [0] * 6] + [[0] * 7] * 6
    cases.append((ExactMatrix.from_rows(only), f, 2))
    cases.append((ExactMatrix.from_rows([[0, 1, -2, 0, 5, 0, 1]] + [[0] * 7] * 6), f, 7))
    cases.append((ExactMatrix.zeros(4), _unimodular_conjugate(rng, cyc[5]), 1))
    # L = c I under a dense F of order 12 whose powers F^0..F^4 reach 99
    # and F^5..F^11 reach 135.  Its char poly (x^4 - x^2 + 1)(x - 1) has
    # |c|_1 = 6, so c is the largest scale at which the first five terms
    # fit 8-byte digits: the orbit widens before it returns, and its terms
    # past the widening must still be those of the products.
    f = _unimodular_conjugate(random.Random(1), ExactMatrix.block_diag(cyc[12], cyc[1]))
    cases.append((ExactMatrix.identity(5).scale((2**63 - 1) // 6 // 99), f, 12))
    return cases


def test_abs_orbit_runs_every_step_past_the_orbit_return(monkeypatch):
    # The orbit returns at p in the initial products (p <= n - 1), at the
    # first recurrence term (p = n) and later; steps run from 0 past p + 1,
    # and every term is that of the products, also past the widening.
    seen, widened = set(), False
    for left, f, p in _periodic_orbit_cases():
        n = f.n
        assert _return_step(left, f, 4 * p) == p
        seen.add((p < n, p == n, p > n))
        widened |= len(_orbit_widths(monkeypatch, left, f, p)[1]) > 1
        whole = _orbit_by_products(left, f, 2 * p + 2)
        for steps in range(2 * p + 3):
            nums = exact_linalg._abs_orbit(left, f, _char_int(f), steps)
            got = [[Fraction(x, left.den) for x in t] for t in nums]
            assert got == whole[:steps], (left, f, steps)
    assert len(seen) == 3 and widened


def test_abs_orbit_runs_every_step_on_kronecker_coxeter_matrices():
    # Phi of K2 is unipotent and Phi of K3 hyperbolic: neither returns.
    for m in (2, 3):
        q = kronecker_quiver(m)
        left, f = euler_form(q).gram, coxeter_matrix(q)
        nums = exact_linalg._abs_orbit(left, f, _char_int(f), 400)
        assert len(nums) == 400
        assert nums == [[int(x) for x in t] for t in _orbit_by_products(left, f, 400)]


def test_abs_orbit_on_the_min_poly_matches_the_char_poly_orbit():
    # The orbit recurs on any monic c with c(F) = 0; on the min poly mu its
    # window holds deg mu terms, not n.  Derogatory F: two copies of a
    # companion block (deg mu = 3 of n = 6), also conjugated, and a Jordan
    # block beside a scalar one.  Scalar F = c I (deg mu = 1), where -I
    # returns at step 2.  Finite order: C(Phi_3) twice, conjugated, returns
    # at 3 = deg mu + 1; C(Phi_5) twice beside C(Phi_1) returns at 5 =
    # deg mu.  Step counts run from 0, below deg mu, past the return.
    rng = random.Random(25)
    a = ExactMatrix.companion(ExactPoly([2, 0, 2, 1]))
    cyc3, cyc5 = (ExactMatrix.companion(cyclotomic_poly(d)) for d in (3, 5))
    fs = [
        (ExactMatrix.block_diag(a, a), 3),
        (_unimodular_conjugate(rng, ExactMatrix.block_diag(a, a)), 3),
        (ExactMatrix.block_diag(ExactMatrix.from_rows([[2, 1], [0, 2]]),
                                ExactMatrix.from_rows([[2]])), 2),
        (ExactMatrix.identity(4).scale(3), 1),
        (ExactMatrix.identity(3).scale(-1), 1),
        (_unimodular_conjugate(rng, ExactMatrix.block_diag(cyc3, cyc3)), 2),
        (_unimodular_conjugate(rng, ExactMatrix.block_diag(cyc5, cyc5, ExactMatrix.identity(1))), 5),
    ]
    for f, degree in fs:
        n = f.n
        mu = exact_linalg._min_poly_int(f)[0]
        assert len(mu) - 1 == degree < n and mu[-1] == 1
        left = ExactMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        p = _return_step(left, f, 41)  # 41: no return within 40 steps
        whole = _orbit_by_products(left, f, 40)
        for steps in sorted({*range(degree + 2), min(p, 40), min(p + 1, 40), 40}):
            got = exact_linalg._abs_orbit(left, f, mu, steps)
            assert got == exact_linalg._abs_orbit(left, f, _char_int(f), steps)
            assert got == whole[:steps], (f, steps)
    assert [_return_step(ExactMatrix.identity(f.n), f, 40) for f, _ in fs[4:]] == [2, 3, 5]


def test_entry_sum_sequence_matches_repeated_products():
    # The float entry sums of M, M^2, ... by repeated ``@``, as the oracle
    # loops built them, for int and rational M of size 1-8, every periodic
    # F of the orbit tests, and rational M whose int orbit returns while
    # M's powers shrink: I / 2 and a permutation over 3.  Step counts
    # below, at and past n.
    rng = random.Random(24)
    mats = [f for _, f, _ in _periodic_orbit_cases()]
    for n in range(1, 9):
        mats.append(ExactMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]))
        mats.append(ExactMatrix.from_rows(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        ))
    mats += [
        ExactMatrix.identity(3).scale(Fraction(1, 2)),
        ExactMatrix.from_rows([[0, Fraction(1, 3), 0], [0, 0, Fraction(1, 3)], [Fraction(1, 3), 0, 0]]),
        ExactMatrix.zeros(2),
    ]
    for m in mats:
        power, expected = m, []
        for _ in range(40):
            expected.append(float(power.entry_abs_sum()))
            power = power @ m
        for steps in (1, m.n, m.n + 1, 40):
            got = entry_sum_sequence(m, steps)
            assert got == expected[:steps], (m, steps)
            assert all(type(x) is float for x in got)


# -- packed products ---------------------------------------------------------


def _decoder_widths(monkeypatch) -> list:
    """Record the digit width in bytes of every packed product's decoder."""
    widths, decoder = [], exact_linalg._decoder

    def spy(count, wb, off):
        widths.append(wb)
        return decoder(count, wb, off)

    monkeypatch.setattr(exact_linalg, "_decoder", spy)
    return widths


def _constant(n: int, c) -> list:
    return [[c] * n for _ in range(n)]


@pytest.mark.parametrize("n", range(1, 11))
def test_matmul_matches_dot_products_on_both_sides_of_the_cut_over(monkeypatch, n):
    # Products of size below _PACKED_FROM take dot products and decode
    # nothing; from there on every product is packed, and each fresh
    # right factor (b, then a in a @ a) makes one decoder.  Entries of 10^30
    # need digits wider than 8 bytes.  (c J)(d J) = n c d J puts every
    # digit at the bound n |c| |d| the width is sized from: c = d = edge
    # gives a bound just below 2^63 (8-byte digits), c = -d negative
    # digits at it, and c = edge + 1 a bound past it (9 bytes).
    rng = random.Random(100 + n)
    huge, edge = 10**30, math.isqrt((2**63 - 1) // n)
    assert n * edge**2 < 2**63 <= n * (edge + 1) ** 2

    def rand(draw):
        return [[draw() for _ in range(n)] for _ in range(n)]

    mats = [
        rand(lambda: rng.randint(-9, 9)),
        _constant(n, 0),
        rand(lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))),
        rand(lambda: rng.choice((-huge, huge))),
        rand(lambda: rng.randint(-huge, huge)),
    ]
    pairs = [(a, b) for a in mats for b in mats]
    pairs += [
        (_constant(n, edge), _constant(n, edge)),
        (_constant(n, edge), _constant(n, -edge)),
        (_constant(n, -edge - 1), _constant(n, edge + 1)),
    ]
    widths = _decoder_widths(monkeypatch)
    for ra, rb in pairs:
        a, b = ExactMatrix.from_rows(ra), ExactMatrix.from_rows(rb)
        assert view(a @ b) == ref_matmul(ref(ra), ref(rb))
        assert view(a @ a) == ref_matmul(ref(ra), ref(ra))
    if n < exact_linalg._PACKED_FROM:
        assert widths == []
    else:
        assert len(widths) == 2 * len(pairs)
        assert widths[-6:] == [8, 8, 8, 8, 9, 9]
        assert max(widths) > 9


def test_matmul_keeps_one_packing_of_the_right_factor_per_width(monkeypatch):
    # One 8x8 right factor against left factors whose largest entry grows
    # from 1 to 10^40 and falls back: B is packed again exactly when the
    # product's digit width changes, and every product is still exact.
    n, rng = 8, random.Random(7)
    b_rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    b = ExactMatrix.from_rows(b_rows)
    packs, pack = [], exact_linalg._pack

    def spy(xs, count, wb, off):
        packs.append(wb)
        return pack(xs, count, wb, off)

    monkeypatch.setattr(exact_linalg, "_pack", spy)
    widths = []
    for e in (0, 0, 10, 20, 40, 40, 20, 0, 40):
        a_rows = [[rng.randint(-(10**e), 10**e) for _ in range(n)] for _ in range(n)]
        assert view(ExactMatrix.from_rows(a_rows) @ b) == ref_matmul(ref(a_rows), ref(b_rows))
        widths.append(b._packed[1])
    assert widths[0] == 8 and widths[1:5] == sorted(widths[1:5]) and widths[4] > 16
    assert widths[5:8] == sorted(widths[5:8], reverse=True) and widths[7] == 8
    changes = [w for i, w in enumerate(widths) if i == 0 or w != widths[i - 1]]
    assert packs == changes


def test_kept_packing_changes_no_visible_property():
    rows = [[Fraction((3 * i - j) % 7 - 3, 1 + (i + j) % 4) for j in range(8)]
            for i in range(8)]
    m, twin = ExactMatrix.from_rows(rows), ExactMatrix.from_rows(rows)
    square = m @ m
    assert m._packed is not None and twin._packed is None
    assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)
    assert str(m) == str(twin) and view(m) == view(twin) == ref(rows)
    assert pickle.dumps(m) == pickle.dumps(twin)
    back = pickle.loads(pickle.dumps(m))
    assert back == m and back._packed is None
    assert back @ back == square == twin @ twin
    with pytest.raises(AttributeError):
        m._packed = None


@pytest.mark.parametrize("wb", [8, 9, 16])
def test_pack_and_decode_round_trip_the_extreme_digits(wb):
    # Digits run over the whole balanced range [-2^(w-1), 2^(w-1)), w =
    # 8 wb, with runs of 3 digits per packed int.
    top, rng = 1 << (8 * wb - 1), random.Random(wb)
    xs = [-top, top - 1, 0, -1, 1, -top, top - 1, top - 1, -top]
    xs += [rng.randint(-top, top - 1) for _ in range(12)]
    count, off = 3, exact_linalg._digit_offset(wb, 3)
    packed = exact_linalg._pack(xs, count, wb, off)
    assert packed == [
        sum(x << (8 * wb * j) for j, x in enumerate(xs[s : s + count]))
        for s in range(0, len(xs), count)
    ]
    decode = exact_linalg._decoder(count, wb, off)
    assert [decode(x) for x in packed] == [
        tuple(xs[s : s + count]) for s in range(0, len(xs), count)
    ]


def _conjugated(d: ExactMatrix) -> ExactMatrix:
    """``U d U^-1`` for a fixed integer unitriangular U."""
    n = d.n
    u = ExactMatrix.from_rows(
        [[(i + 2 * j) % 3 - 1 if j > i else int(i == j) for j in range(n)]
         for i in range(n)]
    )
    return u @ d @ u.inverse()


def _rows_and_gcds(monkeypatch, m: ExactMatrix) -> tuple[int, int, ExactPoly]:
    """The adjugate rows ``min_poly(m)`` builds, the rational gcds it and
    ``squarefree_decomposition`` of its result make, and the min poly."""
    rows, gcds = [], []

    def row_spy(a, f, i):
        rows.append(i)
        return row_builder(a, f, i)

    def gcd_spy(a, b):
        gcds.append((a, b))
        return gcd(a, b)

    row_builder, gcd = exact_linalg._adjugate_row, exact_linalg.poly_gcd
    monkeypatch.setattr(exact_linalg, "_adjugate_row", row_spy)
    monkeypatch.setattr(exact_linalg, "poly_gcd", gcd_spy)
    p = min_poly(m)
    squarefree_decomposition(p)
    monkeypatch.undo()
    assert rows == list(range(len(rows)))
    return len(rows), len(gcds), p


def test_min_poly_builds_adjugate_rows_only_while_the_gcd_can_fall(monkeypatch):
    # A = C(x^3 + 2x^2 + 2).  A squarefree char poly needs no adjugate row,
    # and the gcd modulo a prime proves it squarefree without a rational
    # gcd; a Jordan-coupled [[A, I], [0, A]] has d_{n-1} = 1, found in its
    # first row; block_diag(A, A) has d_{n-1} = char poly of A, and every
    # row is read to confirm it.  Each derogatory input still reaches
    # Euclid.
    f = ExactPoly([2, 0, 2, 1])
    a = ExactMatrix.companion(f)
    ident, zero = ExactMatrix.identity(3), ExactMatrix.zeros(3)
    jordan = ExactMatrix(
        tuple([ra + ri for ra, ri in zip(a.num, ident.num)]
              + [rz + ra for rz, ra in zip(zero.num, a.num)])
    )
    p, q = ExactPoly([1, 4, 2, -4, 1]), ExactPoly([1, 0, 6, 0, 1])
    tie = ExactMatrix.block_diag(  # C((x^2 - 2x - 1)^2) + C(x^4 + 6x^2 + 1)
        ExactMatrix.companion(p), ExactMatrix.companion(q)
    )
    for m, rows, derogatory, expected in [
        (a, 0, False, f),
        (_conjugated(ExactMatrix.block_diag(a, a.scale(2))), 0, False,
         f * ExactPoly([16, 0, 4, 1])),
        (jordan, 1, True, f * f),
        (_conjugated(jordan), 1, True, f * f),
        (_conjugated(tie), 1, True, p * q),
        (ExactMatrix.block_diag(a, a), 6, True, f),
    ]:
        built, gcds, mp = _rows_and_gcds(monkeypatch, m)
        assert built == rows
        assert (gcds > 0) == derogatory
        assert mp == expected
        assert mp.degree == ref_min_poly_degree(ref(m.rows))


def test_growth_signature_certifies_a_squarefree_char_poly_once(monkeypatch):
    # A squarefree char poly f is its own min poly and one squarefree part:
    # the analysis proves gcd(f, f') = 1 once and runs no Yun split.  Int,
    # rational and numerically isolated spectra; a derogatory input, whose
    # min poly is split by Yun, certifies f and then its min poly.
    certified, parts = [], []
    coprime, yun = exact_linalg._coprime, exact_linalg.squarefree_decomposition

    def coprime_spy(a, b):
        if list(b) == exact_linalg._derivative(a):
            certified.append(list(a))
        return coprime(a, b)

    monkeypatch.setattr(exact_linalg, "_coprime", coprime_spy)
    monkeypatch.setattr(
        exact_linalg, "squarefree_decomposition", lambda p: parts.append(p) or yun(p)
    )
    a = ExactMatrix.companion(ExactPoly([2, 0, 2, 1]))
    for m, count in [
        (ExactMatrix.from_rows([[2, 1], [1, 1]]), 1),
        (ExactMatrix.from_rows([[0, -1], [1, 0]]), 1),
        (a, 1),
        (ExactMatrix.from_rows([["1/2", 3], [1, "-2/3"]]), 1),
        (_conjugated(ExactMatrix.block_diag(a, a.scale(2))), 1),
        (ExactMatrix.block_diag(a, a), 2),
    ]:
        certified.clear()
        parts.clear()
        growth_signature(m)
        assert len(certified) == count and len(parts) == count - 1, m


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_min_poly_of_tensor_square_is_the_product_of_distinct_root_products(n):
    # a (x) a has each a_i a_j with i != j twice, so its char poly is never
    # squarefree; for generic a its min poly is prod_{i <= j} (x - a_i a_j),
    # built here from power sums of char_poly(a), not from a (x) a.
    rng = random.Random(n)
    a = ExactMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    expected = ExactPoly(_squared_moduli_poly(char_poly(a).num))
    assert poly_gcd(expected, expected.derivative()).degree == 0
    assert min_poly(tensor_product(a, a)) == expected


# -- polynomial kernel -------------------------------------------------------

coefficient_lists = st.lists(st.one_of(ints, rationals), max_size=7)


def ref_poly(cs):
    """Fraction coefficients, lowest degree first, without trailing zeros."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_combine(a, b, op):
    zero = Fraction(0)
    return ref_poly([op(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=zero)])


def ref_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_poly(out)


def ref_divmod(a, b):
    """Long division over the rationals, b nonzero."""
    rem = list(a)
    quot = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return ref_poly(quot), ref_poly(rem)


def ref_gcd(a, b):
    """Monic Euclid over the rationals."""
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def pview(p: ExactPoly):
    """The Fraction coefficients of p, after checking its representation."""
    assert all(type(x) is int for x in p.num) and type(p.den) is int
    assert p.den >= 1 and math.gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    assert all(type(c) is Fraction for c in p.coefficients)
    assert p.degree == len(p.num) - 1
    return list(p.coefficients)


@SETTINGS
@given(
    st.lists(ints, min_size=1, max_size=4),
    st.lists(ints, max_size=4),
    st.lists(ints, min_size=1, max_size=3),
    st.sampled_from([2, 3, 5, 32749]),
)
def test_gcd_degree_mod_never_undercuts_the_rational_gcd(cu, cv, cg, q):
    # The coprimality certificate is sound: modulo a prime not dividing
    # lead(a), a = u g and b = v g keep a gcd of at least deg gcd(a, b).
    g = ExactPoly(cg)
    a, b = ExactPoly(cu) * g, ExactPoly(cv) * g
    assume(not a.is_zero and a.num[-1] % q)
    assert exact_linalg._gcd_degree_mod(a.num, b.num, q) >= poly_gcd(a, b).degree


@SETTINGS
@given(coefficient_lists, coefficient_lists, rationals)
def test_poly_operations_match_fraction_reference(ca, cb, x):
    a, b = ExactPoly.from_coefficients(ca), ExactPoly.from_coefficients(cb)
    fa, fb = ref_poly(ca), ref_poly(cb)
    assert pview(a) == fa
    assert [a[k] for k in range(len(fa) + 2)] == fa + [0, 0]
    assert pview(a + b) == ref_combine(fa, fb, operator.add)
    assert pview(a - b) == ref_combine(fa, fb, operator.sub)
    assert pview(a * b) == ref_mul(fa, fb)
    assert pview(a.derivative()) == ref_poly([k * c for k, c in enumerate(fa)][1:])
    assert pview(a.reflect()) == [-c if k % 2 else c for k, c in enumerate(fa)]
    assert pview(a.monic()) == [c / fa[-1] for c in fa]
    value = a(x)
    assert type(value) is Fraction
    assert value == sum((c * x**k for k, c in enumerate(fa)), Fraction(0))
    assert pview(poly_gcd(a, b)) == ref_gcd(fa, fb)
    if fb:
        q, r = divmod(a, b)
        rq, rr = ref_divmod(fa, fb)
        assert (pview(q), pview(r)) == (rq, rr)
        assert pview((a * b).exact_div(b)) == fa
        if rr:
            with pytest.raises(ArithmeticError):
                a.exact_div(b)
        else:
            assert pview(a.exact_div(b)) == rq


@SETTINGS
@given(coefficient_lists)
def test_equal_polynomials_built_differently_agree_in_eq_and_hash(cs):
    p = ExactPoly.from_coefficients(cs)
    same = [
        ExactPoly.from_coefficients([str(Fraction(c)) for c in cs] + [0, 0]),
        ExactPoly([6 * c for c in p.num] + [0], 6 * p.den),
        ExactPoly([-c for c in p.num], -p.den),
        p.scale(6).scale(Fraction(1, 6)),
        p + ExactPoly.zero(),
        p * ExactPoly.one(),
        -(-p),
        p.reflect().reflect(),
        p.scale(Fraction(1, 4)) + p.scale(Fraction(3, 4)),
        (p * ExactPoly.from_coefficients([Fraction(1, 2), 3])).exact_div(
            ExactPoly.from_coefficients([1, 6])
        ).scale(2),
        pickle.loads(pickle.dumps(p)),
    ]
    for other in same:
        assert other == p
        assert hash(other) == hash(p)
        assert repr(other) == repr(p) and str(other) == str(p)
    assert len({p, *same}) == 1
    assert p + ExactPoly.one() != p


#: One ExactMatrix or ExactPoly entry point each, called 20,000 times in a
#: fresh process.
ALLOCATION_CALLS = {
    "init": "ExactMatrix(((2, 4), (6, 8)), -6)",
    "from_rows": "ExactMatrix.from_rows(rows)",
    "block_diag": "ExactMatrix.block_diag(m, m)",
    "neg": "-m",
    "matmul": "m @ m",
    "matmul_packed": "m8 @ m8",
    "add": "m + m",
    "sub": "m - m",
    "scale": "m.scale(Fraction(2, 3))",
    "transpose": "m.transpose()",
    "inverse": "m.inverse()",
    "identity": "ExactMatrix.identity(2)",
    "zeros": "ExactMatrix.zeros(2)",
    "tensor_product": "tensor_product(m, m)",
    "exterior_power": "exterior_power(m, 1)",
    "poly_from_coefficients": "ExactPoly.from_coefficients(coeffs)",
    "poly_add": "p + p",
    "poly_mul": "p * p",
    "poly_divmod": "divmod(p, q)",
    "poly_monic": "p.monic()",
    "poly_coefficients": "p.coefficients",
    "poly_neg": "-p",
    "poly_reflect": "p.reflect()",
    "poly_scale": "p.scale(Fraction(2, 3))",
    "char_poly": "char_poly(m)",
    "min_poly": "min_poly(m)",
}


@pytest.mark.parametrize("call", sorted(ALLOCATION_CALLS))
def test_constructors_keep_no_spare_tuples(call):
    # tuple(generator), and f(*generator) as the only star argument, build
    # a tuple of a guessed size and shrink it, so CPython's free list for
    # the final size fills (to 2,000 tuples per size) but is never drawn
    # from.  Built from a list, each tuple has its exact size at once.
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from catentropy.exact_linalg import (\n"
        "    ExactMatrix, ExactPoly, char_poly, exterior_power, min_poly,\n"
        "    tensor_product)\n"
        "rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(2, 5), 1]]\n"
        "m = ExactMatrix.from_rows(rows)\n"
        "coeffs = [Fraction(1, 2), 3, Fraction(2, 5)]\n"
        "p = ExactPoly.from_coefficients(coeffs)\n"
        "q = ExactPoly.from_coefficients([Fraction(1, 3), 1])\n"
        "m8 = ExactMatrix.from_rows(\n"
        "    [[Fraction(i - j, 1 + i + j) for j in range(8)] for i in range(8)])\n"
        "before = sys.getallocatedblocks()\n"
        "for _ in range(20000):\n"
        "    %s\n"
        "print(sys.getallocatedblocks() - before)\n" % ALLOCATION_CALLS[call]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 300

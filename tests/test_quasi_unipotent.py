"""Properties of the quasi-unipotence order read off the exact root split.

Matrices are ``U J U^-1`` with ``J`` block-diagonal from companion
matrices of powers ``Phi_d^j`` of cyclotomic polynomials and ``U``
unimodular, so the order (the lcm of the ``d``) and the growth exponent
(the largest ``j`` minus one) are known by construction.  Sizes are at
most 6 (7 with an extra block, 16 for a tensor product of two of size
at most 4); the example count is bounded and the search derandomised.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from catentropy.exact_linalg import (
    ExactMatrix,
    cyclotomic_poly,
    euler_phi,
    growth_signature,
    nilpotency_index,
    quasi_unipotent_order,
    tensor_product,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

MAX_SIZE = 6
ORDERS = [d for d in range(1, 2 * MAX_SIZE * MAX_SIZE + 1) if euler_phi(d) <= MAX_SIZE]


@st.composite
def cyclotomic_blocks(draw, size=MAX_SIZE):
    """(d, j) pairs whose companion blocks C(Phi_d^j) fill at most size."""
    blocks: list[tuple[int, int]] = []
    budget = size
    orders = [d for d in ORDERS if euler_phi(d) <= size]
    wanted = st.tuples(st.sampled_from(orders), st.integers(1, 3))
    for d, j in draw(st.lists(wanted, min_size=1, max_size=4)):
        j = min(j, budget // euler_phi(d))
        if j:
            blocks.append((d, j))
            budget -= euler_phi(d) * j
    return blocks


@st.composite
def unimodular(draw, n):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from((-1, 1))
    )
    for i, j, c in draw(st.lists(ops, max_size=6)):
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return ExactMatrix.from_rows(rows)


def companion_blocks(*blocks):
    """(J, blocks) for J the block sum of the companion matrices C(Phi_d^j)."""
    j_mat = ExactMatrix.block_diag(
        *[ExactMatrix.companion(cyclotomic_poly(d) ** j) for d, j in blocks]
    )
    return j_mat, list(blocks)


@st.composite
def quasi_unipotent(draw, size=MAX_SIZE):
    """(M, blocks) with M = U J U^-1 integer, of size at most size."""
    blocks = draw(cyclotomic_blocks(size))
    j_mat, _ = companion_blocks(*blocks)
    u = draw(unimodular(j_mat.n))
    return u @ j_mat @ u.inverse(), blocks


@given(quasi_unipotent())
@example(companion_blocks((2, 2)))  # the integer root -1 has order 2
@example(companion_blocks((4, 1), (6, 1)))  # lcm 12, not the product 24
@SETTINGS
def test_order_is_lcm_of_block_orders_and_exponent_is_top_power(case):
    m, blocks = case
    k = math.lcm(*(d for d, _ in blocks))
    sig = growth_signature(m)
    assert sig.quasi_unipotent_k == k == quasi_unipotent_order(m)
    assert sig.s == max(j for _, j in blocks) - 1
    assert sig.rho_exact == 1 and sig.rho_interval == (1, 1)


@given(quasi_unipotent())
@SETTINGS
def test_order_is_minimal(case):
    m, _ = case
    k = growth_signature(m).quasi_unipotent_k
    identity = ExactMatrix.identity(m.n)
    power = identity
    for shorter in range(1, k):
        power = power @ m
        assert nilpotency_index(power - identity) is None, shorter
    assert nilpotency_index(power @ m - identity) is not None


@given(quasi_unipotent(), st.sampled_from(([[2]], [[0]])))
@SETTINGS
def test_non_unit_block_has_no_order(case, extra):
    m, _ = case
    m = ExactMatrix.block_diag(m, ExactMatrix.from_rows(extra))
    assert growth_signature(m).quasi_unipotent_k is None
    assert quasi_unipotent_order(m) is None


@given(quasi_unipotent(), st.integers(1, 5), st.integers(2, 4))
@SETTINGS
def test_rational_conjugate_keeps_growth_without_order(case, offset, den):
    m, _ = case
    assume(m.n >= 2)
    # V = I + (offset/den) E_01 has a non-integer entry; V M V^-1 is
    # rational with the same spectrum and Jordan structure.
    rows = [[Fraction(int(i == j)) for j in range(m.n)] for i in range(m.n)]
    rows[0][1] = Fraction(offset, den)
    v = ExactMatrix.from_rows(rows)
    conj = v @ m @ v.inverse()
    assume(not conj.is_integer)
    sig, sig_q = growth_signature(m), growth_signature(conj)
    assert (sig_q.rho_exact, sig_q.s) == (sig.rho_exact, sig.s)
    assert sig_q.quasi_unipotent_k is None


@given(quasi_unipotent(size=4), quasi_unipotent(size=4))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
def test_tensor_product_adds_growth_exponents(case_a, case_b):
    # The eigenvalues of A (x) B are the products of those of A and B, all
    # roots of unity, and a Jordan block pair of sizes a and b gives a
    # largest block of size a + b - 1: s(A (x) B) = s(A) + s(B).  Both
    # sides of at most 4, so the product is at most 16 x 16.
    (a, blocks_a), (b, blocks_b) = case_a, case_b
    sig = growth_signature(tensor_product(a, b))
    expected = max(j for _, j in blocks_a) + max(j for _, j in blocks_b) - 2
    assert sig.s == growth_signature(a).s + growth_signature(b).s == expected
    assert sig.rho_exact == 1 and sig.quasi_unipotent_k is not None

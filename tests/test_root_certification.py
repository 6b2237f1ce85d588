"""Certified root isolation against independent references.

The decision path of ``exact_linalg`` runs on Python ints alone; mpmath
appears here only as an oracle, at 256 bits.  The example counts are
bounded and the searches derandomised, so the module's run time and
outcome are fixed.
"""

from __future__ import annotations

import random
import warnings
from fractions import Fraction

import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from catentropy.corpus import random_unimodular
from catentropy.errors import NilpotentInput, PrecisionExhausted, TiedModuli
from catentropy.exact_linalg import (
    ExactMatrix,
    ExactPoly,
    RootOfFactor,
    char_poly,
    growth_signature,
    min_poly,
    poly_gcd,
    root_moduli,
)

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

M = ExactMatrix.from_rows
P = ExactPoly.from_coefficients


def test_growth_signature_runs_without_mpmath_roots(monkeypatch):
    # A dense integer matrix whose char poly has no exact roots goes
    # through numeric isolation, which must not touch mpmath.
    rng = random.Random(8)
    m = M([[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)])

    def refuse(*args, **kwargs):
        raise AssertionError("mpmath.polyroots called on the decision path")

    monkeypatch.setattr(mpmath, "polyroots", refuse)
    sig = growth_signature(m)
    assert min_poly(m).degree == 8
    assert isinstance(sig.rho_exact, RootOfFactor)
    assert sig.s == 0
    lo, hi = sig.rho_interval
    assert 0 < lo <= hi and hi - lo <= Fraction(1, 10**12)


def _fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    value = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -value if sign else value


@st.composite
def squarefree_polys(draw):
    n = draw(st.integers(2, 12))
    coeffs = [draw(st.integers(-20, 20).filter(bool))]
    coeffs += [draw(st.integers(-20, 20)) for _ in range(n - 1)]
    coeffs.append(draw(st.integers(1, 20)))
    h = P(coeffs)
    return h.exact_div(poly_gcd(h, h.derivative()))


@SETTINGS
@given(squarefree_polys())
@example(P([-2] + [0] * 11 + [1]))  # twelve equal moduli: the tie is over the cap
def test_root_moduli_brackets_contain_oracle_moduli(h):
    assume(h.degree >= 1)
    try:
        out = root_moduli(h, precision=40)
    except PrecisionExhausted as exc:
        # A tie over the proof's degree cap: the merged brackets must
        # still hold every modulus.
        out = [(z, (c.lo, c.hi)) for c in exc.classes for z in c.positions]
    assert len(out) == h.degree
    slack = Fraction(1, 2**200)
    with mpmath.workprec(256):
        coeffs = [
            mpmath.mpf(c.numerator) / c.denominator for c in reversed(h.coefficients)
        ]
        roots = mpmath.polyroots(coeffs, maxsteps=2000, extraprec=256)
        for r in roots:
            modulus = _fraction(abs(mpmath.mpc(r)))
            _, (lo, hi) = min(out, key=lambda item: abs(item[0] - complex(r)))
            assert lo - slack <= modulus <= hi + slack


ints = st.integers(-6, 6)
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def matrices(draw, entries):
    n = draw(st.integers(1, 6))
    return M([[draw(entries) for _ in range(n)] for _ in range(n)])


@SETTINGS
@given(matrices(st.one_of(ints, rationals)))
def test_min_poly_divides_char_poly(m):
    mu = min_poly(m)
    _, rem = divmod(char_poly(m), mu)
    assert rem.is_zero
    assert 1 <= mu.degree <= m.n


@SETTINGS
@given(matrices(ints), st.integers(0, 2**32 - 1))
def test_growth_signature_invariant_under_unimodular_conjugation(m, seed):
    u = random_unimodular(random.Random(seed), m.n)
    conj = u @ m @ u.inverse()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TiedModuli)
        try:
            sig = growth_signature(m)
        except NilpotentInput:
            assume(False)
        other = growth_signature(conj)
    assert other.s == sig.s
    assert other.dominant_factors == sig.dominant_factors
    (lo, hi), (lo2, hi2) = sig.rho_interval, other.rho_interval
    assert lo <= hi2 and lo2 <= hi

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest

from catentropy.errors import DomainError
from catentropy.growth_estimator import PositiveSequence, fit_growth
from catentropy.twist_zoo import (
    TwistKind,
    TwistParams,
    ValueOrInterval,
    fractional_cy_report,
    shift_report,
    twist_bound,
    twist_bound_mp,
    twist_bound_series,
    twist_entropy_report,
    twist_recurrence,
    twist_recurrence_series,
)

S, P = TwistKind.SPHERICAL, TwistKind.PTWIST


def test_shift_report():
    assert shift_report(0) == {"h_t_slope": Fraction(0), "h_pol": 0}
    assert shift_report(1) == {"h_t_slope": Fraction(1), "h_pol": 0}
    assert shift_report(-3) == {"h_t_slope": Fraction(-3), "h_pol": 0}


def test_fractional_cy_report():
    assert fractional_cy_report(1, 2)["h_t_slope"] == Fraction(2)
    assert fractional_cy_report(2, 1)["h_t_slope"] == Fraction(1, 2)
    assert fractional_cy_report(3, 0) == {"h_t_slope": Fraction(0), "h_pol": 0}
    with pytest.raises(DomainError):
        fractional_cy_report(0, 1)


def test_spherical_bound_t_zero():
    p = TwistParams(S, d=2, t=0.0, A=1.0, B=1.0)
    assert twist_bound(p, 10) == 11.0


def test_spherical_bound_d_one():
    # n e^t A + B at t = 0 is n A + B
    p = TwistParams(S, d=1, t=0.0, A=2.0, B=3.0)
    assert twist_bound(p, 5) == 13.0


def test_spherical_bound_positive_t_is_n_independent():
    p = TwistParams(S, d=3, t=0.5, A=1.0, B=0.25)
    expected = math.exp(0.5) / (1 - math.exp(-1)) + 0.25
    for n in (1, 10, 100):
        assert abs(twist_bound(p, n) - expected) < 1e-12


def test_spherical_recurrence_term_sum():
    # d = 2, t = -1: terms e^((2 - i) * -1 * -1)... sum is e + 1 + 1/e
    p = TwistParams(S, d=2, t=-1.0, A=1.0, B=0.5)
    expected = 0.5 + (math.e + 1 + 1 / math.e)
    assert abs(twist_recurrence(p, 3) - expected) < 1e-12


def test_recurrence_single_term():
    for kind in (S, P):
        p = TwistParams(kind, d=4, t=0.3, A=1.5, B=2.0)
        assert abs(twist_recurrence(p, 1) - (2.0 + 1.5 * math.exp(0.3))) < 1e-12


def test_ptwist_bound_t_zero():
    p = TwistParams(P, d=2, t=0.0, A=1.0, B=1.0)
    assert twist_bound(p, 7) == 8.0


def test_ptwist_bound_positive_t():
    p = TwistParams(P, d=1, t=0.5, A=1.0, B=0.0 + 1e-12)
    expected = math.exp(0.5) / (1 - math.exp(-1))
    assert abs(twist_bound(p, 9) - expected) < 1e-9


def test_params_validation():
    with pytest.raises(DomainError):
        TwistParams(S, d=0, t=0.0, A=1.0, B=1.0)
    with pytest.raises(DomainError):
        TwistParams(S, d=1, t=0.0, A=0.0, B=1.0)
    with pytest.raises(DomainError):
        twist_bound(TwistParams(P, d=1, t=0.0, A=1.0, B=1.0), 0)
    with pytest.raises(DomainError):
        twist_recurrence_series(TwistParams(S, d=1, t=0.0, A=1.0, B=1.0), 0)
    with pytest.raises(DomainError):
        twist_bound_series(TwistParams(S, d=2, t=-1.0, A=1.0, B=1.0), 0)


@pytest.mark.parametrize(
    "t, A, B",
    [(math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (-math.inf, 1.0, 1.0),
     (0.5, math.inf, 1.0), (0.5, math.nan, 1.0), (0.5, 1.0, math.inf)],
)
def test_params_reject_non_finite_values(t, A, B):
    with pytest.raises(DomainError, match="finite"):
        TwistParams(S, d=1, t=t, A=A, B=B)


def test_slope_by_kind():
    # spherical 1 - d, P-twist -2d; the d = 1 sphere alone has slope 0
    def slopes(kind):
        return [TwistParams(kind, d=d, t=0.0, A=1.0, B=1.0).slope for d in (1, 2, 5)]

    assert slopes(S) == [0, -1, -4]
    assert slopes(P) == [-2, -4, -10]


def test_t_snap_warns_near_zero():
    p = TwistParams(S, d=2, t=1e-14, A=1.0, B=1.0)
    with pytest.warns(UserWarning):
        assert twist_bound(p, 10) == 11.0


def test_bound_dominates_recurrence_on_grid():
    # exact comparisons of the 30-digit values
    eps = Fraction(1, 2**60)
    for kind in (S, P):
        for d in (1, 2, 3, 4):
            for t in (-1.0, -0.1, 0.0, 0.1, 1.0):
                p = TwistParams(kind, d=d, t=t, A=1.0, B=1.0)
                rec = twist_recurrence_series(p, 120)
                exact_branch = t == 0.0 or p.slope == 0
                for n in (1, 2, 17, 120):
                    bb, rr = Fraction(twist_bound_mp(p, n)), Fraction(rec[n - 1])
                    if exact_branch:
                        assert abs(bb - rr) <= Fraction(1e-12) * rr
                    else:
                        assert rr - bb <= rr * eps, (kind, d, t, n)


def test_bound_series_is_the_bound_at_each_n_on_the_criterion_6_grid():
    # twist_bound_series evaluates exp(t), exp(-alpha t) and the whole t > 0
    # bound once per parameter set; each value is still the same Decimal,
    # digits and exponent alike.
    for kind in (S, P):
        for d in (1, 2, 3, 4):
            for t in (-1.0, -0.1, 0.0, 0.1, 1.0):
                for a in (0.5, 1.0, 10.0):
                    for b in (0.5, 1.0, 10.0):
                        p = TwistParams(kind, d=d, t=t, A=a, B=b)
                        series = [str(v) for v in twist_bound_series(p, 200)]
                        one_by_one = [str(twist_bound_mp(p, n)) for n in range(1, 201)]
                        assert series == one_by_one, (kind, d, t, a, b)


def test_negative_t_bound_is_strictly_above_partial_sum():
    # the closed form drops the "-1" of the geometric sum, so for t < 0 it
    # must exceed the exact partial sum by a definite margin
    p = TwistParams(S, d=3, t=-0.5, A=1.0, B=1.0)
    rec = twist_recurrence_series(p, 50)
    for n in (5, 20, 50):
        bb, rr = Fraction(twist_bound_mp(p, n)), Fraction(rec[n - 1])
        assert bb > rr * (1 + Fraction(1e-3))


def test_overflow_range_stays_finite_in_mp():
    p = TwistParams(P, d=4, t=-1.0, A=1.0, B=1.0)
    vals = twist_recurrence_series(p, 200)
    assert vals[-1].is_finite()
    assert twist_recurrence(p, 200) == math.inf  # beyond float range
    assert Fraction(twist_bound_mp(p, 200)) > Fraction(vals[-1])


def _oracle(p, n):
    """Float views of the bound and the partial sum at n, evaluated at 400
    bits, where mpmath's unbounded exponents keep every value finite."""
    alpha = p.slope
    with mpmath.workprec(400):
        a, b, x = mpmath.mpf(p.A), mpmath.mpf(p.B), mpmath.mpf(p.t_snapped)
        terms = [mpmath.exp((1 + alpha * (j - 1)) * x) for j in range(1, n + 1)]
        rec = b + a * mpmath.fsum(terms)
        if alpha == 0 or x == 0:
            bound = rec
        elif x < 0:
            bound = mpmath.exp(alpha * n * x) / (mpmath.exp(alpha * x) - 1) * a + b
        else:
            bound = mpmath.exp(x) / (1 - mpmath.exp(alpha * x)) * a + b
        return float(bound), float(rec)


@pytest.mark.parametrize("kind", [S, P])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("t", [1e-12, -1e-12, 3e-12, -5e-11, 1e-9, -1e-9])
def test_small_t_matches_high_precision_reference(kind, d, t):
    # 1 - exp(alpha t) cancels about 12 digits here; the float views must
    # still be the correctly rounded values of the exact expressions
    p = TwistParams(kind, d=d, t=t, A=1.0, B=1.0)
    for n in (1, 7, 60):
        assert (twist_bound(p, n), twist_recurrence(p, n)) == _oracle(p, n), n


@pytest.mark.parametrize("kind", [S, P])
@pytest.mark.parametrize("t", [1e308, -1e308, 1e20, -1e20, 700.0, -800.0])
def test_extreme_t_matches_high_precision_reference(kind, t):
    # exponentials past any float (and, at 1e308, past Decimal's range)
    # give inf or 0, never an exception or an inf/inf
    p = TwistParams(kind, d=3, t=t, A=1.0, B=1.0)
    for n in (1, 2, 7):
        assert (twist_bound(p, n), twist_recurrence(p, n)) == _oracle(p, n), n


def test_bound_gap_is_the_stated_positive_rational_function():
    # with x = e^t the sum is a rational function of x; check the gap
    # stated in the twist_bound_mp docstring exactly, for t < 0 (x < 1)
    # and t > 0 (x > 1), against the closed form in the evaluated shape
    for x in map(Fraction, ("1/3", "1/2", "9/10", "11/10", "2", "3")):
        for alpha in range(-1, -9, -1):
            for n in range(1, 41):
                total = sum(x ** (alpha * (j - 1) + 1) for j in range(1, n + 1))
                if x < 1:
                    closed = x ** (alpha * (n - 1)) / (1 - x ** -alpha)
                    gap = (x ** (alpha * n) * (1 - x) + x) / (x**alpha - 1)
                else:
                    closed = x / (1 - x**alpha)
                    gap = x ** (alpha * n + 1) / (1 - x**alpha)
                assert closed - total == gap, (x, alpha, n)
                assert gap > 0, (x, alpha, n)


def test_recurrence_growth_matches_entropy_slope():
    for d in (2, 3, 4):
        for t in (-1.0, -0.1):
            p = TwistParams(S, d=d, t=t, A=1.0, B=1.0)
            vals = [float(v) for v in twist_recurrence_series(p, 200)]
            if not all(math.isfinite(v) for v in vals):
                continue
            est = fit_growth(PositiveSequence.from_values(vals))
            target = math.exp((1 - d) * t)
            assert abs(est.rho_hat - target) <= 1e-3 * target
            assert abs(est.s_hat) <= 0.15


def test_entropy_report_spherical_negative_t():
    rep = twist_entropy_report(TwistParams(S, d=3, t=-1.0, A=1.0, B=1.0))
    assert rep.h_t_at_t == 2.0  # (1 - 3) * (-1)
    assert rep.h_pol_at_t == ValueOrInterval.exact(0.0)


def test_entropy_report_spherical_t_zero_interval():
    rep = twist_entropy_report(TwistParams(S, d=2, t=0.0, A=1.0, B=1.0))
    assert rep.h_pol_at_t == ValueOrInterval(0.0, 1.0)
    assert not rep.unknown_at_t


def test_entropy_report_d_one_always_interval():
    for t in (-1.0, 0.0, 2.0):
        rep = twist_entropy_report(TwistParams(S, d=1, t=t, A=1.0, B=1.0))
        assert rep.h_pol_at_t == ValueOrInterval(0.0, 1.0)


def test_entropy_report_ptwist_branches():
    rep = twist_entropy_report(
        TwistParams(P, d=1, t=0.3, A=1.0, B=1.0, orth_nonempty=True)
    )
    assert rep.h_pol_at_t == ValueOrInterval.exact(0.0)
    assert not rep.unknown_at_t

    rep = twist_entropy_report(TwistParams(P, d=1, t=0.3, A=1.0, B=1.0))
    assert rep.unknown_at_t
    assert math.isinf(rep.h_pol_at_t.hi)

    rep = twist_entropy_report(TwistParams(P, d=2, t=-0.3, A=1.0, B=1.0))
    assert rep.h_pol_at_t == ValueOrInterval.exact(0.0)
    assert rep.h_t_at_t == pytest.approx(1.2)  # -2 * 2 * (-0.3)


def test_entropy_report_quiver_context_note():
    rep = twist_entropy_report(
        TwistParams(S, d=3, t=0.0, A=1.0, B=1.0), quiver_cy3_context=True
    )
    assert rep.note is not None
    below = twist_entropy_report(TwistParams(S, d=3, t=-0.01, A=1.0, B=1.0))
    assert below.h_pol_at_t != rep.h_pol_at_t  # branch values jump at 0

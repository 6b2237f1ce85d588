from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catentropy.errors import (
    DimensionMismatch,
    DomainError,
    NonPositiveValue,
    WindowTooShort,
    ZeroPairingAt,
)
from catentropy import growth_estimator
from catentropy.exact_linalg import ExactMatrix
from catentropy.growth_estimator import (
    ExtTable,
    PositiveSequence,
    entropy_from_ext_sequence,
    eval_ext_distance,
    fit_growth,
    pairing_sequence,
    pairing_values,
)

M = ExactMatrix.from_rows


def test_eval_ext_distance_at_zero_sums_dims():
    assert eval_ext_distance(ExtTable.from_dict({0: 2, 1: 3}), 0.0) == 5.0


def test_eval_ext_distance_weighted():
    got = eval_ext_distance(ExtTable.from_dict({0: 2, 1: 3}), 1.0)
    assert abs(got - (2 + 3 * math.exp(-1))) < 1e-14


def test_eval_ext_distance_empty_table():
    assert eval_ext_distance(ExtTable.from_dict({}), 0.3) == 0.0


def test_ext_table_rejects_negative_dims():
    with pytest.raises(NonPositiveValue):
        ExtTable.from_dict({0: -1})


def test_sequence_needs_eight_values():
    with pytest.raises(WindowTooShort):
        PositiveSequence.from_values([1.0] * 7)


def test_sequence_rejects_nonpositive():
    with pytest.raises(NonPositiveValue):
        PositiveSequence.from_values([1.0] * 9 + [0.0])


def _per_value_rule_rejects(values) -> bool:
    """The rule ``PositiveSequence`` applied value by value before its
    checks became whole-tuple passes: reject unless every value is > 0
    and finite."""
    return any(not (v > 0) or not math.isfinite(v) for v in values)


@pytest.mark.parametrize("kind", [float, int, Fraction])
def test_sequence_validation_matches_the_per_value_rule(kind):
    # NaN, +inf, -inf, zeros and negatives at the first, a middle and the
    # last index of positive float, int and Fraction samples, built
    # directly and through from_values; and the same samples unharmed.
    good = [kind(v) for v in (3, 1, 4, 1, 5, 9, 2, 6, 5)]
    bad_values = [
        math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-300, -math.pi,
        0, -7, Fraction(0), Fraction(-1, 3),
    ]
    samples = [good]
    for bad in bad_values:
        for i in (0, 4, 8):
            samples.append(good[:i] + [bad] + good[i + 1 :])
    for values in samples:
        for build in (lambda v: PositiveSequence(tuple(v)), PositiveSequence.from_values):
            if _per_value_rule_rejects(values):
                with pytest.raises(NonPositiveValue) as info:
                    build(values)
                assert str(info.value) == "sequence values must be strictly positive and finite"
            else:
                assert build(values).values == tuple(values)
    seq = PositiveSequence.from_values(good)
    assert all(type(v) is float for v in seq.values)
    assert len(samples) - 1 == sum(map(_per_value_rule_rejects, samples))


def test_fit_growth_exponential_times_linear():
    seq = PositiveSequence.from_values([2.0**n * n for n in range(1, 201)])
    est = fit_growth(seq)
    assert abs(est.rho_hat - 2.0) <= 1e-3 * 2.0
    assert abs(est.s_hat - 1.0) <= 0.1


def test_fit_growth_triangular_numbers():
    # a_n = (n+1)(n+2)/2 grows like n^2/2
    seq = PositiveSequence.from_values(
        [(n + 1) * (n + 2) / 2 for n in range(1, 401)]
    )
    est = fit_growth(seq)
    assert abs(est.rho_hat - 1.0) <= 1e-3
    assert abs(est.s_hat - 2.0) <= 0.15


def test_fit_growth_constant():
    est = fit_growth(PositiveSequence.from_values([7.0] * 50))
    assert abs(est.rho_hat - 1.0) < 1e-12
    assert abs(est.s_hat) < 1e-9
    assert est.residual < 1e-12


def test_fit_growth_window_too_short_after_drop():
    seq = PositiveSequence.from_values([float(n) for n in range(1, 10)])
    with pytest.raises(WindowTooShort):
        fit_growth(seq, n_lo=5, n_hi=9)


def test_fit_growth_default_head_drop_keeps_eight_points_before_n_hi():
    seq = PositiveSequence.from_values([float(n) for n in range(1, 101)])
    assert fit_growth(seq).window == (26, 100)
    assert fit_growth(seq, n_hi=20).window == (13, 20)
    with pytest.raises(WindowTooShort):
        fit_growth(seq, n_hi=7)


def test_fit_growth_explicit_head_drop_is_not_clamped():
    seq = PositiveSequence.from_values([float(n) for n in range(1, 101)])
    assert fit_growth(seq, drop_head_fraction=0.5).window == (51, 100)
    assert fit_growth(seq, drop_head_fraction=0.25).window == (26, 100)
    with pytest.raises(WindowTooShort):
        fit_growth(seq, drop_head_fraction=0.95)
    with pytest.raises(WindowTooShort):
        fit_growth(seq, drop_head_fraction=2.0)
    with pytest.raises(WindowTooShort):
        fit_growth(seq, n_hi=20, drop_head_fraction=0.25)


def test_fit_growth_window_outside_range():
    seq = PositiveSequence.from_values([float(n) for n in range(1, 21)])
    with pytest.raises(WindowTooShort):
        fit_growth(seq, n_lo=0)
    with pytest.raises(WindowTooShort):
        fit_growth(seq, n_hi=50)


def test_fit_growth_overflowing_rate_is_domain_error():
    # nearly dependent columns on a short window far from n = 1: the
    # slope of n is about 710, beyond log of the largest float
    seq = PositiveSequence.from_values(
        [1.0, 1.0, 1.0, 1.0, 1e-250, 1.0, 1.0594156826502436e138,
         1.0893504816474252e168],
        n_start=7,
    )
    with pytest.raises(DomainError):
        fit_growth(seq, n_lo=7)


def test_fit_growth_dependent_columns_is_domain_error():
    # far from n = 1 every log n rounds to the same float, so the log n
    # column is a multiple of the constant one.  The window cache keeps
    # no exception: the error comes again on the next call.
    seq = PositiveSequence.from_values(
        [float(v) for v in range(1, 17)], n_start=10**20
    )
    growth_estimator._window_design.cache_clear()
    for _ in range(2):
        with pytest.raises(DomainError, match="linearly dependent"):
            fit_growth(seq)


def test_fit_growth_recovery_grid():
    for rho in (1.0, 1.5, 2.618):
        for s in (0, 1, 2, 3):
            for c in (0.5, 1.0, 10.0):
                vals = [c * rho**n * n**s for n in range(1, 401)]
                est = fit_growth(PositiveSequence.from_values(vals))
                assert abs(est.rho_hat - rho) <= 1e-3 * rho, (rho, s, c)
                assert abs(est.s_hat - s) <= 0.15, (rho, s, c)


def test_fit_growth_scale_invariance():
    base = [1.5**n * n**2 for n in range(1, 201)]
    ref = fit_growth(PositiveSequence.from_values(base))
    for c in (1e-3, 42.0, 1e5):
        est = fit_growth(PositiveSequence.from_values([c * v for v in base]))
        assert abs(est.rho_hat - ref.rho_hat) < 1e-6
        assert abs(est.s_hat - ref.s_hat) < 1e-6


def _exact_least_squares(seq, n_lo, n_hi):
    """(coefficients, residual sum of squares) of the least-squares fit of
    log a_n on (n, log n, 1), solved over Fraction from the float data."""
    rows = [[Fraction(n), Fraction(math.log(n)), Fraction(1)] for n in range(n_lo, n_hi + 1)]
    ys = [Fraction(math.log(y)) for y in seq.values[n_lo - seq.n_start : n_hi - seq.n_start + 1]]
    # Gauss-Jordan on the augmented normal equations [A^T A | A^T y].
    aug = [
        [sum(r[i] * r[j] for r in rows) for j in range(3)]
        + [sum(r[i] * y for r, y in zip(rows, ys))]
        for i in range(3)
    ]
    for c in range(3):
        p = next(i for i in range(c, 3) if aug[i][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(3):
            if i != c:
                aug[i] = [x - aug[i][c] * y for x, y in zip(aug[i], aug[c])]
    beta = [aug[i][3] for i in range(3)]
    rss = sum((y - sum(b * x for b, x in zip(beta, r))) ** 2 for r, y in zip(rows, ys))
    return beta, rss


@st.composite
def _fit_inputs(draw):
    """A positive sequence (model data rho^n n^s c with float noise, or
    arbitrary floats) and a window inside it of at least 8 points."""
    n_start = draw(st.integers(1, 40))
    size = draw(st.integers(8, 80))
    if draw(st.booleans()):
        rho = draw(st.floats(0.25, 4.0))
        s = draw(st.integers(-2, 4))
        c = draw(st.floats(1e-3, 1e3))
        noise = draw(st.lists(st.floats(-0.1, 0.1), min_size=size, max_size=size))
        values = [
            c * rho**n * n**s * (1 + e)
            for n, e in zip(range(n_start, n_start + size), noise)
        ]
    else:
        # kept well inside the float range: on short windows far from
        # n = 1 the columns n and log n are nearly dependent, and the
        # coefficients (like exp of the n one) grow with the data's spread
        values = draw(st.lists(st.floats(1e-8, 1e8), min_size=size, max_size=size))
    seq = PositiveSequence.from_values(values, n_start)
    if draw(st.booleans()):
        return seq, None, None  # the default window
    n_lo = draw(st.integers(n_start, seq.n_end - 7))
    n_hi = draw(st.integers(n_lo + 7, seq.n_end))
    return seq, n_lo, n_hi


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_fit_inputs())
def test_fit_growth_is_the_exact_least_squares_solution_rounded_once(case):
    # The same fit with the window's design cached (warm) and built anew
    # (cold).
    seq, n_lo, n_hi = case
    fit_growth(seq, n_lo, n_hi)
    est = fit_growth(seq, n_lo, n_hi)
    growth_estimator._window_design.cache_clear()
    assert fit_growth(seq, n_lo, n_hi) == est
    if n_lo is None:
        n_lo, n_hi = seq.n_start + len(seq.values) // 4, seq.n_end
    beta, rss = _exact_least_squares(seq, n_lo, n_hi)
    assert est.s_hat == float(beta[1])
    assert est.rho_hat == math.exp(float(beta[0]))
    assert est.residual == math.sqrt(float(rss / (n_hi - n_lo + 1)))
    assert est.window == (n_lo, n_hi)


@st.composite
def _periodic_inputs(draw):
    """One period of 1-12 floats (at times one of them zero, negative, NaN
    or infinite), a sequence length of 8-400 terms, at least the period,
    from ``n_start`` 1-40 (at times 1e20, where every window is
    dependent), and a window: the default, an explicit head drop,
    explicit ends, which may start mid-period, or explicit ends shorter
    than the period."""
    kind = draw(st.sampled_from(["default", "fraction", "ends", "short"]))
    p = draw(st.integers(9, 12) if kind == "short" else st.integers(1, 12))
    period = draw(st.lists(st.floats(1e-8, 1e8) | st.just(1.0), min_size=p, max_size=p))
    if draw(st.integers(0, 7)) == 0:
        bad = draw(st.sampled_from([0.0, -0.0, -2.5, math.nan, math.inf, -math.inf]))
        period[draw(st.integers(0, p - 1))] = bad
    n_start = 10**20 if draw(st.integers(0, 15)) == 0 else draw(st.integers(1, 40))
    length = draw(st.integers(max(8, p), 400))
    if kind == "default":
        return period, length, n_start, None, None, None
    if kind == "fraction":
        return period, length, n_start, None, None, draw(st.floats(0.0, 0.95))
    n_end = n_start + length - 1
    n_lo = draw(st.integers(n_start, n_end - 7))
    top = min(p - 1, n_end - n_lo + 1) if kind == "short" else n_end - n_lo + 1
    return period, length, n_start, n_lo, n_lo + draw(st.integers(8, top)) - 1, None


def _fit_or_error(fit):
    try:
        return fit()
    except DomainError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_periodic_inputs())
def test_one_period_fit_is_the_fit_of_the_tiled_sequence(case):
    # The fit of a sequence given as one period equals fit_growth of the
    # period repeated out to the length, to the last bit, or fails with
    # the same error type (a dependent window far from n = 1), on a tuple
    # period as on a list.  The core reads values its callers have
    # checked: a bad value anywhere in the period is refused when the
    # sequence is built.
    period, length, n_start, n_lo, n_hi, drop = case
    tiled = (period * (length // len(period) + 1))[:length]
    if not all(0 < v < math.inf for v in period):
        with pytest.raises(NonPositiveValue):
            PositiveSequence.from_values(tiled, n_start)
        return
    want = _fit_or_error(
        lambda: fit_growth(PositiveSequence.from_values(tiled, n_start), n_lo, n_hi, drop)
    )
    for values in (period, tuple(period)):
        got = _fit_or_error(
            lambda: growth_estimator._fit_period(values, length, n_start, n_lo, n_hi, drop)
        )
        assert got == want and repr(got) == repr(want)


def test_window_design_is_immutable():
    # Only tuples and ints, so hashable: a caller cannot change a cached
    # design in place.
    logs, log_den, adj, det = design = growth_estimator._window_design(3, 12)
    hash(design)
    assert len(logs) == 10 and len(adj) == 3 and log_den > 0 and det != 0


def test_window_cache_keys_on_both_ends():
    # Windows of one length at different offsets (and of different
    # lengths from one n_lo), fitted in turn on a warm cache, each twice,
    # give the fits of a cold cache.
    rng = random.Random(24)
    values = [rng.uniform(1, 2) * 1.3**n * n**2 for n in range(1, 121)]
    seq = PositiveSequence.from_values(values)
    windows = [(1, 10), (2, 11), (50, 59), (111, 120), (1, 30), (91, 120), (1, 120), (31, 120)]
    cold = []
    for lo, hi in windows:
        growth_estimator._window_design.cache_clear()
        cold.append(fit_growth(seq, lo, hi))
    growth_estimator._window_design.cache_clear()
    warm = [fit_growth(seq, lo, hi) for lo, hi in windows for _ in range(2)]
    assert warm[::2] == cold == warm[1::2]
    assert len(set(cold)) == len(windows)
    assert fit_growth(seq) == cold[-1]  # the default window drops 30 of 120


def test_entropy_from_shift_tables():
    # dims {-m n: 1}: the weighted sum is e^(m n t), growth rate m*t
    m = 2
    tables = [ExtTable.from_dict({-m * n: 1}) for n in range(1, 41)]
    rep = entropy_from_ext_sequence(tables)
    assert abs(rep[0.0]["h_t_hat"]) < 1e-9
    assert abs(rep[0.0]["h_pol_t_hat"]) < 1e-6
    assert abs(rep[1.0]["h_t_hat"] - m) < 1e-9
    assert abs(rep[-0.5]["h_t_hat"] + 0.5 * m) < 1e-9


def test_entropy_from_constant_tables():
    tables = [ExtTable.from_dict({0: 4, 2: 1}) for _ in range(30)]
    rep = entropy_from_ext_sequence(tables)
    for t, entry in rep.items():
        assert abs(entry["h_t_hat"]) < 1e-9
        assert abs(entry["h_pol_t_hat"]) < 1e-6


def test_entropy_from_oscillating_tables_sets_the_limit_warning():
    # Tables 2^n at even n and 1 at odd n: upper and lower growth differ,
    # and at t = 0 the one regression misses by a residual far above the
    # trust threshold.
    tables = [ExtTable.from_dict({0: 2**n if n % 2 == 0 else 1}) for n in range(1, 41)]
    entry = entropy_from_ext_sequence(tables, t_grid=(0.0,))[0.0]
    assert entry["limit_warning"] == 1.0
    assert 9 < entry["residual"] < 10


def test_entropy_needs_eight_tables():
    with pytest.raises(WindowTooShort):
        entropy_from_ext_sequence([ExtTable.from_dict({0: 1})] * 7)
    rep = entropy_from_ext_sequence(
        [ExtTable.from_dict({-n: 1}) for n in range(1, 9)]
    )
    assert abs(rep[1.0]["h_t_hat"] - 1) < 1e-9


def test_pairing_sequence_fibonacci_corner():
    # v^T I F^n w with v = w = e_0 picks the (0, 0) entry of F^n
    f = M([[2, 1], [1, 1]])
    seq = pairing_sequence(ExactMatrix.identity(2), f, (1, 0), (1, 0), 60)
    power = f
    for k in range(3):
        assert seq.values[k] == float(power.entry(0, 0))
        power = power @ f
    est = fit_growth(seq)
    assert abs(est.rho_hat - (3 + math.sqrt(5)) / 2) <= 1e-3 * est.rho_hat
    assert abs(est.s_hat) <= 0.15


def test_pairing_values_match_fraction_reference():
    # Rational G, F, v and w of sizes 1-4: the int iteration over one
    # common denominator gives the values of plain Fraction arithmetic.
    rng = random.Random(3)

    def rat():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))

    for n in range(1, 5):
        for _ in range(6):
            g = [[rat() for _ in range(n)] for _ in range(n)]
            f = [[rat() for _ in range(n)] for _ in range(n)]
            v = [rat() for _ in range(n)]
            w = [rng.randint(-5, 5) for _ in range(n)]
            left = [sum(v[i] * g[i][j] for i in range(n)) for j in range(n)]
            expected, cur = [], w
            for _ in range(12):
                cur = [sum(f[i][j] * cur[j] for j in range(n)) for i in range(n)]
                expected.append(abs(sum(a * b for a, b in zip(left, cur))))
            got = pairing_values(M(g), M(f), v, w, 12)
            assert got == expected
            assert all(type(x) is Fraction for x in got)


def test_pairing_sequence_identity_is_constant():
    seq = pairing_sequence(
        ExactMatrix.identity(2), ExactMatrix.identity(2), (1, 0), (1, 0), 20
    )
    assert set(seq.values) == {1.0}


def test_pairing_sequence_unipotent_linear():
    seq = pairing_sequence(
        M([[0, 1], [-1, 0]]), M([[1, 0], [1, 1]]), (1, 0), (1, 0), 50
    )
    assert list(seq.values[:4]) == [1.0, 2.0, 3.0, 4.0]
    est = fit_growth(seq)
    assert abs(est.s_hat - 1.0) <= 0.15


def test_pairing_sequence_zero_reported_with_indices():
    with pytest.raises(ZeroPairingAt) as err:
        pairing_sequence(
            ExactMatrix.identity(2), ExactMatrix.identity(2), (1, 0), (0, 1), 10
        )
    assert err.value.indices == tuple(range(1, 11))


def test_pairing_sequence_dimension_check():
    with pytest.raises(DimensionMismatch):
        pairing_sequence(
            ExactMatrix.identity(3), ExactMatrix.identity(2), (1, 0, 0), (1, 0), 10
        )

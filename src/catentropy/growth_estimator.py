"""Brute-force growth fitting for positive sequences.

The oracle side of the library: given samples a_n, fit the model
``log a_n ~ n*log(rho) + s*log(n) + c`` by least squares and report
(rho_hat, s_hat) with residuals.  The fit is the exact least-squares
solution of the float data, solved over Python ints and rounded once, so
it needs no numpy and no BLAS; its digits still rest on the platform's
``math.log`` and ``math.exp``.  Also evaluates weighted graded-dimension
sums (the computable complexity measure between two objects) and turns
families of graded-dimension tables into entropy estimates.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from .errors import (
    DimensionMismatch,
    DomainError,
    NonPositiveValue,
    WindowTooShort,
    ZeroPairingAt,
)

if TYPE_CHECKING:
    from .exact_linalg import ExactMatrix

#: Evaluation points for entropy-from-tables reports, symmetric around the
#: distinguished value t = 0.
DEFAULT_T_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)

#: Share of a sequence's head that ``fit_growth`` drops by default.
DEFAULT_DROP_HEAD_FRACTION = 0.25


def _check_positive(v: Sequence[float]) -> None:
    """Raise ``NonPositiveValue`` unless every value is > 0 and finite."""
    if any(map(math.isnan, v)) or min(v) <= 0 or max(v) == math.inf:
        raise NonPositiveValue("sequence values must be strictly positive and finite")


@dataclass(frozen=True)
class PositiveSequence:
    """Strictly positive samples a_n for n = n_start, n_start + 1, ..."""

    values: tuple[float, ...]
    n_start: int = 1

    def __post_init__(self):
        if self.n_start < 1:
            raise NonPositiveValue("n_start must be >= 1")
        if len(self.values) < 8:
            raise WindowTooShort(
                "need at least 8 samples for a 3-parameter fit, got %d"
                % len(self.values)
            )
        _check_positive(self.values)

    @staticmethod
    def from_values(values: Sequence[float], n_start: int = 1) -> "PositiveSequence":
        return PositiveSequence(tuple(map(float, values)), n_start)

    @property
    def n_end(self) -> int:
        return self.n_start + len(self.values) - 1


@dataclass(frozen=True)
class ExtTable:
    """Finitely supported map k -> dim Hom(M, N[k]); the empty table stands
    for the zero object."""

    dims: tuple[tuple[int, int], ...]

    @staticmethod
    def from_dict(dims: Mapping[int, int]) -> "ExtTable":
        items = []
        for k, v in sorted(dims.items()):
            k, v = int(k), int(v)
            if v < 0:
                raise NonPositiveValue("graded dimensions must be >= 0")
            if v:
                items.append((k, v))
        return ExtTable(tuple(items))


@dataclass(frozen=True)
class EstimatedSignature:
    """Fit result: a_n ~ rho_hat**n * n**s_hat * exp(c) over the window."""

    rho_hat: float
    s_hat: float
    residual: float
    window: tuple[int, int]


def eval_ext_distance(table: ExtTable, t: float) -> float:
    """The weighted dimension sum  sum_k dims[k] * exp(-k*t); 0 for the
    empty table."""
    return float(sum(v * math.exp(-k * t) for k, v in table.dims))


def _dyadic_ints(xs: Sequence[float]) -> tuple[tuple[int, ...], int]:
    """Ints k_i and one power of two D with x_i = k_i / D exactly.

    A finite float x is m * 2**(e - 53) with an int m, where
    e = frexp(x)[1].  D = 2**(53 - e), with e from the smallest nonzero
    |x_i| (and D = 1 once e >= 53), makes every x_i * D an int, which
    ``ldexp`` forms exactly (for the logarithms fitted here it cannot
    overflow).
    """
    tiny = min(map(abs, filter(None, xs)), default=1.0)
    shift = max(0, 53 - math.frexp(tiny)[1])
    return tuple(map(int, map(math.ldexp, xs, repeat(shift)))), 1 << shift


#: How many windows ``_window_design`` keeps.  Fits of one sequence length
#: with the default head drop share one window.
_WINDOW_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _window_design(n_lo: int, n_hi: int) -> tuple[tuple[int, ...], int, tuple, int]:
    """The data-free part of the fit on [n_lo, n_hi]: the ints L_i of
    ``log n_i = L_i / log_den`` (``_dyadic_ints``), ``log_den``, the
    adjugate of the int Gram matrix of the columns (n, L, 1) and its
    determinant.  All tuples, so a cached design cannot be changed by a
    caller.

    Raises ``DomainError`` when the determinant is 0; ``lru_cache`` keeps
    no exception, so every call on such a window raises again.
    """
    ns = range(n_lo, n_hi + 1)
    count = len(ns)
    logs, log_den = _dyadic_ints(list(map(math.log, ns)))
    s_n = sum(ns)
    s_nn = sum(map(operator.mul, ns, ns))
    s_nl = sum(map(operator.mul, ns, logs))
    s_ll = sum(map(operator.mul, logs, logs))
    s_l = sum(logs)
    adj = (
        (s_ll * count - s_l * s_l, s_l * s_n - s_nl * count, s_nl * s_l - s_ll * s_n),
        (s_l * s_n - s_nl * count, s_nn * count - s_n * s_n, s_nl * s_n - s_nn * s_l),
        (s_nl * s_l - s_ll * s_n, s_nl * s_n - s_nn * s_l, s_nn * s_ll - s_nl * s_nl),
    )
    det = s_nn * adj[0][0] + s_nl * adj[1][0] + s_n * adj[2][0]
    if det == 0:
        raise DomainError(
            "the columns n, log n and 1 are linearly dependent in float on "
            "the window [%d, %d]; no unique growth fit" % (n_lo, n_hi)
        )
    return logs, log_den, adj, det


def fit_growth(
    seq: PositiveSequence,
    n_lo: Optional[int] = None,
    n_hi: Optional[int] = None,
    drop_head_fraction: Optional[float] = None,
) -> EstimatedSignature:
    """Least-squares fit of log a_n over [n_lo, n_hi].

    When ``n_lo`` is not given, the first ``drop_head_fraction`` of the
    sequence is dropped to suppress transient terms.  An explicit fraction
    is applied as given.  The default, DEFAULT_DROP_HEAD_FRACTION, drops
    less where needed so that [n_lo, n_hi] keeps at least 8 points.

    The fit is the exact least-squares solution of its float data: every
    float is a dyadic rational, so ``log n`` and ``log a_n`` are scaled to
    ints over one power of two each and the 3x3 normal equations are
    solved by int cofactors.  ``s_hat`` and ``log(rho_hat)`` are rounded
    once from the exact solution (int true division rounds correctly, as
    ``float(Fraction)`` does), and ``residual`` is the root mean square
    residual, from the exact residual sum of squares
    ``y.y - beta.(A^T y)``.  No BLAS is involved; the data themselves
    come from the platform's ``math.log`` and ``rho_hat`` from its
    ``math.exp``, so digits at the level of their rounding can still
    differ between C libraries.

    Everything that depends on the window alone, not on the data (the
    ``log n`` ints, the int Gram matrix of the columns, its adjugate and
    determinant), comes from ``_window_design(n_lo, n_hi)``, which keeps
    the ``_WINDOW_CACHE_SIZE`` most recently used windows as immutable
    tuples; each call then only reads ``log a_n`` and forms ``A^T y`` and
    the residual.  Every 400-term sequence fitted with the default head
    drop has the window [101, 400], so its columns are built once.  The
    fit itself is ``_fit_period``, which takes the whole tuple as one
    period here and also fits a periodic sequence (the quiver crosscheck
    of a returning orbit) from the values of one period.

    Raises ``DomainError`` when the columns n, log n and 1 are linearly
    dependent in float on the window (with a huge ``n_start`` every
    ``log n`` rounds to the same float), since no unique fit exists.
    """
    return _fit_period(
        seq.values, len(seq.values), seq.n_start, n_lo, n_hi, drop_head_fraction
    )


def _fit_window(
    length: int,
    n_start: int,
    n_lo: Optional[int],
    n_hi: Optional[int],
    drop_head_fraction: Optional[float],
) -> tuple[int, int]:
    """The window [n_lo, n_hi] that ``fit_growth`` fits on a sequence of
    ``length`` terms from ``n_start``."""
    n_end = n_start + length - 1
    if n_hi is None:
        n_hi = n_end
    if n_lo is None:
        if drop_head_fraction is None:
            head = int(length * DEFAULT_DROP_HEAD_FRACTION)
            head = max(0, min(head, n_hi - n_start + 1 - 8))
        else:
            head = int(length * drop_head_fraction)
        n_lo = n_start + head
    if n_lo < n_start or n_hi > n_end:
        raise WindowTooShort(
            "window [%d, %d] exceeds the sequence range [%d, %d]"
            % (n_lo, n_hi, n_start, n_end)
        )
    if n_hi - n_lo + 1 < 8:
        raise WindowTooShort(
            "fit window has %d points; need at least 8" % (n_hi - n_lo + 1)
        )
    return n_lo, n_hi


def _fit_period(
    period: Sequence[float],
    length: int,
    n_start: int = 1,
    n_lo: Optional[int] = None,
    n_hi: Optional[int] = None,
    drop_head_fraction: Optional[float] = None,
) -> EstimatedSignature:
    """``fit_growth`` of the ``length`` terms from ``n_start`` of the
    sequence ``a_n = period[(n - n_start) % p]``, p = len(period), read
    from its p values, which the caller has checked as ``PositiveSequence``
    checks its values.

    A window longer than p holds every residue mod p, so its ``log a_n``
    ints are those of the p values, over the same power of two, and
    ``A^T y`` and ``y.y`` are per-residue sums: ``sum_r Y_r * S_r`` with
    S_r the sum of n, of the ``log n`` ints or the count of the window's
    terms of residue r.  These are the same ints as the sums over every
    term, so the fit equals that of the tiled sequence to the last bit.
    A window of at most p terms is read term by term.
    """
    n_lo, n_hi = _fit_window(length, n_start, n_lo, n_hi, drop_head_fraction)
    count = n_hi - n_lo + 1
    p = len(period)
    logs, log_den, adj, det = _window_design(n_lo, n_hi)
    k = (n_lo - n_start) % p
    mul = operator.mul
    # A^T y with A = (n, L, 1) and y = ys / y_den, times y_den.
    if count > p:
        # ys[r] is y at the window's terms r, r + p, ...
        ys, y_den = _dyadic_ints(list(map(math.log, period[k:] + period[:k])))
        counts = [len(range(r, count, p)) for r in range(p)]
        aty = (
            sum(y * sum(range(n_lo + r, n_hi + 1, p)) for r, y in enumerate(ys)),
            sum(y * sum(logs[r::p]) for r, y in enumerate(ys)),
            sum(map(mul, ys, counts)),
        )
        yy = sum(map(mul, map(mul, ys, ys), counts))
    else:
        window = period[k : k + count]
        window += period[: count - len(window)]
        ys, y_den = _dyadic_ints(list(map(math.log, window)))
        aty = (sum(map(mul, range(n_lo, n_hi + 1), ys)), sum(map(mul, logs, ys)), sum(ys))
        yy = sum(map(mul, ys, ys))
    # The coefficients of (n, L, 1) are coef_num / scale; the log n
    # coefficient is log_den times the one of L.
    coef_num = [sum(map(mul, row, aty)) for row in adj]
    scale = det * y_den
    rss_num = det * yy - sum(map(mul, coef_num, aty))
    try:
        rho_hat = math.exp(coef_num[0] / scale)
    except OverflowError:
        raise DomainError("the fitted growth rate rho_hat exceeds the float range") from None
    return EstimatedSignature(
        rho_hat=rho_hat,
        s_hat=coef_num[1] * log_den / scale,
        residual=math.sqrt(rss_num / (scale * y_den * count)),
        window=(int(n_lo), int(n_hi)),
    )


#: Residual level above which a single-regression estimate cannot be
#: trusted to stand in for the limit (upper and lower growth may differ).
RESIDUAL_TRUST_THRESHOLD = 0.1


def entropy_from_ext_sequence(
    tables: Sequence[ExtTable],
    t_grid: Sequence[float] = DEFAULT_T_GRID,
    n_start: int = 1,
    drop_head_fraction: Optional[float] = None,
) -> dict[float, dict[str, float]]:
    """Entropy and polynomial-entropy estimates from a family of
    graded-dimension tables indexed by iteration count.

    For each t, fits n -> eval_ext_distance(tables[n], t); reports
    h_t_hat = log(rho_hat) and h_pol_t_hat = s_hat with the fit residual.
    A ``limit_warning`` flag is set when the residual exceeds the trust
    threshold (the single regression then cannot distinguish upper from
    lower growth).
    """
    if len(tables) < 8:
        raise WindowTooShort("need at least 8 tables, got %d" % len(tables))
    out: dict[float, dict[str, float]] = {}
    for t in t_grid:
        values = [eval_ext_distance(tab, t) for tab in tables]
        for v in values:
            if not v > 0:
                raise NonPositiveValue(
                    "a table evaluates to a non-positive value at t = %g" % t
                )
        est = fit_growth(
            PositiveSequence.from_values(values, n_start),
            drop_head_fraction=drop_head_fraction,
        )
        entry = {
            "h_t_hat": math.log(est.rho_hat),
            "h_pol_t_hat": est.s_hat,
            "residual": est.residual,
        }
        if est.residual > RESIDUAL_TRUST_THRESHOLD:
            entry["limit_warning"] = 1.0
        out[float(t)] = entry
    return out


def pairing_values(
    gram: ExactMatrix,
    f: ExactMatrix,
    v: Sequence[Union[int, Fraction]],
    w: Sequence[Union[int, Fraction]],
    n_max: int,
) -> list[Fraction]:
    """Exact values |v^T . gram . F^n . w| for n = 1..n_max (zeros kept).

    The iteration runs on int numerators: ``v^T G`` and ``F^n w`` over the
    common denominator ``gram.den * den(v) * den(w) * f.den^n``, and only
    the returned values are ``Fraction``s."""
    from .exact_linalg import _over_common_denominator  # loaded with gram

    if gram.n != f.n:
        raise DimensionMismatch("gram and F sizes differ")
    if len(v) != f.n or len(w) != f.n:
        raise DimensionMismatch("vector length does not match matrix size")
    mul = operator.mul
    vn, vden = _over_common_denominator(v)
    cur, den = _over_common_denominator(w)
    left = [sum(map(mul, col, vn)) for col in zip(*gram.num)]  # v^T G
    den *= gram.den * vden
    out = []
    for _ in range(n_max):
        cur = [sum(map(mul, row, cur)) for row in f.num]
        den *= f.den
        out.append(Fraction(abs(sum(map(mul, left, cur))), den))
    return out


def pairing_sequence(
    gram: ExactMatrix,
    f: ExactMatrix,
    v: Sequence[Union[int, Fraction]],
    w: Sequence[Union[int, Fraction]],
    n_max: int,
) -> PositiveSequence:
    """The sequence a_n = |v^T . gram . F^n . w| for n = 1..n_max, exact
    until the float conversion at the boundary.

    Raises ZeroPairingAt listing every n with a zero value: the pairing
    sequence is then degenerate for this vector pair and another pair must
    be chosen.
    """
    values = pairing_values(gram, f, v, w, n_max)
    zeros = [n for n, val in enumerate(values, start=1) if val == 0]
    if zeros:
        raise ZeroPairingAt(zeros)
    return PositiveSequence.from_values([float(x) for x in values], n_start=1)

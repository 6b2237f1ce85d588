"""Closed-form entropy values and bounds for standard autoequivalences.

Shifts and fractional Calabi-Yau Serre functors have linear entropy
functions and zero polynomial entropy.  Twists around sphere-like and
projective-space-like objects follow one model with a single parameter,
the slope alpha: after n twists the weighted dimension sum is

    B + A * sum_{j=1..n} exp((1 + alpha*(j-1)) t),

and the entropy function is alpha*t for t <= 0.  A d-sphere-like object
has alpha = 1 - d, a P^d-like object alpha = -2d.  The sum has a
closed-form upper bound, validated against the exact term-by-term
recurrence it came from.
"""

from __future__ import annotations

import decimal
import math
import warnings
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import Optional

from .errors import CatEntropyWarning, DomainError


class TwistKind(Enum):
    SPHERICAL = "spherical"
    PTWIST = "ptwist"


#: Floats this close to zero snap to the t = 0 branch (with a warning);
#: the geometric closed forms have a removable singularity there.
T_SNAP = 1e-12


@dataclass(frozen=True)
class TwistParams:
    """Parameters of a twist bound: the object dimension d, the weight t,
    and the two sequence constants A (cost of the twisted building block)
    and B (cost of the start object)."""

    kind: TwistKind
    d: int
    t: float
    A: float
    B: float
    orth_nonempty: bool = False

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("twist dimension d must be >= 1")
        if not all(map(math.isfinite, (self.t, self.A, self.B))):
            raise DomainError("t, A and B must be finite")
        if not self.A > 0 or not self.B > 0:
            raise DomainError("constants A and B must be positive")

    @property
    def t_snapped(self) -> float:
        if self.t != 0.0 and abs(self.t) < T_SNAP:
            warnings.warn(
                "t = %g is within %g of 0; using the t = 0 branch"
                % (self.t, T_SNAP),
                CatEntropyWarning,
            )
            return 0.0
        return self.t

    @property
    def slope(self) -> int:
        """The slope alpha of the entropy function for t <= 0."""
        if self.kind is TwistKind.SPHERICAL:
            return 1 - self.d
        return -2 * self.d


@dataclass(frozen=True)
class ValueOrInterval:
    """Either an exact value (lo == hi) or a closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise DomainError("interval endpoints out of order")

    @staticmethod
    def exact(v: float) -> "ValueOrInterval":
        return ValueOrInterval(v, v)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __str__(self) -> str:
        if self.is_exact:
            return "%g" % self.lo
        hi = "inf" if math.isinf(self.hi) else "%g" % self.hi
        return "[%g, %s]" % (self.lo, hi)


def shift_report(m: int) -> dict:
    """The shift by m: entropy function m*t, zero polynomial entropy."""
    return {"h_t_slope": Fraction(m), "h_pol": 0}


def fractional_cy_report(n: int, m: int) -> dict:
    """Serre functor with n-th power the shift by m: entropy function
    (m/n)*t, zero polynomial entropy."""
    if n < 1:
        raise DomainError("fractional period n must be >= 1")
    return {"h_t_slope": Fraction(m, n), "h_pol": 0}


#: Working context for bound/recurrence evaluation: 30 digits, and an
#: exponent range so wide that values far beyond float range stay finite
#: internally.  An exp past even that range rounds to Infinity (whose float
#: is inf) instead of raising.
_CONTEXT = decimal.Context(
    prec=30,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero],
)


def twist_bound_mp(p: TwistParams, n: int) -> Decimal:
    """Closed-form upper bound for the weighted dimension sum after n
    twists, as a 30-digit Decimal.

    Branches (in selection order): slope 0 and t = 0 equal the recurrence
    exactly; for any other slope and t != 0 the geometric closed form
    dominates the finite sum.  With x = e^t the gap, closed form minus
    partial sum, is for every n >= 1

        A * (x^(alpha n) * (1 - x) + x) / (x^alpha - 1)    for t < 0,
        A * x^(alpha n + 1) / (1 - x^alpha)                for t > 0,

    and both are positive (alpha < 0 here, so x^alpha > 1 exactly when
    x < 1).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    return _bounds(p, [n])[0]


def twist_bound_series(p: TwistParams, n_max: int) -> list:
    """``[twist_bound_mp(p, n) for n in 1..n_max]``, Decimal for Decimal,
    with exp(t), exp(-alpha t) and, for t > 0, the whole bound evaluated
    once instead of once per n."""
    if n_max < 1:
        raise DomainError("n must be >= 1")
    return _bounds(p, range(1, n_max + 1))


def _bounds(p: TwistParams, ns) -> list:
    """The closed forms of twist_bound_mp at each n of ns (n >= 1); only
    the Decimal operations that depend on n run once per n."""
    t, alpha = p.t_snapped, p.slope
    with decimal.localcontext(_CONTEXT):
        a, b, tm = Decimal(p.A), Decimal(p.B), Decimal(t)
        if alpha == 0:
            et = tm.exp()
            return [n * et * a + b for n in ns]
        if t == 0.0:
            return [n * a + b for n in ns]
        if t < 0:
            # exp(alpha n t) / (exp(alpha t) - 1), divided through by
            # exp(alpha t) so that no inf/inf arises at extreme t
            den = 1 - (-alpha * tm).exp()
            return [(alpha * (n - 1) * tm).exp() / den * a + b for n in ns]
        return [tm.exp() / (1 - (alpha * tm).exp()) * a + b] * len(ns)


def twist_recurrence_series(p: TwistParams, n_max: int) -> list:
    """Partial sums B + A * sum_{j=1..n} exp((slope*j + 1 - slope) t) for
    n = 1..n_max, accumulated term by term (30-digit Decimals)."""
    if n_max < 1:
        raise DomainError("n must be >= 1")
    t, alpha = p.t_snapped, p.slope
    out = []
    with decimal.localcontext(_CONTEXT):
        a, tm = Decimal(p.A), Decimal(t)
        acc = Decimal(p.B)
        for j in range(1, n_max + 1):
            acc = acc + a * ((alpha * j + 1 - alpha) * tm).exp()
            out.append(acc)
    return out


def twist_bound(p: TwistParams, n: int) -> float:
    """Float view of twist_bound_mp (inf when beyond float range)."""
    return float(twist_bound_mp(p, n))


def twist_recurrence(p: TwistParams, n: int) -> float:
    """Float view of the exact term-by-term partial sum."""
    return float(twist_recurrence_series(p, n)[-1])


@dataclass(frozen=True)
class TwistEntropyReport:
    """Entropy function shape and polynomial-entropy branch values of a
    twist, with the branch at the report's own t resolved."""

    kind: TwistKind
    h_t_description: str
    h_t_at_t: float
    h_pol_branches: tuple[tuple[str, ValueOrInterval], ...]
    h_pol_at_t: ValueOrInterval
    unknown_at_t: bool
    note: Optional[str] = None


def twist_entropy_report(
    p: TwistParams, quiver_cy3_context: bool = False
) -> TwistEntropyReport:
    """Branch table for the (polynomial) entropy of a twist.

    The entropy function is slope*t for t <= 0 and 0 for t > 0.  The
    polynomial entropy vanishes off t = 0 for a nonzero slope, provided
    for t > 0 that something is orthogonal to the twisted object; without
    that hypothesis the branch is unknown ([0, inf)).  At t = 0 (and at
    every t for slope 0, the d = 1 sphere) only the two-sided bound
    [0, 1] holds in general; declaring the quiver 3-Calabi-Yau context
    pins the value of the known examples to 1, recorded as a note.
    """
    t = p.t_snapped
    alpha = p.slope
    label = "(1-d)t" if p.kind is TwistKind.SPHERICAL else "-2dt"
    h_t_desc = "%s = %d*t for t <= 0; 0 for t > 0" % (label, alpha)
    h_t_now = alpha * t if t <= 0 else 0.0
    if alpha == 0:
        branches = {
            "t<0": ValueOrInterval(0.0, 1.0),
            "t=0": ValueOrInterval(0.0, 1.0),
            "t>0": ValueOrInterval(0.0, 1.0),
        }
        unknown = {"t<0": False, "t=0": False, "t>0": False}
    else:
        pos = (
            ValueOrInterval.exact(0.0)
            if p.orth_nonempty
            else ValueOrInterval(0.0, math.inf)
        )
        branches = {
            "t<0": ValueOrInterval.exact(0.0),
            "t=0": ValueOrInterval(0.0, 1.0),
            "t>0": pos,
        }
        unknown = {"t<0": False, "t=0": False, "t>0": not p.orth_nonempty}

    key = "t=0" if t == 0.0 else ("t<0" if t < 0 else "t>0")
    note = None
    if quiver_cy3_context and key == "t=0":
        note = (
            "in the quiver 3-Calabi-Yau context the vertex twists attain "
            "the upper endpoint: the value is 1"
        )
    return TwistEntropyReport(
        kind=p.kind,
        h_t_description=h_t_desc,
        h_t_at_t=h_t_now,
        h_pol_branches=tuple(sorted(branches.items())),
        h_pol_at_t=branches[key],
        unknown_at_t=unknown[key],
        note=note,
    )

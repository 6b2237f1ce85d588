"""Twist autoequivalences: closed-form complexity bounds and their branches.

Iterating a twist around a d-sphere-like or projective-space-like object
produces weighted dimension sums bounded by explicit geometric series.
The closed forms are exact on the linear branches and genuine upper
bounds on the geometric ones; the entropy branches they imply include a
jump at t = 0.
"""

from catentropy import (
    PositiveSequence,
    TwistKind,
    TwistParams,
    fit_growth,
    fractional_cy_report,
    shift_report,
    twist_bound,
    twist_entropy_report,
    twist_recurrence,
)
from catentropy.twist_zoo import twist_recurrence_series

print("Shifts cost nothing:", shift_report(1), shift_report(-3))
print("Fractional Serre functor with fifth power a double shift:",
      fractional_cy_report(5, 2))
print()

print("Sphere-like twist, d = 2, at t = 0: the bound is exactly linear.")
p = TwistParams(TwistKind.SPHERICAL, d=2, t=0.0, A=1.0, B=1.0)
for n in (1, 10, 100):
    print("  n = %3d: bound = %6.1f  recurrence = %6.1f"
          % (n, twist_bound(p, n), twist_recurrence(p, n)))
print()

print("Same twist at t = -0.5: exponential growth, closed form dominates.")
p = TwistParams(TwistKind.SPHERICAL, d=2, t=-0.5, A=1.0, B=1.0)
for n in (1, 10, 50):
    print("  n = %3d: bound = %10.3f  >= recurrence = %10.3f"
          % (n, twist_bound(p, n), twist_recurrence(p, n)))
vals = [float(v) for v in twist_recurrence_series(p, 200)]
est = fit_growth(PositiveSequence.from_values(vals))
import math
print("  fitted growth rate %.6f matches e^{(1-d)t} = %.6f"
      % (est.rho_hat, math.exp((1 - 2) * (-0.5))))
print()

print("Entropy branches of a 3-sphere-like twist:")
for t in (-0.5, 0.0, 0.5):
    rep = twist_entropy_report(
        TwistParams(TwistKind.SPHERICAL, d=3, t=t, A=1.0, B=1.0,
                    orth_nonempty=True),
        quiver_cy3_context=(t == 0.0),
    )
    print("  t = %+.1f: h_t = %5.2f   h_pol in %s%s"
          % (t, rep.h_t_at_t, rep.h_pol_at_t,
             "   <- " + rep.note if rep.note else ""))
print()
print("The polynomial entropy jumps at t = 0: it vanishes for t < 0 but")
print("the quiver vertex twists attain 1 at t = 0 (a genuine discontinuity).")

"""Euler forms and Coxeter transformations of acyclic quivers.

For a finite quiver without oriented cycles the Euler pairing in the basis
of vertex simples is chi(x, y) = sum_i x_i y_i - sum_{arrows i->j} x_i y_j,
a unimodular form.  The Coxeter transformation Phi = -G^{-T} G is the
canonical isometry of that form; its growth data gives the exact entropy
values of the corresponding derived autoequivalence, which this module
cross-checks against brute-force pairing sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Sequence, Union

from .errors import (
    AllPairingsDegenerate,
    DimensionMismatch,
    DomainError,
    NotAnIsometry,
)
from .exact_linalg import (
    DEFAULT_TOLERANCE,
    MAX_BITS,
    ExactMatrix,
    GrowthSignature,
    _abs_orbit,
    _signature,
)
from .growth_estimator import EstimatedSignature, _check_positive, _fit_period


@dataclass(frozen=True)
class Quiver:
    """Finite quiver with no oriented cycles; arrows are a multiset of
    ordered pairs of distinct 0-based vertices."""

    vertex_count: int
    arrows: tuple[tuple[int, int], ...]

    @staticmethod
    def from_arrows(
        vertex_count: int, arrows: Sequence[tuple[int, int]]
    ) -> "Quiver":
        if vertex_count < 1:
            raise DomainError("a quiver needs at least one vertex")
        for i, j in arrows:
            if not (0 <= i < vertex_count and 0 <= j < vertex_count):
                raise DomainError("arrow endpoint out of range: (%d, %d)" % (i, j))
            if i == j:
                raise DomainError("loops are not allowed: (%d, %d)" % (i, j))
        if not _is_acyclic(vertex_count, arrows):
            raise DomainError("quiver has an oriented cycle")
        return Quiver(vertex_count, tuple((i, j) for i, j in arrows))

    def arrow_count(self, i: int, j: int) -> int:
        return sum(1 for a, b in self.arrows if (a, b) == (i, j))


def _is_acyclic(n: int, arrows) -> bool:
    """Whether the arrows on n vertices form no oriented cycle: Kahn's
    algorithm removes every vertex."""
    indeg = [0] * n
    outs: list[list[int]] = [[] for _ in range(n)]
    for i, j in arrows:
        indeg[j] += 1
        outs[i].append(j)
    stack = [v for v in range(n) if indeg[v] == 0]
    removed = 0
    while stack:
        v = stack.pop()
        removed += 1
        for w in outs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return removed == n


@dataclass(frozen=True)
class EulerLattice:
    """Gram matrix of the Euler pairing in some basis."""

    gram: ExactMatrix


def euler_form(q: Quiver) -> EulerLattice:
    """Euler form in the basis of vertex simples: unit diagonal,
    gram[i][j] = -(number of arrows i -> j) off the diagonal."""
    n = q.vertex_count
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j in q.arrows:
        rows[i][j] -= 1
    return EulerLattice(ExactMatrix(tuple(map(tuple, rows))))


def coxeter_matrix(q: Quiver) -> ExactMatrix:
    """The Coxeter transformation Phi = -G^{-T} G, always an isometry of
    the Euler form."""
    g = euler_form(q).gram
    return -(g.transpose().inverse() @ g)


def check_isometry(lat: EulerLattice, f: ExactMatrix) -> bool:
    """True iff F^T . gram . F = gram exactly."""
    if f.n != lat.gram.n:
        raise DimensionMismatch(
            "isometry candidate is %dx%d but the lattice has rank %d"
            % (f.n, f.n, lat.gram.n)
        )
    return f.transpose() @ lat.gram @ f == lat.gram


#: Cap on exact pairing iterations; hyperbolic isometries stop earlier so
#: the float conversion at the sequence boundary cannot overflow.
CROSSCHECK_N_MAX = 400
_FLOAT_CEILING = 1e280


def _safe_floats(nums: Sequence[int], den: int) -> list[float]:
    """``num / den`` as floats for the nums before the first one whose
    value exceeds ``_FLOAT_CEILING``.  The bit-length test only keeps the
    division from overflowing: past it the value is over 2^959 anyway, so
    the cut depends on the values alone, not on whether num / den is in
    lowest terms."""
    out, bits = [], den.bit_length() + 960
    for num in nums:
        if num.bit_length() > bits:
            break
        x = num / den
        if x > _FLOAT_CEILING:
            break
        out.append(x)
    return out


@dataclass(frozen=True)
class HereditaryReport:
    h_cat: float
    h_pol: int
    signature: GrowthSignature
    crosscheck: EstimatedSignature
    crosscheck_consistent: bool
    skipped_pairs: tuple[tuple[int, int], ...]
    used_pair_sum_fallback: bool


def hereditary_report(
    lat: EulerLattice,
    f: ExactMatrix,
    n_max: int = CROSSCHECK_N_MAX,
    tolerance: Union[Fraction, float] = DEFAULT_TOLERANCE,
    max_bits: int = MAX_BITS,
) -> HereditaryReport:
    """Exact entropy values of an isometry with a pairing-sequence crosscheck.

    h_cat = log rho(F) and h_pol = s(F) from the growth signature.  The
    crosscheck fits the summed pairing sequence over all basis pairs,
    skipping pairs whose sequence contains zeros; when every individual
    pair degenerates, the full sum (zero terms and all) is fitted instead,
    since zeros along subsequences do not change the growth class.  The fit
    must recover rho within 1e-3 relative and s within 0.15.

    When the signature proves ``F^k = I`` (``s == 0`` and a quasi-unipotence
    order k), as for a Dynkin quiver, ``G F^(k+i) = G F^i`` for any G: the
    orbit ``|G F^k|`` (``_abs_orbit``) is taken for k terms, whose zero
    pairs and pair totals are those of every step.  Their floats are
    formed once, and the fit reads the sequence of every step from them
    (``_fit_period``: k logs and per-residue sums), with the same result
    as a fit of the floats repeated out to the step count.  The k terms
    stand for every step only when they stay whole under
    ``_FLOAT_CEILING``; otherwise the cut-off falls inside them, where
    every step would put it too.
    """
    if not f.is_integer:
        raise DomainError("isometry must have integer entries")
    if not check_isometry(lat, f):
        raise NotAnIsometry("matrix does not preserve the Euler pairing")
    sig, mu = _signature(f, tolerance, max_bits)
    h_cat = sig.log_rho
    h_pol = sig.s

    n = f.n
    # Stop exact iteration before float conversion can overflow.
    steps = n_max
    if sig.rho_float > 1:
        steps = min(n_max, max(32, int(640 / math.log(sig.rho_float))))

    # The pair value |e_i^T G F^k e_j| is entry (i, j) of G F^k, so each
    # step of the orbit gives all n^2 pairs, as absolute int numerators
    # (row-major) over gram.den.  F^k = I makes k terms one period.
    k = sig.quasi_unipotent_k
    period = min(steps, k) if k is not None and h_pol == 0 else steps
    steps_abs = _abs_orbit(lat.gram, f, mu, period)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    has_zero = [not all(seq) for seq in zip(*steps_abs)]
    skipped = [pair for pair, z in zip(pairs, has_zero) if z]
    fallback = all(has_zero)
    if fallback or not any(has_zero):
        totals = list(map(sum, steps_abs))
    else:
        kept = [not z for z in has_zero]
        totals = [sum(compress(vals, kept)) for vals in steps_abs]
    if not all(totals):
        raise AllPairingsDegenerate(
            "summed pairing sequence vanishes; no growth crosscheck possible"
        )
    floats = _safe_floats(totals, lat.gram.den)
    length = len(floats)
    if length == period:
        # The period stayed under the float ceiling: every step repeats it.
        length = steps
    if length < 16:
        raise AllPairingsDegenerate("too few finite pairing values to fit")
    _check_positive(floats)
    est = _fit_period(floats, length)
    consistent = (
        abs(est.rho_hat - sig.rho_float) <= 1e-3 * sig.rho_float
        and abs(est.s_hat - h_pol) <= 0.15
    )
    return HereditaryReport(
        h_cat=h_cat,
        h_pol=h_pol,
        signature=sig,
        crosscheck=est,
        crosscheck_consistent=consistent,
        skipped_pairs=tuple(skipped),
        used_pair_sum_fallback=fallback,
    )

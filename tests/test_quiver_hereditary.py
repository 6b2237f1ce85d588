from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import pytest

from catentropy.corpus import kronecker_quiver, linear_quiver, random_acyclic_quiver
from catentropy.errors import (
    AllPairingsDegenerate,
    DimensionMismatch,
    DomainError,
    NonPositiveValue,
    NotAnIsometry,
)
from catentropy.exact_linalg import ExactMatrix, growth_signature
from catentropy import exact_linalg, quiver_hereditary
from catentropy.quiver_hereditary import (
    EulerLattice,
    Quiver,
    check_isometry,
    coxeter_matrix,
    euler_form,
    hereditary_report,
)
from catentropy.jsonio import canonical_json, serialize_hereditary_report

M = ExactMatrix.from_rows


def test_quiver_rejects_cycles_and_loops():
    with pytest.raises(DomainError):
        Quiver.from_arrows(2, [(0, 1), (1, 0)])
    with pytest.raises(DomainError):
        Quiver.from_arrows(2, [(0, 0)])
    with pytest.raises(DomainError):
        Quiver.from_arrows(2, [(0, 5)])


def test_euler_form_a2():
    lat = euler_form(Quiver.from_arrows(2, [(0, 1)]))
    assert lat.gram == M([[1, -1], [0, 1]])


def test_euler_form_no_arrows():
    assert euler_form(Quiver.from_arrows(3, [])).gram == ExactMatrix.identity(3)


def test_euler_form_kronecker():
    assert euler_form(kronecker_quiver(2)).gram == M([[1, -2], [0, 1]])


def test_coxeter_a2_has_order_three():
    phi = coxeter_matrix(Quiver.from_arrows(2, [(0, 1)]))
    assert phi**3 in (ExactMatrix.identity(2), -ExactMatrix.identity(2))
    assert check_isometry(euler_form(Quiver.from_arrows(2, [(0, 1)])), phi)


def test_coxeter_no_arrows_is_minus_identity():
    assert coxeter_matrix(Quiver.from_arrows(3, [])) == -ExactMatrix.identity(3)


def test_coxeter_kronecker_growth():
    sig = growth_signature(coxeter_matrix(kronecker_quiver(2)))
    assert sig.rho_exact == Fraction(1)
    assert sig.s == 1


def test_check_isometry_examples():
    lat = euler_form(Quiver.from_arrows(2, [(0, 1)]))
    assert check_isometry(lat, ExactMatrix.identity(2))
    assert not check_isometry(lat, M([[2, 0], [0, 1]]))
    with pytest.raises(DimensionMismatch):
        check_isometry(lat, ExactMatrix.identity(3))


def test_unimodularity_random_corpus():
    rng = random.Random(99)
    for _ in range(30):
        q = random_acyclic_quiver(rng)
        assert euler_form(q).gram.det() == 1


def test_coxeter_isometry_random_corpus():
    rng = random.Random(100)
    for _ in range(30):
        q = random_acyclic_quiver(rng)
        assert check_isometry(euler_form(q), coxeter_matrix(q))


def test_dynkin_coxeter_finite_order():
    for n in range(1, 6):
        for orient in range(2 ** (n - 1)):
            q = linear_quiver(n, orient)
            phi = coxeter_matrix(q)
            ident = ExactMatrix.identity(n)
            power = ident
            assert any(
                (power := power @ phi) in (ident, -ident)
                for _ in range(2 * (n + 1))
            )


def test_hereditary_report_a2_coxeter():
    q = Quiver.from_arrows(2, [(0, 1)])
    rep = hereditary_report(euler_form(q), coxeter_matrix(q))
    assert rep.h_cat == 0.0 and rep.h_pol == 0
    assert rep.crosscheck_consistent
    # every single pairing sequence of the order-3 Coxeter matrix hits
    # zeros, so the crosscheck falls back to the summed sequence
    assert rep.used_pair_sum_fallback


def test_hereditary_report_identity():
    lat = euler_form(Quiver.from_arrows(2, [(0, 1)]))
    rep = hereditary_report(lat, ExactMatrix.identity(2))
    assert rep.h_cat == 0.0 and rep.h_pol == 0
    assert rep.crosscheck_consistent


def test_hereditary_report_2_kronecker():
    q = kronecker_quiver(2)
    rep = hereditary_report(euler_form(q), coxeter_matrix(q))
    assert rep.h_cat == 0.0
    assert rep.h_pol == 1
    assert rep.crosscheck_consistent


def test_hereditary_report_3_kronecker():
    q = kronecker_quiver(3)
    rep = hereditary_report(euler_form(q), coxeter_matrix(q))
    # larger root of x^2 - 7x + 1 (the Coxeter characteristic polynomial)
    rho = (7 + math.sqrt(45)) / 2
    assert abs(rep.h_cat - math.log(rho)) < 1e-11
    assert rep.h_pol == 0
    assert rep.crosscheck_consistent
    assert {str(h) for h, _ in rep.signature.dominant_factors} == {"x^2 - 7*x + 1"}


def test_hereditary_report_rejects_non_isometry():
    lat = euler_form(Quiver.from_arrows(2, [(0, 1)]))
    with pytest.raises(NotAnIsometry):
        hereditary_report(lat, M([[2, 0], [0, 1]]))


def test_hereditary_report_rejects_rational_matrix():
    lat = EulerLattice(ExactMatrix.identity(2))
    with pytest.raises(DomainError):
        hereditary_report(lat, M([["1/2", 0], [0, 2]]))


def test_hereditary_report_degenerate_pairing():
    # a zero user-supplied pairing makes every sequence vanish: nothing
    # survives, not even the summed fallback
    lat = EulerLattice(ExactMatrix.zeros(2))
    from catentropy.errors import AllPairingsDegenerate

    with pytest.raises(AllPairingsDegenerate):
        hereditary_report(lat, ExactMatrix.identity(2))


def test_hereditary_exact_matches_crosscheck_all_a_orientations():
    for n in range(2, 6):
        for orient in range(2 ** (n - 1)):
            q = linear_quiver(n, orient)
            rep = hereditary_report(euler_form(q), coxeter_matrix(q), n_max=240)
            assert rep.h_cat == 0.0 and rep.h_pol == 0
            assert rep.crosscheck_consistent, (n, orient)


#: Quivers on 4 vertices whose Coxeter matrix has a min poly of degree 3:
#: one arrow beside two free vertices (Phi of order 6), and a hyperbolic
#: one with a triple arrow.
DEROGATORY = [
    Quiver.from_arrows(4, [(1, 3)]),
    Quiver.from_arrows(4, [(1, 3), (3, 0), (3, 0), (3, 0), (3, 2)]),
]


def _every_step_orbit(left, f, c, steps):
    """``|G F^k|`` for every k = 1..steps by repeated products, as int
    numerators: the pairing orbit without the recurrence.  c, the monic
    int polynomial that the report hands the orbit, must annihilate F."""
    assert left.den == 1 == f.den
    assert c[-1] == 1 and _poly_at(c, f).is_zero
    power, out = left, []
    for _ in range(steps):
        power = power @ f
        out.append([abs(x) for row in power.num for x in row])
    return out


def _poly_at(c, f):
    """``c(F)`` by Horner, for int coefficients c, lowest degree first."""
    out = ExactMatrix.zeros(f.n)
    for x in reversed(c):
        out = out @ f + ExactMatrix.identity(f.n).scale(x)
    return out


def test_hereditary_report_reads_a_periodic_orbit_from_one_period(monkeypatch):
    # Every orientation of A1-A6 has a Coxeter matrix of order n + 1, so
    # its pairing orbit is taken for one period and the report fits that
    # period's pair totals as the sequence of every step; the identity has
    # a period of 1, K2 and K3 none.  Two quivers with a derogatory Phi
    # recur on a min poly of degree 3 < n: one has order 6, inside the
    # recurrence, and one infinite order.  Each report must equal the one
    # built from its orbit by repeated products, at step counts that one
    # period does and does not divide.
    quivers = [linear_quiver(n, o) for n in range(1, 7) for o in range(2 ** (n - 1))]
    quivers += [kronecker_quiver(2), kronecker_quiver(3), *DEROGATORY]
    cases = [(euler_form(q), coxeter_matrix(q)) for q in quivers]
    a2 = euler_form(Quiver.from_arrows(2, [(0, 1)]))
    cases.append((a2, ExactMatrix.identity(2)))
    for n_max in (400, 37):
        fast = [hereditary_report(lat, f, n_max=n_max) for lat, f in cases]
        monkeypatch.setattr(quiver_hereditary, "_abs_orbit", _every_step_orbit)
        slow = [hereditary_report(lat, f, n_max=n_max) for lat, f in cases]
        monkeypatch.undo()
        assert list(map(repr, fast)) == list(map(repr, slow))
    # No steps at all leave nothing to tile or fit.
    with pytest.raises(AllPairingsDegenerate):
        hereditary_report(*cases[3], n_max=0)


def _order(f: ExactMatrix, bound: int = 30):
    """The least k <= bound with F^k = I by repeated products, else None."""
    power, ident = f, ExactMatrix.identity(f.n)
    for k in range(1, bound + 1):
        if power == ident:
            return k
        power = power @ f
    return None


def test_hereditary_report_asks_the_orbit_for_one_period_of_a_finite_order(monkeypatch):
    # A Phi of finite order (every orientation of A1-A6, the identity, and
    # the derogatory A2 + A1 + A1 of order 6) is asked for ord(Phi) terms;
    # K2 (unipotent), K3 and the hyperbolic derogatory Phi for every step:
    # 400, or int(640 / log rho) when rho > 1, so that no float overflows.
    asked, orbit = [], quiver_hereditary._abs_orbit
    monkeypatch.setattr(
        quiver_hereditary, "_abs_orbit", lambda l, f, c, k: asked.append(k) or orbit(l, f, c, k)
    )
    quivers = [linear_quiver(n, o) for n in range(1, 7) for o in range(2 ** (n - 1))]
    quivers += [kronecker_quiver(2), kronecker_quiver(3), *DEROGATORY]
    cases = [(euler_form(q), coxeter_matrix(q)) for q in quivers]
    cases.append((euler_form(Quiver.from_arrows(2, [(0, 1)])), ExactMatrix.identity(2)))
    orders = [_order(f) for _, f in cases]
    assert orders[:63] == [n + 1 for n in range(1, 7) for _ in range(2 ** (n - 1))]
    assert orders[63:] == [None, None, 6, None, 1]
    steps = iter([400, 332, 292])
    for (lat, f), order in zip(cases, orders):
        asked.clear()
        hereditary_report(lat, f)
        assert asked == [order or next(steps)], (f, order)


class _CountingMath:
    """``math`` with a count of the float arguments that ``log`` reads."""

    def __init__(self):
        self.floats = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.floats += isinstance(x, float)
        return math.log(x)


def test_hereditary_report_fits_a_returning_orbit_from_one_period(monkeypatch):
    # Every orientation of A1-A6 has period p = order(Phi), and its fit
    # takes the log of at most p floats, not of every step; K2 and K3
    # never return, and their fits read every step of the window.
    from catentropy import growth_estimator

    spy = _CountingMath()
    monkeypatch.setattr(growth_estimator, "math", spy)
    for n in range(1, 7):
        for orient in range(2 ** (n - 1)):
            q = linear_quiver(n, orient)
            f = coxeter_matrix(q)
            order = next(k for k in range(1, 20) if f**k == ExactMatrix.identity(n))
            spy.floats = 0
            rep = hereditary_report(euler_form(q), f)
            assert rep.crosscheck.window[1] == 400
            assert 0 < spy.floats <= order, (n, orient)
    for m in (2, 3):
        q = kronecker_quiver(m)
        spy.floats = 0
        rep = hereditary_report(euler_form(q), coxeter_matrix(q))
        lo, hi = rep.crosscheck.window
        assert spy.floats == hi - lo + 1 >= 200, m


def test_hereditary_report_forms_the_power_sums_once(monkeypatch):
    # The orbit recurs on the min poly from the signature's own analysis,
    # so one report forms tr(Phi^k) once: for A4 (Phi of order 5 > n,
    # returning in the recurrence), K3 (hyperbolic) and derogatory Phi,
    # whose min poly is shorter than the char poly.
    calls, polys = [], []
    power_sums, orbit = exact_linalg._power_sums, quiver_hereditary._abs_orbit
    monkeypatch.setattr(
        exact_linalg, "_power_sums", lambda m: calls.append(m) or power_sums(m)
    )
    monkeypatch.setattr(
        quiver_hereditary, "_abs_orbit", lambda l, f, c, k: polys.append(c) or orbit(l, f, c, k)
    )
    quivers = [linear_quiver(4), kronecker_quiver(3), *DEROGATORY]
    for q in quivers:
        f = coxeter_matrix(q)
        calls.clear()
        hereditary_report(euler_form(q), f)
        assert calls == [f], q
    monkeypatch.undo()
    assert polys == [exact_linalg._min_poly_int(coxeter_matrix(q))[0] for q in quivers]
    assert [len(c) - 1 for c in polys] == [4, 2, 3, 3]


def test_a_returning_orbit_past_the_float_ceiling_fails_as_every_step_does(monkeypatch):
    # A period whose pair totals cross _FLOAT_CEILING (1e280) is cut
    # inside its first period, so its floats must not be repeated.  With
    # the Euler form scaled by c, A2's Phi returns after 3 steps with
    # totals (2, 3, 3) c and A3's after 4 with (4, 4, 5, 5) c, so one or two
    # floats stay under the ceiling; F = I returns at once with every total
    # about 2e300.  Each fails as the orbit of every step does.
    def scaled(q, c):
        return EulerLattice(euler_form(q).gram.scale(c))

    a2, a3 = linear_quiver(2), linear_quiver(3)
    cases = [
        (scaled(a2, 4 * 10**279), coxeter_matrix(a2)),
        (scaled(a3, 22 * 10**278), coxeter_matrix(a3)),
        (scaled(a2, 10**300), ExactMatrix.identity(2)),
    ]
    for orbit in (quiver_hereditary._abs_orbit, _every_step_orbit):
        monkeypatch.setattr(quiver_hereditary, "_abs_orbit", orbit)
        for lat, f in cases:
            with pytest.raises(AllPairingsDegenerate, match="too few finite pairing values"):
                hereditary_report(lat, f)


def test_pairing_floats_that_underflow_to_zero_are_refused():
    # A Gram matrix I / 10^400 makes every pair total a float 0.0: the
    # report checks its floats as a PositiveSequence checks its values.
    lat = EulerLattice(ExactMatrix.identity(3).scale(Fraction(1, 10**400)))
    cycle = M([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(NonPositiveValue, match="strictly positive and finite"):
        hereditary_report(lat, cycle)


def _fraction_gram(q: Quiver) -> ExactMatrix:
    """The Euler form built entry by entry from Fractions, each
    off-diagonal entry counting its arrows, as ``euler_form`` once did."""
    n = q.vertex_count
    return ExactMatrix.from_rows([
        [Fraction(1) if i == j else Fraction(-q.arrow_count(i, j)) for j in range(n)]
        for i in range(n)
    ])


def test_euler_form_matches_the_fraction_built_gram():
    # Every orientation of A1-A6, the Kronecker quivers K2-K8 and random
    # quivers with up to 4 parallel arrows, listed in shuffled order.
    rng = random.Random(24)
    quivers = [linear_quiver(n, o) for n in range(1, 7) for o in range(2 ** (n - 1))]
    quivers += [kronecker_quiver(m) for m in range(2, 9)]
    for _ in range(40):
        q = random_acyclic_quiver(rng, max_vertices=7, max_parallel=4)
        arrows = list(q.arrows)
        rng.shuffle(arrows)
        quivers.append(Quiver.from_arrows(q.vertex_count, arrows))
    repeated = sum(len(set(q.arrows)) < len(q.arrows) for q in quivers)
    assert repeated >= 20
    for q in quivers:
        got, ref = euler_form(q).gram, _fraction_gram(q)
        assert (got.num, got.den) == (ref.num, ref.den)
        assert all(type(x) is int for row in got.num for x in row)
        assert coxeter_matrix(q) == -(ref.transpose().inverse() @ ref)


#: SHA-256 over the canonical JSON of ``serialize_hereditary_report``, one
#: line per quiver, for each corpus of ``_report_corpora``.  The fitted
#: floats come from the platform's ``math.log`` and ``math.exp``, so, as
#: with the golden envelopes, another C library can move these digests.
REPORT_DIGESTS = {
    "A1-A5": "fb8a700bdcd472c9a0d5da721f8e39ff5349a5a76af7121a1c906490aebfe81f",
    "K2-K8": "7f0783b5d360ce2b977c2cd0fcb4213cc029c2258e7fde1e7eef18763e886a7d",
    "random": "643d45f3f85983151b49ba1bc7b5f952682120ed64571c768ef38fb70f4487d0",
}


def _report_corpora() -> dict:
    """Every orientation of A1-A5 (31 quivers), the Kronecker quivers K2-K8
    and 20 random acyclic quivers of up to 6 vertices."""
    rng = random.Random(20)
    return {
        "A1-A5": [linear_quiver(n, o) for n in range(1, 6) for o in range(2 ** (n - 1))],
        "K2-K8": [kronecker_quiver(m) for m in range(2, 9)],
        "random": [random_acyclic_quiver(rng, max_vertices=6) for _ in range(20)],
    }


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_hereditary_reports_keep_their_digests(name):
    quivers = _report_corpora()[name]
    assert len(quivers) == {"A1-A5": 31, "K2-K8": 7, "random": 20}[name]
    digest = hashlib.sha256()
    for q in quivers:
        rep = hereditary_report(euler_form(q), coxeter_matrix(q))
        digest.update(canonical_json(serialize_hereditary_report(rep)).encode() + b"\n")
    assert digest.hexdigest() == REPORT_DIGESTS[name]

"""Self-test: the executable invariant corpus behind ``catentropy selftest``.

Every check is deterministic (fixed seeds) and returns a list of failure
messages; an empty list is a pass.  The ``corrupt`` flag intentionally
damages one Gram matrix so the negative-control path can be exercised.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Optional

from . import (
    exact_linalg as xl,
    growth_estimator as ge,
    quiver_hereditary as qh,
    sl2z_dynamics as sl,
    twist_zoo as tz,
    variety_dynamics as vd,
)
from .corpus import (
    kronecker_quiver,
    linear_quiver,
    random_acyclic_quiver,
    random_quasi_unipotent,
    random_unimodular,
    random_word,
)
from .errors import CatEntropyError

SEED = 0xC47E17


# --- exact_linalg ----------------------------------------------------------


def check_jordan_conjugation(corrupt: bool = False) -> list[str]:
    rng = random.Random(SEED + 1)
    failures = []
    for i in range(40):
        sample = random_quasi_unipotent(rng)
        sig = xl.growth_signature(sample.matrix)
        if sig.rho_exact != Fraction(1):
            failures.append("sample %d: rho is not exactly 1" % i)
        if sig.s != sample.max_multiplicity - 1:
            failures.append(
                "sample %d: s = %d but the construction has j* = %d"
                % (i, sig.s, sample.max_multiplicity)
            )
    return failures


def check_oracle_equivalence(corrupt: bool = False) -> list[str]:
    rng = random.Random(SEED + 2)
    failures = []
    for i in range(15):
        sample = random_quasi_unipotent(rng)
        sig = xl.growth_signature(sample.matrix)
        seq = ge.PositiveSequence.from_values(xl.entry_sum_sequence(sample.matrix, 400))
        est = ge.fit_growth(seq)
        if abs(est.rho_hat - sig.rho_float) > 1e-3 * sig.rho_float:
            failures.append(
                "sample %d: rho_hat %.6f vs exact %.6f" % (i, est.rho_hat, sig.rho_float)
            )
        if abs(est.s_hat - sig.s) > 0.15:
            failures.append(
                "sample %d: s_hat %.3f vs exact %d" % (i, est.s_hat, sig.s)
            )
    return failures


def _mixed_matrix_corpus(rng: random.Random) -> list[xl.ExactMatrix]:
    fib = xl.ExactMatrix.from_rows([[2, 1], [1, 1]])
    singular = xl.ExactMatrix.from_rows([[0, 0], [0, 2]])
    cox3 = qh.coxeter_matrix(kronecker_quiver(3))
    out = [fib, singular, cox3]
    for _ in range(5):
        out.append(random_quasi_unipotent(rng, max_size=6).matrix)
    return out


def check_power_law(corrupt: bool = False) -> list[str]:
    rng = random.Random(SEED + 3)
    failures = []
    for i, m in enumerate(_mixed_matrix_corpus(rng)):
        sig = xl.growth_signature(m)
        for e in range(1, 6):
            sig_e = xl.growth_signature(m**e)
            if sig_e.s != sig.s:
                failures.append("matrix %d power %d: s changed" % (i, e))
            if abs(sig_e.rho_float - sig.rho_float**e) > 1e-9 * sig.rho_float**e:
                failures.append("matrix %d power %d: rho not multiplicative" % (i, e))
    return failures


def check_inverse_law(corrupt: bool = False) -> list[str]:
    rng = random.Random(SEED + 4)
    failures = []
    for i in range(12):
        m = random_quasi_unipotent(rng, max_size=6).matrix
        a, b = xl.growth_signature(m), xl.growth_signature(m.inverse())
        if (a.rho_exact, a.s) != (b.rho_exact, b.s):
            failures.append("sample %d: inverse has different growth" % i)
    return failures


def check_commuting_subadditivity(corrupt: bool = False) -> list[str]:
    rng = random.Random(SEED + 5)
    failures = []
    for i in range(12):
        x = random_quasi_unipotent(rng, max_size=4).matrix
        y = random_quasi_unipotent(rng, max_size=4).matrix
        u = random_unimodular(rng, x.n + y.n)
        a = u @ xl.ExactMatrix.block_diag(x, xl.ExactMatrix.identity(y.n)) @ u.inverse()
        b = u @ xl.ExactMatrix.block_diag(xl.ExactMatrix.identity(x.n), y) @ u.inverse()
        if (a @ b) != (b @ a):
            failures.append("sample %d: construction does not commute" % i)
            continue
        s_ab = xl.growth_signature(a @ b).s
        if s_ab > xl.growth_signature(a).s + xl.growth_signature(b).s:
            failures.append("sample %d: s(AB) exceeds s(A) + s(B)" % i)
    return failures


def check_tensor_additivity(corrupt: bool = False) -> list[str]:
    rng = random.Random(SEED + 6)
    failures = []
    for i in range(10):
        a = random_quasi_unipotent(rng, max_size=4).matrix
        b = random_quasi_unipotent(rng, max_size=4).matrix
        s = xl.growth_signature(xl.tensor_product(a, b)).s
        expected = xl.growth_signature(a).s + xl.growth_signature(b).s
        if s != expected:
            failures.append(
                "sample %d: s(A tensor B) = %d != %d" % (i, s, expected)
            )
    return failures


def check_minpoly_divides_charpoly(corrupt: bool = False) -> list[str]:
    rng = random.Random(SEED + 7)
    failures = []
    for i in range(15):
        n = rng.randint(1, 5)
        m = xl.ExactMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        )
        q, r = divmod(xl.char_poly(m), xl.min_poly(m))
        if not r.is_zero:
            failures.append("sample %d: min poly does not divide char poly" % i)
    return failures


# --- growth_estimator ------------------------------------------------------


def check_ext_additivity(corrupt: bool = False) -> list[str]:
    rng = random.Random(SEED + 8)
    failures = []
    for i in range(20):
        t1 = {rng.randint(-4, 4): rng.randint(0, 5) for _ in range(3)}
        t2 = {rng.randint(-4, 4): rng.randint(0, 5) for _ in range(3)}
        merged = {k: t1.get(k, 0) + t2.get(k, 0) for k in set(t1) | set(t2)}
        for t in (-1.0, 0.0, 0.7):
            lhs = ge.eval_ext_distance(ge.ExtTable.from_dict(merged), t)
            rhs = ge.eval_ext_distance(
                ge.ExtTable.from_dict(t1), t
            ) + ge.eval_ext_distance(ge.ExtTable.from_dict(t2), t)
            if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
                failures.append("sample %d: disjoint-union additivity fails" % i)
            bumped = dict(merged)
            bumped[0] = bumped.get(0, 0) + 1
            if ge.eval_ext_distance(ge.ExtTable.from_dict(bumped), t) <= lhs - 1e-12:
                failures.append("sample %d: not monotone in the dimensions" % i)
    return failures


def check_fit_recovery(corrupt: bool = False) -> list[str]:
    failures = []
    for rho in (1.0, 1.5, 2.618):
        for s in (0, 1, 2, 3):
            for c in (0.5, 1.0, 10.0):
                vals = [c * rho**n * n**s for n in range(1, 401)]
                est = ge.fit_growth(ge.PositiveSequence.from_values(vals))
                if abs(est.rho_hat - rho) > 1e-3 * rho or abs(est.s_hat - s) > 0.15:
                    failures.append(
                        "rho=%g s=%d c=%g: got rho_hat=%.5f s_hat=%.3f"
                        % (rho, s, c, est.rho_hat, est.s_hat)
                    )
    return failures


def check_fit_shift_invariance(corrupt: bool = False) -> list[str]:
    failures = []
    base = [1.7**n * n for n in range(1, 201)]
    ref = ge.fit_growth(ge.PositiveSequence.from_values(base))
    for c in (0.001, 3.0, 1e6):
        est = ge.fit_growth(ge.PositiveSequence.from_values([c * v for v in base]))
        if (
            abs(est.rho_hat - ref.rho_hat) > 1e-6
            or abs(est.s_hat - ref.s_hat) > 1e-6
        ):
            failures.append("scaling by %g moved the estimates" % c)
    return failures


# --- sl2z ------------------------------------------------------------------


def check_sl2z_conjugation(corrupt: bool = False) -> list[str]:
    rng = random.Random(SEED + 9)
    failures = []
    words = [random_word(rng) for _ in range(25)]
    conjugators = [random_word(rng, max_letters=4) for _ in range(8)]
    for i, w in enumerate(words):
        base = sl.trichotomy_report(w)
        for g in conjugators:
            inverse_letters = tuple(
                (gen, -exp) for gen, exp in reversed(g.letters)
            )
            conj = sl.TwistWord.from_letters(
                g.letters + w.letters + inverse_letters, w.context
            )
            rep = sl.trichotomy_report(conj)
            if (
                rep.classification != base.classification
                or rep.h_pol != base.h_pol
                or abs(rep.h_cat_float - base.h_cat_float) > 1e-12
                or rep.trace != base.trace
            ):
                failures.append("word %d: conjugation changed the report" % i)
    return failures


def check_sl2z_determinant(corrupt: bool = False) -> list[str]:
    rng = random.Random(SEED + 10)
    failures = []
    for ctx in (sl.Context.A2CY3, sl.Context.ELLIPTIC):
        for i in range(25):
            w = random_word(rng, context=ctx)
            if sl.word_to_matrix(w).m.det() != 1:
                failures.append("%s word %d: determinant is not 1" % (ctx.value, i))
    return failures


def check_sl2z_center(corrupt: bool = False) -> list[str]:
    failures = []
    for k in range(1, 6):
        w = sl.TwistWord.from_letters([(1, 1), (2, 1)] * (3 * k), sl.Context.A2CY3)
        if not sl.word_to_matrix(w).is_plus_minus_identity:
            failures.append("(T1 T2)^%d is not +-identity" % (3 * k))
    return failures


def check_sl2z_powers(corrupt: bool = False) -> list[str]:
    rng = random.Random(SEED + 11)
    failures = []
    for i in range(20):
        w = random_word(rng, max_letters=5)
        base = sl.trichotomy_report(w)
        for m in range(1, 5):
            wm = sl.TwistWord.from_letters(w.letters * m, w.context)
            if sl.trichotomy_report(wm).h_pol != base.h_pol:
                failures.append("word %d power %d changed h_pol" % (i, m))
    return failures


def check_sl2z_trace_exhaustive(corrupt: bool = False) -> list[str]:
    failures = []
    span = range(-5, 6)
    count = 0
    for a in span:
        for b in span:
            for c in span:
                for d in span:
                    if a * d - b * c != 1:
                        continue
                    count += 1
                    g = sl.Sl2Element(xl.ExactMatrix.from_rows([[a, b], [c, d]]))
                    cls = sl.classify_sl2(g)
                    t = abs(a + d)
                    if t < 2:
                        expected = sl.Sl2Class.ELLIPTIC_OR_CENTRAL
                    elif t > 2:
                        expected = sl.Sl2Class.HYPERBOLIC
                    elif (a, b, c, d) in ((1, 0, 0, 1), (-1, 0, 0, -1)):
                        expected = sl.Sl2Class.ELLIPTIC_OR_CENTRAL
                    else:
                        expected = sl.Sl2Class.PARABOLIC_NON_CENTRAL
                    if cls != expected:
                        failures.append(
                            "matrix %s misclassified as %s" % ((a, b, c, d), cls)
                        )
                    # Spot-check the classification against the growth data.
                    if count % 29 == 0:
                        sig = xl.growth_signature(g.m)
                        by_growth = (
                            sl.Sl2Class.HYPERBOLIC
                            if sig.rho_float > 1 + 1e-9
                            else (
                                sl.Sl2Class.PARABOLIC_NON_CENTRAL
                                if sig.s == 1
                                else sl.Sl2Class.ELLIPTIC_OR_CENTRAL
                            )
                        )
                        if by_growth != cls:
                            failures.append(
                                "matrix %s: growth route disagrees" % ((a, b, c, d),)
                            )
    return failures


# --- variety ---------------------------------------------------------------


def _variety_corpus() -> list[vd.EndoAction]:
    m = xl.ExactMatrix.from_rows
    out = []
    for k in (2, 3):
        for d in (1, 2, 3):
            out.append(
                vd.EndoAction.from_matrices([m([[k**p]]) for p in range(d + 1)])
            )
    out.append(vd.EndoAction.from_matrices([m([[1]])] * 4))
    unip = xl.ExactMatrix.block_diag(
        m([[1, 1], [0, 1]]), m([[1, 1], [0, 1]])
    )
    out.append(
        vd.EndoAction.from_matrices(
            [m([[1]]), xl.exterior_power(unip, 2), m([[1]])]
        )
    )
    return out


def check_variety_plateau(corrupt: bool = False) -> list[str]:
    failures = []
    for i, e in enumerate(_variety_corpus()):
        try:
            rep = vd.pullback_entropy_report(e)
        except CatEntropyError as exc:
            failures.append("action %d: %s" % (i, exc))
            continue
        p0, p1 = rep.table.plateau
        for p in range(p0, p1 + 1):
            if rep.h_pol < rep.table.s_p[p]:
                failures.append("action %d: plateau lower bound violated" % i)
    return failures


def check_variety_exp_nilpotent(corrupt: bool = False) -> list[str]:
    rng = random.Random(SEED + 12)
    failures = []
    for i in range(12):
        n = rng.randint(2, 6)
        rows = [
            [rng.randint(-3, 3) if j > i_ else 0 for j in range(n)]
            for i_ in range(n)
        ]
        nil = xl.ExactMatrix.from_rows(rows)
        idx = xl.nilpotency_index(nil)
        if idx is None:
            failures.append("sample %d: strict upper triangular not nilpotent" % i)
            continue
        lb = vd.LineBundleData(dim=n, c1_action=nil)
        rep = vd.line_bundle_report(lb)
        if rep.exp_signature.rho_exact != Fraction(1) or rep.exp_signature.s != idx - 1:
            failures.append("sample %d: exp growth is not (1, nu)" % i)
    return failures


def check_variety_kuenneth(corrupt: bool = False) -> list[str]:
    failures = []
    for i, e in enumerate(_variety_corpus()):
        res = vd.kuenneth_self_product(vd.degree_table(e))
        for msg in res.degree_mismatches + res.s_mismatches:
            failures.append("action %d: %s" % (i, msg))
    return failures


def check_variety_degree_multiplicativity(corrupt: bool = False) -> list[str]:
    failures = []
    for i, e in enumerate(_variety_corpus()):
        base = vd.degree_table(e)
        for m in (2, 3):
            powered = vd.EndoAction.from_matrices([a**m for a in e.actions])
            table = vd.degree_table(powered)
            for p in range(e.dim + 1):
                if table.s_p[p] != base.s_p[p]:
                    failures.append("action %d power %d: s_p changed" % (i, m))
                if (
                    abs(table.d_p[p] - base.d_p[p] ** m)
                    > 1e-9 * base.d_p[p] ** m
                ):
                    failures.append(
                        "action %d power %d: d_p not multiplicative" % (i, m)
                    )
    return failures


# --- twists ----------------------------------------------------------------


def check_twist_bound_recurrence(corrupt: bool = False) -> list[str]:
    failures = []
    for kind in (tz.TwistKind.SPHERICAL, tz.TwistKind.PTWIST):
        for d in (1, 2, 3, 4):
            for t in (-1.0, -0.1, 0.0, 0.1, 1.0):
                for a in (0.5, 1.0, 10.0):
                    for b in (0.5, 1.0, 10.0):
                        p = tz.TwistParams(kind, d=d, t=t, A=a, B=b)
                        rec = tz.twist_recurrence_series(p, 200)
                        exact_branch = t == 0.0 or p.slope == 0
                        # Noise floor: the series accumulates at 30-digit
                        # precision, so treat sub-2^-60 gaps as ties.  The
                        # comparison itself is exact.
                        eps = Fraction(1, 2**60)
                        for n in (1, 2, 3, 7, 50, 200):
                            bb = Fraction(tz.twist_bound_mp(p, n))
                            rr = Fraction(rec[n - 1])
                            if exact_branch:
                                if abs(bb - rr) > Fraction(1e-12) * rr:
                                    failures.append(
                                        "%s d=%d t=%g n=%d: closed form off"
                                        % (kind.value, d, t, n)
                                    )
                            elif rr - bb > rr * eps:
                                failures.append(
                                    "%s d=%d t=%g n=%d: bound below recurrence"
                                    % (kind.value, d, t, n)
                                )
    return failures


def check_twist_growth_consistency(corrupt: bool = False) -> list[str]:
    failures = []
    for d in (2, 3, 4):
        for t in (-1.0, -0.1):
            p = tz.TwistParams(tz.TwistKind.SPHERICAL, d=d, t=t, A=1.0, B=1.0)
            vals = [float(v) for v in tz.twist_recurrence_series(p, 200)]
            if not all(math.isfinite(v) for v in vals):
                continue
            est = ge.fit_growth(ge.PositiveSequence.from_values(vals))
            target = math.exp((1 - d) * t)
            if abs(est.rho_hat - target) > 1e-3 * target or abs(est.s_hat) > 0.15:
                failures.append(
                    "d=%d t=%g: fit rho=%.6f target=%.6f s=%.3f"
                    % (d, t, est.rho_hat, target, est.s_hat)
                )
    return failures


def check_twist_discontinuity_witness(corrupt: bool = False) -> list[str]:
    failures = []
    below = tz.twist_entropy_report(
        tz.TwistParams(tz.TwistKind.SPHERICAL, d=3, t=-0.01, A=1.0, B=1.0)
    )
    at_zero = tz.twist_entropy_report(
        tz.TwistParams(tz.TwistKind.SPHERICAL, d=3, t=0.0, A=1.0, B=1.0),
        quiver_cy3_context=True,
    )
    if not (below.h_pol_at_t.is_exact and below.h_pol_at_t.lo == 0.0):
        failures.append("branch below 0 should be exactly 0")
    if at_zero.h_pol_at_t != tz.ValueOrInterval(0.0, 1.0):
        failures.append("branch at 0 should be the interval [0, 1]")
    if at_zero.note is None:
        failures.append("quiver context note missing at t = 0")
    if below.h_pol_at_t == at_zero.h_pol_at_t:
        failures.append("the two branch values should differ")
    return failures


# --- quivers ---------------------------------------------------------------


def _quiver_corpus(corrupt: bool) -> list[tuple[qh.EulerLattice, xl.ExactMatrix]]:
    rng = random.Random(SEED + 13)
    out = []
    for _ in range(40):
        q = random_acyclic_quiver(rng)
        lat = qh.euler_form(q)
        out.append((lat, qh.coxeter_matrix(q)))
    kron = kronecker_quiver(2)
    lat = qh.euler_form(kron)
    phi = qh.coxeter_matrix(kron)
    if corrupt:
        # Bump one Gram entry; the Coxeter matrix no longer preserves it.
        rows = [list(r) for r in lat.gram.rows]
        rows[0][1] += 1
        lat = qh.EulerLattice(xl.ExactMatrix.from_rows(rows))
    out.append((lat, phi))
    return out


def check_quiver_coxeter_isometry(corrupt: bool = False) -> list[str]:
    failures = []
    for i, (lat, phi) in enumerate(_quiver_corpus(corrupt)):
        if not qh.check_isometry(lat, phi):
            failures.append("quiver %d: Coxeter matrix is not an isometry" % i)
    return failures


def check_quiver_unimodularity(corrupt: bool = False) -> list[str]:
    rng = random.Random(SEED + 14)
    failures = []
    for i in range(40):
        q = random_acyclic_quiver(rng)
        if qh.euler_form(q).gram.det() != 1:
            failures.append("quiver %d: Euler form is not unimodular" % i)
    return failures


def check_quiver_dynkin_finite(corrupt: bool = False) -> list[str]:
    failures = []
    for n in range(1, 6):
        for orient in range(2 ** (n - 1)):
            q = linear_quiver(n, orient)
            phi = qh.coxeter_matrix(q)
            ident = xl.ExactMatrix.identity(n)
            order = None
            power = ident
            for h in range(1, 2 * (n + 1) + 1):
                power = power @ phi
                if power == ident or power == -ident:
                    order = h
                    break
            if order is None:
                failures.append(
                    "A%d orientation %d: Coxeter matrix not finite order" % (n, orient)
                )
                continue
            if n >= 2:
                sig = xl.growth_signature(phi)
                if sig.rho_float != 1.0 or sig.s != 0:
                    failures.append(
                        "A%d orientation %d: nonzero growth" % (n, orient)
                    )
    return failures


def check_quiver_hereditary_crosscheck(corrupt: bool = False) -> list[str]:
    failures = []
    cases = [linear_quiver(n, 0) for n in range(2, 6)]
    cases.append(linear_quiver(4, 0b101))
    cases += [kronecker_quiver(2), kronecker_quiver(3)]
    for i, q in enumerate(cases):
        lat = qh.euler_form(q)
        rep = qh.hereditary_report(lat, qh.coxeter_matrix(q), n_max=240)
        if not rep.crosscheck_consistent:
            failures.append(
                "case %d: exact values (h_cat=%.4f, h_pol=%d) disagree with "
                "fit (rho_hat=%.4f, s_hat=%.3f)"
                % (i, rep.h_cat, rep.h_pol, rep.crosscheck.rho_hat, rep.crosscheck.s_hat)
            )
    return failures


# ---------------------------------------------------------------------------

CHECKS: tuple[tuple[str, Callable[[bool], list[str]]], ...] = (
    ("exact-linalg/jordan-conjugation", check_jordan_conjugation),
    ("exact-linalg/oracle-equivalence", check_oracle_equivalence),
    ("exact-linalg/power-law", check_power_law),
    ("exact-linalg/inverse-law", check_inverse_law),
    ("exact-linalg/commuting-subadditivity", check_commuting_subadditivity),
    ("exact-linalg/tensor-additivity", check_tensor_additivity),
    ("exact-linalg/minpoly-divides-charpoly", check_minpoly_divides_charpoly),
    ("estimator/ext-additivity", check_ext_additivity),
    ("estimator/fit-recovery", check_fit_recovery),
    ("estimator/shift-invariance", check_fit_shift_invariance),
    ("sl2z/conjugation-invariance", check_sl2z_conjugation),
    ("sl2z/determinant", check_sl2z_determinant),
    ("sl2z/center-detection", check_sl2z_center),
    ("sl2z/powers", check_sl2z_powers),
    ("sl2z/trace-exhaustive", check_sl2z_trace_exhaustive),
    ("variety/plateau-consistency", check_variety_plateau),
    ("variety/exp-nilpotent", check_variety_exp_nilpotent),
    ("variety/kuenneth-consistency", check_variety_kuenneth),
    ("variety/degree-multiplicativity", check_variety_degree_multiplicativity),
    ("twist/bound-recurrence", check_twist_bound_recurrence),
    ("twist/growth-consistency", check_twist_growth_consistency),
    ("twist/discontinuity-witness", check_twist_discontinuity_witness),
    ("quiver/coxeter-isometry", check_quiver_coxeter_isometry),
    ("quiver/unimodularity", check_quiver_unimodularity),
    ("quiver/dynkin-finite-order", check_quiver_dynkin_finite),
    ("quiver/hereditary-crosscheck", check_quiver_hereditary_crosscheck),
)


def run_selftest(
    name_filter: Optional[str] = None,
    corrupt: bool = False,
    emit: Callable[[str], None] = print,
) -> int:
    """Run the invariant corpus; returns 0 iff every selected check passes."""
    selected = [
        (key, fn)
        for key, fn in CHECKS
        if name_filter is None or name_filter in key
    ]
    if not selected:
        emit("no checks match filter %r" % name_filter)
        return 1
    failed = 0
    for key, fn in selected:
        failures = fn(corrupt)
        if failures:
            failed += 1
            emit("FAIL  %-40s %s" % (key, failures[0]))
            for msg in failures[1:3]:
                emit("      %-40s %s" % ("", msg))
        else:
            emit("PASS  %s" % key)
    emit(
        "%d/%d checks passed" % (len(selected) - failed, len(selected))
    )
    return 0 if failed == 0 else 1

"""Acceptance suite: every release-gating criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all);
tolerances are pinned here, not configurable.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
from fractions import Fraction

from catentropy import exact_linalg as xl
from catentropy import growth_estimator as ge
from catentropy import quiver_hereditary as qh
from catentropy import sl2z_dynamics as sl
from catentropy import twist_zoo as tz
from catentropy import variety_dynamics as vd
from catentropy.corpus import (
    kronecker_quiver,
    linear_quiver,
    random_quasi_unipotent,
    random_word,
)

M = xl.ExactMatrix.from_rows


def _report(name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print("%s  %s" % (status, name))
    for msg in failures[:5]:
        print("      %s" % msg)
    assert not failures, "%s: %d failure(s): %s" % (name, len(failures), failures[:3])


def test_criterion_1_jordan_oracle_equivalence():
    rng = random.Random(0xACCE55 + 1)
    failures = []
    for i in range(200):
        sample = random_quasi_unipotent(rng, max_size=8)
        sig = xl.growth_signature(sample.matrix)
        if sig.rho_exact != Fraction(1):
            failures.append("matrix %d: rho not exactly 1" % i)
        if sig.s != sample.max_multiplicity - 1:
            failures.append(
                "matrix %d: s = %d, expected %d"
                % (i, sig.s, sample.max_multiplicity - 1)
            )
        vals = xl.entry_sum_sequence(sample.matrix, 400)
        est = ge.fit_growth(ge.PositiveSequence.from_values(vals))
        if abs(est.s_hat - sig.s) > 0.15:
            failures.append(
                "matrix %d: fitted s_hat %.3f vs exact %d" % (i, est.s_hat, sig.s)
            )
    _report("criterion-1 jordan-oracle-equivalence (200 matrices)", failures)


def test_criterion_2_trichotomy_table():
    log_golden_sq = math.log((3 + math.sqrt(5)) / 2)
    table = [
        ([[1, 0], [0, 1]], sl.Sl2Class.ELLIPTIC_OR_CENTRAL, 0.0, 0),
        ([[-1, 0], [0, -1]], sl.Sl2Class.ELLIPTIC_OR_CENTRAL, 0.0, 0),
        ([[1, 1], [0, 1]], sl.Sl2Class.PARABOLIC_NON_CENTRAL, 0.0, 1),
        ([[1, 0], [1, 1]], sl.Sl2Class.PARABOLIC_NON_CENTRAL, 0.0, 1),
        ([[0, 1], [-1, 0]], sl.Sl2Class.ELLIPTIC_OR_CENTRAL, 0.0, 0),
        ([[1, 1], [-1, 0]], sl.Sl2Class.ELLIPTIC_OR_CENTRAL, 0.0, 0),
        ([[2, 1], [1, 1]], sl.Sl2Class.HYPERBOLIC, log_golden_sq, 0),
        ([[1, -1], [1, 0]], sl.Sl2Class.ELLIPTIC_OR_CENTRAL, 0.0, 0),
    ]
    failures = []
    for rows, expected_cls, expected_h, expected_pol in table:
        rep = sl.matrix_report(sl.Sl2Element(M(rows)))
        if rep.classification is not expected_cls:
            failures.append("%s: class %s" % (rows, rep.classification))
        if abs(rep.h_cat_float - expected_h) > 1e-9:
            failures.append("%s: h_cat %.12f" % (rows, rep.h_cat_float))
        if rep.h_pol != expected_pol:
            failures.append("%s: h_pol %d" % (rows, rep.h_pol))
    _report("criterion-2 trichotomy-table (8 matrices)", failures)


def test_criterion_3_braid_consistency():
    rng = random.Random(0xACCE55 + 3)
    failures = []
    words = [random_word(rng, max_letters=12) for _ in range(500)]
    for i, w in enumerate(words):
        rep = sl.trichotomy_report(w)
        sig = xl.growth_signature(sl.word_to_matrix(w).m)
        if abs(rep.h_cat_float - sig.log_rho) > 1e-9:
            failures.append("word %d: h_cat vs log rho" % i)
        if rep.h_pol != sig.s:
            failures.append("word %d: h_pol %d vs s %d" % (i, rep.h_pol, sig.s))
        if not sl.crosscheck_with_lattice(w)["consistent"]:
            failures.append("word %d: crosscheck flag" % i)
    conjugators = [
        sl.word_to_matrix(random_word(rng, max_letters=6)).m for _ in range(50)
    ]
    for i, w in enumerate(words):
        base = sl.trichotomy_report(w)
        wm = sl.word_to_matrix(w).m
        for g in conjugators:
            conj = sl.matrix_report(
                sl.Sl2Element(g @ wm @ g.inverse()), w.context
            )
            if conj != base:
                failures.append("word %d: conjugation changed the report" % i)
                break
    _report("criterion-3 braid-consistency (500 words, 50 conjugators)", failures)


def _power_map(k: int, d: int) -> vd.EndoAction:
    return vd.EndoAction.from_matrices([M([[k**p]]) for p in range(d + 1)])


def _abelian_parabolic() -> vd.EndoAction:
    u = xl.ExactMatrix.block_diag(M([[1, 1], [0, 1]]), M([[1, 1], [0, 1]]))
    return vd.EndoAction.from_matrices(
        [M([[1]]), xl.exterior_power(u, 2), M([[1]])]
    )


def test_criterion_4_dynamical_degree_suite():
    failures = []
    actions = []
    for k in (2, 3):
        for d in (1, 2, 3):
            e = _power_map(k, d)
            actions.append(e)
            table = vd.degree_table(e)
            if table.d_p != tuple(float(k**p) for p in range(d + 1)):
                failures.append("power map k=%d d=%d: degrees wrong" % (k, d))
            rep = vd.pullback_entropy_report(e)
            if abs(rep.h_cat - d * math.log(k)) > 1e-12 or rep.h_pol != 0:
                failures.append("power map k=%d d=%d: entropy wrong" % (k, d))
    ab = _abelian_parabolic()
    actions.append(ab)
    rep = vd.pullback_entropy_report(ab)
    if rep.h_cat != 0.0 or rep.h_pol != 2:
        failures.append(
            "abelian action: (h_cat, h_pol) = (%g, %d)" % (rep.h_cat, rep.h_pol)
        )
    for i, e in enumerate(actions):
        res = vd.kuenneth_self_product(vd.degree_table(e))
        for msg in res.degree_mismatches + res.s_mismatches:
            failures.append("self-product %d: %s" % (i, msg))
    _report("criterion-4 dynamical-degree-suite", failures)


def test_criterion_5_line_bundle_suite():
    failures = []
    for d in (1, 2, 3, 4):
        rows = [[0] * (d + 1) for _ in range(d + 1)]
        for i in range(d):
            rows[i + 1][i] = 1
        counts = [math.comb(n + d, d) for n in range(1, 401)]
        lb = vd.LineBundleData(
            dim=d,
            c1_action=M(rows),
            nef_flag=vd.NefFlag.NEF,
            cohomology_sequences={0: ge.PositiveSequence.from_values(counts)},
        )
        rep = vd.line_bundle_report(lb)
        if rep.h_pol_exact != d:
            failures.append("hyperplane on dim %d: exact value %s" % (d, rep.h_pol_exact))
        if abs(rep.empirical_s_hat - d) > 0.15:
            failures.append(
                "hyperplane on dim %d: fit %.3f" % (d, rep.empirical_s_hat)
            )
    c1 = M([[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 1, -1, 0]])
    sections = [(n + 1) * (n + 2) / 2 for n in range(1, 401)]
    lb = vd.LineBundleData(
        dim=2,
        c1_action=c1,
        nef_flag=vd.NefFlag.UNKNOWN,
        cohomology_sequences={0: ge.PositiveSequence.from_values(sections)},
    )
    rep = vd.line_bundle_report(lb)
    if vd.numerical_dimension(lb) != 1:
        failures.append("square-zero divisor: nu != 1")
    if (rep.h_pol_lower, rep.h_pol_upper) != (1, 2) or rep.h_pol_exact is not None:
        failures.append("square-zero divisor: bounds wrong")
    if abs(rep.empirical_s_hat - 2) > 0.15:
        failures.append("square-zero divisor: fit %.3f" % rep.empirical_s_hat)
    _report("criterion-5 line-bundle-suite", failures)


def test_criterion_6_twist_suite():
    failures = []
    # exact comparisons of the 30-digit values
    eps = Fraction(1, 2**60)
    for kind in (tz.TwistKind.SPHERICAL, tz.TwistKind.PTWIST):
        for d in (1, 2, 3, 4):
            for t in (-1.0, -0.1, 0.0, 0.1, 1.0):
                for a in (0.5, 1.0, 10.0):
                    for b in (0.5, 1.0, 10.0):
                        p = tz.TwistParams(kind, d=d, t=t, A=a, B=b)
                        rec = [Fraction(v) for v in tz.twist_recurrence_series(p, 200)]
                        bounds = tz.twist_bound_series(p, 200)
                        exact_branch = t == 0.0 or p.slope == 0
                        for n in range(1, 201):
                            bb, rr = Fraction(bounds[n - 1]), rec[n - 1]
                            if exact_branch:
                                if abs(bb - rr) > Fraction(1e-12) * rr:
                                    failures.append(
                                        "%s d=%d t=%g A=%g B=%g n=%d: not equal"
                                        % (kind.value, d, t, a, b, n)
                                    )
                                    break
                            elif rr - bb > rr * eps:
                                failures.append(
                                    "%s d=%d t=%g A=%g B=%g n=%d: not an upper bound"
                                    % (kind.value, d, t, a, b, n)
                                )
                                break
    for d in (2, 3, 4):
        for t in (-1.0, -0.1):
            p = tz.TwistParams(tz.TwistKind.SPHERICAL, d=d, t=t, A=1.0, B=1.0)
            vals = [float(v) for v in tz.twist_recurrence_series(p, 200)]
            est = ge.fit_growth(ge.PositiveSequence.from_values(vals))
            target = math.exp((1 - d) * t)
            if abs(est.rho_hat - target) > 1e-3 * target:
                failures.append(
                    "fit d=%d t=%g: rho_hat %.8f vs %.8f" % (d, t, est.rho_hat, target)
                )
    _report("criterion-6 twist-suite (full grid, n <= 200)", failures)


def test_criterion_7_hereditary_suite():
    failures = []
    for n in range(1, 6):
        for orient in range(2 ** max(0, n - 1)):
            q = linear_quiver(n, orient)
            rep = qh.hereditary_report(qh.euler_form(q), qh.coxeter_matrix(q))
            if rep.h_cat != 0.0 or rep.h_pol != 0:
                failures.append("A%d orientation %d: values" % (n, orient))
            if not rep.crosscheck_consistent:
                failures.append("A%d orientation %d: crosscheck" % (n, orient))
    rep = qh.hereditary_report(
        qh.euler_form(kronecker_quiver(2)), qh.coxeter_matrix(kronecker_quiver(2))
    )
    if rep.h_cat != 0.0 or rep.h_pol != 1 or not rep.crosscheck_consistent:
        failures.append("2-Kronecker report wrong")
    q3 = kronecker_quiver(3)
    rep = qh.hereditary_report(qh.euler_form(q3), qh.coxeter_matrix(q3))
    rho = (7 + math.sqrt(45)) / 2  # larger root of x^2 - 7x + 1
    if abs(rep.h_cat - math.log(rho)) > 1e-9 or rep.h_pol != 0:
        failures.append("3-Kronecker values wrong")
    if not rep.crosscheck_consistent:
        failures.append("3-Kronecker crosscheck")
    exact = rep.signature.rho_exact
    if not (
        isinstance(exact, xl.RootOfFactor)
        and str(exact.factor) == "x^2 - 7*x + 1"
        and exact.modulus_rank == 0
    ):
        failures.append("3-Kronecker spectral radius not certified exactly")
    lo, hi = rep.signature.rho_interval
    if not (float(lo) <= rho <= float(hi) + 1e-15):
        failures.append("3-Kronecker interval does not bracket the root")
    _report("criterion-7 hereditary-suite (31 orientations + Kroneckers)", failures)


def test_criterion_8_determinism_and_selftest():
    failures = []
    base = [sys.executable, "-m", "catentropy"]

    proc = subprocess.run(
        base + ["selftest"], capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        failures.append("selftest exited %d" % proc.returncode)

    outs = set()
    for _ in range(2):
        run = subprocess.run(
            base + ["--json", "growth", "-"],
            input='{"rows": [[2, 1], [1, 1]]}',
            capture_output=True,
            text=True,
        )
        outs.add(run.stdout)
    if len(outs) != 1:
        failures.append("repeated --json runs differ")

    control = subprocess.run(
        base + ["selftest", "--filter", "quiver/coxeter", "--corrupt"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if control.returncode != 1:
        failures.append("corrupted corpus did not exit 1")
    if "coxeter-isometry" not in control.stdout:
        failures.append("failing invariant not named")
    _report("criterion-8 determinism-and-selftest", failures)

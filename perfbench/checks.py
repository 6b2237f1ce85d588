"""Independent checks of every operation's output.

References are computed here, apart from the program's own code: sympy's
``DomainMatrix.charpoly`` and factorisation for exact polynomials,
``numpy.linalg.eigvals`` on the companion matrix of each irreducible
factor for root moduli, exact ranks of ``f(M)^j`` for Jordan indices, and
plain Python ints for matrix identities.  Where the construction fixes a
value (Jordan-coupled blocks, cyclotomic blocks, A_n, K_m, closed forms of
the CLI inputs) the result must match that value too.  ``tied`` is left
unpinned, so a later proof of ties does not count as a failure.

Every ``check_*`` function returns a list of failure messages; empty means
the output passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
from sympy import QQ, Poly, Rational, Symbol
from sympy.polys.matrices import DomainMatrix

#: Relative agreement required between rho and its numpy reference.
REL = 1e-9
#: Oracle tolerances of acceptance criteria 1 and 7.
S_HAT_TOL = 0.15
RHO_HAT_TOL = 1e-3
#: Primes for the plain-int check that the min poly annihilates M.
PRIMES = (2**61 - 1, 2**31 - 1, 10**9 + 7)

_X = Symbol("x")


def _frac(c) -> Fraction:
    r = QQ.to_sympy(c)
    return Fraction(int(r.p), int(r.q))


def _coeffs(p) -> list[Fraction]:
    """Coefficients of a program polynomial (``ExactPoly``), lowest first."""
    return [Fraction(c) for c in p.coefficients]


def _to_poly(coeffs_low_first) -> Poly:
    return Poly(
        [Rational(c.numerator, c.denominator) for c in reversed(coeffs_low_first)],
        _X,
        domain=QQ,
    )


def _dm(rows) -> DomainMatrix:
    n = len(rows)
    return DomainMatrix(
        [[QQ(Fraction(x).numerator, Fraction(x).denominator) for x in row] for row in rows],
        (n, n),
        QQ,
    )


def charpoly(rows) -> list[Fraction]:
    """Monic characteristic polynomial by sympy, lowest degree first."""
    return [_frac(c) for c in reversed(_dm(rows).charpoly())]


def _max_root_modulus(f: Poly) -> float:
    c = [complex(a) for a in f.monic().all_coeffs()]
    n = len(c) - 1
    comp = np.zeros((n, n), dtype=complex)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = [-x for x in reversed(c[1:])]
    return float(max(abs(np.linalg.eigvals(comp))))


def _jordan_index(rows, f: Poly, mult: int) -> int:
    """Largest Jordan block size among the roots of irreducible ``f``: the
    least j with nullity(f(M)^j) = deg(f) * mult, from exact ranks."""
    if mult == 1:
        return 1
    m = _dm(rows)
    n = len(rows)
    fm = DomainMatrix.zeros((n, n), QQ)
    for c in f.rep.to_list():
        fm = fm * m + DomainMatrix.eye(n, QQ) * c
    power = DomainMatrix.eye(n, QQ)
    for j in range(1, mult + 1):
        power = power * fm
        if n - power.rank() == f.degree() * mult:
            return j
    raise AssertionError("generalized eigenspace never filled")


class Spectrum:
    """Reference spectral data of one matrix: char poly, irreducible
    factors with multiplicities, rho and s."""

    def __init__(self, rows):
        self.rows = rows
        self.charpoly = charpoly(rows)
        _, factors = _to_poly(self.charpoly).factor_list()
        moduli = [(_max_root_modulus(f), f, e) for f, e in factors]
        self.rho = max(r for r, _, _ in moduli)
        top = [(f, e) for r, f, e in moduli if r >= self.rho * (1 - REL)]
        self.s = max(_jordan_index(rows, f, e) for f, e in top) - 1
        self.factors = [(f, e) for _, f, e in moduli]


def check_signature(spec: Spectrum, sig, expect_s=None, expect_rho=None) -> list[str]:
    """rho_float, the certified interval and s against the references."""
    out = []
    margin = REL * spec.rho
    if abs(sig.rho_float - spec.rho) > margin:
        out.append("rho_float %.15g vs numpy %.15g" % (sig.rho_float, spec.rho))
    lo, hi = sig.rho_interval
    if not float(lo) - margin <= spec.rho <= float(hi) + margin:
        out.append("interval [%.15g, %.15g] misses %.15g" % (lo, hi, spec.rho))
    if sig.s != spec.s:
        out.append("s = %d, Jordan index gives %d" % (sig.s, spec.s))
    if expect_s is not None and sig.s != expect_s:
        out.append("s = %d, construction gives %d" % (sig.s, expect_s))
    if expect_rho is not None and abs(sig.rho_float - expect_rho) > REL * expect_rho:
        out.append("rho %.15g, closed form %.15g" % (sig.rho_float, expect_rho))
    cp = _to_poly(spec.charpoly)
    for h, mult in sig.dominant_factors:
        if not cp.rem(_to_poly(_coeffs(h)) ** mult).is_zero:
            out.append("dominant factor %s^%d does not divide the char poly" % (h, mult))
    return out


def check_char_poly(spec: Spectrum, cp) -> list[str]:
    got = _coeffs(cp)
    return [] if got == spec.charpoly else ["char_poly differs from sympy"]


def _annihilates_mod(rows, coeffs: list[Fraction], q: int) -> bool:
    n = len(rows)
    m = [[Fraction(x).numerator * pow(Fraction(x).denominator, -1, q) % q for x in r] for r in rows]
    acc = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        cq = c.numerator * pow(c.denominator, -1, q) % q
        acc = [
            [(sum(a * b for a, b in zip(row, col)) + (cq if i == j else 0)) % q
             for j, col in enumerate(zip(*m))]
            for i, row in enumerate(acc)
        ]
    return all(x == 0 for r in acc for x in r)


def check_min_poly(spec: Spectrum, mp) -> list[str]:
    """The min poly divides the char poly, shares all its irreducible
    factors, and annihilates M modulo a few large primes."""
    out = []
    coeffs = _coeffs(mp)
    p = _to_poly(coeffs)
    if coeffs[-1] != 1:
        out.append("min poly not monic")
    if not _to_poly(spec.charpoly).rem(p).is_zero:
        out.append("min poly does not divide the char poly")
    if any(not p.rem(f).is_zero for f, _ in spec.factors):
        out.append("min poly misses an irreducible factor")
    for q in PRIMES:
        if not _annihilates_mod(spec.rows, coeffs, q):
            out.append("min poly does not annihilate M mod %d" % q)
    return out


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------


def check_dense_spectral(case, output, aux) -> list[str]:
    cp, sig = output
    spec = Spectrum(case.facts["rows"])
    return (
        check_char_poly(spec, cp)
        + check_signature(spec, sig, case.facts.get("s"), case.facts.get("rho"))
        + check_min_poly(spec, aux)
    )


def _int_matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _int_power(m, k):
    n = len(m)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    while k:
        if k & 1:
            out = _int_matmul(out, m)
        m = _int_matmul(m, m)
        k >>= 1
    return out


def _fit(values: list, n_start: int = 1) -> tuple[float, float]:
    """(rho_hat, s_hat) of log a_n ~ n log rho + s log n + c over the window
    fit_growth uses by default: the first quarter of the samples dropped."""
    n_lo = n_start + len(values) // 4
    ns = np.arange(n_lo, n_start + len(values), dtype=float)
    ys = np.log(np.array(values[n_lo - n_start:], dtype=float))
    design = np.column_stack([ns, np.log(ns), np.ones_like(ns)])
    coef = np.linalg.lstsq(design, ys, rcond=None)[0]
    return math.exp(coef[0]), float(coef[1])


def check_quasi_unipotent(case, output, aux) -> list[str]:
    sig, est, last = output
    f = case.facts
    out = check_signature(Spectrum(f["rows"]), sig, f["s"], f["rho"])
    if sig.rho_exact != 1:
        out.append("rho not exactly 1")
    if sig.quasi_unipotent_k != f["k"]:
        out.append("order k = %s, construction gives %d" % (sig.quasi_unipotent_k, f["k"]))
    sums, power = [], f["rows"]
    for _ in range(f["steps"]):
        sums.append(sum(abs(x) for r in power for x in r))
        power = _int_matmul(power, f["rows"])
    if sums[-1] != last:
        out.append("entry sum of M^%d differs from plain ints" % f["steps"])
    rho_hat, s_hat = _fit([float(v) for v in sums])
    if abs(est.rho_hat - rho_hat) > REL or abs(est.s_hat - s_hat) > REL:
        out.append("fit (%.12g, %.12g) vs least squares (%.12g, %.12g)"
                   % (est.rho_hat, est.s_hat, rho_hat, s_hat))
    if abs(est.s_hat - f["s"]) > S_HAT_TOL:
        out.append("oracle s_hat %.4f vs s %d" % (est.s_hat, f["s"]))
    if abs(est.rho_hat - 1) > RHO_HAT_TOL:
        out.append("oracle rho_hat %.6f vs 1" % est.rho_hat)
    return out


def _gram(n, arrows):
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j in arrows:
        g[i][j] -= 1
    return g


def _kronecker_rho(m: int) -> float:
    t = m * m - 2
    return (t + math.sqrt(t * t - 4)) / 2


def check_quiver(case, output, aux) -> list[str]:
    gram, phi, rep = output
    f = case.facts
    n = f["vertices"]
    out = []
    g = _gram(n, f["arrows"])
    if [[Fraction(x) for x in r] for r in g] != [list(r) for r in gram.rows]:
        out.append("Euler form differs from the arrow counts")
    if any(x.denominator != 1 for r in phi.rows for x in r):
        return out + ["Coxeter matrix is not integral"]
    p = [[int(x) for x in r] for r in phi.rows]
    gt = [list(r) for r in zip(*g)]
    if _int_matmul(gt, p) != [[-x for x in r] for r in g]:
        out.append("G^T Phi != -G")
    pt = [list(r) for r in zip(*p)]
    if _int_matmul(_int_matmul(pt, g), p) != g:
        out.append("Phi^T G Phi != G")
    expect_s = expect_rho = None
    if "linear" in f:
        expect_s, expect_rho = 0, 1.0
        if _int_power(p, 2 * (n + 1)) != _int_power(p, 0):
            out.append("Phi^(2(n+1)) != I for A_%d" % n)
    if "kronecker" in f:
        m = f["kronecker"]
        expect_s, expect_rho = int(m == 2), _kronecker_rho(m)
    spec = Spectrum(p)
    out += check_signature(spec, rep.signature, expect_s, expect_rho)
    if rep.h_pol != rep.signature.s or abs(rep.h_cat - math.log(spec.rho)) > REL:
        out.append("h_cat / h_pol disagree with the signature")
    est = rep.crosscheck
    if abs(est.s_hat - spec.s) > S_HAT_TOL or abs(est.rho_hat - spec.rho) > RHO_HAT_TOL * spec.rho:
        out.append("oracle (%.6f, %.4f) vs (%.6f, %d)" % (est.rho_hat, est.s_hat, spec.rho, spec.s))
    return out


def _close(a, b, rel=REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def check_cli(case, output, aux) -> list[str]:
    """Closed forms of an invocation that exited 0 with every consistency
    flag true (others are failed operations, see ``cli_failure``)."""
    code, stdout, stderr = output
    try:
        env = json.loads(stdout)
    except ValueError:
        return ["envelope is not JSON"]
    f = case.facts
    cmd = f["argv"][0]
    if env.get("command") != cmd or env.get("warnings") != []:
        return ["envelope header %r / warnings %r" % (env.get("command"), env.get("warnings"))]
    r = env["results"]
    ok = True
    if cmd == "growth":
        ok = _close(r["rho"], f["rho"]) and r["s"] == f["s"]
    elif cmd == "classify":
        t = f["trace"]
        ok = (
            r["classification"] == "hyperbolic"
            and r["trace"] == t
            and _close(r["h_cat"]["float"], math.log((t + math.sqrt(t * t - 4)) / 2))
            and r["h_pol"] == 0
        )
    elif cmd == "endo":
        d1 = f["d1"]
        ok = (
            _close(r["h_cat"], math.log(d1))
            and r["h_pol"] == 0
            and all(_close(a, b) for a, b in zip(r["degrees"]["d_p"], [1.0, d1, 1.0]))
        )
    elif cmd == "linebundle":
        nu = f["nu"]
        ok = (
            r["h_cat"] == 0
            and r["h_pol_exact"] == r["h_pol_lower"] == r["h_pol_upper"] == nu
            and r["exp_signature"]["s"] == nu
        )
    elif cmd == "twist":
        n, d, t = f["n"], f["d"], f["t"]
        rec = 1 + math.fsum(math.exp(((1 - d) * i + d) * t) for i in range(1, n + 1))
        bound = math.exp((1 - d) * n * t) / (math.exp((1 - d) * t) - 1) + 1
        ok = (
            _close(r["recurrence_at_n"], rec)
            and _close(r["bound_at_n"], bound)
            and r["bound_at_n"] >= r["recurrence_at_n"]
            and _close(r["h_t_at_t"], (1 - d) * t)
            and r["h_pol_at_t"] == 0
        )
    elif cmd == "quiver":
        rep = r["report"]
        rho = _kronecker_rho(f["kronecker"])
        ok = (
            _close(rep["signature"]["rho"], rho)
            and _close(rep["h_cat"], math.log(rho))
            and rep["h_pol"] == 0
        )
    elif cmd == "estimate":
        ok = _close(r["rho_hat"], f["rho"], 1e-6) and abs(r["s_hat"] - f["s"]) <= 1e-6
    return [] if ok else ["results differ from the closed form: %s" % json.dumps(r)[:300]]


CHECKS = {
    "dense-spectral": check_dense_spectral,
    "quasi-unipotent-oracle": check_quasi_unipotent,
    "quiver-coxeter": check_quiver,
    "cli-subcommands": check_cli,
}

"""Seeded inputs and the timed operation of each workload.

Every input comes from this module's own generator and the seed; nothing
is taken from ``catentropy.corpus`` or the selftest, so a change to those
modules cannot move a workload.  Sizes and kinds are fixed per workload and
only the entries depend on the seed, which keeps the work per round
comparable across seeds.

A workload is a list of ``Case`` objects plus ``run(case)``, the timed
operation.  ``facts`` carries what the construction fixes (expected ``s``,
closed-form ``rho``, the plain-int matrices) for the checker in
``checks.py``.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from catentropy import exact_linalg as xl
from catentropy import growth_estimator as ge
from catentropy import quiver_hereditary as qh

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Steps of the entry-sum oracle, as in acceptance criterion 1.
ORACLE_STEPS = 400


@dataclass(frozen=True)
class Case:
    label: str
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Plain-int helpers (independent of the program's own linear algebra)
# ---------------------------------------------------------------------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of coefficient lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _cyclotomic(d: int) -> list[int]:
    """Phi_d as a coefficient list: x^d - 1 divided by Phi_e for e | d, e < d."""
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            den = _cyclotomic(e)
            quot = [0] * (len(num) - len(den) + 1)
            for k in range(len(quot) - 1, -1, -1):
                quot[k] = num[k + len(den) - 1]
                for i, c in enumerate(den):
                    num[k + i] -= quot[k] * c
            num = quot
    return num


def _companion(p: list[int]) -> list[list[int]]:
    """Companion matrix of a monic coefficient list (same layout as the
    program's ``ExactMatrix.companion``)."""
    n = len(p) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -p[i]
    return rows


def _block_diag(*blocks: list[list]) -> list[list]:
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[off + i][off : off + len(row)] = row
        off += len(b)
    return rows


def _conjugate(rng: random.Random, rows: list[list], ops: int) -> list[list]:
    """U M U^-1 for a random unimodular U made of ``ops`` elementary
    operations E = I + c e_i e_j^T: row i += c row j, then column j -= c
    column i."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 1:
        return m
    for _ in range(ops):
        i = rng.randrange(n)
        j = rng.choice([k for k in range(n) if k != i])
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        for row in m:
            row[j] -= c * row[i]
    return m


def _matrix_case(label: str, rows: list[list], **facts) -> Case:
    """A case whose input is the matrix ``rows`` (kept as plain numbers for
    the checker, and as an ``ExactMatrix`` for the program)."""
    return Case(label, dict(facts, rows=rows, matrix=xl.ExactMatrix.from_rows(rows)))


# ---------------------------------------------------------------------------
# dense-spectral
# ---------------------------------------------------------------------------

#: Integer matrices dominate the round.  Three of the largest size make up
#: more than a tenth of the operations, so op_p90_ms reads the cost of the
#: largest inputs rather than an interpolation between two sizes.
DENSE_INT_SIZES = (4, 6, 8, 10, 12, 14, 14, 14)
DENSE_RATIONAL_SIZES = (4, 6, 8, 10)
#: Sizes k of A in the Jordan-coupled blocks [[A, I], [0, A]].
JORDAN_SIZES = (3, 4, 5)


def _eisenstein(rng: random.Random, k: int) -> list[int]:
    """Monic degree-k polynomial, Eisenstein at 2: irreducible, so
    squarefree; |constant term| >= 2 puts a root outside the unit circle."""
    p = [2 * rng.randint(-2, 2) for _ in range(k)] + [1]
    p[0] = 2 * rng.choice((-3, -1, 1, 3))
    return p


#: (a, power) of the tie matrices C(p^power) + C(q), p = x^2 - a x - 1.  They
#: cost about the same whatever the seed, and with six of them the median
#: operation is one of them rather than a seed-dependent neighbour.
TIES = ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2))


def _tie_pair(a: int) -> tuple[list[int], list[int]]:
    """x^2 - a x - 1 and x^4 + (a^2 + 2) x^2 + 1 = p(ix) p(-ix): unrelated
    factors whose largest roots share the modulus (a + sqrt(a^2 + 4)) / 2."""
    return [-1, -a, 1], [1, 0, a * a + 2, 0, 1]


def build_dense_spectral(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for idx, n in enumerate(DENSE_INT_SIZES):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        cases.append(_matrix_case("int-%d-%d" % (idx, n), rows))
    for n in DENSE_RATIONAL_SIZES:
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        cases.append(_matrix_case("rational-%d" % n, _conjugate(rng, rows, n)))
    for k in JORDAN_SIZES:
        a = _companion(_eisenstein(rng, k))
        ident = [[int(i == j) for j in range(k)] for i in range(k)]
        zero = [[0] * k for _ in range(k)]
        rows = [ra + ri for ra, ri in zip(a, ident)] + [
            rz + ra for rz, ra in zip(zero, a)
        ]
        cases.append(_matrix_case("jordan-%d" % (2 * k), _conjugate(rng, rows, 2 * k), s=1))
    for a, power in TIES:
        p, q = _tie_pair(a)
        pp = p if power == 1 else _poly_mul(p, p)
        rows = _block_diag(_companion(pp), _companion(q))
        cases.append(
            _matrix_case(
                "tie-a%d-p%d" % (a, power),
                _conjugate(rng, rows, 6),
                s=power - 1,
                rho=(a + math.sqrt(a * a + 4)) / 2,
            )
        )
    return cases


def run_dense_spectral(case: Case):
    m = case.facts["matrix"]
    return xl.char_poly(m), xl.growth_signature(m)


def dense_spectral_aux(case: Case):
    """Untimed extra output for the checker: the program's min poly."""
    return xl.min_poly(case.facts["matrix"])


# ---------------------------------------------------------------------------
# quasi-unipotent-oracle
# ---------------------------------------------------------------------------

#: Sizes of the cyclotomic-block matrices; the median and the 90th
#: percentile each fall inside a group of equal sizes.
QU_SIZES = (3, 4, 6, 6, 6, 8, 8, 8, 8)
#: Orders d of the cyclotomic blocks; all have phi(d) <= 4.
QU_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)
#: Largest power j of the leading block Phi_d^j, so s <= 2.  The entry-sum
#: oracle's s_hat misses by more than its 0.15 tolerance on some matrices
#: with j >= 4, and on some that mix orders (period 24); see CHANGES.md.
QU_MAX_POWER = 3


def build_quasi_unipotent(seed: int) -> list[Case]:
    """U J U^-1 with J = C(Phi_d^j) + C(Phi_d) + ... + C(Phi_d): one order d
    per matrix, one leading block of power j and the rest semisimple."""
    rng = random.Random(seed)
    cases = []
    for idx, n in enumerate(QU_SIZES):
        d = rng.choice([d for d in QU_ORDERS if n % (len(_cyclotomic(d)) - 1) == 0])
        phi = _cyclotomic(d)
        j = rng.randint(1, min(QU_MAX_POWER, n // (len(phi) - 1)))
        lead = [1]
        for _ in range(j):
            lead = _poly_mul(lead, phi)
        blocks = [_companion(lead)] + [_companion(phi)] * ((n - len(lead) + 1) // (len(phi) - 1))
        rows = _conjugate(rng, _block_diag(*blocks), 5)
        cases.append(
            _matrix_case(
                "qu-%d-%d-d%d-j%d" % (idx, n, d, j), rows, s=j - 1, rho=1.0, k=d,
                steps=ORACLE_STEPS,
            )
        )
    return cases


def run_quasi_unipotent(case: Case):
    m = case.facts["matrix"]
    sig = xl.growth_signature(m)
    vals = []
    power = m
    for _ in range(ORACLE_STEPS):
        last = power.entry_abs_sum()
        vals.append(float(last))
        power = power @ m
    est = ge.fit_growth(ge.PositiveSequence.from_values(vals))
    return sig, est, last


# ---------------------------------------------------------------------------
# quiver-coxeter
# ---------------------------------------------------------------------------

#: A_n sizes, one seeded orientation each; every orientation of A_n costs
#: the same, and all are covered across seeds.  A_5 appears twice so that
#: op_p90_ms falls inside its group.
LINEAR_SIZES = (1, 2, 3, 4, 5, 5)
KRONECKER_ARROWS = (2, 3, 4, 5)
RANDOM_QUIVER_SIZES = (3, 3, 4, 4)


def build_quiver_coxeter(seed: int) -> list[Case]:
    rng = random.Random(seed)
    specs = []
    for idx, n in enumerate(LINEAR_SIZES):
        orientation = rng.randrange(2 ** (n - 1))
        arrows = [
            (k + 1, k) if (orientation >> k) & 1 else (k, k + 1) for k in range(n - 1)
        ]
        specs.append(("A%d-%d-o%d" % (n, idx, orientation), n, arrows, {"linear": n}))
    for m in KRONECKER_ARROWS:
        specs.append(("K%d" % m, 2, [(0, 1)] * m, {"kronecker": m}))
    for idx, n in enumerate(RANDOM_QUIVER_SIZES):
        order = list(range(n))
        rng.shuffle(order)
        arrows = [
            (order[a], order[b])
            for a in range(n)
            for b in range(a + 1, n)
            for _ in range(rng.randint(0, 2))
            if rng.random() < 0.5
        ]
        specs.append(("random-%d-%d" % (idx, n), n, arrows, {}))
    cases = []
    for label, n, arrows, facts in specs:
        facts.update(
            vertices=n, arrows=arrows, quiver=qh.Quiver.from_arrows(n, arrows)
        )
        cases.append(Case(label, facts))
    return cases


def run_quiver_coxeter(case: Case):
    q = case.facts["quiver"]
    lattice = qh.euler_form(q)
    phi = qh.coxeter_matrix(q)
    return lattice.gram, phi, qh.hereditary_report(lattice, phi)


# ---------------------------------------------------------------------------
# cli-subcommands
# ---------------------------------------------------------------------------

#: Codimension-1 action of the surface automorphism given to ``endo``.  It is
#: the same for every seed: on it ``--kuenneth`` reports a spurious degree
#: mismatch (see CHANGES.md), so this operation fails in every round.
ENDO_ACTION = [[2, 1], [1, 1]]
TWIST_T = -0.5
TWIST_D = 2
ESTIMATE_LENGTH = 40


def build_cli_subcommands(seed: int) -> list[Case]:
    """One small input per subcommand; every result has a closed form."""
    rng = random.Random(seed)
    a = rng.choice((1, 2, 3))
    growth_rows = _conjugate(rng, [[a, 1], [1, 0]], 3)
    e1, e2 = rng.randint(1, 3), rng.randint(1, 3)
    lb_dim = rng.choice((2, 3))
    shift = [[int(i == j + 1) for j in range(lb_dim + 1)] for i in range(lb_dim + 1)]
    twist_n = rng.randint(20, 60)
    kron = rng.choice((3, 4, 5))
    est_r, est_k = rng.choice((1.5, 2.0, 2.5)), rng.choice((0, 1, 2))
    est_values = [est_r**n * n**est_k for n in range(1, ESTIMATE_LENGTH + 1)]
    specs = [
        ("growth", ["growth", "-"], {"rows": growth_rows},
         {"rho": (a + math.sqrt(a * a + 4)) / 2, "s": 0}),
        ("classify", ["classify", "--context", "a2cy3", "T1^%d" % e1, "T2^-%d" % e2],
         None, {"trace": 2 + e1 * e2}),
        ("endo", ["endo", "-", "--kuenneth"],
         {"dim": 2, "actions": {"0": [[1]], "1": ENDO_ACTION, "2": [[1]]}},
         {"d1": (3 + math.sqrt(5)) / 2}),
        ("linebundle", ["linebundle", "-"],
         {"dim": lb_dim, "c1_action": shift, "nef": "nef"}, {"nu": lb_dim}),
        ("twist", ["twist", "--kind", "spherical", "--d", str(TWIST_D), "--t", str(TWIST_T),
                   "--A", "1", "--B", "1", "--n", str(twist_n)],
         None, {"n": twist_n, "d": TWIST_D, "t": TWIST_T}),
        ("quiver", ["quiver", "-"], {"vertices": 2, "arrows": [[1, 2]] * kron},
         {"kronecker": kron}),
        ("estimate", ["estimate", "-"], {"n_start": 1, "values": est_values},
         {"rho": est_r, "s": est_k}),
    ]
    return [
        Case(label, dict(facts, argv=argv, stdin=json.dumps(doc) if doc else ""))
        for label, argv, doc, facts in specs
    ]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


#: ``run_cli`` prefix; ``run.py`` swaps it for the traced child.
CLI_PREFIX = [sys.executable, "-m", "catentropy"]


def run_cli(case: Case, prefix: list[str] = CLI_PREFIX):
    proc = subprocess.run(
        prefix + ["--json"] + case.facts["argv"],
        input=case.facts["stdin"],
        capture_output=True,
        text=True,
        env=cli_env(),
        cwd=ROOT,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _false_flags(obj, path=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key in ("consistent", "crosscheck_consistent") and value is False:
                yield path + key
            yield from _false_flags(value, path + key + ".")


def cli_failure(out):
    """An invocation fails when it exits non-zero or its envelope reports
    one of the program's own consistency checks as false."""
    code, stdout, stderr = out
    if code != 0:
        return "exit %d: %s" % (code, stderr.strip()[-300:])
    try:
        flags = list(_false_flags(json.loads(stdout)))
    except ValueError:
        return None  # the checker reports unparsable output
    return "self-check false: %s" % ", ".join(flags) if flags else None


def quiver_failure(out):
    return None if out[2].crosscheck_consistent else "crosscheck_consistent is false"


@dataclass(frozen=True)
class Workload:
    build: object
    run: object
    #: output -> reason it counts as a failed operation, or None
    failure: object = None
    #: case -> untimed extra output for the checker
    aux: object = None


WORKLOADS = {
    "dense-spectral": Workload(
        build_dense_spectral, run_dense_spectral, aux=dense_spectral_aux
    ),
    "quasi-unipotent-oracle": Workload(build_quasi_unipotent, run_quasi_unipotent),
    "quiver-coxeter": Workload(build_quiver_coxeter, run_quiver_coxeter, quiver_failure),
    "cli-subcommands": Workload(build_cli_subcommands, run_cli, cli_failure),
}

"""Deterministic random corpora for the self-test suite and the tests.

Everything takes an explicit ``random.Random`` so runs are reproducible;
constructions carry their ground truth with them (for example Jordan data
of conjugated cyclotomic blocks is known by construction).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exact_linalg import (
    ExactMatrix,
    ExactPoly,
    cyclotomic_poly,
    euler_phi,
)
from .quiver_hereditary import Quiver
from .sl2z_dynamics import Context, TwistWord

#: Cyclotomic indices the quasi-unipotent sampler draws from (small orders
#: keep the oracle's periodic oscillation inside its fit tolerance).
CYCLOTOMIC_POOL = (1, 1, 2, 2, 3, 4, 6, 5, 8, 12)

#: Largest sampled block multiplicity: the entry-sum oracle's 1/n bias at
#: n <= 400 exceeds its 0.15 tolerance from multiplicity 6 on, while the
#: exact route is multiplicity-independent.
MAX_BLOCK_MULTIPLICITY = 5


def random_unimodular(rng: random.Random, n: int, ops: int = 5) -> ExactMatrix:
    """Random determinant-1 integer matrix from elementary row additions."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 1:
        return ExactMatrix.from_rows(u)
    for _ in range(ops):
        i = rng.randrange(n)
        j = rng.choice([k for k in range(n) if k != i])
        c = rng.choice([-1, 1])
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return ExactMatrix.from_rows(u)


@dataclass(frozen=True)
class QuasiUnipotentSample:
    matrix: ExactMatrix
    max_multiplicity: int   # known j*: growth exponent is j* - 1


def random_quasi_unipotent(
    rng: random.Random, max_size: int = 8
) -> QuasiUnipotentSample:
    """U J U^-1 with J block-diagonal from companion matrices of powers of
    cyclotomic polynomials; the largest power j* is recorded."""
    budget = rng.randint(2, max_size)
    blocks: list[ExactPoly] = []
    jmax = 0
    while budget >= 1:
        choices = [d for d in CYCLOTOMIC_POOL if euler_phi(d) <= budget]
        if not choices:
            break
        d = rng.choice(choices)
        j = rng.randint(
            1, min(MAX_BLOCK_MULTIPLICITY, max(1, budget // euler_phi(d)))
        )
        blocks.append(cyclotomic_poly(d) ** j)
        jmax = max(jmax, j)
        budget -= euler_phi(d) * j
        if rng.random() < 0.25:
            break
    j_mat = ExactMatrix.block_diag(
        *[ExactMatrix.companion(p) for p in blocks]
    )
    u = random_unimodular(rng, j_mat.n, ops=rng.randint(3, 7))
    return QuasiUnipotentSample(
        matrix=u @ j_mat @ u.inverse(),
        max_multiplicity=jmax,
    )


def random_word(
    rng: random.Random,
    context: Context = Context.A2CY3,
    max_letters: int = 12,
    max_exponent: int = 3,
) -> TwistWord:
    while True:
        letters = []
        for _ in range(rng.randint(1, max_letters)):
            exp = 0
            while exp == 0:
                exp = rng.randint(-max_exponent, max_exponent)
            letters.append((rng.choice((1, 2)), exp))
        word = TwistWord.from_letters(letters, context)
        if word.letters:  # adjacent-merge can cancel everything
            return word


def random_acyclic_quiver(
    rng: random.Random, max_vertices: int = 6, max_parallel: int = 3
) -> Quiver:
    """Random quiver with arrows only forward along a shuffled vertex
    order, hence acyclic by construction."""
    n = rng.randint(1, max_vertices)
    order = list(range(n))
    rng.shuffle(order)
    arrows = []
    for a in range(n):
        for b in range(a + 1, n):
            for _ in range(rng.randint(0, max_parallel)):
                if rng.random() < 0.4:
                    arrows.append((order[a], order[b]))
    return Quiver.from_arrows(n, arrows)


def linear_quiver(n: int, orientation: int = 0) -> Quiver:
    """Type-A quiver on n vertices; orientation bits choose each arrow's
    direction (bit k flips the arrow between vertices k and k+1)."""
    arrows = []
    for k in range(n - 1):
        if (orientation >> k) & 1:
            arrows.append((k + 1, k))
        else:
            arrows.append((k, k + 1))
    return Quiver.from_arrows(n, arrows)


def kronecker_quiver(arrow_count: int) -> Quiver:
    return Quiver.from_arrows(2, [(0, 1)] * arrow_count)

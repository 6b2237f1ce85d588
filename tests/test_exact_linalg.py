from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catentropy.corpus import random_quasi_unipotent, random_unimodular
from catentropy import exact_linalg
from catentropy.errors import (
    DomainError,
    InternalInconsistency,
    NilpotentInput,
    NonIntegerEntries,
    PrecisionExhausted,
    TiedModuli,
)
from catentropy.exact_linalg import (
    ExactMatrix,
    ExactPoly,
    char_poly,
    cyclotomic_poly,
    exterior_power,
    growth_signature,
    min_poly,
    nilpotency_index,
    poly_gcd,
    quasi_unipotent_order,
    root_moduli,
    squarefree_decomposition,
    tensor_product,
)
from catentropy.jsonio import canonical_json, serialize_growth

M = ExactMatrix.from_rows
P = ExactPoly.from_coefficients


def test_char_poly_upper_triangular():
    # det(xI - M) of a triangular matrix multiplies the diagonal terms
    assert char_poly(M([[1, 1], [0, 1]])) == P([1, -2, 1])


def test_char_poly_2x2_hand_expansion():
    # det([[x-2, -1], [-1, x-1]]) = (x-2)(x-1) - 1 = x^2 - 3x + 1
    assert char_poly(M([[2, 1], [1, 1]])) == P([1, -3, 1])


def test_char_poly_identity():
    assert char_poly(ExactMatrix.identity(3)) == P([-1, 3, -3, 1])


def test_char_poly_rational_path_agrees_with_integer_path():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        integral = M(rows)
        scaled = integral.scale(Fraction(1, 3))
        expected = char_poly(integral)
        got = char_poly(scaled)
        # chi_{M/3}(x) = 3^-n chi_M(3x), so c_k = g_k * 3^(n-k)
        recovered = ExactPoly.from_coefficients(
            [g * Fraction(3) ** (n - k) for k, g in enumerate(got.coefficients)]
        )
        assert recovered == expected


def test_min_poly_identity():
    assert min_poly(ExactMatrix.identity(3)) == P([-1, 1])


def test_min_poly_jordan_block():
    assert min_poly(M([[1, 1], [0, 1]])) == P([1, -2, 1])


def test_min_poly_semisimple():
    assert min_poly(M([[2, 0], [0, 2]])) == P([-2, 1])


def test_min_poly_divides_char_poly():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        q, r = divmod(char_poly(m), min_poly(m))
        assert r.is_zero


def test_squarefree_square():
    assert squarefree_decomposition(P([1, -2, 1])) == [(P([-1, 1]), 2)]


def test_squarefree_already_squarefree():
    # gcd(p, p') = 1 here, so the polynomial is its own part; x (x - q)
    # for the coprimality certificate's prime q = 32749 is too, though its
    # roots meet modulo q and only Yun's loop can tell
    assert squarefree_decomposition(P([1, -3, 1])) == [(P([1, -3, 1]), 1)]
    assert squarefree_decomposition(P([0, -32749, 1])) == [(P([0, -32749, 1]), 1)]


def test_squarefree_mixed():
    p = P([1, -2, 1]) * P([1, 1])
    assert squarefree_decomposition(p) == [(P([1, 1]), 1), (P([-1, 1]), 2)]


def test_squarefree_reconstructs_product():
    rng = random.Random(3)
    for _ in range(10):
        p = ExactPoly.one()
        for _ in range(rng.randint(1, 3)):
            factor = P([rng.randint(-3, 3), rng.randint(1, 2)])
            p = p * factor ** rng.randint(1, 3)
        rebuilt = ExactPoly.one()
        for h, j in squarefree_decomposition(p):
            rebuilt = rebuilt * h**j
        assert rebuilt == p.monic()


def test_squarefree_rejects_zero():
    with pytest.raises(DomainError):
        squarefree_decomposition(ExactPoly.zero())


def test_root_moduli_golden_quadratic():
    # roots of x^2 - 3x + 1 are (3 +- sqrt(5))/2 by the quadratic formula
    big = (3 + math.sqrt(5)) / 2
    small = (3 - math.sqrt(5)) / 2
    out = root_moduli(P([1, -3, 1]), precision=40)
    assert len(out) == 2
    (z1, (lo1, hi1)), (z2, (lo2, hi2)) = out
    assert lo1 <= Fraction(small).limit_denominator(10**12) <= hi1 or abs(z1 - small) < 1e-9
    assert abs(z1.real - small) < 1e-9 and abs(z2.real - big) < 1e-9
    assert hi1 < lo2  # distinct moduli separated
    assert float(hi2 - lo2) <= 2**-40


def test_root_moduli_unit_circle_pair():
    out = root_moduli(P([1, 0, 1]), precision=40)
    assert len(out) == 2
    for z, (lo, hi) in out:
        assert lo == hi == 1
        assert abs(abs(z) - 1) < 1e-12


def test_root_moduli_linear():
    out = root_moduli(P([-2, 1]), precision=40)
    assert out == [(complex(2.0, 0.0), (Fraction(2), Fraction(2)))]


def test_root_moduli_rejects_non_squarefree():
    with pytest.raises(DomainError):
        root_moduli(P([1, -2, 1]))
    with pytest.raises(DomainError):
        root_moduli(P([1, 1]), precision=0)
    with pytest.raises(DomainError):
        root_moduli(P([1, 1]), precision=exact_linalg.MAX_PRECISION_BITS + 1)


@pytest.fixture
def proofs(monkeypatch):
    """The results of every ``_prove_tie`` call, in order."""
    out = []
    prove = exact_linalg._prove_tie

    def spy(*args):
        out.append(prove(*args))
        return out[-1]

    monkeypatch.setattr(exact_linalg, "_prove_tie", spy)
    return out


#: x^5 - x - 1: its five roots have three distinct moduli near 1, none
#: exactly computable.  Beside the tie at 1 + sqrt(2), it puts the squared-
#: moduli polynomial of the tied part over the tie proof's degree cap.
OVER_CAP = P([-1, -1, 0, 0, 0, 1])


def test_root_moduli_proves_true_tie(proofs):
    # (x^2 - 2x - 1)(x^4 + 6x^2 + 1): the real root 1 + sqrt(2) of the
    # quadratic ties with the modulus of the imaginary pair i(1 + sqrt(2))
    # of the quartic, and 1 - sqrt(2) with i(1 - sqrt(2)).  Neither tie is
    # a conjugate or +- pair; the Sturm count proves both, and the tied
    # roots share one bracket.
    h = P([-1, -2, 1]) * P([1, 0, 6, 0, 1])
    out = root_moduli(h, precision=40)
    assert proofs == [True, True]
    brackets = sorted({bracket for _, bracket in out})
    assert len(brackets) == 2
    squares = P([1, -6, 1])  # has the roots 3 -+ 2 sqrt(2), the squared moduli
    for (lo, hi), target in zip(brackets, (math.sqrt(2) - 1, math.sqrt(2) + 1)):
        assert [abs(z) for z, b in out if b == (lo, hi)] == pytest.approx([target] * 3)
        assert 0 < hi - lo <= Fraction(1, 2**40)
        assert squares(lo * lo) * squares(hi * hi) < 0


def test_root_moduli_precision_exhausted_on_true_tie():
    # The same tie with x^5 - x - 1 in the polynomial: the squared-moduli
    # polynomial has degree 66, over the proof's cap, so the tie stays
    # unproven and the caller is told the moduli stayed inseparable.
    h = P([-1, -2, 1]) * P([1, 0, 6, 0, 1]) * OVER_CAP
    with pytest.raises(PrecisionExhausted) as err:
        root_moduli(h, precision=40)
    assert err.value.classes  # partial data is attached for the caller


@pytest.mark.parametrize("gap_bits", [70, 200])
def test_near_tie_is_separated_not_merged(proofs, gap_bits):
    # x^2 - x - 1 beside x^2 - x - (1 + 2^-gap): the largest moduli differ
    # by about 2^-gap / sqrt(5).  As two parts of a signature, their
    # brackets overlap at 64 bits (and at 128 for a 2^-200 gap); the Sturm
    # count finds two roots there and proves nothing, and a later level
    # separates them.  A merge would report s = 1.
    near = P([-(1 + Fraction(1, 2**gap_bits)), -1, 1])
    assert len({bracket for _, bracket in root_moduli(P([-1, -1, 1]) * near)}) == 4
    proofs.clear()
    m = ExactMatrix.block_diag(
        ExactMatrix.companion(P([-1, -1, 1]) ** 2), ExactMatrix.companion(near)
    )
    sig = growth_signature(m)
    assert proofs and not any(proofs)
    assert not sig.tied
    assert sig.s == 0
    assert sig.dominant_factors == ((near, 1),)
    lo, hi = sig.rho_interval
    assert near(lo) <= 0 <= near(hi)  # rho is the larger root of near


def test_distinct_exact_moduli_shrink_apart():
    # (x^2 + 2)(x^2 + 2 + 10^-20)^2: both parts split off exactly, with
    # moduli squared 2 and 2 + 10^-20, closer than the default bracket.
    # The exact classes shrink until they separate, so the squared part is
    # the only dominant one and no tie is reported.
    near = P([2 + Fraction(1, 10**20), 0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", TiedModuli)
        sig = growth_signature(ExactMatrix.companion(P([2, 0, 1]) * near**2))
    assert sig.s == 1 and not sig.tied
    assert sig.dominant_factors == ((near, 2),)
    lo, hi = sig.rho_interval
    assert 2 < lo * lo <= hi * hi


def test_root_moduli_carries_certified_roots_up_the_ladder(monkeypatch):
    # 2^120 x^2 + x - 2^121 has real roots near +-sqrt(2) whose moduli
    # differ by exactly 2^-120: the position disks certify at the first
    # level, the modulus intervals separate only at a later one, and each
    # later level starts from the centres the previous one certified.
    h = P([-(2**121), 1, 2**120])
    calls = []
    iterate = exact_linalg._durand_kerner

    def spy(scaled, points, e):
        centres = iterate(scaled, points, e)
        calls.append((e, list(points), centres))
        return centres

    monkeypatch.setattr(exact_linalg, "_durand_kerner", spy)
    out = root_moduli(h)
    assert len(calls) >= 2
    for (e, _, before), (e_next, start, _) in zip(calls, calls[1:]):
        assert e_next > e
        shift = e_next - e
        assert start == [(x << shift, y << shift) for x, y in before]
    (z_small, (lo_small, hi_small)), (z_large, (lo_large, hi_large)) = out
    assert z_small.real > 0 > z_large.real
    assert lo_small <= hi_small < lo_large <= hi_large
    assert lo_large - hi_small < Fraction(1, 2**120)


def test_growth_signature_ignores_uncertified_start_points(monkeypatch):
    # Coincident real start points keep the iteration real, so on a part
    # with complex roots it fails at the first level; the next level must
    # start afresh and give the same answer as the machine roots.
    tie = ExactMatrix.block_diag(
        ExactMatrix.companion(P([-1, -2, 1])),
        ExactMatrix.companion(P([1, 0, 6, 0, 1])),
    )
    dense = M([[2, -3, 1, 0], [1, 4, -2, 5], [0, 1, -1, 3], [7, 0, 2, -2]])
    cases = [tie, dense, ExactMatrix.companion(P([-(2**121), 1, 2**120]))]

    def envelope(m):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TiedModuli)
            return canonical_json(serialize_growth(growth_signature(m)))

    expected = [envelope(m) for m in cases]
    starts = []

    def coincident(h):
        starts.append(h)
        return [0.5] * h.degree

    monkeypatch.setattr(exact_linalg, "_machine_roots", coincident)
    assert [envelope(m) for m in cases] == expected
    assert starts


def test_growth_signature_parabolic():
    sig = growth_signature(M([[1, 1], [0, 1]]))
    assert sig.rho_exact == Fraction(1)
    assert sig.s == 1
    assert sig.quasi_unipotent_k == 1


def test_growth_signature_identity():
    sig = growth_signature(ExactMatrix.identity(5))
    assert sig.rho_exact == Fraction(1)
    assert sig.s == 0


def test_growth_signature_hyperbolic():
    sig = growth_signature(M([[2, 1], [1, 1]]))
    assert abs(sig.rho_float - (3 + math.sqrt(5)) / 2) < 1e-11
    assert sig.s == 0
    assert float(sig.rho_interval[1] - sig.rho_interval[0]) <= 1e-12
    lo, hi = sig.rho_interval
    assert lo <= sig.rho_float <= hi or math.isclose(sig.rho_float, float(lo))


def test_growth_signature_rotation():
    sig = growth_signature(M([[0, -1], [1, 0]]))
    assert sig.rho_exact == Fraction(1)
    assert sig.s == 0
    assert sig.quasi_unipotent_k == 4


def test_growth_signature_rejects_nilpotent():
    with pytest.raises(NilpotentInput):
        growth_signature(M([[0, 1], [0, 0]]))


def test_growth_signature_rational_quasi_unipotent():
    # rational entries but integral characteristic polynomial (x^2 - x + 1)
    m = M([["1/2", "1/2"], ["-3/2", "1/2"]])
    sig = growth_signature(m)
    assert sig.rho_exact == Fraction(1)
    assert sig.s == 0


def test_growth_signature_dominant_factor_listing():
    # min poly (x-1)^2 (x+1): both parts sit on the unit circle
    m = ExactMatrix.block_diag(M([[1, 1], [0, 1]]), M([[-1]]))
    sig = growth_signature(m)
    assert sig.s == 1
    assert {(str(h), j) for h, j in sig.dominant_factors} == {
        ("x + 1", 1),
        ("x - 1", 2),
    }
    assert sig.s + 1 == max(j for _, j in sig.dominant_factors)


def test_growth_signature_cross_part_tie_resolved_exactly():
    # (x^2 - 2x - 1)^2 and x^2 + 2x - 1 share the modulus 1 + sqrt(2)
    # through a +- pair, which the gcd merge proves without escalation.
    j2 = ExactMatrix.companion(P([-1, -2, 1]) ** 2)
    m = ExactMatrix.block_diag(j2, ExactMatrix.companion(P([-1, 2, 1])))
    sig = growth_signature(m)
    assert sig.s == 1
    assert not sig.tied
    assert abs(sig.rho_float - (1 + math.sqrt(2))) < 1e-11


def test_growth_signature_proves_cross_part_tie(monkeypatch):
    # 1 + sqrt(2) is a root modulus of both x^2 - 2x - 1 (real root) and
    # x^4 + 6x^2 + 1 (imaginary pair i(1 + sqrt(2))); the tie is no
    # conjugate or +- pair, and the Sturm count proves it at 64 bits.
    a = ExactMatrix.companion(P([-1, -2, 1]) ** 2)
    b = ExactMatrix.companion(P([1, 0, 6, 0, 1]))
    levels = []
    build = exact_linalg._numeric_classes

    def spy(*args):
        levels.append(args[2])
        return build(*args)

    monkeypatch.setattr(exact_linalg, "_numeric_classes", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TiedModuli)
        sig = growth_signature(ExactMatrix.block_diag(a, b), max_bits=256)
    assert levels == [64]
    assert sig.s == 1
    assert not sig.tied
    assert {str(h) for h, _ in sig.dominant_factors} == {
        "x^2 - 2*x - 1", "x^4 + 6*x^2 + 1"
    }
    lo, hi = sig.rho_interval
    assert lo * lo - 2 * lo - 1 < 0 < hi * hi - 2 * hi - 1


def test_exact_classes_are_built_once_per_ladder(monkeypatch):
    # The top cluster climbs two precision levels: at 64 bits the near tie
    # between x^2 - x - 1 (squared) and x^2 - x - (1 + 2^-70) is neither
    # proven nor separated.  The exact root 1 is bracketed once, not once
    # per level.
    near = P([-(1 + Fraction(1, 2**70)), -1, 1])
    m = ExactMatrix.block_diag(
        ExactMatrix.companion(P([-1, -1, 1]) ** 2),
        ExactMatrix.companion(near),
        M([[1]]),
    )
    levels, brackets = [], []
    build, bracket = exact_linalg._numeric_classes, exact_linalg._sqrt_interval

    def spy_build(*args):
        levels.append(args[2])
        return build(*args)

    def spy_bracket(*args):
        brackets.append(args)
        return bracket(*args)

    monkeypatch.setattr(exact_linalg, "_numeric_classes", spy_build)
    monkeypatch.setattr(exact_linalg, "_sqrt_interval", spy_bracket)
    sig = growth_signature(m)
    assert levels == [64, 128]
    assert len(brackets) == 1
    assert sig.s == 0
    assert sig.dominant_factors == ((P([-1, 1]) * near, 1),)


def test_growth_signature_proves_tie_with_exact_modulus():
    # x^2 - 2 splits exactly (modulus squared 2); the roots +-1 +- i of
    # x^4 + 4 are numeric.  T is the squared-moduli polynomial of x^4 + 4
    # times (x - 2).
    a = ExactMatrix.companion(P([-2, 0, 1]) ** 2)
    b = ExactMatrix.companion(P([4, 0, 0, 0, 1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TiedModuli)
        sig = growth_signature(ExactMatrix.block_diag(a, b))
    assert sig.s == 1
    assert not sig.tied
    lo, hi = sig.rho_interval
    assert lo * lo <= 2 <= hi * hi


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.sampled_from((1, 2)), st.integers(0, 2**32 - 1))
def test_tie_family_is_proven_under_conjugation(a, j, seed):
    # C((x^2 - ax - 1)^j) + C(x^4 + (a^2 + 2)x^2 + 1): the quartic is
    # p(ix) p(-ix), so its roots +-i rho tie with the root rho of p.
    p = P([-1, -a, 1])
    blocks = ExactMatrix.block_diag(
        ExactMatrix.companion(p**j), ExactMatrix.companion(P([1, 0, a * a + 2, 0, 1]))
    )
    u = random_unimodular(random.Random(seed), blocks.n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TiedModuli)
        sig = growth_signature(u @ blocks @ u.inverse())
    assert not sig.tied
    assert sig.s == j - 1
    lo, hi = sig.rho_interval
    # rho = (a + sqrt(a^2 + 4)) / 2 is the one positive root of p
    assert 0 < lo and p(lo) <= 0 <= p(hi)


def test_growth_signature_unprovable_tie_is_conservative():
    # The same tie with x^5 - x - 1 beside the quartic: the two tied parts
    # have 11 roots, the squared-moduli polynomial is over the proof's
    # degree cap, so the precision ladder caps out and reports the larger
    # exponent.
    a = ExactMatrix.companion(P([-1, -2, 1]) ** 2)
    b = ExactMatrix.companion(P([1, 0, 6, 0, 1]) * OVER_CAP)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sig = growth_signature(ExactMatrix.block_diag(a, b), max_bits=256)
    assert sig.s == 1
    assert sig.tied
    assert any(issubclass(w.category, TiedModuli) for w in caught)


def _tie_pair(a: int) -> tuple[ExactPoly, ExactPoly]:
    """p = x^2 - ax - 1 and q = p(ix) p(-ix): q's roots +-i rho tie with
    the root rho of p, and +-i / rho with -1 / rho."""
    return P([-1, -a, 1]), P([1, 0, a * a + 2, 0, 1])


@pytest.mark.parametrize("a", [1, 2, 3])
def test_one_part_top_tie_needs_no_proof(proofs, a):
    # C(p) + C(q) has the squarefree min poly p q: the tied roots lie in one
    # part, so s = 0 whatever the tie, and rho is that part's largest
    # modulus.
    p, q = _tie_pair(a)
    m = ExactMatrix.block_diag(ExactMatrix.companion(p), ExactMatrix.companion(q))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TiedModuli)
        sig = growth_signature(m)
    assert proofs == []
    assert sig.s == 0
    assert not sig.tied
    assert sig.dominant_factors == ((p * q, 1),)
    assert sig.rho_exact == exact_linalg.RootOfFactor(p * q, 0)
    lo, hi = sig.rho_interval
    assert 0 < lo and p(lo) <= 0 <= p(hi)


def test_one_part_top_bracket_climbs_to_the_tolerance(monkeypatch):
    # The hull of the tied classes is about 2^-64 wide at the first level,
    # over a tolerance of 2^-100, so the ladder climbs one level.
    p, q = _tie_pair(2)
    m = ExactMatrix.block_diag(ExactMatrix.companion(p), ExactMatrix.companion(q))
    levels = []
    build = exact_linalg._numeric_classes

    def spy(*args):
        levels.append(args[2])
        return build(*args)

    monkeypatch.setattr(exact_linalg, "_numeric_classes", spy)
    sig = growth_signature(m, tolerance=Fraction(1, 2**100))
    assert levels == [64, 128]
    lo, hi = sig.rho_interval
    assert 0 < hi - lo <= Fraction(1, 2**100)
    assert p(lo) <= 0 <= p(hi)


def test_one_part_top_tie_with_an_exact_modulus_is_proven(proofs):
    # (x - 2)(x^4 + 16): the integer root 2 splits off exactly, and the
    # numeric roots of x^4 + 16 share its modulus.  s needs no proof, but
    # the proof makes rho exact.
    h = P([-2, 1]) * P([16, 0, 0, 0, 1])
    sig = growth_signature(ExactMatrix.companion(h))
    assert proofs == [True]
    assert (sig.s, sig.tied) == (0, False)
    assert sig.rho_exact == 2
    assert sig.rho_interval == (2, 2)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_two_part_top_tie_is_proven_once(proofs, a):
    # C(p^2) + C(q): the top tie is between parts of multiplicity 2 and 1,
    # so it is proven; the tie of the smaller moduli 1 / rho is not.
    p, q = _tie_pair(a)
    m = ExactMatrix.block_diag(ExactMatrix.companion(p**2), ExactMatrix.companion(q))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TiedModuli)
        sig = growth_signature(m)
    assert proofs == [True]
    assert sig.s == 1
    assert not sig.tied
    assert sig.dominant_factors == ((q, 1), (p, 2))
    assert sig.rho_exact is None
    lo, hi = sig.rho_interval
    assert 0 < lo and p(lo) <= 0 <= p(hi)


def test_tensor_square_top_tie_is_decided_in_one_part():
    # A's top roots are a complex pair l, conj(l).  In A (x) A the roots
    # l^2, conj(l)^2 and |l|^2 share the top modulus in one squarefree part
    # of degree 15, whose tie is over the proof's degree cap.  s = 0 needs
    # no proof.
    import numpy as np

    rng = random.Random(3)
    rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
    top = max(np.linalg.eigvals(np.array(rows, float)), key=abs)
    assert abs(top.imag) > 0.1
    a = M(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TiedModuli)
        sig = growth_signature(tensor_product(a, a))
    assert sig.s == 0
    assert not sig.tied
    ((part, mult),) = sig.dominant_factors
    assert (part.degree, mult) == (15, 1)
    assert sig.rho_exact == exact_linalg.RootOfFactor(part, 0)
    lo, hi = sig.rho_interval
    assert lo <= abs(top) ** 2 * (1 + 1e-12) and abs(top) ** 2 * (1 - 1e-12) <= hi


def _product_tie_proof(ca, cb, rests, bits):
    """The tie proof on the squared-moduli polynomial of the product of the
    parts, which also has the cross products of roots of different parts
    as roots; the per-part proof must decide as this one does."""
    exact = ca.exact_sq if ca.exact_sq is not None else cb.exact_sq
    h = ExactPoly.one()
    for i in sorted({i for c in (ca, cb) if c.exact_sq is None for i in c.parts}):
        h = h * rests[i]
    n, d = h.degree, h.den
    if n * (n + 1) // 2 + (exact is not None) > exact_linalg.TIE_PROOF_MAX_DEGREE:
        return False
    g = [c * d ** (n - 1 - k) for k, c in enumerate(h.num[:-1])] + [1]
    t = exact_linalg._squared_moduli_poly(g)
    if exact is not None:
        q = exact * d * d
        t = [y * q.denominator - x * q.numerator for x, y in zip(t + [0], [0] + t)]
    chain = exact_linalg._sturm_chain(t)
    scale = d * d * 2**bits
    a = math.floor(min(ca.lo, cb.lo) ** 2 * scale) - 1
    b = math.ceil(max(ca.hi, cb.hi) ** 2 * scale) + 1
    value, changes = exact_linalg._dyadic_value, exact_linalg._sign_changes
    if not value(t, a, bits) or not value(t, b, bits):
        return False
    return changes(chain, a, bits) - changes(chain, b, bits) == 1


tie_family = st.builds(
    lambda a, j: (_tie_pair(a)[0] ** j, _tie_pair(a)[1]),
    st.integers(1, 6),
    st.sampled_from((1, 2)),
)
near_tie_family = st.builds(
    lambda gap: (P([-1, -1, 1]) ** 2, P([-(1 + Fraction(1, 2**gap)), -1, 1])),
    st.integers(70, 200),
)


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(st.one_of(tie_family, near_tie_family))
def test_per_part_tie_proof_decides_as_the_product_proof(blocks):
    # Every overlapping pair of classes, as root_moduli separates them,
    # over the squarefree parts of C(f) + C(g): the Sturm counts on the
    # product of the parts' squared-moduli polynomials and on the
    # product's own squared-moduli polynomial agree.
    seen = []
    prove = exact_linalg._prove_tie

    def both(ca, cb, rests, bits):
        seen.append(prove(ca, cb, rests, bits))
        assert seen[-1] == _product_tie_proof(ca, cb, rests, bits)
        return seen[-1]

    m = ExactMatrix.block_diag(*[ExactMatrix.companion(f) for f in blocks])
    _, _, exact_boxes, numeric_parts, _ = exact_linalg._spectrum(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_linalg, "_prove_tie", both)
        classes = exact_linalg._modulus_classes(
            exact_boxes, numeric_parts, exact_linalg.DEFAULT_TOLERANCE,
            settle=exact_linalg._separated,
        )
    assert seen
    assert len(classes) == 4 - seen.count(True)


def test_precision_cap_is_bounded():
    limit = exact_linalg.MAX_PRECISION_BITS
    m = M([[2, 1], [1, 1]])
    assert growth_signature(m, max_bits=limit).s == 0
    with pytest.raises(DomainError):
        growth_signature(m, max_bits=limit + 1)


def test_growth_signature_singular_with_rotation():
    # nilpotent block plus a finite-order block: the zero eigenvalue never
    # dominates, so the result is still exactly (rho, s) = (1, 0)
    m = ExactMatrix.block_diag(M([[0, 1], [0, 0]]), M([[0, -1], [1, 0]]))
    sig = growth_signature(m)
    assert sig.rho_exact == Fraction(1)
    assert sig.s == 0
    assert {str(h) for h, _ in sig.dominant_factors} == {"x^2 + 1"}


def test_growth_signature_integer_roots_beside_zero():
    # min poly x^3 - 5x^2 + 6x: the roots 0, 2 and 3 are split off exactly
    # and nothing is isolated
    sig = growth_signature(M([[0, 0, 0], [0, 2, 0], [0, 0, 3]]))
    assert sig.rho_exact == 3
    assert sig.rho_interval == (Fraction(3), Fraction(3))
    assert sig.s == 0


def test_integer_roots_of_every_size_are_found():
    # x (x + 7) (x - 100019) (2x - 1) (x^2 + 1) (x - 10**12 - 39): integer
    # roots far apart in size, beside a rational root and a complex pair,
    # however hard the lowest nonzero coefficient is to factor.
    h = P([1])
    factors = [[0, 1], [7, 1], [-100019, 1], [-1, 2], [1, 0, 1], [-(10**12 + 39), 1]]
    for factor in factors:
        h = h * P(factor)
    roots = exact_linalg._integer_roots(h.monic())
    assert roots == [-7, 0, 100019, 10**12 + 39]
    assert all(type(r) is Fraction for r in roots)
    assert exact_linalg._integer_roots(P([1, 0, 1])) == []
    # Roots within a factor 2 of the power-of-two Fujiwara bound 2**(k + 1)
    # of x^2 - (2**k - 1)**2, and beside a root 1 that halves it.
    for k in (2, 5, 13, 29, 61, 200):
        r = 2**k - 1
        assert exact_linalg._integer_roots(P([-r * r, 0, 1])) == [-r, r]
        assert exact_linalg._integer_roots(P([r, -r - 1, 1])) == [1, r]


def _spy_primes(monkeypatch) -> list[int]:
    """The list into which the primes ``_integer_roots`` tries now go."""
    tried = []
    degree_mod = exact_linalg._gcd_degree_mod
    monkeypatch.setattr(
        exact_linalg,
        "_gcd_degree_mod",
        lambda a, b, q: tried.append(q) or degree_mod(a, b, q),
    )
    return tried


def test_integer_roots_skip_only_primes_dividing_the_discriminant(monkeypatch):
    # prod_{i=1..14} (x - i) (x^2 + 1): two roots meet mod every prime up to
    # 13, and i^2 + 1 = 0 mod 17 for i = 4, so the search tries 19 last.
    # Its discriminant is prod_{i<j} (j - i)^2 * 4 * prod (i^2 + 1)^2.
    tried = _spy_primes(monkeypatch)
    h = P([1, 0, 1])
    for i in range(1, 15):
        h = h * P([-i, 1])
    assert exact_linalg._integer_roots(h) == list(range(1, 15))
    assert tried == [2, 3, 5, 7, 11, 13, 17, 19]
    disc = 4 * math.prod((j - i) ** 2 for i in range(1, 15) for j in range(i + 1, 15))
    disc *= math.prod((i * i + 1) ** 2 for i in range(1, 15))
    assert all(disc % q == 0 for q in tried[:-1]) and disc % 19
    # A leading numerator 210 = 2 * 3 * 5 * 7 skips those primes without a
    # modular gcd: (210 x - 1) (x - 6) (x + 11) (x^2 + 3) tries 11 first.
    tried.clear()
    h = P([-1, 210]) * P([-6, 1]) * P([11, 1]) * P([3, 0, 1])
    assert exact_linalg._integer_roots(h.monic()) == [-11, 6]
    assert tried[0] == 11


def test_cyclotomic_prefilter_keeps_every_order_d_factor(monkeypatch):
    # Phi_d | H forces Phi_d(2) | H(2), so the filter never skips a factor.
    # x^2 + 2 makes H(2) a multiple of 3 = Phi_2(2) = Phi_6(2) without
    # Phi_2 or Phi_6 dividing H (unless d = 6), so an exact division must
    # reject at least one of them.  2x^3 + x + 5 makes the part's numerator
    # H differ from Phi_d g, and Phi_e (x^2 + 2) leaves a second cyclotomic
    # factor after the first is divided out.
    divisions = []
    divmod_poly = ExactPoly.__divmod__

    def spy(a, b):
        out = divmod_poly(a, b)
        divisions.append((b, out[1].is_zero))
        return out

    monkeypatch.setattr(ExactPoly, "__divmod__", spy)
    orders = [d for d in range(1, 129) if exact_linalg.euler_phi(d) <= 8]
    assert orders[-1] == 30 and len(orders) == 18
    for d in range(1, 129):
        assert exact_linalg._cyclotomic_at_2(d) == cyclotomic_poly(d)(2)
    for d, e in zip(orders, orders[1:] + orders[:1]):
        for g, more in [(P([1]), ()), (P([3, 1]), ()), (P([2, 0, 1]), ()),
                        (P([5, 1, 2]), ()), (cyclotomic_poly(e) * P([2, 0, 1]), (e,))]:
            divisions.clear()
            boxes, _ = exact_linalg._exact_roots_of_part(cyclotomic_poly(d) * g, 0)
            found = [b.order for b in boxes]
            for k in (d, *more):
                assert found.count(k) == exact_linalg.euler_phi(k)
            if g == P([2, 0, 1]):
                rejected = {k for k in orders if (cyclotomic_poly(k), False) in divisions}
                assert {2, 6} & rejected - {d}


def test_cyclotomic_candidates_sieve_matches_euler_phi():
    # The sieved phi gives the list that trial division by euler_phi gives.
    for deg in range(1, 41):
        expected = [
            (d, exact_linalg.euler_phi(d))
            for d in range(1, 2 * deg * deg + 2)
            if exact_linalg.euler_phi(d) <= deg
        ]
        assert exact_linalg._cyclotomic_candidates(deg) == expected


def test_integer_roots_of_a_square_raise_after_a_bounded_search(monkeypatch):
    # (x - 3)^2 (x^2 + 1) stays a square mod every prime.  A squarefree H
    # skips only primes dividing res(H, H'), so once the primes skipped
    # multiply past Hadamard's bound on it (2**32 here), H was not
    # squarefree: ten primes, 2 to 29, and no endless search.
    tried = _spy_primes(monkeypatch)
    with pytest.raises(InternalInconsistency, match="non-squarefree"):
        exact_linalg._integer_roots(P([-3, 1]) ** 2 * P([1, 0, 1]))
    assert tried == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.sets(st.integers(-(10**15), 10**15), max_size=5),
    st.integers(1, 10**6),
    st.integers(2, 10**6),
)
# Clustered roots, 0 among them: every prime below 41 sees two of them meet.
@example(roots=set(range(-20, 21)), c=1, lead=2)
@example(roots={-20, -13, -1, 0, 1, 7, 20}, c=3, lead=105)
# Roots a quarter of the Fujiwara bound, beside leads divisible by 3 * 5 * 7.
@example(roots={-(2**62 - 1), 0, 2**62 - 1}, c=5, lead=3 * 5 * 7 * 2)
@example(roots={-(10**15), 10**15}, c=1, lead=3 * 5 * 7)
def test_integer_roots_are_the_planted_roots(roots, c, lead):
    # x^2 + c has no real root and lead x + 1 no integer root.
    h = P([c, 0, 1]) * P([1, lead])
    for r in roots:
        h = h * P([-r, 1])
    assert exact_linalg._integer_roots(h.monic()) == sorted(roots)


def test_root_moduli_rational_part_below_the_leading_numerator():
    # x^2 - 1/4 is stored as (-1, 0, 4) / 4: every coefficient below the
    # top is smaller than the leading numerator, and there is no integer
    # root; (x - 3)(x + 1/2)(x - 1/3) has one beside two rational roots.
    h = P([Fraction(-1, 4), 0, 1])
    assert (h.num, h.den) == ((-1, 0, 4), 4)
    out = root_moduli(h)
    half = (Fraction(1, 2), Fraction(1, 2))
    assert out == [(complex(-0.5, 0.0), half), (complex(0.5, 0.0), half)]
    out = root_moduli(P([-3, 1]) * P([Fraction(1, 2), 1]) * P([Fraction(-1, 3), 1]))
    (z1, (lo1, hi1)), (z2, (lo2, hi2)), (z3, exact) = out
    assert lo1 <= Fraction(1, 3) <= hi1 < lo2 <= Fraction(1, 2) <= hi2
    assert (z3, exact) == (complex(3.0, 0.0), (Fraction(3), Fraction(3)))


def test_growth_signature_float_inside_interval():
    sig = growth_signature(M([["1/3"]]))
    lo, hi = sig.rho_interval
    assert lo <= Fraction(sig.rho_float) <= hi
    assert sig.rho_exact == Fraction(1, 3)


def test_quasi_unipotent_order_examples():
    assert quasi_unipotent_order(M([[0, -1], [1, 0]])) == 4
    assert quasi_unipotent_order(M([[1, 1], [0, 1]])) == 1
    assert quasi_unipotent_order(M([[2, 1], [1, 1]])) is None


@pytest.mark.parametrize(
    "rows",
    [[[1, 1], [1, 0]], [[2, 1], [1, 0]], [[3, 1], [1, 0]], [[2, 1], [1, 1]]],
)
def test_rho_interval_contains_quadratic_root_exactly(rows):
    # rho is the larger root of the char poly x^2 - t*x + d, which
    # increases beyond t/2: the interval contains rho iff both ends lie
    # above t/2 and p(lo) <= 0 <= p(hi), decided in rationals.
    m = M(rows)
    lo, hi = growth_signature(m).rho_interval
    p = char_poly(m)
    assert m.trace() / 2 < lo <= hi
    assert p(lo) <= 0 <= p(hi)


def test_quasi_unipotent_order_wrong_order_is_internal_inconsistency(monkeypatch):
    monkeypatch.setattr(exact_linalg, "nilpotency_index", lambda m: None)
    with pytest.raises(InternalInconsistency):
        quasi_unipotent_order(M([[0, -1], [1, 0]]))


@pytest.mark.parametrize("fake_index", [None, 3])
def test_growth_fast_path_disagreement_is_internal_inconsistency(
    monkeypatch, fake_index
):
    monkeypatch.setattr(exact_linalg, "nilpotency_index", lambda m: fake_index)
    with pytest.raises(InternalInconsistency):
        growth_signature(M([[1, 1], [0, 1]]))


def test_quasi_unipotent_order_rejects_rationals():
    with pytest.raises(NonIntegerEntries):
        quasi_unipotent_order(M([["1/2"]]))


def test_quasi_unipotent_order_high_order_boundary():
    # phi(12) = 4 = n, the largest order a 4x4 companion block can carry
    m = ExactMatrix.companion(cyclotomic_poly(12))
    assert quasi_unipotent_order(m) == 12


def test_quasi_unipotent_order_lcm_of_block_orders():
    m = ExactMatrix.block_diag(
        ExactMatrix.companion(cyclotomic_poly(3)),
        ExactMatrix.companion(cyclotomic_poly(4)),
    )
    assert quasi_unipotent_order(m) == 12


def test_nilpotency_index_examples():
    assert nilpotency_index(M([[0, 1], [0, 0]])) == 2
    assert nilpotency_index(ExactMatrix.zeros(3)) == 1
    assert nilpotency_index(ExactMatrix.identity(2)) is None


def test_tensor_product_identities():
    assert tensor_product(
        ExactMatrix.identity(2), ExactMatrix.identity(3)
    ) == ExactMatrix.identity(6)
    j = M([[1, 1], [0, 1]])
    assert tensor_product(j, ExactMatrix.identity(1)) == j


def test_tensor_product_block_sizes_add():
    j = M([[1, 1], [0, 1]])
    assert growth_signature(tensor_product(j, j)).s == 2


def test_exterior_power_edges():
    m = M([[1, 2], [3, 4]])
    assert exterior_power(m, 1) == m
    assert exterior_power(M([[3, 0], [0, 5]]), 2) == M([[15]])
    with pytest.raises(DomainError):
        exterior_power(m, 3)


def test_exterior_power_of_double_jordan_block():
    u = ExactMatrix.block_diag(M([[1, 1], [0, 1]]), M([[1, 1], [0, 1]]))
    e = exterior_power(u, 2)
    assert e.n == 6
    assert growth_signature(e).s == 2


def test_jordan_conjugation_invariance():
    rng = random.Random(2026)
    for _ in range(25):
        sample = random_quasi_unipotent(rng, max_size=7)
        sig = growth_signature(sample.matrix)
        assert sig.rho_exact == Fraction(1)
        assert sig.s == sample.max_multiplicity - 1


def test_power_law():
    rng = random.Random(5)
    mats = [M([[2, 1], [1, 1]]), M([[0, 0], [0, 2]])]
    mats += [random_quasi_unipotent(rng, max_size=5).matrix for _ in range(3)]
    for m in mats:
        sig = growth_signature(m)
        for e in range(1, 6):
            sig_e = growth_signature(m**e)
            assert sig_e.s == sig.s
            assert abs(sig_e.rho_float - sig.rho_float**e) <= 1e-9 * sig.rho_float**e


def test_inverse_law_quasi_unipotent():
    rng = random.Random(6)
    for _ in range(8):
        m = random_quasi_unipotent(rng, max_size=6).matrix
        a, b = growth_signature(m), growth_signature(m.inverse())
        assert (a.rho_exact, a.s) == (b.rho_exact, b.s)


def test_commuting_subadditivity():
    rng = random.Random(8)
    for _ in range(8):
        x = random_quasi_unipotent(rng, max_size=4).matrix
        y = random_quasi_unipotent(rng, max_size=4).matrix
        u = random_unimodular(rng, x.n + y.n)
        a = u @ ExactMatrix.block_diag(x, ExactMatrix.identity(y.n)) @ u.inverse()
        b = u @ ExactMatrix.block_diag(ExactMatrix.identity(x.n), y) @ u.inverse()
        assert a @ b == b @ a
        assert growth_signature(a @ b).s <= growth_signature(a).s + growth_signature(b).s


def test_tensor_additivity():
    rng = random.Random(9)
    for _ in range(6):
        a = random_quasi_unipotent(rng, max_size=4).matrix
        b = random_quasi_unipotent(rng, max_size=4).matrix
        assert (
            growth_signature(tensor_product(a, b)).s
            == growth_signature(a).s + growth_signature(b).s
        )


def test_growth_signature_matches_numpy_spectral_radius():
    # third route: float eigenvalues bracket-check the certified radius
    import numpy as np

    rng = random.Random(17)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        m = M(rows)
        if nilpotency_index(m) is not None:
            continue
        checked += 1
        sig = growth_signature(m)
        eig_rho = max(abs(x) for x in np.linalg.eigvals(np.array(rows, float)))
        assert abs(sig.rho_float - eig_rho) <= 1e-6 * max(1.0, eig_rho), rows


def test_growth_signature_repeated_hyperbolic_part():
    # min poly (x^2 - 3x + 1)^2: dominant real root with a size-2 block
    p = P([1, -3, 1])
    m = ExactMatrix.companion(p * p)
    sig = growth_signature(m)
    assert abs(sig.rho_float - (3 + math.sqrt(5)) / 2) < 1e-11
    assert sig.s == 1
    assert sig.dominant_factors == ((p, 2),)


def test_growth_signature_repeated_complex_pair():
    # min poly (x^2 + 2x + 2)^2: dominant conjugate pair |z| = sqrt(2)
    # with a size-2 block; the modulus is certified exactly (|z|^2 = 2)
    p = P([2, 2, 1])
    m = ExactMatrix.companion(p * p)
    sig = growth_signature(m)
    assert abs(sig.rho_float - math.sqrt(2)) < 1e-11
    assert sig.s == 1
    lo, hi = sig.rho_interval
    assert lo * lo <= 2 <= hi * hi


def test_root_moduli_product_brackets_constant_term():
    # the product of all root moduli equals |a0 / leading|
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 10)
        coeffs = [rng.randint(-5, 5) for _ in range(n)] + [1]
        h = P(coeffs)
        if h.degree < 1 or h(Fraction(0)) == 0:
            continue
        if poly_gcd(h, h.derivative()).degree != 0:
            continue
        try:
            out = root_moduli(h, precision=40)
        except PrecisionExhausted:
            continue
        prod_lo = math.prod(float(lo) for _, (lo, _) in out)
        prod_hi = math.prod(float(hi) for _, (_, hi) in out)
        target = abs(float(h[0]))
        assert prod_lo <= target * (1 + 1e-9)
        assert prod_hi >= target * (1 - 1e-9)


def test_matrix_rejects_float_entries():
    with pytest.raises(TypeError):
        M([[0.5]])


def test_matrix_rejects_ragged():
    with pytest.raises(Exception):
        M([[1, 2], [3]])


def test_poly_gcd_normalizes_monic():
    g = poly_gcd(P([1, -2, 1]), P([-1, 1]))
    assert g == P([-1, 1])

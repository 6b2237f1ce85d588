from __future__ import annotations

import math
from fractions import Fraction

import pytest

from catentropy.errors import DomainError, NotNilpotent
from catentropy.exact_linalg import ExactMatrix, exterior_power
from catentropy.growth_estimator import PositiveSequence
from catentropy.variety_dynamics import (
    EndoAction,
    LineBundleData,
    NefFlag,
    degree_table,
    kuenneth_self_product,
    line_bundle_report,
    numerical_dimension,
    pullback_entropy_report,
    serre_functor_report,
    validate_geometric,
)

M = ExactMatrix.from_rows


def power_map(k: int, d: int) -> EndoAction:
    return EndoAction.from_matrices([M([[k**p]]) for p in range(d + 1)])


def chern_shift(n: int) -> ExactMatrix:
    # multiplication by a hyperplane class: basis 1, H, ..., H^(n-1)
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i + 1][i] = 1
    return M(rows)


def abelian_parabolic() -> EndoAction:
    u = ExactMatrix.block_diag(M([[1, 1], [0, 1]]), M([[1, 1], [0, 1]]))
    return EndoAction.from_matrices(
        [M([[1]]), exterior_power(u, 2), M([[1]])]
    )


def test_endo_action_validation():
    with pytest.raises(DomainError):
        EndoAction.from_matrices([M([[2]]), M([[2]])])  # M_0 must be identity
    with pytest.raises(DomainError):
        EndoAction.from_matrices([M([[1]]), M([[-2]])])  # degree must be positive
    with pytest.raises(DomainError):
        EndoAction.from_matrices([M([[1]]), M([["1/2"]])])


def test_degree_table_power_map():
    table = degree_table(power_map(2, 3))
    assert table.d_p == (1.0, 2.0, 4.0, 8.0)
    assert table.s_p == (0, 0, 0, 0)
    assert table.plateau == (3, 3)
    for p, sig in enumerate(table.signatures):
        assert sig.rho_exact == Fraction(2**p)


def test_degree_table_identity():
    table = degree_table(EndoAction.from_matrices([M([[1]])] * 4))
    assert table.plateau == (0, 3)
    assert table.s_p == (0, 0, 0, 0)


def test_degree_table_abelian_parabolic():
    table = degree_table(abelian_parabolic())
    assert table.d_p == (1.0, 1.0, 1.0)
    assert table.s_p == (0, 2, 0)
    assert table.plateau == (0, 2)


def test_validate_geometric_accepts_power_map():
    assert validate_geometric(degree_table(power_map(3, 3))) == []


def test_validate_geometric_flags_log_concavity():
    crafted = EndoAction.from_matrices(
        [M([[1]]), M([[3]]), M([[2]]), M([[9]])]
    )
    warnings = validate_geometric(degree_table(crafted))
    assert any("p = 2" in w for w in warnings)


def test_validate_geometric_flags_plateau_concavity():
    # Degrees all 1, so the plateau is every p; s_p = (0, 0, 1, 0) is not
    # concave at p = 1.
    crafted = EndoAction.from_matrices(
        [M([[1]]), ExactMatrix.identity(2), M([[1, 1], [0, 1]]), M([[1]])]
    )
    warnings = validate_geometric(degree_table(crafted))
    assert "concavity of the polynomial degrees fails on the plateau at p = 1" in warnings


def test_validate_geometric_flags_a_split_plateau():
    crafted = EndoAction.from_matrices([M([[1]]), M([[2]]), M([[1]]), M([[2]])])
    warnings = validate_geometric(degree_table(crafted))
    assert "maximal degree is not attained on a contiguous range" in warnings


def test_pullback_entropy_power_maps():
    for k in (2, 3):
        for d in (1, 2, 3):
            rep = pullback_entropy_report(power_map(k, d))
            assert abs(rep.h_cat - d * math.log(k)) < 1e-12
            assert rep.h_pol == 0


def test_pullback_entropy_identity():
    rep = pullback_entropy_report(EndoAction.from_matrices([M([[1]])] * 3))
    assert rep.h_cat == 0.0 and rep.h_pol == 0


def test_pullback_entropy_abelian_parabolic():
    rep = pullback_entropy_report(abelian_parabolic())
    assert rep.h_cat == 0.0
    assert rep.h_pol == 2
    assert rep.block_signature.s == 2


def test_kuenneth_identity():
    res = kuenneth_self_product(
        degree_table(EndoAction.from_matrices([M([[1]])] * 3))
    )
    assert res.degree_mismatches == () and res.s_mismatches == ()
    assert res.table.d_p == (1.0,) * 5


def test_kuenneth_power_map_on_line():
    res = kuenneth_self_product(degree_table(power_map(2, 1)))
    assert res.degree_mismatches == () and res.s_mismatches == ()
    assert res.table.d_p == (1.0, 2.0, 4.0)
    assert res.table.s_p == (0, 0, 0)


def test_kuenneth_abelian_convolution():
    res = kuenneth_self_product(degree_table(abelian_parabolic()))
    assert res.degree_mismatches == () and res.s_mismatches == ()
    table = res.table
    # middle codimension doubles the polynomial degree: s_2 = 2 * s_1
    assert table.s_p[2] == 4


def test_numerical_dimension_projective_space():
    for d in (1, 2, 3, 4):
        lb = LineBundleData(dim=d, c1_action=chern_shift(d + 1), nef_flag=NefFlag.NEF)
        assert numerical_dimension(lb) == d


def test_numerical_dimension_trivial_class():
    lb = LineBundleData(dim=2, c1_action=ExactMatrix.zeros(3))
    assert numerical_dimension(lb) == 0


def test_numerical_dimension_square_zero_divisor():
    # blow-up of the plane at a point, D = H' + E with D^2 = 0:
    # basis (1, H', E, point): D*1 = H' + E, D*H' = pt, D*E = -pt
    c1 = M([[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 1, -1, 0]])
    lb = LineBundleData(dim=2, c1_action=c1)
    assert numerical_dimension(lb) == 1


def test_numerical_dimension_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        numerical_dimension(LineBundleData(dim=2, c1_action=ExactMatrix.identity(3)))


def test_line_bundle_report_hyperplane():
    for d in (1, 2, 3, 4):
        counts = [math.comb(n + d, d) for n in range(1, 401)]
        lb = LineBundleData(
            dim=d,
            c1_action=chern_shift(d + 1),
            nef_flag=NefFlag.NEF,
            cohomology_sequences={0: PositiveSequence.from_values(counts)},
        )
        rep = line_bundle_report(lb)
        assert rep.h_cat == 0.0
        assert rep.h_pol_exact == d
        assert rep.exp_signature.s == d
        assert abs(rep.empirical_s_hat - d) <= 0.15


def test_line_bundle_report_numerically_trivial():
    lb = LineBundleData(dim=3, c1_action=ExactMatrix.zeros(4), nef_flag=NefFlag.NEF)
    rep = line_bundle_report(lb)
    assert rep.h_pol_exact == 0


def test_line_bundle_report_big_but_not_nef_gap():
    # the square-zero divisor on the blow-up: nu = 1 but sections grow
    # quadratically, exhibiting the strict gap in the bounds [1, 2]
    c1 = M([[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 1, -1, 0]])
    sections = [(n + 1) * (n + 2) / 2 for n in range(1, 401)]
    lb = LineBundleData(
        dim=2,
        c1_action=c1,
        nef_flag=NefFlag.UNKNOWN,
        cohomology_sequences={0: PositiveSequence.from_values(sections)},
    )
    rep = line_bundle_report(lb)
    assert (rep.h_pol_lower, rep.h_pol_upper) == (1, 2)
    assert rep.h_pol_exact is None
    assert abs(rep.empirical_s_hat - 2) <= 0.15


def test_line_bundle_anti_nef_flag_pins_value():
    lb = LineBundleData(dim=2, c1_action=chern_shift(3), nef_flag=NefFlag.ANTI_NEF)
    assert line_bundle_report(lb).h_pol_exact == 2


def test_serre_functor_reports():
    # numerically trivial canonical bundle
    cy = LineBundleData(dim=3, c1_action=ExactMatrix.zeros(4), nef_flag=NefFlag.NEF)
    rep = serre_functor_report(3, cy)
    assert rep.h_t_slope == 3
    assert rep.line_bundle.h_pol_exact == 0

    # general type: canonical class behaves like a hyperplane class
    big = LineBundleData(dim=2, c1_action=chern_shift(3), nef_flag=NefFlag.NEF)
    assert serre_functor_report(2, big).line_bundle.h_pol_exact == 2

    # numerical dimension 1 canonical class on a surface
    rows = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    nu1 = LineBundleData(dim=2, c1_action=M(rows), nef_flag=NefFlag.NEF)
    assert serre_functor_report(2, nu1).line_bundle.h_pol_exact == 1


def test_degree_multiplicativity():
    base = power_map(2, 2)
    for m in (2, 3):
        powered = EndoAction.from_matrices([a**m for a in base.actions])
        table = degree_table(powered)
        assert table.d_p == tuple(x**m for x in degree_table(base).d_p)
        assert table.s_p == degree_table(base).s_p

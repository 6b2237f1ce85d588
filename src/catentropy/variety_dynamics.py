"""Dynamical degrees of surjective endomorphisms from pullback matrices.

The input is the per-codimension action of a pullback on numerical cycle
groups; the geometry is the user's responsibility, since every invariant
here consumes only the matrices.  From it the module computes the degree sequence
d_p = rho of the codimension-p action, the polynomial degrees s_p, the
plateau where d_p is maximal, and the resulting entropy report
h_cat = log max d_p, h_pol = max of s_p over the plateau.  Line-bundle
and Serre-functor reports reduce to nilpotency data of the first Chern
class action.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (
    DimensionMismatch,
    DomainError,
    InternalInconsistency,
    NotNilpotent,
)
from .exact_linalg import (
    DEFAULT_TOLERANCE,
    MAX_BITS,
    ExactMatrix,
    GrowthSignature,
    growth_signature,
    nilpotency_index,
    tensor_product,
)
from .growth_estimator import EstimatedSignature, PositiveSequence, fit_growth
from .twist_zoo import shift_report


@dataclass(frozen=True)
class EndoAction:
    """Pullback matrices M_p on codimension-p numerical cycles, p = 0..dim.

    M_0 is the 1x1 identity (pullback fixes the fundamental class) and
    M_dim is 1x1 with the positive topological degree; all entries are
    integers.
    """

    dim: int
    actions: tuple[ExactMatrix, ...]

    @staticmethod
    def from_matrices(actions: Sequence[ExactMatrix]) -> "EndoAction":
        d = len(actions) - 1
        if d < 1:
            raise DomainError("an endomorphism action needs dim >= 1")
        m0, md = actions[0], actions[-1]
        if m0.n != 1 or m0.entry(0, 0) != 1:
            raise DomainError("codimension-0 action must be the 1x1 identity")
        if md.n != 1 or md.entry(0, 0) < 1 or md.entry(0, 0).denominator != 1:
            raise DomainError(
                "top-codimension action must be a positive integer 1x1 matrix"
            )
        for m in actions:
            if not m.is_integer:
                raise DomainError("pullback matrices must have integer entries")
        return EndoAction(d, tuple(actions))


@dataclass(frozen=True)
class DegreeTable:
    """Degree data per codimension of ``action``, with the plateau of
    maximal degree."""

    action: EndoAction
    signatures: tuple[GrowthSignature, ...]
    plateau: tuple[int, int]

    @property
    def d_p(self) -> tuple[float, ...]:
        return tuple(sig.rho_float for sig in self.signatures)

    @property
    def s_p(self) -> tuple[int, ...]:
        return tuple(sig.s for sig in self.signatures)


def _interval_eq(a: GrowthSignature, b: GrowthSignature) -> bool:
    return (
        a.rho_interval[0] <= b.rho_interval[1]
        and b.rho_interval[0] <= a.rho_interval[1]
    )


def degree_table(
    e: EndoAction,
    tolerance: Union[Fraction, float] = DEFAULT_TOLERANCE,
    max_bits: int = MAX_BITS,
) -> DegreeTable:
    """Growth signature per codimension; the plateau is the index range of
    maximal degree (an interval for any geometric input)."""
    sigs = tuple([growth_signature(m, tolerance, max_bits) for m in e.actions])
    argmax = _argmax_degrees(sigs)
    return DegreeTable(e, sigs, (min(argmax), max(argmax)))


def _argmax_degrees(sigs: Sequence[GrowthSignature]) -> list[int]:
    """Indices whose degree interval reaches the largest lower end: the
    codimensions of maximal degree up to certified-interval resolution."""
    max_lo = max(sig.rho_interval[0] for sig in sigs)
    return [p for p, sig in enumerate(sigs) if sig.rho_interval[1] >= max_lo]


def validate_geometric(table: DegreeTable) -> list[str]:
    """Warnings (never errors) when the degree data cannot come from a
    surjective endomorphism of a smooth projective variety: the d_p must
    be log-concave and the s_p concave on the plateau."""
    warnings = []
    d = [sig.rho_float for sig in table.signatures]
    for p in range(1, table.action.dim):
        if d[p] * d[p] < d[p - 1] * d[p + 1] * (1 - 1e-9):
            warnings.append(
                "log-concavity of the degree sequence fails at p = %d "
                "(d_%d^2 = %.6g < %.6g = d_%d * d_%d)"
                % (p, p, d[p] * d[p], d[p - 1] * d[p + 1], p - 1, p + 1)
            )
    p0, p1 = table.plateau
    s = table.s_p
    for p in range(p0 + 1, p1):
        if 2 * s[p] < s[p - 1] + s[p + 1]:
            warnings.append(
                "concavity of the polynomial degrees fails on the plateau "
                "at p = %d" % p
            )
    argmax = _argmax_degrees(table.signatures)
    if argmax != list(range(min(argmax), max(argmax) + 1)):
        warnings.append("maximal degree is not attained on a contiguous range")
    return warnings


@dataclass(frozen=True)
class PullbackEntropyReport:
    h_cat: float
    h_pol: int
    table: DegreeTable
    block_signature: GrowthSignature


def pullback_entropy_report(
    e: EndoAction,
    tolerance: Union[Fraction, float] = DEFAULT_TOLERANCE,
    max_bits: int = MAX_BITS,
) -> PullbackEntropyReport:
    """Entropy of the derived pullback: h_cat = log max_p d_p and
    h_pol = max of s_p over the plateau.  The same value must equal the
    growth exponent of the block-diagonal joint action; a mismatch raises
    InternalInconsistency (a bug, not bad input)."""
    table = degree_table(e, tolerance, max_bits)
    p0, p1 = table.plateau
    top = max(table.signatures, key=lambda sig: sig.rho_interval[0])
    h_cat = top.log_rho
    h_pol = max(table.s_p[p] for p in range(p0, p1 + 1))
    block = growth_signature(ExactMatrix.block_diag(*e.actions), tolerance, max_bits)
    if block.s != h_pol or not _interval_eq(block, top):
        raise InternalInconsistency(
            "plateau-wise polynomial degree disagrees with the joint action: "
            "max plateau s_p = %d, joint s = %d" % (h_pol, block.s)
        )
    return PullbackEntropyReport(
        h_cat=h_cat, h_pol=h_pol, table=table, block_signature=block
    )


@dataclass(frozen=True)
class KuennethResult:
    table: DegreeTable
    degree_mismatches: tuple[str, ...]
    s_mismatches: tuple[str, ...]


def kuenneth_self_product(
    table: DegreeTable,
    tolerance: Union[Fraction, float] = DEFAULT_TOLERANCE,
    max_bits: int = MAX_BITS,
) -> KuennethResult:
    """Action of (f, f) on the self-product, with codimension-k part the
    block-diagonal sum of tensor products M_l (x) M_{k-l}, where ``table``
    is the degree table of f.

    Verifies the degree convolution d_k(f,f) = max_l d_l * d_{k-l} and,
    on the product plateau, the polynomial-degree convolution
    s_k(f,f) = max (s_l + s_{k-l}) over plateau-constrained l; any
    mismatch is reported (bug signal), never raised.
    """
    e = table.action
    d = e.dim
    p0, p1 = table.plateau
    prod_actions = []
    for k in range(0, 2 * d + 1):
        blocks = [
            tensor_product(e.actions[l], e.actions[k - l])
            for l in range(max(0, k - d), min(k, d) + 1)
        ]
        prod_actions.append(ExactMatrix.block_diag(*blocks))
    product = EndoAction.from_matrices(prod_actions)

    degree_mismatches = []
    s_mismatches = []
    prod_table = degree_table(product, tolerance, max_bits)
    for k in range(0, 2 * d + 1):
        sig_k = prod_table.signatures[k]
        cands = [
            (
                table.signatures[l].rho_interval[0]
                * table.signatures[k - l].rho_interval[0],
                table.signatures[l].rho_interval[1]
                * table.signatures[k - l].rho_interval[1],
            )
            for l in range(max(0, k - d), min(k, d) + 1)
        ]
        # Interval of max_l of the products.
        best = (max(c[0] for c in cands), max(c[1] for c in cands))
        if not (
            sig_k.rho_interval[0] <= best[1] and best[0] <= sig_k.rho_interval[1]
        ):
            degree_mismatches.append(
                "d_%d of the product is %.12g, expected max_l d_l*d_{%d-l} "
                "= %.12g" % (k, sig_k.rho_float, k, (best[0] + best[1]) / 2)
            )
    for k in range(2 * p0, 2 * p1 + 1):
        expected = max(
            table.s_p[l] + table.s_p[k - l]
            for l in range(max(p0, k - p1), min(p1, k - p0) + 1)
        )
        got = prod_table.s_p[k]
        if got != expected:
            s_mismatches.append(
                "s_%d of the product is %d, expected %d from the plateau "
                "convolution" % (k, got, expected)
            )
    return KuennethResult(
        table=prod_table,
        degree_mismatches=tuple(degree_mismatches),
        s_mismatches=tuple(s_mismatches),
    )


# ---------------------------------------------------------------------------
# Line bundles and Serre functors
# ---------------------------------------------------------------------------


class NefFlag(Enum):
    NEF = "nef"
    ANTI_NEF = "antinef"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class LineBundleData:
    """Multiplication-by-first-Chern-class operator on the total numerical
    cycle space, plus an optional positivity flag and optional measured
    cohomology growth sequences."""

    dim: int
    c1_action: ExactMatrix
    nef_flag: NefFlag = NefFlag.UNKNOWN
    cohomology_sequences: Optional[dict[int, PositiveSequence]] = None


def numerical_dimension(lb: LineBundleData) -> int:
    """Largest m with c1^m nonzero: one less than the nilpotency index."""
    idx = nilpotency_index(lb.c1_action)
    if idx is None:
        raise NotNilpotent("first Chern class action must be nilpotent")
    return idx - 1


def _exp_nilpotent(n: ExactMatrix, index: int) -> ExactMatrix:
    out = ExactMatrix.identity(n.n)
    term = ExactMatrix.identity(n.n)
    fact = 1
    for k in range(1, index):
        term = term @ n
        fact *= k
        out = out + term.scale(Fraction(1, fact))
    return out


@dataclass(frozen=True)
class LineBundleReport:
    h_cat: float
    h_pol_lower: int
    h_pol_upper: int
    h_pol_exact: Optional[int]
    exp_signature: GrowthSignature
    empirical_s_hat: Optional[float]
    empirical_fits: Optional[dict[int, EstimatedSignature]]


def line_bundle_report(lb: LineBundleData) -> LineBundleReport:
    """Polynomial entropy of tensoring by a line bundle.

    Always h_cat = 0 with nu(L) <= h_pol <= dim; a nef (or anti-nef) flag
    pins h_pol to nu(L) exactly.  The lattice route is cross-checked: the
    exponential of the Chern action is unipotent with growth exponent
    exactly nu(L).  Supplied cohomology sequences are fitted and the
    largest s_hat reported as an empirical estimate (these can exceed nu
    for non-nef bundles).
    """
    nu = numerical_dimension(lb)
    if nu > lb.dim:
        raise DomainError(
            "nilpotency index exceeds dim + 1; not a Chern action on a "
            "%d-dimensional variety" % lb.dim
        )
    exp_sig = growth_signature(_exp_nilpotent(lb.c1_action, nu + 1))
    if exp_sig.rho_exact != Fraction(1) or exp_sig.s != nu:
        raise InternalInconsistency(
            "exp of the Chern action must be unipotent with exponent nu"
        )
    h_pol_exact = nu if lb.nef_flag is not NefFlag.UNKNOWN else None
    empirical_fits = None
    empirical = None
    if lb.cohomology_sequences:
        empirical_fits = {
            k: fit_growth(seq) for k, seq in sorted(lb.cohomology_sequences.items())
        }
        empirical = max(est.s_hat for est in empirical_fits.values())
    return LineBundleReport(
        h_cat=0.0,
        h_pol_lower=nu,
        h_pol_upper=lb.dim,
        h_pol_exact=h_pol_exact,
        exp_signature=exp_sig,
        empirical_s_hat=empirical,
        empirical_fits=empirical_fits,
    )


@dataclass(frozen=True)
class SerreFunctorReport:
    h_t_slope: Fraction
    line_bundle: LineBundleReport


def serre_functor_report(dim: int, omega: LineBundleData) -> SerreFunctorReport:
    """The Serre functor twists by the canonical bundle and shifts by dim:
    its entropy function is that of the shift, slope dim in t, and its
    polynomial entropy is that of tensoring by the canonical bundle."""
    if omega.dim != dim:
        raise DimensionMismatch(
            "canonical bundle data is for dimension %d, not %d" % (omega.dim, dim)
        )
    return SerreFunctorReport(
        h_t_slope=shift_report(dim)["h_t_slope"],
        line_bundle=line_bundle_report(omega),
    )

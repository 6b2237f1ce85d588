"""Word-level dynamics in SL(2,Z) for twist-generated autoequivalence groups.

Two contexts are supported, differing only in their generator matrices on
the rank-2 numerical lattice:

* ``A2CY3`` -- the two spherical twists of the 3-Calabi-Yau category of
  the A2 quiver, acting in the basis of the two simple spherical objects.
* ``ELLIPTIC`` -- tensoring by a degree-1 line bundle (T) and the
  Fourier-Mukai transform (S) on an elliptic curve, acting in the basis
  {structure sheaf, point sheaf}.

Every word is classified by the trace trichotomy of its lattice action,
with exact entropy and polynomial-entropy values, and cross-checked
against the generic matrix growth machinery.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DomainError, ParseError
from .exact_linalg import DEFAULT_TOLERANCE, MAX_BITS, ExactMatrix, growth_signature


class Context(Enum):
    A2CY3 = "a2cy3"
    ELLIPTIC = "elliptic"


#: Generator matrices on the rank-2 lattice, keyed by (context, generator id).
_GENERATORS = {
    (Context.A2CY3, 1): ExactMatrix.from_rows([[1, 1], [0, 1]]),     # T1
    (Context.A2CY3, 2): ExactMatrix.from_rows([[1, 0], [-1, 1]]),    # T2
    (Context.ELLIPTIC, 1): ExactMatrix.from_rows([[1, 0], [1, 1]]),  # T
    (Context.ELLIPTIC, 2): ExactMatrix.from_rows([[0, 1], [-1, 0]]),  # S
}

_GENERATOR_NAMES = {
    Context.A2CY3: {1: "T1", 2: "T2"},
    Context.ELLIPTIC: {1: "T", 2: "S"},
}


@dataclass(frozen=True)
class Sl2Element:
    """An element of SL(2,Z)."""

    m: ExactMatrix

    def __post_init__(self):
        if self.m.n != 2:
            raise DomainError("SL(2,Z) elements are 2x2")
        if not self.m.is_integer:
            raise DomainError("SL(2,Z) elements have integer entries")
        if self.m.det() != 1:
            raise DomainError("determinant must be 1")

    @property
    def trace(self) -> int:
        return int(self.m.trace())

    @property
    def is_plus_minus_identity(self) -> bool:
        i = ExactMatrix.identity(2)
        return self.m == i or self.m == -i


@dataclass(frozen=True)
class TwistWord:
    """A word in the two twist generators: letters are (generator id,
    nonzero exponent); adjacent letters with the same generator are merged
    on construction.  Shift markers in the source syntax are dropped: they
    never change the classification."""

    letters: tuple[tuple[int, int], ...]
    context: Context

    @staticmethod
    def from_letters(
        letters: Sequence[tuple[int, int]], context: Context
    ) -> "TwistWord":
        merged: list[list[int]] = []
        for gen, exp in letters:
            if gen not in (1, 2):
                raise ParseError("generator id must be 1 or 2, got %r" % (gen,))
            if exp == 0:
                raise ParseError("exponents must be nonzero")
            if merged and merged[-1][0] == gen:
                merged[-1][1] += exp
                if merged[-1][1] == 0:
                    merged.pop()
            else:
                merged.append([gen, exp])
        return TwistWord(tuple((g, e) for g, e in merged), context)

    def __str__(self) -> str:
        names = _GENERATOR_NAMES[self.context]
        if not self.letters:
            return "<empty>"
        return " ".join(
            names[g] + ("" if e == 1 else "^%d" % e) for g, e in self.letters
        )


_TOKEN_RE = re.compile(r"^(T1|T2|T|S)(?:\^(-?\d+))?$")
_SHIFT_RE = re.compile(r"^\[(-?\d+)\]$")


def parse_word(tokens: Sequence[str], context: Context) -> TwistWord:
    """Parse whitespace-split word tokens: ``T1``, ``T2^-3``, ``S``, ``T``,
    and shift markers ``[m]`` (accepted, ignored for classification)."""
    letters = []
    names = {v: k for k, v in _GENERATOR_NAMES[context].items()}
    for tok in tokens:
        if _SHIFT_RE.match(tok):
            continue
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ParseError("bad word token %r" % tok)
        name, exp = m.group(1), m.group(2)
        if name not in names:
            raise ParseError(
                "generator %r is not valid in context %s" % (name, context.value)
            )
        letters.append((names[name], int(exp) if exp is not None else 1))
    return TwistWord.from_letters(letters, context)


def word_to_matrix(w: TwistWord) -> Sl2Element:
    """Product of the generator matrices with exponents, exactly."""
    if not w.letters:
        raise DomainError("cannot evaluate an empty word; use the identity")
    out = ExactMatrix.identity(2)
    for gen, exp in w.letters:
        out = out @ (_GENERATORS[(w.context, gen)] ** exp)
    return Sl2Element(out)


class Sl2Class(Enum):
    ELLIPTIC_OR_CENTRAL = "elliptic_or_central"
    PARABOLIC_NON_CENTRAL = "parabolic_non_central"
    HYPERBOLIC = "hyperbolic"


def classify_sl2(g: Sl2Element) -> Sl2Class:
    """Trace trichotomy: |tr| < 2 is elliptic; |tr| = 2 splits into the
    central elements +-I and the parabolic rest; |tr| > 2 is hyperbolic."""
    t = abs(g.trace)
    if t < 2:
        return Sl2Class.ELLIPTIC_OR_CENTRAL
    if t == 2:
        if g.is_plus_minus_identity:
            return Sl2Class.ELLIPTIC_OR_CENTRAL
        return Sl2Class.PARABOLIC_NON_CENTRAL
    return Sl2Class.HYPERBOLIC


@dataclass(frozen=True)
class TrichotomyReport:
    """Exact entropy values attached to the trace trichotomy.

    Hyperbolic elements have positive entropy log((|tr|+sqrt(tr^2-4))/2)
    and vanishing polynomial entropy; non-central parabolics have zero
    entropy and polynomial entropy 1; elliptic/central elements have both
    invariants zero.
    """

    classification: Sl2Class
    h_cat_exact: str
    h_cat_float: float
    h_pol: int
    pseudo_anosov: bool
    trace: int


def matrix_report(
    g: Sl2Element, context: Optional[Context] = None
) -> TrichotomyReport:
    """Trichotomy report straight from a lattice element."""
    cls = classify_sl2(g)
    t = abs(g.trace)
    if cls is Sl2Class.HYPERBOLIC:
        h_exact = "log((%d+sqrt(%d))/2)" % (t, t * t - 4)
        h_float = math.log((t + math.sqrt(t * t - 4)) / 2)
        h_pol = 0
    elif cls is Sl2Class.PARABOLIC_NON_CENTRAL:
        h_exact, h_float, h_pol = "0", 0.0, 1
    else:
        h_exact, h_float, h_pol = "0", 0.0, 0
    return TrichotomyReport(
        classification=cls,
        h_cat_exact=h_exact,
        h_cat_float=h_float,
        h_pol=h_pol,
        pseudo_anosov=(cls is Sl2Class.HYPERBOLIC and context is Context.A2CY3),
        trace=g.trace,
    )


def _word_element(w: TwistWord) -> Sl2Element:
    """The lattice element of w; the empty word acts as the identity."""
    return word_to_matrix(w) if w.letters else Sl2Element(ExactMatrix.identity(2))


def trichotomy_report(w: TwistWord) -> TrichotomyReport:
    """Classification with exact entropy values for a twist word; the empty
    word acts as the identity."""
    return matrix_report(_word_element(w), w.context)


def crosscheck_with_lattice(
    w: TwistWord,
    tolerance: Union[Fraction, float] = DEFAULT_TOLERANCE,
    max_bits: int = MAX_BITS,
) -> dict:
    """Compare the trichotomy values against the generic matrix growth
    machinery: requires h_cat = log(rho) to 1e-9 and h_pol = s exactly.
    An inconsistency indicates an implementation bug, not bad input."""
    return _checked_report(w, tolerance, max_bits)[1]


def _checked_report(
    w: TwistWord, tolerance: Union[Fraction, float], max_bits: int
) -> tuple[TrichotomyReport, dict]:
    """``trichotomy_report(w)`` and ``crosscheck_with_lattice(w)``, both
    read off one lattice element."""
    g = _word_element(w)
    report = matrix_report(g, w.context)
    sig = growth_signature(g.m, tolerance, max_bits)
    log_rho = sig.log_rho
    consistent = (
        abs(report.h_cat_float - log_rho) <= 1e-9 and report.h_pol == sig.s
    )
    return report, {
        "consistent": consistent,
        "details": {
            "h_cat_float": report.h_cat_float,
            "log_rho": log_rho,
            "h_pol": report.h_pol,
            "s": sig.s,
            "rho_float": sig.rho_float,
        },
    }

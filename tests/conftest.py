"""Shared fixtures of the root-certification tests."""

from __future__ import annotations

import pytest

from catentropy import exact_linalg


def _first_level(m, tolerance=exact_linalg.DEFAULT_TOLERANCE) -> tuple[list, int]:
    """The modulus classes of M's roots that ``growth_signature(m,
    tolerance)`` builds at the first level of its precision ladder that
    certifies (the exact classes, then the numeric ones), and that level's
    bits.  Read by spies on ``_exact_classes`` and ``_numeric_classes``."""
    exact, numeric = [], []
    build_exact, build_numeric = exact_linalg._exact_classes, exact_linalg._numeric_classes

    def spy_exact(*args):
        exact.append(build_exact(*args))
        return exact[-1]

    def spy_numeric(*args):
        numeric.append((build_numeric(*args), args[2]))
        return numeric[-1][0]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_linalg, "_exact_classes", spy_exact)
        patch.setattr(exact_linalg, "_numeric_classes", spy_numeric)
        exact_linalg.growth_signature(m, tolerance)
    (classes,) = exact
    first, bits = numeric[0]
    return classes + first, bits


@pytest.fixture(scope="session")
def first_level():
    """``_first_level``; session-scoped, so hypothesis tests can take it."""
    return _first_level

"""Exception and warning types shared across the library."""


class CatEntropyError(Exception):
    """Base class for all library-specific errors."""


class ParseError(CatEntropyError):
    """Malformed input file or word syntax (CLI exit code 2)."""


class DomainError(CatEntropyError):
    """Structurally valid input outside an operation's domain (CLI exit code 3)."""


class InternalInconsistency(CatEntropyError):
    """Two routes that must agree disagreed; indicates a bug (CLI exit code 4)."""


class NilpotentInput(DomainError):
    """Growth data is undefined for nilpotent matrices (spectral radius 0)."""


class NonIntegerEntries(DomainError):
    """Operation requires a matrix with integer entries."""


class PrecisionExhausted(DomainError):
    """Root moduli could not be separated within the precision escalation cap."""

    def __init__(self, message, classes=None):
        super().__init__(message)
        self.classes = classes


class CatEntropyWarning(UserWarning):
    """Base class for library warnings; the CLI copies each one into the
    envelope's ``warnings``."""


class TiedModuli(CatEntropyWarning):
    """Root moduli stayed inseparable at the precision cap and their tie
    was over the degree cap of the exact tie proof; the conservative
    (larger) growth exponent was reported."""


class WindowTooShort(DomainError):
    """Fit window has fewer points than the fit needs."""


class NonPositiveValue(DomainError):
    """Sequence values must be strictly positive and finite."""


class ZeroPairingAt(DomainError):
    """The pairing sequence vanished at some indices; carries the offending n."""

    def __init__(self, indices):
        self.indices = tuple(indices)
        super().__init__(
            "pairing value is zero at n = %s; choose another vector pair"
            % (list(self.indices),)
        )


class NotNilpotent(DomainError):
    """A nilpotent operator was required (first Chern class action)."""


class DimensionMismatch(DomainError):
    """Matrix or vector dimensions are incompatible."""


class NotAnIsometry(DomainError):
    """The supplied matrix does not preserve the Euler pairing."""


class AllPairingsDegenerate(DomainError):
    """Every basis pairing sequence degenerated; no crosscheck is possible."""

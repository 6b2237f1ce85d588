"""catentropy: exact growth invariants of categorical and algebraic
dynamical systems.

The library computes certified spectral radii and polynomial growth rates
of integer/rational matrices (`exact_linalg`), fits growth data to
positive sequences as an independent oracle (`growth_estimator`), and
layers the derived-category dynamics on top: the SL(2,Z) trichotomy for
twist-generated groups (`sl2z_dynamics`), dynamical degrees of pullback
actions (`variety_dynamics`), closed twist bounds (`twist_zoo`), and
Euler-form dynamics of acyclic quivers (`quiver_hereditary`).

The names in ``__all__`` resolve on first use (PEP 562): ``import
catentropy`` loads none of these modules, and reading
``catentropy.growth_signature`` imports `exact_linalg` then.
"""

__version__ = "0.1.0"

#: Defining module -> the public names it exports here.
_EXPORTS = {
    "errors": (
        "AllPairingsDegenerate",
        "CatEntropyError",
        "CatEntropyWarning",
        "DimensionMismatch",
        "DomainError",
        "InternalInconsistency",
        "NilpotentInput",
        "NonIntegerEntries",
        "NotAnIsometry",
        "NotNilpotent",
        "NonPositiveValue",
        "ParseError",
        "PrecisionExhausted",
        "TiedModuli",
        "WindowTooShort",
        "ZeroPairingAt",
    ),
    "exact_linalg": (
        "ExactMatrix",
        "ExactPoly",
        "GrowthSignature",
        "RootOfFactor",
        "char_poly",
        "cyclotomic_poly",
        "entry_sum_sequence",
        "exterior_power",
        "growth_signature",
        "min_poly",
        "nilpotency_index",
        "quasi_unipotent_order",
        "root_moduli",
        "squarefree_decomposition",
        "tensor_product",
    ),
    "growth_estimator": (
        "EstimatedSignature",
        "ExtTable",
        "PositiveSequence",
        "entropy_from_ext_sequence",
        "eval_ext_distance",
        "fit_growth",
        "pairing_sequence",
    ),
    "quiver_hereditary": (
        "EulerLattice",
        "Quiver",
        "check_isometry",
        "coxeter_matrix",
        "euler_form",
        "hereditary_report",
    ),
    "sl2z_dynamics": (
        "Context",
        "Sl2Class",
        "Sl2Element",
        "TrichotomyReport",
        "TwistWord",
        "classify_sl2",
        "crosscheck_with_lattice",
        "parse_word",
        "trichotomy_report",
        "word_to_matrix",
    ),
    "twist_zoo": (
        "TwistKind",
        "TwistParams",
        "ValueOrInterval",
        "fractional_cy_report",
        "shift_report",
        "twist_bound",
        "twist_entropy_report",
        "twist_recurrence",
    ),
    "variety_dynamics": (
        "DegreeTable",
        "EndoAction",
        "LineBundleData",
        "NefFlag",
        "degree_table",
        "kuenneth_self_product",
        "line_bundle_report",
        "numerical_dimension",
        "pullback_entropy_report",
        "serre_functor_report",
        "validate_geometric",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

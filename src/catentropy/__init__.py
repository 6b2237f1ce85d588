"""catentropy: exact growth invariants of categorical and algebraic
dynamical systems.

The library computes certified spectral radii and polynomial growth rates
of integer/rational matrices (`exact_linalg`), fits growth data to
positive sequences as an independent oracle (`growth_estimator`), and
layers the derived-category dynamics on top: the SL(2,Z) trichotomy for
twist-generated groups (`sl2z_dynamics`), dynamical degrees of pullback
actions (`variety_dynamics`), closed twist bounds (`twist_zoo`), and
Euler-form dynamics of acyclic quivers (`quiver_hereditary`).
"""

from .errors import (
    AllPairingsDegenerate,
    CatEntropyError,
    CatEntropyWarning,
    DimensionMismatch,
    DomainError,
    InternalInconsistency,
    NilpotentInput,
    NonIntegerEntries,
    NotAnIsometry,
    NotNilpotent,
    NonPositiveValue,
    ParseError,
    PrecisionExhausted,
    TiedModuli,
    WindowTooShort,
    ZeroPairingAt,
)
from .exact_linalg import (
    ExactMatrix,
    ExactPoly,
    GrowthSignature,
    RootOfFactor,
    char_poly,
    cyclotomic_poly,
    exterior_power,
    growth_signature,
    min_poly,
    nilpotency_index,
    quasi_unipotent_order,
    root_moduli,
    squarefree_decomposition,
    tensor_product,
)
from .growth_estimator import (
    EstimatedSignature,
    ExtTable,
    PositiveSequence,
    entropy_from_ext_sequence,
    eval_ext_distance,
    fit_growth,
    pairing_sequence,
)
from .quiver_hereditary import (
    EulerLattice,
    Quiver,
    check_isometry,
    coxeter_matrix,
    euler_form,
    hereditary_report,
)
from .sl2z_dynamics import (
    Context,
    Sl2Class,
    Sl2Element,
    TrichotomyReport,
    TwistWord,
    classify_sl2,
    crosscheck_with_lattice,
    parse_word,
    trichotomy_report,
    word_to_matrix,
)
from .twist_zoo import (
    TwistKind,
    TwistParams,
    ValueOrInterval,
    fractional_cy_report,
    shift_report,
    twist_bound,
    twist_entropy_report,
    twist_recurrence,
)
from .variety_dynamics import (
    DegreeTable,
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

__version__ = "0.1.0"

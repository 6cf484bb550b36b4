"""Exact verification toolkit for linear lower bounds on the matching
number of subcubic graphs: sharp bound checkers, the characterizing
coefficient polyhedron with exact vertex enumeration, extremal family
generators, and constructive counterexamples.
"""

from .bounds import (
    BoundReport,
    BoundSpec,
    NotConnectedError,
    TripleInPError,
    valid_constant,
    counterexample,
    evaluate_bound,
    evaluate_bounds,
    sharp_bounds,
)
from .enumeration import (
    EnumerationConfig,
    LimitExceededError,
    canonical_form,
    canonical_key,
    enumerate_subcubic,
    random_subcubic,
)
from .families import (
    FamilySpec,
    InvalidParameterError,
    closed_nu,
    closed_profile,
    generate,
)
from .graphs import (
    DegreeProfile,
    Graph,
    MalformedGraph6Error,
    NotSubcubicError,
    degree_profile,
    emit_graph6,
    is_connected,
    is_subcubic,
    parse_graph6,
)
from .matching import (
    Matching,
    TooLargeError,
    brute_force_nu,
    has_perfect_matching,
    is_hypomatchable,
    max_matching,
    nu,
)
from .polytope import (
    CoefficientTriple,
    HalfSpace,
    Membership,
    NegativeLambdaError,
    NotInPError,
    Polyhedron,
    UnboundedInputError,
    contains,
    parse_fraction,
    polyhedron_P,
    polyhedron_P_plus,
    project_to_Pplus,
    shift_transform,
    triple,
    vertices,
)
from .structure import (
    DecompositionMismatchError,
    GEDecomposition,
    GEPropertyReport,
    gallai_edmonds,
    verify_ge_properties,
)

__version__ = "0.1.0"

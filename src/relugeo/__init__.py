"""Exact geometry of shallow ReLU networks.

Canonical forms, functional equivalence, minimal-width classification with a
complete enumeration of minimal representations, and synthesis of networks
from continuous piecewise-affine functions, all over exact rationals.
"""

from .canonical import (
    CanonicalForm,
    Different,
    Equal,
    EqualUpToAffine,
    canonicalize,
    equivalence,
    evaluate_cf,
    sigma_affine,
    sigma_tuple,
)
from .errors import (
    CapExceeded,
    DegenerateNeuron,
    DimensionMismatch,
    EnumerationCapExceeded,
    EqualDirections,
    LengthMismatch,
    NonPositiveScale,
    NotFlat,
    NotLocallyAffine,
    NotRepresentable,
    NotTransversal,
    ParseError,
    RelugeoError,
    ZeroVector,
)
from .exact import affine_fit, in_span, primitive_direction, rank, rat, rat_str
from .minimality import (
    MinimalityReport,
    RepresentationFamily,
    brute_force_min_width,
    classify,
    compute_J,
    compute_J_pair,
    compute_J_single,
    enumerate_minimal,
    verify_representation,
)
from .network import (
    Breakline,
    EffectiveTuple,
    Neuron,
    ShallowNet,
    affine_family,
    effective_tuple,
    evaluate_net,
    evaluate_tuple,
    expand,
    random_net,
)
from .pwa import PWASpec, eval_pwa, flat_breaklines, parse_pwa, pretty
from .synthesis import (
    Violation,
    check_transversality,
    jump_vector,
    point_on_breakline,
    synthesize,
    synthesize_evaluator,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

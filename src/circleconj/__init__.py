"""Conjugacy classification engine for Z^n circle homeomorphism groups.

The package constructs finitely generated groups of line and circle
homeomorphisms from small integer/surd descriptors, evaluates their elements
to arbitrary precision, and decides conjugacy between two such circle groups,
emitting an explicit conjugating homeomorphism that can be verified
numerically.
"""

from types import ModuleType as _ModuleType

from .exactnum import (
    CertificateError,
    ContinuedFraction,
    MixedRadicandError,
    NonQuadraticAlpha,
    RationalInputError,
    Surd,
    UnimodularMatrix2,
    cf_expand,
    equivalent,
    mobius_apply,
    stabilizer_generator,
)
from .circlegroup import (
    CircleElement,
    CircleGroupDescriptor,
    OrbitSample,
    bar_extend,
    canonical_f,
    compose_elements,
    content,
    element_expr,
    finite_orbit,
    identity_element,
    orbit_sample,
    orbit_svg,
    orbit_to_csv,
    power_element,
    validate_g,
)
from .conjugacy import (
    ConjugacyWitness,
    Decision,
    check_witness,
    corrupt_witness,
    decide,
    decide_oracle,
    verify_conjugation,
    witness_compose,
    witness_invert,
    witness_to_homeo,
)
from .homeo import (
    DEFAULT_PRECISION,
    CanonicalF,
    CirclePoint,
    CircleExtend,
    Compose,
    EvalError,
    HbarBase,
    HbarWrap,
    HomeoExpr,
    Identity,
    Inverse,
    PowerCapExceeded,
    Power,
    Precision,
    PrecisionExhausted,
    Scale,
    Staircase,
    Translate,
    circle_distance,
    eval_circle,
    eval_line,
    expr_from_json,
    expr_to_json,
    hbar_iter,
    marked_point,
    rotation_number,
    staircase,
)
from .intmat import StructuredMatrix, solve_congruence
from .lineargroup import (
    LineGroupDescriptor,
    alpha_from_json,
    basis_exprs,
    element_to_expr,
    minimal_interval,
    nontransitive_points,
    normalizer_expr,
    points_to_csv,
    scale_conjugator,
)

# every public name imported above, but not the submodules the imports bind
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

__version__ = "0.1.0"

"""fueterkit: exact construction and verification of monogenic functions.

An exact-rational symbolic engine for Clifford algebras with biaxial
symmetry: Laurent-radial expressions, Dirac and Laplacian operators,
Fueter-type maps with their closed forms, Fischer decomposition, and the
first-order component systems, plus a parser and CLI.
"""

import types

from .bivariate import (
    BiaxialParams,
    BivariateRadial,
    apply_dx_xinv,
    apply_xinv_dx,
    delta2_power,
    double_factorial,
    expansion_coefficient,
    laplacian_expansion,
    multinomial,
    operator_term,
)
from .clifford import Blade, Multivector, blade_text, vector_embed
from .errors import EngineError, ParseError, PreconditionError, ShapeError, VerificationError
from .formatting import (
    expression_json_object,
    format_bivariate,
    format_components,
    format_expression,
    format_multivector,
)
from .frame import AxisFrame
from .fueter import (
    BiaxialComponents,
    FischerLayer,
    apply_map,
    classical_closed_form,
    extract_components,
    fischer_decompose,
    ft_closed_form,
    ft_general_via_fischer,
    ft_minus,
    ft_mu,
    ft_plus,
    fueter_classical,
    vekua_check,
)
from .parsing import parse_bivariate, parse_expression, parse_seed, parse_vector
from .radial import (
    RadialExpr,
    SCOPE_CR,
    SCOPE_FIRST,
    SCOPE_FULL,
    SCOPE_SECOND,
    constant_vector_x,
    constant_vector_y,
    dirac,
    evaluate_terms,
    inner_x,
    inner_y,
    is_monogenic,
    laplacian,
    laplacian_power,
    nu,
    omega,
    partial_derivative,
    re_mul,
    vector_x,
    vector_y,
)
from .seeds import (
    ComplexBivarPoly,
    SeedFunction,
    conj_power,
    holo_power,
    laplace2,
    lift_to_radial,
    parity_monomial,
    seed_order,
    seed_times_monomial,
    split_uv,
    times_i,
    wirtinger,
)

__version__ = "0.1.0"

# Every public name imported above, and nothing else, is the package's API.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))

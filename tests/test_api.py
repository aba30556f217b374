"""The public API: adding or removing a name in ``fueterkit.__all__`` is a
visible edit of this pin."""

import fueterkit

PUBLIC_NAMES = [
    "AxisFrame", "BiaxialComponents", "BiaxialParams", "BivariateRadial", "Blade", "ComplexBivarPoly",
    "EngineError", "FischerLayer", "Multivector", "ParseError", "PreconditionError", "RadialExpr",
    "SCOPE_CR", "SCOPE_FIRST", "SCOPE_FULL", "SCOPE_SECOND", "SeedFunction", "ShapeError",
    "VerificationError", "apply_dx_xinv", "apply_map", "apply_xinv_dx", "blade_text",
    "classical_closed_form", "conj_power", "constant_vector_x", "constant_vector_y", "delta2_power",
    "dirac", "double_factorial", "evaluate_terms", "expansion_coefficient", "expression_json_object",
    "extract_components", "fischer_decompose", "format_bivariate", "format_components",
    "format_expression", "format_multivector", "ft_closed_form", "ft_general_via_fischer", "ft_minus",
    "ft_mu", "ft_plus", "fueter_classical", "holo_power", "inner_x", "inner_y",
    "is_monogenic", "laplace2", "laplacian", "laplacian_expansion", "laplacian_power", "lift_to_radial",
    "multinomial", "nu", "omega", "operator_term", "parity_monomial", "parse_bivariate",
    "parse_expression", "parse_seed", "parse_vector", "partial_derivative", "re_mul", "seed_order",
    "seed_times_monomial", "split_uv", "times_i", "vector_embed", "vector_x", "vector_y", "vekua_check",
    "wirtinger",
]


def test_public_names_are_pinned():
    assert sorted(fueterkit.__all__) == PUBLIC_NAMES

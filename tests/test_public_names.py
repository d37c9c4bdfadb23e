"""The package's public names: ``__all__`` is derived from its imports, so
this pins the set it must keep."""

import circleconj

PUBLIC = """
CanonicalF CertificateError CircleElement CircleExtend CircleGroupDescriptor
CirclePoint Compose ConjugacyWitness ContinuedFraction DEFAULT_PRECISION Decision
EvalError HbarBase HbarWrap HomeoExpr Identity Inverse LineGroupDescriptor
MixedRadicandError NonQuadraticAlpha OrbitSample Power PowerCapExceeded Precision
PrecisionExhausted RationalInputError Scale Staircase StructuredMatrix Surd
Translate UnimodularMatrix2 alpha_from_json bar_extend basis_exprs canonical_f
cf_expand check_witness circle_distance compose_elements content corrupt_witness
decide decide_oracle element_expr element_to_expr equivalent eval_circle eval_line
expr_from_json expr_to_json finite_orbit hbar_iter identity_element marked_point
minimal_interval mobius_apply nontransitive_points normalizer_expr orbit_sample
orbit_svg orbit_to_csv points_to_csv power_element rotation_number scale_conjugator
solve_congruence stabilizer_generator staircase validate_g verify_conjugation
witness_compose witness_invert witness_to_homeo
""".split()


def test_public_names_are_pinned():
    assert len(circleconj.__all__) == len(set(circleconj.__all__))
    assert set(circleconj.__all__) == set(PUBLIC)

import json
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import to_rational

from circleconj.exactnum import Surd
from circleconj.homeo import (
    DEFAULT_PRECISION,
    CanonicalF,
    CirclePoint,
    CircleExtend,
    Compose,
    EvalError,
    HbarBase,
    HbarWrap,
    Identity,
    Inverse,
    Power,
    PowerCapExceeded,
    Precision,
    PrecisionExhausted,
    Scale,
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
from support import ref_canonical_f, ref_h, ref_h_inv, ref_hbar, ref_hbar_iter

P = DEFAULT_PRECISION
SQRT2 = Surd.sqrt(2)


def mpf_grid(lo, hi, count, margin=1e-3):
    """Evenly spaced floats avoiding integers by at least `margin`."""
    out = []
    step = (hi - lo) / count
    for i in range(count):
        x = lo + step * (i + 0.37)
        if min(x % 1, 1 - x % 1) >= margin:
            out.append(x)
    return out


def random_affine(rng):
    parts = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            parts.append(Translate(Surd(rng.randint(-3, 3), rng.choice([-1, 0, 1]), rng.randint(1, 3), 2)))
        else:
            parts.append(Scale(Surd(rng.randint(1, 4), 0, rng.randint(1, 3), 1)))
    return Compose(tuple(parts)) if len(parts) > 1 else parts[0]


def affine_callable(e):
    """Independent callable for Translate/Scale/Compose trees."""
    if isinstance(e, Translate):
        a = e.a.value(256)
        return lambda x: x + a
    if isinstance(e, Scale):
        u = e.u.value(256)
        return lambda x: x * u
    if isinstance(e, Compose):
        fns = [affine_callable(c) for c in e.items]

        def run(x):
            for f in reversed(fns):
                x = f(x)
            return x

        return run
    raise TypeError(e)


# ------------------------------------------------------------ line evaluation


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.randoms(use_true_random=True), st.sampled_from((64, 128, 256)))
def test_a_wide_fraction_input_rounds_once_to_nearest(rng, bits):
    # a 300-bit numerator over a 40-bit denominator is rounded once, not
    # first to the working precision and then again by the division
    x = Fraction(rng.choice((-1, 1)) * rng.randrange(2**299, 2**300), rng.randrange(2**39, 2**40))
    value = eval_line(Identity(), x, Precision(working_bits=bits))
    e = x.numerator.bit_length() - x.denominator.bit_length()  # 2^(e-1) < |x| < 2^(e+1)
    e += abs(x) >= Fraction(2) ** e  # now 2^(e-1) <= |x| < 2^e
    error = abs(Fraction(*to_rational(value._mpf_)) - x)
    assert error <= Fraction(2) ** (e - bits - 1), (x, bits)


def test_base_map_at_zero_is_exactly_half():
    assert eval_line(HbarBase(), 0) == mpmath.mpf(1) / 2


def test_base_map_inverse():
    with mpmath.mp.workprec(256):
        assert abs(eval_line(Inverse(HbarBase()), 0.75) - 1) < mpmath.mpf(2) ** -200


def test_base_map_inverse_domain_error():
    with pytest.raises(EvalError):
        eval_line(Inverse(HbarBase()), 1.5)


def test_wrap_fixes_integers_exactly():
    e = HbarWrap(Translate(SQRT2))
    for i in (-3, 0, 2, 17):
        assert eval_line(e, i) == i


def test_wrap_of_unit_translation_pinned_value():
    # h(L1(h^-1(1/2))) = h(1) = 1/2 + (pi/4)/pi = 3/4, an exact arctan value
    with mpmath.mp.workprec(256):
        got = eval_line(HbarWrap(Translate(1)), 0.5)
        assert abs(got - mpmath.mpf(3) / 4) < mpmath.mpf(2) ** -200
        # and one unit up, using the integer-offset branch
        got = eval_line(HbarWrap(Translate(1)), 1.5)
        assert abs(got - mpmath.mpf(7) / 4) < mpmath.mpf(2) ** -200


def test_wrap_matches_reference_formula():
    rng = random.Random(42)
    with mpmath.mp.workprec(256):
        for _ in range(25):
            sigma = random_affine(rng)
            fn = affine_callable(sigma)
            e = HbarWrap(sigma)
            for x in mpf_grid(-2.5, 2.5, 9):
                got = eval_line(e, x)
                want = ref_hbar(fn, mpmath.mpf(x))
                assert abs(got - want) < mpmath.mpf(2) ** -180


def test_nested_wrap_matches_reference():
    with mpmath.mp.workprec(256):
        sigma = Translate(SQRT2)
        fn = affine_callable(sigma)
        for m in (0, 1, 2, 3):
            e = hbar_iter(sigma, m)
            ref = ref_hbar_iter(fn, m)
            for x in mpf_grid(-1.5, 2.5, 7):
                assert abs(eval_line(e, x) - ref(mpmath.mpf(x))) < mpmath.mpf(2) ** -150


def test_hbar_iter_structure():
    e = Translate(1)
    assert hbar_iter(e, 0) is e
    assert hbar_iter(e, 2) == HbarWrap(HbarWrap(e))
    with pytest.raises(ValueError):
        hbar_iter(e, -1)


def test_compose_applies_rightmost_first():
    e = Compose((Scale(2), Translate(3)))
    assert eval_line(e, 1) == 8  # 2 * (1 + 3)


def test_compose_of_drops_identities_and_keeps_nesting():
    a, b = Translate(1), Scale(2)
    assert Compose.of() == Identity()
    assert Compose.of(Identity(), Identity()) == Identity()
    assert Compose.of(Identity(), a) is a
    assert Compose.of(a, Identity(), b) == Compose((a, b))
    nested = Compose((a, b))
    assert Compose.of(nested) is nested
    assert Compose.of(nested, a) == Compose((nested, a))


def test_inverse_round_trip():
    rng = random.Random(7)
    exprs = [
        HbarWrap(Translate(SQRT2)),
        hbar_iter(Compose((Scale(2), Translate(1))), 2),
        Compose((HbarWrap(Scale(3)), Translate(Fraction(1, 2)))),
        staircase(HbarWrap(Translate(1))),
    ]
    with mpmath.mp.workprec(256):
        for e in exprs:
            for _ in range(20):
                x = rng.uniform(-3, 3)
                if min(x % 1, 1 - x % 1) < 2e-3:
                    continue
                y = eval_line(Inverse(e), x)
                assert abs(eval_line(e, y) - x) < mpmath.mpf(1e-30)


def test_monotonicity_on_grids():
    exprs = [
        HbarWrap(Translate(SQRT2)),
        hbar_iter(Translate(1), 3),
        staircase(HbarWrap(Translate(1))),
        Compose((HbarWrap(Scale(2)), HbarWrap(Translate(SQRT2)))),
        Power(HbarWrap(Translate(SQRT2)), 3),
    ]
    with mpmath.mp.workprec(256):
        for e in exprs:
            grid = mpf_grid(-2.5, 2.5, 40)
            values = [eval_line(e, x) for x in grid]
            for a, b in zip(values, values[1:]):
                assert a < b


def test_scale_validation():
    with pytest.raises(ValueError):
        Scale(0)
    with pytest.raises(ValueError):
        Scale(Surd(-2))


def test_power_zero_is_identity():
    e = Power(HbarWrap(Translate(1)), 0)
    assert eval_line(e, 0.25) == mpmath.mpf(0.25)


def test_power_cap_enforced():
    # only a map with no closed form for its powers repeats, up to the cap
    with pytest.raises(PowerCapExceeded):
        eval_line(Power(Scale(2), 100), 0.5)
    with pytest.raises(PowerCapExceeded):
        eval_line(staircase(Compose((HbarWrap(Translate(SQRT2)), HbarWrap(Scale(2))))), 70.3)


def test_powers_of_wrapped_translates_are_one_translate():
    # the group law: a power translates by the exact multiple, rounded once
    got = eval_line(Power(HbarWrap(Translate(1)), 100), 0.5)
    assert got._mpf_ == eval_line(HbarWrap(Translate(100)), 0.5)._mpf_
    got = eval_line(staircase(HbarWrap(Translate(1))), 70.3)
    assert got._mpf_ == eval_line(HbarWrap(Translate(70)), 70.3)._mpf_


def test_trust_margin_covers_nodes_a_shortcut_skips():
    near_third = 1 / 3 + 1e-6
    with pytest.raises(PrecisionExhausted):
        eval_circle(CircleExtend(Identity(), 3), near_third)


def test_near_breakpoint_raises_for_inexact_inputs():
    e = HbarWrap(Translate(1))
    with pytest.raises(PrecisionExhausted):
        eval_line(e, 1e-6)
    with pytest.raises(PrecisionExhausted):
        eval_line(e, 2 - 1e-7)
    # exact inputs are allowed through and evaluate fine
    v = eval_line(e, Fraction(1, 10 ** 6))
    assert 0 < v < 1


def test_affine_trees_have_no_breakpoint_margin():
    # no wrapping nodes, so near-integer floats are fine
    assert abs(eval_line(Translate(1), 1e-9) - 1) < 1e-8


def test_circle_node_rejected_in_line_eval():
    with pytest.raises(EvalError):
        eval_line(CanonicalF(2, Identity()), 0.3)


# ------------------------------------------------------------------ staircase


def test_staircase_identity_on_unit_interval():
    e = staircase(HbarWrap(Translate(1)))
    assert eval_line(e, 0.3) == mpmath.mpf(0.3)


def test_staircase_applies_floor_many_copies():
    e = staircase(HbarWrap(Translate(1)))
    with mpmath.mp.workprec(256):
        # at 1.5: one copy of the wrapped unit translation
        assert abs(eval_line(e, 1.5) - 1.75) < mpmath.mpf(2) ** -200
        # at -0.5: one inverse copy; h(-1) - 1 = 1/4 - 1
        assert abs(eval_line(e, -0.5) - (-0.75)) < mpmath.mpf(2) ** -200
        # at 2.5: two copies
        inner = affine_callable(Translate(1))
        want = ref_hbar(inner, ref_hbar(inner, mpmath.mpf(2.5) - 2) + 2)
        # applying within [2,3): both copies act there; compare directly
        got = eval_line(e, 2.5)
        f = lambda x: ref_hbar(inner, x)
        assert abs(got - f(f(mpmath.mpf(2.5)))) < mpmath.mpf(2) ** -180


def test_staircase_fixes_integers():
    e = staircase(HbarWrap(Translate(SQRT2)))
    for i in (-2, 0, 3):
        assert eval_line(e, i) == i


def test_staircase_conjugation_property():
    # staircase(hbar(g)) . L1 . staircase(hbar(g))^-1 == hbar(g) . L1
    g = Translate(SQRT2)
    st = staircase(HbarWrap(g))
    lhs = Compose((st, Translate(1), Inverse(st)))
    rhs = Compose((HbarWrap(g), Translate(1)))
    with mpmath.mp.workprec(256):
        for x in mpf_grid(-3, 3, 25):
            assert abs(eval_line(lhs, x) - eval_line(rhs, x)) < 1e-40


def test_staircase_rejects_bad_inner():
    with pytest.raises(ValueError):
        staircase(Translate(1))
    with pytest.raises(ValueError):
        staircase(Scale(2))
    # the rule reads the tree: a factor that moves the integers is rejected,
    # even inside a power that is the identity
    for inner in (Compose((HbarWrap(Translate(1)), Translate(1))), Power(Scale(2), 0)):
        with pytest.raises(ValueError, match="staircase inner map must fix every integer"):
            staircase(inner)
    for inner in (
        Inverse(HbarWrap(Scale(2))),
        Power(HbarWrap(Translate(SQRT2)), -3),
        Compose((Inverse(hbar_iter(Translate(1), 2)), Power(Scale(1), 2), Translate(0))),
    ):
        assert staircase(inner).inner == inner


# ---------------------------------------------------------- circle evaluation


def canonical_example(k, a=SQRT2):
    return CanonicalF(k, Translate(a))


def test_canonical_f_cycles_marked_points_exactly():
    for k in (1, 2, 3, 4):
        f = canonical_example(k)
        for j in range(k):
            img = eval_circle(f, marked_point(j, k))
            assert img.is_exact
            assert img.t == Fraction((j + 1) % k, k)


def test_canonical_f_pinned_quarter_point():
    f = canonical_example(4)
    assert eval_circle(f, CirclePoint(Fraction(1, 4))).t == Fraction(1, 2)


def test_canonical_f_matches_reference_on_wrap_arc():
    with mpmath.mp.workprec(256):
        for k in (1, 2, 3):
            f = canonical_example(k)
            gline = affine_callable(Translate(SQRT2))
            for i in range(8):
                t = mpmath.mpf(2 * i + 1) / (16 * k)  # inside (0, 1/k)
                got = eval_circle(f, CirclePoint(t)).t
                want = ref_canonical_f(k, gline, t)
                assert abs(got - want) < mpmath.mpf(2) ** -180


def test_canonical_f_kth_power_is_chart_copy():
    # iterating k times from the first arc reproduces the chart copy of gtilde
    with mpmath.mp.workprec(256):
        for k in (1, 2, 3, 4):
            f = canonical_example(k)
            gline = affine_callable(Translate(SQRT2))
            for i in range(6):
                t0 = mpmath.mpf(1) / k + (mpmath.mpf(2 * i + 1) / (14 * k))
                if k == 1:
                    t0 = mpmath.mpf(2 * i + 1) / 14
                pt = CirclePoint(t0)
                for _ in range(k):
                    pt = eval_circle(f, pt)
                y = k * t0 - 1 if k >= 2 else t0
                want = (1 + ref_h(gline(ref_h_inv(y)))) / k
                if want >= 1:
                    want -= 1
                assert abs(pt.t - want) < mpmath.mpf(2) ** -150


def test_canonical_f_inverse_round_trip():
    with mpmath.mp.workprec(256):
        for k in (1, 2, 3):
            f = canonical_example(k)
            for t in (0.07, 0.21, 0.55, 0.83):
                pt = CirclePoint(mpmath.mpf(t))
                back = eval_circle(Inverse(f), eval_circle(f, pt))
                assert circle_distance(back, pt) < 1e-40
        # and exactly on marked points
        f = canonical_example(3)
        img = eval_circle(Inverse(f), marked_point(0, 3))
        assert img.t == Fraction(2, 3)


def test_canonical_f_identity_gtilde_is_rigid_rotation():
    f = CanonicalF(3, Identity())
    pt = eval_circle(f, CirclePoint(Fraction(1, 7)))
    assert pt.is_exact and pt.t == Fraction(1, 7) + Fraction(1, 3)


def test_circle_near_marked_point_raises_for_floats():
    f = canonical_example(2)
    with pytest.raises(PrecisionExhausted):
        eval_circle(f, CirclePoint(0.5 + 1e-6))


def test_line_node_rejected_in_circle_eval():
    with pytest.raises(EvalError):
        eval_circle(Translate(1), CirclePoint(0.3))


def test_circle_extend_fixes_marked_points():
    k = 3
    psi = CircleExtend(HbarWrap(Translate(SQRT2)), k)
    for j in range(k):
        img = eval_circle(psi, marked_point(j, k))
        assert img.is_exact and img.t == Fraction(j, k)


def test_circle_extend_identity_inner_is_identity():
    psi = CircleExtend(Identity(), 4)
    pt = CirclePoint(Fraction(3, 7))
    assert eval_circle(psi, pt).t == Fraction(3, 7)


def test_circle_extend_preserves_arcs():
    k = 3
    psi = CircleExtend(HbarWrap(Translate(SQRT2)), k)
    with mpmath.mp.workprec(256):
        for t in (0.05, 0.41, 0.55, 0.77, 0.95):
            img = eval_circle(psi, CirclePoint(mpmath.mpf(t))).t
            assert mpmath.floor(k * img) == mpmath.floor(k * mpmath.mpf(t))


def test_circle_extend_exhausts_on_chart_breakpoint():
    # 0.75 chart-maps to exactly -1, an integer breakpoint of the wrapped
    # inner map; an inexact input cannot certify that passage
    psi = CircleExtend(HbarWrap(Translate(SQRT2)), 3)
    with pytest.raises(PrecisionExhausted):
        eval_circle(psi, CirclePoint(0.75))


def test_circle_extend_round_trip():
    k = 2
    psi = CircleExtend(HbarWrap(Translate(SQRT2)), k)
    with mpmath.mp.workprec(256):
        for t in (0.11, 0.32, 0.61, 0.94):
            pt = CirclePoint(mpmath.mpf(t))
            back = eval_circle(Inverse(psi), eval_circle(psi, pt))
            assert circle_distance(back, pt) < 1e-40


def test_circle_extend_commutes_with_its_cycle_map():
    # the extension of a line map commuting with gtilde commutes with the
    # canonical cycle map (here: two translations)
    k = 3
    f = canonical_example(k)
    psi = CircleExtend(Translate(Fraction(1, 2)), k)
    with mpmath.mp.workprec(256):
        for t in (0.04, 0.17, 0.45, 0.52, 0.88):
            pt = CirclePoint(mpmath.mpf(t))
            a = eval_circle(psi, eval_circle(f, pt))
            b = eval_circle(f, eval_circle(psi, pt))
            assert circle_distance(a, b) < 1e-40


def test_circle_extend_retwists_between_cycle_maps():
    # when the inner map conjugates gtilde1 to gtilde2 (scaling by 2 sends
    # translation by sqrt2 to translation by 2*sqrt2), the extension
    # satisfies psi . f1 == f2 . psi
    k = 3
    f1 = canonical_example(k, SQRT2)
    f2 = canonical_example(k, Surd(0, 2, 1, 2))
    psi = CircleExtend(Scale(2), k)
    with mpmath.mp.workprec(256):
        for t in (0.06, 0.29, 0.47, 0.71, 0.93):
            pt = CirclePoint(mpmath.mpf(t))
            a = eval_circle(psi, eval_circle(f1, pt))
            b = eval_circle(f2, eval_circle(psi, pt))
            assert circle_distance(a, b) < 1e-40
        for j in range(k):
            a = eval_circle(psi, eval_circle(f1, marked_point(j, k)))
            b = eval_circle(f2, eval_circle(psi, marked_point(j, k)))
            assert a.t == b.t


def test_circle_extend_validation():
    with pytest.raises(TypeError):
        CircleExtend(Identity(), 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        CircleExtend(Identity(), 0)


# ------------------------------------------------------------ rotation number


def test_rotation_number_identity_is_zero():
    assert rotation_number(Identity(), CirclePoint(Fraction(1, 5)), 10) == 0


def test_rotation_number_rigid_third_is_exact():
    f = CanonicalF(3, Identity())
    rho = rotation_number(f, CirclePoint(Fraction(1, 7)), 9)
    assert rho == Fraction(1, 3)


def test_rotation_number_of_cycle_map_near_1_over_k():
    with mpmath.mp.workprec(256):
        for k in (2, 3):
            f = canonical_example(k)
            rho = rotation_number(f, CirclePoint(mpmath.mpf(1) / (2 * k)), 400)
            d = abs(mpmath.mpf(rho) - mpmath.mpf(1) / k)
            d = min(d, 1 - d)
            assert d < 1 / 400 + 1e-6


# ----------------------------------------------------------- points and JSON


def test_circle_point_normalization():
    assert CirclePoint(Fraction(5, 4)).t == Fraction(1, 4)
    assert CirclePoint(Fraction(-1, 3)).t == Fraction(2, 3)
    assert CirclePoint(3).t == Fraction(0)
    t = CirclePoint(1.25).t
    assert abs(float(t) - 0.25) < 1e-12


def test_circle_distance_wraps():
    assert circle_distance(CirclePoint(Fraction(9, 10)), CirclePoint(Fraction(1, 10))) == Fraction(1, 5)
    assert circle_distance(0.9, 0.1) < 0.2 + 1e-9


def test_circle_distance_is_exact_at_any_global_precision():
    # at mpmath's global 53 bits the negative difference folded to 0 one way
    with mpmath.mp.workprec(256):
        x = mpmath.mpf(1) / 3
        y = x + mpmath.mpf(2) ** -200
        points = CirclePoint(x), CirclePoint(y)
    for a, b in ((x, y), (y, x), points, points[::-1]):
        assert circle_distance(a, b) == mpmath.mpf(2) ** -200
    # an integer or a binary Fraction against a binary point: the difference is binary, so exact
    for a, b in ((0, x), (x, 3), (CirclePoint(0), x)):
        assert circle_distance(a, b) == x
    with mpmath.mp.workprec(512):
        half_less_y = mpmath.mpf(1) / 2 - y
    assert circle_distance(Fraction(1, 2), y) == circle_distance(y, Fraction(5, 2)) == half_less_y


def test_a_binary_point_keeps_its_bits_outside_workprec():
    # a 256-bit point passed at mpmath's global 53 bits was rounded to 53 bits
    with mpmath.mp.workprec(256):
        t = mpmath.mpf(1) / 5 + mpmath.mpf(2) ** -200
        third = mpmath.mpf(1) / 3
    assert CirclePoint(t).t == t
    got = eval_circle(CanonicalF(3, Identity()), t).t
    with mpmath.mp.workprec(512):
        assert abs(got - (t + third)) < mpmath.mpf(2) ** -250
    for a, b in ((Fraction(1, 5), t), (t, CirclePoint(Fraction(6, 5)))):
        assert abs(circle_distance(a, b) * mpmath.mpf(2) ** 200 - 1) < 0.01


def test_expr_json_round_trip():
    k = 2
    exprs = [
        Identity(),
        Translate(SQRT2),
        Scale(Surd(1, 0, 2, 1)),
        HbarBase(),
        hbar_iter(Translate(1), 2),
        staircase(HbarWrap(Translate(1))),
        Compose((Scale(2), Translate(3))),
        Inverse(HbarWrap(Translate(1))),
        Power(HbarWrap(Translate(1)), -2),
        canonical_example(k),
        CircleExtend(HbarWrap(Translate(1)), k),
        CircleExtend(HbarWrap(Translate(1)), k, twist=HbarWrap(Translate(SQRT2))),
    ]
    for e in exprs:
        assert expr_from_json(expr_to_json(e)) == e


_ONE = '{"a": 1, "b": 0, "c": 1, "d": 1}'
_SQRT2 = '{"a": 0, "b": 1, "c": 1, "d": 2}'
_WRAP1 = '{"node": "HbarWrap", "inner": {"node": "Translate", "a": ' + _ONE + "}}"
_F2 = '{"node": "CanonicalF", "k": 2, "gtilde": {"node": "Translate", "a": ' + _SQRT2 + "}}"
PINNED_JSON = [
    (Identity(), '{"node": "Identity"}'),
    (Translate(SQRT2), '{"node": "Translate", "a": ' + _SQRT2 + "}"),
    (Scale(Surd(1, 0, 2, 1)), '{"node": "Scale", "u": {"a": 1, "b": 0, "c": 2, "d": 1}}'),
    (HbarBase(), '{"node": "HbarBase"}'),
    (HbarWrap(Translate(1)), _WRAP1),
    (staircase(HbarWrap(Translate(1))), '{"node": "Staircase", "inner": ' + _WRAP1 + "}"),
    (
        Compose((Scale(2), Translate(Fraction(1, 2)))),
        '{"node": "Compose", "items": [{"node": "Scale", "u": {"a": 2, "b": 0, "c": 1, "d": 1}}, '
        '{"node": "Translate", "a": {"a": 1, "b": 0, "c": 2, "d": 1}}]}',
    ),
    (Inverse(HbarBase()), '{"node": "Inverse", "inner": {"node": "HbarBase"}}'),
    (Power(HbarWrap(Translate(1)), -2), '{"node": "Power", "inner": ' + _WRAP1 + ', "e": -2}'),
    (canonical_example(2), _F2),
    (
        CircleExtend(HbarWrap(Translate(1)), 2),
        '{"node": "CircleExtend", "inner": ' + _WRAP1 + ', "k": 2}',
    ),
    (
        CircleExtend(Identity(), 2, HbarWrap(Translate(SQRT2))),
        '{"node": "CircleExtend", "inner": {"node": "Identity"}, "k": 2, "twist": '
        '{"node": "HbarWrap", "inner": {"node": "Translate", "a": ' + _SQRT2 + "}}}",
    ),
]


@pytest.mark.parametrize("e, text", PINNED_JSON, ids=[type(e).__name__ for e, _ in PINNED_JSON])
def test_expr_json_text_is_pinned(e, text):
    assert json.dumps(expr_to_json(e)) == text
    assert expr_from_json(json.loads(text)) == e


def test_expr_json_missing_field_is_value_error():
    with pytest.raises(ValueError):
        expr_from_json({"node": "Translate"})
    with pytest.raises(ValueError):
        expr_from_json({"node": "Power", "inner": {"node": "Identity"}})
    with pytest.raises(ValueError):
        expr_from_json({"node": "CircleExtend", "inner": {"node": "Identity"}})


@pytest.mark.parametrize(
    "obj",
    [
        {"node": "Power", "inner": {"node": "Identity"}, "e": 2.7},
        {"node": "Power", "inner": {"node": "Identity"}, "e": True},
        {"node": []},
        {"node": "Translate", "a": 5},
        {"node": "Translate", "a": {"a": 1.5}},
    ],
    ids=["float-e", "bool-e", "list-tag", "number-a", "float-surd-entry"],
)
def test_expr_json_bad_value_is_value_error(obj):
    with pytest.raises(ValueError):
        expr_from_json(obj)


def test_expr_json_rejects_unknown():
    with pytest.raises(ValueError):
        expr_from_json({"node": "Spiral"})
    with pytest.raises(ValueError):
        expr_from_json({"node": "Translate", "a": {"a": 1, "b": 0, "c": 1, "d": 1}, "mystery": 3})
    for old_field in ("fspec", "fsrc"):  # CircleExtend's fields before the twist
        with pytest.raises(ValueError):
            expr_from_json({"node": "CircleExtend", "inner": {"node": "Identity"}, "k": 2, old_field: json.loads(_F2)})


def test_precision_validation():
    with pytest.raises(ValueError):
        Precision(working_bits=32)
    with pytest.raises(ValueError):
        Precision(singular_margin=0)
    with pytest.raises(ValueError, match="singular_margin must be positive"):
        Precision(singular_margin=float("nan"))
    for bits in (128.5, float("nan"), "256"):  # else mpmath fails at the first evaluation
        with pytest.raises(ValueError, match="working_bits must be an int of at least 64"):
            Precision(working_bits=bits)

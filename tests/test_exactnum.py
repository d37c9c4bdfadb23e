import random
from fractions import Fraction
from math import floor, isqrt

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_float

from circleconj.circlegroup import CircleGroupDescriptor, _lift
from circleconj.exactnum import (
    ContinuedFraction,
    MixedRadicandError,
    NonQuadraticAlpha,
    RationalInputError,
    Surd,
    UnimodularMatrix2,
    cf_expand,
    denominator_at,
    equivalent,
    mobius_apply,
    sign_normalize,
    stabilizer_generator,
    surd_mpf,
)
from circleconj.homeo import Precision
from support import bounded_fixers, bounded_mobius_maps, signed_power_exponent

SQRT2 = Surd.sqrt(2)
SQRT2_M1 = Surd(-1, 1, 1, 2)        # sqrt(2) - 1
HALF_SQRT2 = Surd(0, 1, 2, 2)       # sqrt(2) / 2
GOLDEN_CONJ = Surd(-1, 1, 2, 5)     # (sqrt(5) - 1) / 2
ONE_PLUS_SQRT2 = Surd(1, 1, 1, 2)

GENS = [
    UnimodularMatrix2(1, 1, 0, 1),
    UnimodularMatrix2(1, 0, 1, 1),
    UnimodularMatrix2(0, 1, 1, 0),
]


def random_unimodular(rng, length=6):
    M = UnimodularMatrix2.identity()
    for _ in range(length):
        M = M @ rng.choice(GENS)
    return M


def random_surd(rng):
    d = rng.choice([2, 3, 5, 7, 10])
    b = rng.choice([-3, -2, -1, 1, 2, 3])
    return Surd(rng.randint(-8, 8), b, rng.randint(1, 6), d)


# ---------------------------------------------------------------- Surd basics


def test_canonical_form_reduction():
    s = Surd(2, 4, 6, 2)
    assert (s.a, s.b, s.c, s.d) == (1, 2, 3, 2)


def test_canonical_form_sign_of_denominator():
    s = Surd(1, -1, -2, 2)
    assert s.c == 2 and (s.a, s.b) == (-1, 1)


def test_rational_collapses_radicand():
    assert Surd(3, 0, 6, 7) == Surd(1, 0, 2, 1)
    assert Surd(1, 2, 1, 1) == Surd(3)


def test_non_square_free_radicand_rejected():
    with pytest.raises(ValueError):
        Surd(0, 1, 1, 8)
    with pytest.raises(ValueError):
        Surd(0, 1, 1, 12)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        Surd(1, 1, 0, 2)
    with pytest.raises(ZeroDivisionError):  # the only surd of norm zero
        Surd(0).inverse()


def test_equality_and_hashing():
    assert Surd(2, 0, 4, 1) == Surd(1, 0, 2, 1)
    assert len({Surd(2, 2, 2, 3), Surd(1, 1, 1, 3)}) == 1


def test_mixed_radicand_arithmetic_rejected():
    with pytest.raises(MixedRadicandError):
        Surd.sqrt(2) + Surd.sqrt(3)
    # rational operands are fine with any radicand
    assert Surd.sqrt(2) + Surd(1) == Surd(1, 1, 1, 2)


def test_inverse_of_sqrt2_minus_1():
    assert SQRT2_M1.inverse() == Surd(1, 1, 1, 2)
    assert SQRT2_M1 * SQRT2_M1.inverse() == Surd(1)


def test_arithmetic_matches_mpmath():
    rng = random.Random(20240817)
    with mpmath.mp.workprec(256):
        for _ in range(200):
            x, y = random_surd(rng), random_surd(rng)
            if y.d != x.d:
                y = Surd(y.a, y.b, y.c, x.d)
            for got, expected in [
                (x + y, x.value() + y.value()),
                (x - y, x.value() - y.value()),
                (x * y, x.value() * y.value()),
            ]:
                assert abs(got.value() - expected) < mpmath.mpf(2) ** -200
            if y.sign() != 0:
                assert abs((x / y).value() - x.value() / y.value()) < mpmath.mpf(2) ** -200


def test_sign_is_exact_on_near_ties():
    # 99/70 is a convergent of sqrt(2): the difference is ~1e-4 but exactly signed
    assert (SQRT2 - Fraction(99, 70)).sign() == -1
    assert (SQRT2 - Fraction(140, 99)).sign() == 1
    assert (SQRT2 - SQRT2).sign() == 0


def sqrt_convergents(N: int, count: int):
    """(p, q) of the first count convergents of sqrt(N), N not a square, by the
    integer recurrence of its continued fraction."""
    a0 = isqrt(N)
    m, den, a, (p0, q0, p1, q1) = 0, 1, a0, (1, 0, a0, 1)
    out = [(p1, q1)]
    while len(out) < count:
        m = den * a - m
        den = (N - m * m) // den
        a = (a0 + m) // den
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
    return out


@pytest.mark.parametrize("N, shift", [(2, 0), (2, 1), (94, 9)])
def test_sign_is_exact_between_consecutive_convergents_of_30_digits(N, shift):
    """sqrt(N) - p_i/q_i has the sign (-1)^i, so consecutive convergents of
    alpha = sqrt(N) - shift whose terms have 30 digits lie on both sides of
    alpha, about 10^-60 away, and a + b sqrt(N) nearly cancels."""
    alpha, convergents = Surd(-shift, 1, 1, N), enumerate(sqrt_convergents(N, 200))
    pairs = [(i, p - shift * q, q) for i, (p, q) in convergents if len(str(p - shift * q)) == len(str(q)) == 30]
    assert len(pairs) >= 2 and pairs[1][0] == pairs[0][0] + 1
    for i, p, q in pairs:  # p/q a convergent of alpha
        expected = (-1) ** i
        assert (alpha - Fraction(p, q)).sign() == expected
        assert Surd(-p - shift * q, q, 1, N).sign() == expected  # q alpha - p
        assert Surd(p + shift * q, -q, 1, N).sign() == -expected


def test_sign_brute_force():
    rng = random.Random(7)
    with mpmath.mp.workprec(128):
        for _ in range(400):
            s = random_surd(rng)
            assert s.sign() == int(mpmath.sign(s.value(128)))


def test_floor_examples():
    assert SQRT2.floor() == 1
    assert (-SQRT2).floor() == -2
    assert GOLDEN_CONJ.floor() == 0
    assert ONE_PLUS_SQRT2.floor() == 2
    assert Surd(3, 0, 2, 1).floor() == 1
    assert Surd(-3, 0, 2, 1).floor() == -2


def test_floor_brute_force():
    rng = random.Random(99)
    with mpmath.mp.workprec(128):
        for _ in range(400):
            s = random_surd(rng)
            assert s.floor() == int(mpmath.floor(s.value(128)))


def test_ordering_operators():
    assert SQRT2_M1 < HALF_SQRT2 < SQRT2
    assert SQRT2 >= SQRT2
    assert not SQRT2 < SQRT2


def test_value_precision_tracks_bits():
    with mpmath.mp.workprec(300):
        err64 = abs(SQRT2.value(64) ** 2 - 2)
        err256 = abs(SQRT2.value(256) ** 2 - 2)
        assert err256 < err64
        assert err256 < mpmath.mpf(2) ** -250


def ulp_error(raw, x: Surd, bits: int):
    """|raw - x| in units of the last place of raw at ``bits``, against x at 200 more bits."""
    sign, man, exp, bc = raw
    with mpmath.mp.workprec(bits + 200):
        exact = (x.a + x.b * mpmath.sqrt(x.d)) / x.c
        return abs(mpmath.mp.make_mpf(raw) - exact) / mpmath.ldexp(1, exp + bc - bits)


def lifted_translation(alpha: Surd, c0: int, c1: int, bits: int):
    """c0 + c1 alpha as the lifter adds it: the chart coordinate 0 of the arc
    midpoint 1/2 at rank 2 and k = 1, moved by (c0, c1)."""
    _, image = _lift(CircleGroupDescriptor(alpha, 2, 1, (1, 0)), Precision(working_bits=bits))(Fraction(1, 2))
    return image(0, (c0, c1)).x


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    st.sampled_from((SQRT2_M1, GOLDEN_CONJ, Surd(-9, 1, 1, 94))),
    st.one_of(st.just(0), st.integers(-4096, 4096)),
    st.integers(-2, 2),
    st.sampled_from((64, 128, 256)),
)
def test_constants_round_once_to_nearest(alpha, c1, near, bits):
    # c0 within 2 of -c1 alpha: c0 and c1 alpha cancel; c1 = 0 is a rational
    c0 = near + round(-c1 * float(alpha))
    x = Surd(c0) + alpha * c1
    raws = [surd_mpf(x.a, x.b, x.c, x.d, bits), x.value(bits)._mpf_]
    if c0 or c1:  # the identity moves nothing
        raws.append(lifted_translation(alpha, c0, c1, bits))
    for raw in raws:
        assert ulp_error(raw, x, bits) <= 0.5, (x, bits)
    assert ulp_error(from_float(float(x)), x, 53) <= 0.5
    q = Surd(c0 + c1, 0, 3)  # b = 0 with a denominator
    assert ulp_error(surd_mpf(q.a, q.b, q.c, q.d, bits), q, bits) <= 0.5


def test_surd_json_round_trip():
    s = Surd(-1, 1, 2, 5)
    assert Surd.from_json(s.to_json()) == s
    with pytest.raises(ValueError):
        Surd.from_json({"a": 1, "b": 0, "c": 1, "d": 1, "e": 9})


def test_as_fraction():
    assert Surd(3, 0, 2, 1).as_fraction() == Fraction(3, 2)
    with pytest.raises(RationalInputError):
        SQRT2.as_fraction()


# -------------------------------------------------------- continued fractions


def test_cf_expand_pinned_examples():
    assert cf_expand(SQRT2_M1) == ContinuedFraction((0,), (2,))
    assert cf_expand(GOLDEN_CONJ) == ContinuedFraction((0,), (1,))
    assert cf_expand(ONE_PLUS_SQRT2) == ContinuedFraction((2,), (2,))
    assert cf_expand(Surd(1, 1, 2, 5)) == ContinuedFraction((1,), (1,))  # purely periodic too


def test_cf_expand_classical_values():
    assert cf_expand(SQRT2) == ContinuedFraction((1,), (2,))
    assert cf_expand(Surd.sqrt(3)) == ContinuedFraction((1,), (1, 2))
    assert cf_expand(HALF_SQRT2) == ContinuedFraction((0, 1), (2,))


def test_cf_expand_negative_integer_part():
    assert cf_expand(Surd(-2, 1, 1, 2)) == ContinuedFraction((-1,), (2,))


def test_cf_expand_rejects_rationals():
    with pytest.raises(RationalInputError):
        cf_expand(Surd(3, 0, 7, 1))


def test_cf_quotients_unroll_period():
    cf = ContinuedFraction((1,), (2,))
    assert cf.quotients(5) == [1, 2, 2, 2, 2]


def test_cf_convergents_of_sqrt2():
    cf = cf_expand(SQRT2)
    assert cf.convergents(5) == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]


def test_cf_convergents_approximate_exactly():
    # each convergent p/q satisfies |x - p/q| < 1/q^2, checked in exact arithmetic
    for x in (SQRT2, GOLDEN_CONJ, Surd(2, 3, 5, 7)):
        for p, q in cf_expand(x).convergents(8):
            err = x - Fraction(p, q)
            if err.sign() < 0:
                err = -err
            assert err < Fraction(1, q * q)


def test_cf_validation():
    with pytest.raises(ValueError):
        ContinuedFraction((), (2,))
    with pytest.raises(ValueError):
        ContinuedFraction((1, 0), (2,))
    with pytest.raises(ValueError):
        ContinuedFraction((1,), (0,))
    # a negative integer part is allowed
    ContinuedFraction((-3,), (1,))


def test_cf_json_round_trip():
    cf = ContinuedFraction((2, 1), (3, 4))
    assert ContinuedFraction.from_json(cf.to_json()) == cf


def test_nonquadratic_declaration():
    alpha = NonQuadraticAlpha((0, 1, 2, 3, 4, 5))
    assert cf_expand(alpha) == ContinuedFraction((0, 1, 2, 3, 4, 5), ())
    lo, hi = alpha.bracket()
    assert lo < hi
    assert hi - lo < Fraction(1, 100)
    assert stabilizer_generator(alpha) is None
    with pytest.raises(ValueError):
        NonQuadraticAlpha((1,))
    with pytest.raises(ValueError):
        NonQuadraticAlpha((1, 0, 2))


def test_truncated_cf_cannot_unroll():
    cf = ContinuedFraction((1, 2), ())
    assert not cf.is_periodic
    with pytest.raises(ValueError):
        cf.quotients(5)


# ------------------------------------------------------------------- matrices


def test_matrix_layout_and_determinant():
    M = UnimodularMatrix2(2, 1, 1, 0)
    assert M.rows() == ((2, 1), (1, 0))
    assert M.det == -1
    with pytest.raises(ValueError):
        UnimodularMatrix2(2, 0, 0, 2)


def test_mobius_action_layout():
    # ((m2, m1), (n2, n1)) acts by x -> (m1 + n1 x) / (m2 + n2 x)
    M = UnimodularMatrix2(0, 1, 1, 2)
    assert mobius_apply(M, ONE_PLUS_SQRT2) == ONE_PLUS_SQRT2
    assert mobius_apply(UnimodularMatrix2.identity(), SQRT2) == SQRT2


def test_composition_order():
    rng = random.Random(3)
    for _ in range(100):
        M, N = random_unimodular(rng), random_unimodular(rng)
        x = random_surd(rng)
        try:
            lhs = mobius_apply(M @ N, x)
            rhs = mobius_apply(N, mobius_apply(M, x))
        except ZeroDivisionError:
            continue
        assert lhs == rhs


def test_matrix_inverse_and_powers():
    rng = random.Random(4)
    I = UnimodularMatrix2.identity()
    for _ in range(50):
        M = random_unimodular(rng)
        assert (M @ M.inverse()).rows() == I.rows()
        assert (M.inverse() @ M).rows() == I.rows()
        assert (M ** 3).rows() == (M @ M @ M).rows()
        assert (M ** -2).rows() == (M.inverse() @ M.inverse()).rows()
        assert (M ** 0).rows() == I.rows()


def test_matrix_power_matches_repeated_products():
    T = UnimodularMatrix2(0, 1, 1, 2)
    for base in (T, -T, T.inverse(), UnimodularMatrix2(1, 1, 0, 1)):
        product = UnimodularMatrix2.identity()
        for e in range(70):
            assert base ** e == product
            assert base ** -e == product.inverse()
            product = product @ base


quotient_matrices = st.builds(lambda a: UnimodularMatrix2(0, 1, 1, a), st.integers(-10**6, 10**6))


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.tuples(quotient_matrices, st.booleans()), min_size=1, max_size=40))
def test_a_product_is_the_matrix_the_checked_constructor_builds(factors):
    # @ does not check the product's determinant again; the constructor,
    # which does, must accept it and build an equal matrix at every step
    product = UnimodularMatrix2.identity()
    for M, inverted in factors:
        product = product @ (M.inverse() if inverted else M)
        checked = UnimodularMatrix2(*product.to_json())
        assert checked == product and hash(checked) == hash(product)
        assert checked.det == product.det and abs(product.det) == 1
    assert UnimodularMatrix2(*product.inverse().to_json()) == product.inverse()


@pytest.mark.parametrize("rows", ([2, 0, 0, 2], [1, 1, 1, 1], [3, 5, 1, 3], [0, 0, 0, 0]))
def test_a_matrix_that_is_not_unimodular_is_refused(rows):
    with pytest.raises(ValueError, match="not unimodular"):
        UnimodularMatrix2(*rows)
    with pytest.raises(ValueError, match="not unimodular"):
        UnimodularMatrix2.from_json(rows)


def test_matrix_vector_action_scales_translation_lengths():
    # with y = M(x) and u = m2 + n2*x, scaling by u carries the lattice
    # Z + Z*y onto Z + Z*x coordinate-wise through the plain matrix action:
    # u * (w1 + w2*y) == v1 + v2*x where (v1, v2) = M @ (w1, w2)
    rng = random.Random(5)
    checked = 0
    for _ in range(80):
        M = random_unimodular(rng)
        x = random_surd(rng)
        u = denominator_at(M, x)
        if u.sign() == 0:
            continue
        y = mobius_apply(M, x)
        w = (rng.randint(-9, 9), rng.randint(-9, 9))
        v1, v2 = M.apply_vector(w)
        assert u * (w[0] + w[1] * y) == v1 + v2 * x
        checked += 1
    assert checked > 50


def test_matrix_mod_and_json():
    M = UnimodularMatrix2(2, 1, 1, 0)
    assert M.mod(2) == (0, 1, 1, 0)
    assert M.to_json() == [2, 1, 1, 0]
    assert UnimodularMatrix2.from_json([2, 1, 1, 0]).rows() == M.rows()


def test_sign_normalize():
    M = UnimodularMatrix2(-1, -1, -1, 0)
    fixed = sign_normalize(M, SQRT2_M1)
    assert denominator_at(fixed, SQRT2_M1).sign() > 0
    assert fixed.rows() == ((1, 1), (1, 0))


# ----------------------------------------------------------------- equivalent


def test_equivalent_pinned_example():
    M = equivalent(SQRT2_M1, HALF_SQRT2)
    assert M.rows() == ((1, 1), (1, 0))
    assert mobius_apply(M, SQRT2_M1) == HALF_SQRT2


def test_equivalent_identity_on_equal_inputs():
    assert equivalent(SQRT2, SQRT2).rows() == ((1, 0), (0, 1))


def test_equivalent_requires_matching_radicand():
    assert equivalent(SQRT2_M1, Surd(-1, 1, 1, 3)) is None


def test_equivalent_detects_distinct_classes_over_same_radicand():
    # sqrt(5) and (sqrt(5)-1)/2 lie in different integer Mobius classes
    assert equivalent(Surd.sqrt(5), GOLDEN_CONJ) is None
    assert equivalent(GOLDEN_CONJ, Surd.sqrt(5)) is None


def test_equivalent_rejects_rationals():
    with pytest.raises(RationalInputError):
        equivalent(Surd(1, 0, 2, 1), SQRT2)


def test_equivalent_sign_normalization():
    for x, y in [(SQRT2_M1, HALF_SQRT2), (GOLDEN_CONJ, Surd(1, 1, 2, 5)),
                 (SQRT2, ONE_PLUS_SQRT2)]:
        M = equivalent(x, y)
        assert denominator_at(M, x).sign() > 0
        assert mobius_apply(M, x) == y


def test_equivalent_round_trip_random():
    # push x through a random matrix, then recover some witness exactly
    rng = random.Random(11)
    for _ in range(60):
        x = random_surd(rng)
        M = random_unimodular(rng)
        if denominator_at(M, x).sign() == 0:
            continue
        y = mobius_apply(M, x)
        W = equivalent(x, y)
        assert W is not None
        assert mobius_apply(W, x) == y


def test_equivalent_agrees_with_bounded_search():
    pairs = [(SQRT2_M1, HALF_SQRT2), (GOLDEN_CONJ, Surd(1, 1, 2, 5)), (SQRT2, SQRT2_M1)]
    for x, y in pairs:
        found = bounded_mobius_maps(x, y, 20)
        assert found, "oracle should find small witnesses for these pairs"
        M = equivalent(x, y)
        assert M.rows() in found


# ---------------------------------------------------------------- stabilizers


def test_stabilizer_pinned_examples():
    assert stabilizer_generator(SQRT2_M1).rows() == ((2, 1), (1, 0))
    assert stabilizer_generator(GOLDEN_CONJ).rows() == ((1, 1), (1, 0))
    assert stabilizer_generator(ONE_PLUS_SQRT2).rows() == ((0, 1), (1, 2))


def test_stabilizer_fixes_point_with_positive_denominator():
    for x in (SQRT2_M1, GOLDEN_CONJ, HALF_SQRT2, Surd(2, 3, 5, 7)):
        T = stabilizer_generator(x)
        for m in (-2, -1, 1, 2, 3):
            P = T ** m
            assert mobius_apply(P, x) == x
            assert denominator_at(P, x).sign() > 0


def test_stabilizer_is_not_scalar():
    T = stabilizer_generator(SQRT2_M1)
    assert T.rows() not in (((1, 0), (0, 1)), ((-1, 0), (0, -1)))


def test_stabilizer_rejects_rationals():
    with pytest.raises(RationalInputError):
        stabilizer_generator(Surd(5, 0, 3, 1))


def test_all_bounded_fixers_are_signed_powers():
    for x in (SQRT2_M1, GOLDEN_CONJ, HALF_SQRT2):
        T = stabilizer_generator(x)
        for rows in bounded_fixers(x, 20):
            M = UnimodularMatrix2(rows[0][0], rows[0][1], rows[1][0], rows[1][1])
            assert signed_power_exponent(T, M) is not None


def test_fixer_oracle_contains_generator():
    for x in (SQRT2_M1, GOLDEN_CONJ):
        T = stabilizer_generator(x)
        assert T.rows() in bounded_fixers(x, 20)

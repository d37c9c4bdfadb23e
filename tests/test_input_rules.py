"""How values enter the package: one home for each input rule.

* A ``Staircase`` checks its own inner map, however it is built: by
  ``staircase()``, directly, or by ``expr_from_json``.
* Constructors and coordinate takers take integers by ``operator.index``: a
  float, a ``Fraction`` or a string raises TypeError, a bool becomes 0 or 1.
* The four ranged integer places (a rank n, a cycle length k, a cycle power
  j and ``working_bits``) take any integer type by ``operator.index`` and then
  check the range; a float, a NaN or a string there raises ValueError, and
  ``validate_g`` refuses a cycle length below 1.
* ``CirclePoint.approx`` rounds an exact point once, as ``from_rational`` does.
* A point enters ``CirclePoint``, ``eval_circle``, ``eval_line``,
  ``orbit_sample``, ``rotation_number`` and ``circle_distance`` by one rule:
  every ``operator.index`` integer and every ``Fraction`` is exact; any other
  value goes to mpmath and must be finite, or a ValueError names it.
* ``Surd`` arithmetic, comparison and ``Surd.coerce`` take every integer
  that ``operator.index`` takes; a float or a string raises TypeError.
* Every input check of the public constructors and functions raises where
  its rule says, including the ones no other test reaches.
"""

import json
import re
from fractions import Fraction
from operator import index

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import from_rational, round_nearest

from circleconj.circlegroup import (
    CircleElement,
    CircleGroupDescriptor,
    bar_extend,
    canonical_f,
    content,
    orbit_sample,
    validate_g,
)
from circleconj.conjugacy import ConjugacyWitness
from circleconj.exactnum import (
    ContinuedFraction,
    NonQuadraticAlpha,
    Surd,
    UnimodularMatrix2,
    mobius_apply,
    sign_normalize,
)
from circleconj.homeo import (
    CanonicalF,
    CirclePoint,
    CircleExtend,
    Compose,
    EvalError,
    HbarWrap,
    Identity,
    Power,
    Precision,
    Staircase,
    Translate,
    eval_circle,
    circle_distance,
    eval_line,
    expr_from_json,
    expr_to_json,
    rotation_number,
)
from circleconj.intmat import StructuredMatrix, solve_congruence
from circleconj.lineargroup import (
    LineGroupDescriptor,
    element_to_expr,
    minimal_interval,
    nontransitive_points,
    normalizer_expr,
    scale_conjugator,
)

ROOT2M1 = Surd(-1, 1, 1, 2)
I2 = UnimodularMatrix2.identity()
LINE3 = LineGroupDescriptor(ROOT2M1, 3)
CIRCLE2 = CircleGroupDescriptor(ROOT2M1, 2, 3, (1, 0))
rules = settings(derandomize=True, deadline=None)


# ---------------------------------------------------------------- staircase


@pytest.mark.parametrize("inner, error, message", [
    (Translate(Fraction(1, 2)), ValueError, "staircase inner map must fix every integer"),
    (CanonicalF(2, Identity()), EvalError, "CanonicalF is not a line node"),
])
def test_every_way_to_build_a_staircase_checks_its_map(inner, error, message):
    obj = {"node": "Staircase", "inner": expr_to_json(inner)}
    for build in (lambda: Staircase(inner), lambda: expr_from_json(obj)):
        with pytest.raises(error, match=message):
            build()


def test_a_staircase_the_rule_accepts_round_trips_through_json():
    e = Staircase(HbarWrap(Translate(1)))
    assert expr_from_json(json.loads(json.dumps(expr_to_json(e)))) == e


# ----------------------------------------------------------------- integers

# each taker of integers, called with x in one integer place
TAKERS = {
    "Surd": lambda x: Surd(x, 1, 1, 2),
    "ContinuedFraction": lambda x: ContinuedFraction((0, x), (1,)),
    "NonQuadraticAlpha": lambda x: NonQuadraticAlpha((0, x, 2)),
    "UnimodularMatrix2": lambda x: UnimodularMatrix2(1, x, 0, 1),
    "StructuredMatrix": lambda x: StructuredMatrix(I2, I2, ((x,), (0,)), ((1,),)),
    "Power": lambda x: Power(Translate(1), x),
    "CanonicalF": lambda x: CanonicalF(x, Identity()),
    "CircleExtend": lambda x: CircleExtend(Identity(), x),
    "CircleGroupDescriptor": lambda x: CircleGroupDescriptor(ROOT2M1, 2, 3, (x, 1)),
    "CircleElement": lambda x: CircleElement(0, (x, 0)),
    "ConjugacyWitness": lambda x: ConjugacyWitness(StructuredMatrix.identity(2), (x, 0), (0, 0)),
    "element_to_expr": lambda x: element_to_expr(LINE3, (x, 0, 0)),
    "minimal_interval": lambda x: minimal_interval(LINE3, (x,)),
    "content": lambda x: content((x, 2)),
    "validate_g": lambda x: validate_g((1, 0), x),
    "solve_congruence": lambda x: solve_congruence([1, x], 1, 3),
    "bar_extend": lambda x: bar_extend(CIRCLE2, (x, 0)),
}


@pytest.mark.parametrize("value", [0.5, 1.0, Fraction(1, 2), "1"], ids=repr)
@pytest.mark.parametrize("name", TAKERS)
def test_a_non_integer_raises_type_error(name, value):
    with pytest.raises(TypeError):
        TAKERS[name](value)


@pytest.mark.parametrize("name", TAKERS)
def test_a_bool_is_taken_as_the_integer_it_stands_for(name):
    assert TAKERS[name](True) == TAKERS[name](1)


def test_a_bool_is_stored_as_an_int():
    element = CircleElement(True, (True, 0))
    values = [Surd(True, 1, 1, 2).a, Power(Translate(1), True).e, CanonicalF(True, Identity()).k,
              CircleGroupDescriptor(ROOT2M1, 2, True, (False, True)).k, element.j, *element.h]
    assert [type(v) for v in values] == [int] * len(values)


BASES = [ROOT2M1, Surd(-1, 1, 2, 5), Surd(-9, 1, 1, 94)]
INTEGER_OR_BOOL = st.one_of(st.booleans(), st.integers(-5, 5))


@rules
@given(st.one_of(st.booleans(), st.integers(0, 5)), st.lists(INTEGER_OR_BOOL, min_size=2, max_size=4))
def test_an_element_with_bool_entries_round_trips_through_json(j, h):
    e = CircleElement(j, tuple(h))
    assert CircleElement.from_json(json.loads(json.dumps(e.to_json()))) == e


@st.composite
def descriptors(draw):
    n = draw(st.integers(2, 4))
    k = draw(st.one_of(st.just(True), st.integers(1, 6)))
    g = draw(st.lists(INTEGER_OR_BOOL, min_size=n, max_size=n).filter(lambda g: validate_g(g, k)[0]))
    return CircleGroupDescriptor(draw(st.sampled_from(BASES)), n, k, tuple(g))


@rules
@given(descriptors())
def test_a_descriptor_with_bool_entries_round_trips_through_json(d):
    assert CircleGroupDescriptor.from_json(json.loads(json.dumps(d.to_json()))) == d


# ----------------------------------------------------------- exact points


@rules
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=2**300)
    | st.builds(Fraction, st.integers(0, 2**300), st.integers(1, 2**300)),
    st.sampled_from((53, 64, 128, 256)),
)
@example(Fraction(2**67 + 1, 9 * 2**67), 64)
def test_an_exact_point_is_rounded_once_to_nearest(q, bits):
    t = CirclePoint(q).t
    assert CirclePoint(q).approx(bits)._mpf_ == from_rational(t.numerator, t.denominator, bits, round_nearest)


# ----------------------------------------------------- every input check

NEGATIVE_F = StructuredMatrix(-I2, I2, ((), ()), ())  # fixes alpha, denominator -1
AT_ONE = UnimodularMatrix2(-1, 1, 1, 0)  # m2 + n2 x vanishes at x = 1
SQRT2 = Surd.sqrt(2)

# name -> (call, the exception it raises with a match for its message, or the value it returns)
CHECKS = {
    "negative cycle power": (lambda: CircleElement(-1, (0, 0)), (ValueError, "non-negative")),
    "witness w of the wrong length": (
        lambda: ConjugacyWitness(StructuredMatrix.identity(2), (0,), (0, 0)), (ValueError, "length n")),
    "witness h of the wrong length": (
        lambda: ConjugacyWitness(StructuredMatrix.identity(2), (0, 0), (0, 0, 0)), (ValueError, "length n")),
    "Compose of a non-expression": (lambda: Compose((5,)), (TypeError, "HomeoExpr items")),
    "CanonicalF with k = 0": (lambda: CanonicalF(0, Identity()), (ValueError, "positive integer")),
    "CanonicalF of a non-expression": (lambda: CanonicalF(2, 5), (TypeError, "line HomeoExpr")),
    "rotation number of no iterates": (
        lambda: rotation_number(CanonicalF(2, Identity()), 0.25, iters=0), (ValueError, "iters")),
    "JSON of a non-expression": (lambda: expr_to_json(5), (TypeError, "not a HomeoExpr")),
    "StructuredMatrix with a non-square B": (
        lambda: StructuredMatrix(I2, I2, ((0,), (0,)), ((1, 0),)), (ValueError, "B must be square")),
    "a negative landmark bound": (lambda: nontransitive_points(LINE3, -1), (ValueError, "bound")),
    "the wrong number of indices": (
        lambda: minimal_interval(LINE3, (0, 1)), (ValueError, "expected 1 construction indices")),
    "a dilation over a declared prefix": (
        lambda: scale_conjugator(LineGroupDescriptor(NonQuadraticAlpha((0, 2, 2)), 3), I2),
        (TypeError, "no exact dilations")),
    "f_alpha not sign-normalized": (
        lambda: normalizer_expr(LineGroupDescriptor(ROOT2M1, 2), NEGATIVE_F),
        (ValueError, "sign-normalized")),
    "a string as an exact real": (lambda: Surd.coerce("x"), (TypeError, "exact real")),
    "a Mobius map at its pole": (lambda: mobius_apply(AT_ONE, Surd(1)), (ZeroDivisionError, "vanishes")),
    "sign-normalizing at the pole": (lambda: sign_normalize(AT_ONE, Surd(1)), (ValueError, "vanishes")),
    "an integer less a surd": (lambda: 1 - SQRT2, Surd(1, -1, 1, 2)),
    "a surd at most a rational above it": (lambda: (SQRT2 <= Fraction(3, 2), SQRT2 <= SQRT2), (True, True)),
    "a surd above a rational below it": (lambda: (SQRT2 > Fraction(7, 5), SQRT2 > SQRT2), (True, False)),
    "a rational surd as text": (lambda: str(Surd(3, 0, 6)), "1/2"),
}


@pytest.mark.parametrize("name", CHECKS)
def test_each_input_check_raises_where_its_rule_says(name):
    call, expected = CHECKS[name]
    if isinstance(expected, tuple) and isinstance(expected[0], type):  # (exception, message match)
        with pytest.raises(expected[0], match=expected[1]):
            call()
    else:
        assert call() == expected


# ------------------------------------------------------- ranged integer places


class Index:
    """An integer type of its own: operator.index takes it, isinstance(_, int) does not."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


def circle_of_rank(n):
    """A circle group of rank n, its twist vector of length n where n is an integer."""
    try:
        g = (1,) + (0,) * (index(n) - 1)
    except TypeError:
        g = (1, 0)
    return CircleGroupDescriptor(ROOT2M1, n, 1, g)


# each ranged integer place: (build with x there, read the place back, the least value, the message)
RANGED = {
    "rank n": (lambda x: LineGroupDescriptor(ROOT2M1, x), lambda o: o.n, 2, "rank n must be an integer >= 2"),
    "circle rank n": (circle_of_rank, lambda o: o.n, 2, "rank n must be an integer >= 2"),
    "cycle length k": (lambda x: CircleGroupDescriptor(ROOT2M1, 2, x, (1, 0)), lambda o: o.k, 1,
                       "cycle length k must be an integer >= 1"),
    "cycle power j": (lambda x: CircleElement(x, (0, 0)), lambda o: o.j, 0,
                      "cycle power j must be a non-negative integer"),
    "working_bits": (lambda x: Precision(working_bits=x), lambda o: o.working_bits, 64,
                     "working_bits must be an int of at least 64"),
}


@pytest.mark.parametrize("name", RANGED)
def test_a_ranged_integer_place_takes_any_index_type(name):
    build, read, low, _ = RANGED[name]
    for value in (low, low + 3):
        taken = read(build(Index(value)))
        assert (type(taken), taken) == (int, value)
        assert build(Index(value)) == build(value)


@pytest.mark.parametrize("value", [0.5, 3.0, float("nan"), "3", Fraction(3), None], ids=repr)
@pytest.mark.parametrize("name", RANGED)
def test_a_ranged_integer_place_refuses_a_non_integer_with_its_message(name, value):
    build, _, _, message = RANGED[name]
    with pytest.raises(ValueError, match=message):
        build(value)


@pytest.mark.parametrize("name", RANGED)
def test_a_ranged_integer_place_refuses_a_value_below_its_range(name):
    build, _, low, message = RANGED[name]
    for value in (low - 1, Index(low - 1)):
        with pytest.raises(ValueError, match=message):
            build(value)


@pytest.mark.parametrize("k", [0, -1, -3, Index(0)], ids=repr)
def test_validate_g_refuses_a_cycle_length_below_1(k):
    for g in ((1, 0), (2, 0), (0, 0)):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            validate_g(g, k)


# ------------------------------------------------------------ points entering

WRAPPED = HbarWrap(Translate(ROOT2M1))
CYCLE = canonical_f(CIRCLE2)

# each entry of a point, called with x as the point
ENTRIES = {
    "CirclePoint": lambda x: CirclePoint(x),
    "eval_circle": lambda x: eval_circle(CYCLE, x),
    "eval_line": lambda x: eval_line(WRAPPED, x),
    "orbit_sample": lambda x: orbit_sample(CIRCLE2, x, 3),
    "rotation_number": lambda x: rotation_number(CYCLE, x, 3),
    "circle_distance, first point": lambda x: circle_distance(x, Fraction(1, 3)),
    "circle_distance, second point": lambda x: circle_distance(0.25, x),
}


@pytest.mark.parametrize("name", ENTRIES)
def test_an_index_integer_enters_as_the_exact_int(name):
    """The int gives the exact point 0 (the marked point of every k), its exact image, its exact rotation number
    and its exact distance."""
    for value in (0, 2, -3):
        assert ENTRIES[name](Index(value)) == ENTRIES[name](value)


NOT_FINITE = [float("nan"), float("inf"), float("-inf"), mpmath.mpf("nan"), mpmath.mpf("inf"), mpmath.mpf("-inf")]


@pytest.mark.parametrize("value", NOT_FINITE, ids=repr)
@pytest.mark.parametrize("name", ENTRIES)
def test_a_point_that_is_not_finite_raises_the_entry_rule_error(name, value):
    with pytest.raises(ValueError, match=f"^a point must be a finite real number, got {re.escape(repr(value))}$"):
        ENTRIES[name](value)


def test_two_integers_are_the_exact_distance_between_them():
    assert circle_distance(Index(2), 5) == circle_distance(2, 5) == Fraction(0)
    assert type(circle_distance(2, 5)) is Fraction


# ------------------------------------------------------------ surd operands

# each way an exact real operand enters Surd arithmetic, called with m there
SURD_TAKERS = {
    "x + m": lambda m: ROOT2M1 + m,
    "m + x": lambda m: m + ROOT2M1,
    "x - m": lambda m: ROOT2M1 - m,
    "m - x": lambda m: m - ROOT2M1,
    "x * m": lambda m: ROOT2M1 * m,
    "m * x": lambda m: m * ROOT2M1,
    "x / m": lambda m: ROOT2M1 / m,
    "m / x": lambda m: m / ROOT2M1,
    "x < m": lambda m: ROOT2M1 < m,
    "m <= x": lambda m: m <= ROOT2M1,
    "Surd.coerce(m)": lambda m: Surd.coerce(m),
    "mobius_apply(M, m)": lambda m: mobius_apply(UnimodularMatrix2(2, 1, 1, 1), m),
}


@pytest.mark.parametrize("name", SURD_TAKERS)
def test_surd_arithmetic_takes_every_index_integer(name):
    for value in (2, -3, 2**70):
        assert SURD_TAKERS[name](Index(value)) == SURD_TAKERS[name](value)


@pytest.mark.parametrize("value", [0.5, 2.0, "2"], ids=repr)
@pytest.mark.parametrize("name", SURD_TAKERS)
def test_surd_arithmetic_refuses_a_float_or_a_string(name, value):
    with pytest.raises(TypeError):
        SURD_TAKERS[name](value)

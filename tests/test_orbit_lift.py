"""The lift against the element trees it replaces.

``circlegroup._lift`` builds a lifter that evaluates a group element (j, h) at
a point by the group law on one lift of the point, compiling no tree: h
moves the lift, and f^j advances its arc and moves it by c g for its c
passes through the closing arc.  An element the tree
``eval_circle(element_expr(d, (j, h)), t0)`` refuses with an EvalError must
raise the same error type.  Every other image must equal the tree's bit for
bit wherever the two make the same libmp calls: at rank 2, and at ranks 3
and 4 for every element that moves no wrap level above the deepest (h_i = 0
for i >= 2, and g_i = 0 for i >= 2 where h = 0 and f^j passes the closing
arc).  Both round c0 + c1 alpha once from its integers, by
``exactnum.surd_mpf``.  The remaining cases are an integer coordinate
h_i != 0, i >= 2, at rank 3 or 4: the tree adds h_i to the flat coordinate
of its level, rounding it, before it splits that level, while the lift adds
h_i to the level's int floor exactly; and g_i != 0, i >= 2, where h = 0 and
f^j passes the closing arc, where the tree's g acts on the raw chart
coordinate in the same way.  Their images must be exact where the tree's
are, and else lie within 2^-(bits - 8) of the tree evaluated at 64 more bits
(or at the working precision, where the finer tree raises at a breakpoint).
At ranks 3 and 4 the lift
entered from a chart point whose coordinate carries the wrap levels, as
``verify`` hands over psi(x), must agree with the lift from the flat circle
value within 2^-(bits - 8), and read those levels with no tan.

Edge cases: a point at an arc midpoint, whose line coordinate is 0; a marked
point, which every element carries exactly to a marked point; exact and
binary points inside the headroom or the trust margin, where every element
but the identity is refused; and a point whose level-1 coordinate lies beyond
the headroom, where only the elements reaching below that level are refused.
``orbit_sample`` reads each image as an mpf with no ``CirclePoint``
(``homeo._circle_mpf``); that value must be the ``CirclePoint``'s bit for
bit, a rounded value of exactly 1 included, which becomes 0.  Its images
leave through the chart's one exit with no chart point built (``_lift`` with
leave); each must be the value of the chart point the lifter builds, left
as the chart left it before that exit, bit for bit, and the exit's division
by a power-of-two k must give the bits of mpf_div.
"""

import math
import random
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import fone, from_float, from_int, from_rational, fzero, mpf_add, mpf_div, mpf_ge, mpf_sub

from circleconj import homeo
from circleconj.circlegroup import (
    CircleElement,
    CircleGroupDescriptor,
    _lift,
    element_expr,
    orbit_sample,
    validate_g,
)
from circleconj.exactnum import Surd
from circleconj.homeo import (
    CircleExtend,
    CirclePoint,
    EvalError,
    Precision,
    PrecisionExhausted,
    Translate,
    _RN,
    _ChartPoint,
    _chart,
    _circle_mpf,
    _circle_point,
    _compile,
    _fraction,
    _raw,
    circle_distance,
    eval_circle,
    hbar_iter,
)

BASES = (Surd(-1, 1, 1, 2), Surd(-1, 1, 2, 5), Surd(-9, 1, 1, 94))
BITS = (128, 256)
TAN = homeo.mpf_tan


def outcome(f):
    """f() or the type of the EvalError it raises."""
    try:
        return f()
    except EvalError as exc:
        return type(exc)


def raw(t0, p):
    """The circle point t0 as the lifter takes it: a Fraction or an mpf tuple."""
    return t0.t if t0.is_exact else _raw(t0.t._mpf_, p.working_bits)


def images(d, t0, p, entry=None):
    """image(j, h) of d's lifter at p, entered from t0 or from the chart point
    entry, as a circle point: the image leaves the chart once."""
    _, image = _lift(d, p)(raw(t0, p) if entry is None else entry)
    out_of_chart = _chart(p.working_bits).out_of_chart
    return lambda j, h: _circle_point(out_of_chart(image(j, h)))


def passes(d, t0, j) -> bool:
    """Whether f^j carries t0 through the closing arc: t0's arc, counted from arc 1, plus j reaches k."""
    return (math.floor(_fraction(t0.t) * d.k) - 1) % d.k + j >= d.k


def same_calls(d, t0, j, h) -> bool:
    """Whether lift and tree make the same libmp calls for (j, h) at t0: no
    coordinate of h moves a wrap level above the deepest, and neither does
    g, unless h = 0 leaves t0's chart coordinate raw for f^j to pass with."""
    return not any(h[2:]) and (any(h) or not any(d.g[2:]) or not passes(d, t0, j))


def assert_lift_matches_tree(d, t0, p, elements):
    image = images(d, t0, p)
    finer = Precision(working_bits=p.working_bits + 64, singular_margin=p.singular_margin)
    for j, h in elements:
        e = element_expr(d, CircleElement(j, h))
        lifted = outcome(lambda: image(j, h))
        tree = outcome(lambda: eval_circle(e, t0, p))
        if isinstance(tree, type):
            assert lifted is tree, (d, t0, j, h)
            continue
        assert isinstance(lifted, CirclePoint), (d, t0, j, h, lifted)
        assert lifted.is_exact == tree.is_exact
        if same_calls(d, t0, j, h):
            assert lifted == tree, (d, t0, j, h)
        elif tree.is_exact:
            assert lifted.t == tree.t
        else:
            reference = outcome(lambda: eval_circle(e, t0, finer))
            if isinstance(reference, type):  # within the finer headroom: the working tree is all there is
                reference = tree
            assert circle_distance(lifted, reference) <= mpmath.mpf(2) ** (8 - p.working_bits), (j, h)


def binary(t: Fraction, bits: int):
    with mpmath.mp.workprec(bits):
        return mpmath.mpf(t.numerator) / t.denominator


@st.composite
def descriptors(draw):
    n, k = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    gs = [g for g in product(range(-2, 3), repeat=n) if validate_g(g, k)[0]]
    return CircleGroupDescriptor(draw(st.sampled_from(BASES)), n, k, draw(st.sampled_from(gs)))


@st.composite
def coords(draw, d):
    """h with c1 up to 4096 and c0 small or, as in the orbit draws, near -c1 alpha."""
    c1 = draw(st.one_of(st.just(0), st.integers(-4096, 4096)))
    c0 = draw(st.integers(-60, 60)) + draw(st.sampled_from((0, round(-c1 * float(d.alpha)))))
    return (c0, c1) + tuple(draw(st.one_of(st.just(0), st.integers(-4, 4))) for _ in range(d.n - 2))


def wrapped_chart_point(d, t0, p):
    """t0's chart point with its coordinate carried as a wrap point down to the
    deepest level, made by the compiler as psi's run makes psi(x); None where
    that raises or t0 is a marked point."""
    carry = _compile(CircleExtend(hbar_iter(Translate(0), d.n - 2), d.k), p, False)[0]
    try:
        point = carry(raw(t0, p))
    except EvalError:
        return None
    return point if type(point) is _ChartPoint else None


def assert_chart_entry_matches_flat_entry(d, t0, p, elements):
    entry = wrapped_chart_point(d, t0, p)
    if entry is None:
        return
    flat = images(d, t0, p)
    tans = []
    with pytest.MonkeyPatch.context() as patch:  # the descent reads the wrap levels with no tan
        patch.setattr(homeo, "mpf_tan", lambda *args: tans.append(args) or TAN(*args))
        from_chart = images(d, t0, p, entry)
    assert tans == []
    for j, h in elements:
        expected = outcome(lambda: flat(j, h))
        if isinstance(expected, type):  # the chart point is not margin-tested
            continue
        got = from_chart(j, h)
        assert circle_distance(got, expected) <= mpmath.mpf(2) ** (8 - p.working_bits), (d, t0, j, h)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.data())
def test_lift_matches_the_element_tree(data):
    d = data.draw(descriptors())
    bits = data.draw(st.sampled_from(BITS))
    t = Fraction(data.draw(st.integers(1, 9999)), 10**4)
    extra = data.draw(st.sampled_from((None, 0, 40)))  # None: exact; else bits beyond the working ones
    t0 = CirclePoint(t if extra is None else binary(t, bits + extra))
    elements = data.draw(st.lists(st.tuples(st.integers(0, d.k - 1), coords(d)), min_size=6, max_size=6))
    assert_lift_matches_tree(d, t0, Precision(working_bits=bits), elements)
    if d.n >= 3:  # and entered from a chart point that carries the wrap levels
        assert_chart_entry_matches_flat_entry(d, t0, Precision(working_bits=bits), elements)


def some_elements(d):
    """Every cycle power with h = 0, with each single coordinate, and with a full h."""
    hs = [(0,) * d.n, (3, -2) + (0,) * (d.n - 2), (-1, 4095) + (2,) * (d.n - 2)]
    hs += [tuple(int(i == c) for i in range(d.n)) for c in range(d.n)]
    return [(j, h) for j in range(d.k) for h in hs]


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("bits", BITS)
def test_arc_midpoints_match_the_tree(n, bits):
    d = CircleGroupDescriptor(BASES[0], n, 3, (1,) + (0,) * (n - 1))
    p = Precision(working_bits=bits)
    for r in range(d.k):
        mid = Fraction(3 + 2 * r, 2 * d.k) % 1  # line coordinate 0
        for t0 in (CirclePoint(mid), CirclePoint(binary(mid, bits))):
            assert_lift_matches_tree(d, t0, p, some_elements(d))


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("bits", BITS)
def test_a_passing_cycle_power_moves_the_wrap_levels_by_g(n, bits):
    # h = 0 with f^j through the closing arc and g_i != 0 for an i >= 2: the
    # tree rounds where the lift moves an int floor, so they agree to rounding
    d = CircleGroupDescriptor(BASES[1], n, 3, (1, 0) + (2,) * (n - 2))
    p, zero = Precision(working_bits=bits), (0,) * n
    reached = 0
    for t in (Fraction(1, 10), Fraction(2, 5), Fraction(7, 9), Fraction(41, 400), Fraction(5, 6)):
        for t0 in (CirclePoint(t), CirclePoint(binary(t, bits + 40))):
            elements = [(j, zero) for j in range(d.k)]
            reached += sum(not same_calls(d, t0, j, h) for j, h in elements)
            assert_lift_matches_tree(d, t0, p, elements)
    assert reached >= 10


@pytest.mark.parametrize("n", (2, 3, 4))
def test_a_marked_point_goes_to_a_marked_point_exactly(n):
    d = CircleGroupDescriptor(BASES[1], n, 4, (1,) * n)
    p = Precision(working_bits=128)
    for i in range(d.k):
        t0 = CirclePoint(Fraction(i, d.k))
        image = images(d, t0, p)
        for j, h in some_elements(d):
            assert image(j, h).t == Fraction((i + j) % d.k, d.k)
        assert_lift_matches_tree(d, t0, p, some_elements(d))
        sample = orbit_sample(d, t0, 120, seed=i, p=p)
        marked = {binary(Fraction(m, d.k), 128) for m in range(d.k)}
        assert sample.skipped == 0 and set(sample.points) == marked


@pytest.mark.parametrize(
    "t0",
    (
        CirclePoint(Fraction(1, 10**400)),  # exact, inside the headroom
        CirclePoint(binary(Fraction(1, 3) + Fraction(1, 10**6), 256)),  # inside the trust margin
    ),
    ids=("exact-headroom", "binary-margin"),
)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_a_point_too_close_to_a_marked_point_keeps_only_the_identity(t0, n):
    d = CircleGroupDescriptor(BASES[2], n, 3, (1,) + (0,) * (n - 1))
    p = Precision(working_bits=256)
    image = images(d, t0, p)
    assert image(0, (0,) * n) == t0
    for j, h in some_elements(d)[1:]:
        with pytest.raises(PrecisionExhausted):
            image(j, h)
    assert_lift_matches_tree(d, t0, p, some_elements(d))
    sample = orbit_sample(d, t0, 300, seed=n, p=p)
    assert sample.skipped > 0
    assert len(sample.points) + sample.skipped == 301
    assert set(sample.points) == {t0.approx(256)}


def test_a_guard_hit_skips_only_the_elements_reaching_below_it():
    # k = 1: the line coordinate is 2 + h(1 + 10^-25), so the level-1
    # coordinate lies 10^-25 past an integer, beyond the 128-bit headroom
    with mpmath.mp.workprec(400):
        x = 2 + (mpmath.mpf(1) / 2 + mpmath.atan(1 + mpmath.mpf(10) ** -25) / mpmath.pi)
        t = mpmath.mpf(1) / 2 + mpmath.atan(x) / mpmath.pi
    d = CircleGroupDescriptor(BASES[0], 4, 1, (0, 1, 0, 0))
    p = Precision(working_bits=128)
    t0 = CirclePoint(binary(Fraction(int(t.man)) * Fraction(2) ** int(t.exp), 300))
    image = images(d, t0, p)
    for h in ((0, 0, 0, 5), (0, 0, -3, 0), (0, 0, 2, 1)):
        assert isinstance(image(0, h), CirclePoint)
    for h in ((1, 0, 0, 0), (0, 1, 0, 0), (2, -1, 1, 1)):
        with pytest.raises(PrecisionExhausted):
            image(0, h)
    assert_lift_matches_tree(d, t0, p, some_elements(d))
    assert_lift_matches_tree(d, t0, Precision(working_bits=256), some_elements(d))


@pytest.mark.parametrize("bits", BITS)
def test_an_orbit_value_is_the_circle_points_value(bits):
    below_one = Fraction(2 ** (bits + 4) - 1, 2 ** (bits + 4))  # rounds to 1 at bits, after its fractional part
    raws = [fzero, fone, from_rational(1, 3, bits, _RN), from_rational(1, 2**bits, bits, _RN)]
    for value in raws + [Fraction(0), Fraction(2, 7), below_one]:
        assert _circle_mpf(value, bits)._mpf_ == _circle_point(value).approx(bits)._mpf_, value
    assert _circle_mpf(fone, bits) == 0


def reference_exit(point, bits):
    """out_of_chart as it stood before the one exit: the wrap points flattened
    from the deepest, then (h(y) + 1)/k by mpf_div, wrapped at 1, rotated."""
    chart = _chart(bits)
    if type(point) is not _ChartPoint:
        return point
    v = mpf_div(mpf_add(chart.h(chart.flat(point.x)), fone, bits, _RN), from_int(point.k), bits, _RN)
    v = mpf_sub(v, fone, bits, _RN) if mpf_ge(v, fone) else v
    return chart.rotate(v, point.r, point.k) if point.r else v


@pytest.mark.parametrize("k", (1, 2, 3, 4))
@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("bits", BITS)
def test_an_image_that_leaves_through_the_exit_is_its_chart_points_value(n, k, bits):
    # the lifter with leave hands the moved state to _chart's exit; the value
    # must be the chart point's, left the old way, bit for bit, and refused alike
    g = next(g for g in product(range(-2, 3), repeat=n) if validate_g(g, k)[0] and all(g))
    d, p = CircleGroupDescriptor(BASES[(n + k) % 3], n, k, g), Precision(working_bits=bits)
    rng, out_of_chart = random.Random(n * k + bits), _chart(bits).out_of_chart
    passing = staying = 0
    for t in (Fraction(2137, 10**4), Fraction(3, 37), Fraction(5, 7), Fraction(9001, 10**4)):
        for t0 in (CirclePoint(t), CirclePoint(binary(t, bits))):
            entries = [raw(t0, p)] + ([wrapped_chart_point(d, t0, p)] if n >= 3 else [])
            for entry in filter(None, entries):
                _, image = _lift(d, p)(entry)
                _, leaving = _lift(d, p, leave=True)(entry)
                elements = some_elements(d) + [
                    (rng.randrange(k), (rng.randint(-60, 60), rng.randint(-4096, 4096))
                     + tuple(rng.randint(-4, 4) for _ in range(n - 2)))
                    for _ in range(12)
                ]
                for j, h in elements:
                    chart_point = outcome(lambda: image(j, h))
                    if isinstance(chart_point, type):
                        assert outcome(lambda: leaving(j, h)) is chart_point
                        continue
                    value = leaving(j, h)
                    assert value == out_of_chart(chart_point) == reference_exit(chart_point, bits), (t0, j, h)
                    if type(chart_point) is _ChartPoint:
                        passing += passes(d, t0, j)
                        staying += not passes(d, t0, j)
    assert staying > 0 and (passing > 0 or k == 1)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.sampled_from((1, 2, 4, 8, 16)),
    st.sampled_from(BITS),
    st.floats(-1e30, 1e30, allow_nan=False),
    st.integers(-3, 3),
)
def test_a_power_of_two_k_divides_as_mpf_div_rounds(k, bits, x, r):
    # leave divides (h(x) + 1) by a power-of-two k with a shift; the bits
    # must be mpf_div's at every such k, k = 1 included, where it wraps
    chart, y = _chart(bits), from_float(x)
    point = _ChartPoint(r % k, y, k)
    assert chart.leave(r % k, (), y, k) == chart.out_of_chart(point) == reference_exit(point, bits)

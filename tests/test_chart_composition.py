"""Circle maps composed in chart coordinates.

A circle run hands a chart point (r, x) from node to node and leaves the chart
once at the end, so a composition of circle elements must agree with
evaluating them one at a time, and with evaluating their circle nodes one at
a time, up to the round trips that makes through the chart; marked points
must stay exact.  An element tree is itself a composition of a cycle-map
power and a bar extension, so only the node-by-node reference leaves the
chart between every two circle nodes.  ``verify`` draws each grid point as
a chart point already split into its wrap levels, in math floats, so it
makes no tan to enter the chart or a wrap level; psi(x) arrives inside those
levels, where the lift of psi(x) reads it with no tan.  Each g and g' acts on
those lifts.  Two sides
on one arc that share their wrap floors are measured by their difference,
carried up from the deepest level, and a true witness leaves it so small
that no arctan is computed; the trig-count test holds this by counting the
tan and arctan calls, not by timing.  The chart distance must agree with
the two sides leaving the chart one at a time, and near-equal sides must
come out within 2^-40 relative of a reference at three times the
precision; the chart's members are taken by name.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath.libmp import from_float, from_int, from_man_exp, from_rational, mpf_add, mpf_shift

from circleconj import homeo
from circleconj.circlegroup import CircleElement, CircleGroupDescriptor, element_expr, validate_g
from circleconj.conjugacy import verify_conjugation, witness_to_homeo
from circleconj.exactnum import Surd
from circleconj.homeo import (
    CircleExtend,
    Compose,
    EvalError,
    HbarWrap,
    Precision,
    Translate,
    _ChartPoint,
    _RN,
    _WrapPoint,
    _chart,
    _raw_distance,
    circle_distance,
    eval_circle,
)
from test_verify_pin import conjugate_pairs

# the base points the benchmark draws its groups over
BASES = (Surd(-1, 1, 1, 2), Surd(-1, 1, 2, 5), Surd(-9, 1, 1, 94))


@st.composite
def element_pairs(draw):
    """(descriptor, a, b): two element trees (j, h) of one group at n in {2, 3}, k in {1, 2, 3}."""
    n, k = draw(st.sampled_from((2, 3))), draw(st.integers(1, 3))
    g = draw(st.tuples(*[st.integers(-2, 2)] * n).filter(lambda g: validate_g(g, k)[0]))
    d = CircleGroupDescriptor(draw(st.sampled_from(BASES)), n, k, g)
    a, b = (
        element_expr(d, CircleElement(draw(st.integers(0, k - 1)), draw(st.tuples(*[st.integers(-3, 3)] * n))))
        for _ in range(2)
    )
    return d, a, b


def one_node_at_a_time(trees, t, p):
    """The composition of trees at t, outermost first, each circle node
    evaluated on its own, so that every node enters and leaves the chart."""
    nodes = [e for tree in trees for e in (tree.items if isinstance(tree, Compose) else (tree,))]
    for e in reversed(nodes):
        t = eval_circle(e, t, p)
    return t


@settings(derandomize=True, deadline=None, max_examples=300)
@given(element_pairs(), st.integers(0, 2), st.floats(1e-3, 1 - 1e-3), st.sampled_from((128, 256)))
def test_a_composition_in_the_chart_matches_nested_evaluation(pair, arc, frac, bits):
    d, a, b = pair
    p = Precision(working_bits=bits)
    t = (arc % d.k + frac) / d.k
    try:  # a partial image can land inside the trust margin, where a nested evaluation stops
        nested = eval_circle(a, eval_circle(b, t, p), p)
        by_node = one_node_at_a_time((a, b), t, p)
    except EvalError:
        assume(False)
    fused = eval_circle(Compose((a, b)), t, p)
    with mpmath.mp.workprec(2 * bits):
        for reference in (nested, by_node):
            assert circle_distance(fused, reference) <= mpmath.mpf(2) ** (16 - bits), (fused, reference)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(element_pairs(), st.integers(0, 2), st.sampled_from((128, 256)))
def test_marked_points_stay_exact_through_compositions(pair, i, bits):
    d, a, b = pair
    p, t = Precision(working_bits=bits), Fraction(i % d.k, d.k)
    fused = eval_circle(Compose((a, b, a)), t, p)
    assert fused.is_exact
    assert fused == eval_circle(a, eval_circle(b, eval_circle(a, t, p), p), p)
    assert fused == one_node_at_a_time((a, b, a), t, p)


GRID = 48


def test_verify_enters_the_chart_once_per_point_and_leaves_it_once_per_side(monkeypatch):
    calls = {}

    def counted(name, fn):
        def counting(*args):
            calls[name] += 1
            return fn(*args)

        return counting

    trig = ("mpf_tan", "mpf_atan", "_base_map")  # _base_map: the base map's own arctan kernel
    for name in trig:
        monkeypatch.setattr(homeo, name, counted(name, getattr(homeo, name)))
    for seed, (d1, d2, wit) in enumerate(conjugate_pairs()):
        calls.update(dict.fromkeys(trig, 0))
        report = verify_conjugation(witness_to_homeo(d1, d2, wit), d1, d2, wit, grid_size=GRID, seed=seed)
        assert report["ok"], report
        # no tan: each grid point is drawn as a chart point, split into its
        # wrap levels in math floats, and shared by psi and every generator; a
        # true witness leaves sides so close that every arctan of their
        # difference is its argument, and none leaves a wrap level through h
        assert calls == dict.fromkeys(trig, 0), (d1, calls)


@st.composite
def chart_point_pairs(draw):
    """(a, b): two chart points of k in {1, 2, 3, 6} arcs, mostly of one arc,
    each at a raw line coordinate or at a wrap point over one."""

    def coordinate():
        x = from_float(draw(st.one_of(st.floats(-8, 8), st.floats(-1e12, 1e12))))
        return _WrapPoint(draw(st.integers(-3, 3)), x) if draw(st.booleans()) else x

    k = draw(st.sampled_from((1, 2, 3, 6)))
    r = draw(st.integers(0, k - 1))
    arcs = (r, draw(st.sampled_from((r, r, r, (r + 1) % k))))
    return tuple(_ChartPoint(arc, coordinate(), k) for arc in arcs)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(chart_point_pairs(), st.sampled_from((128, 256)))
def test_the_chart_distance_agrees_with_leaving_the_chart_side_by_side(pair, bits):
    chart = _chart(bits)
    a, b = pair
    d = chart.distance(a, b)
    reference = _raw_distance(chart.out_of_chart(a), chart.out_of_chart(b), bits)
    with mpmath.mp.workprec(2 * bits):
        assert abs(d - reference) <= mpmath.mpf(2) ** (8 - bits), (pair, d, reference)


@st.composite
def near_chart_point_pairs(draw):
    """(a, b, bits, shared): two chart points of one arc of k in {1, 2, 3, 6}
    arcs at wrap depth 0, 1 or 2, whose deepest coordinates lie 0 to 2^60 ulps
    apart at bits in {128, 256}.  Mostly their floors agree and the deepest
    coordinates lie in the range of math floats (shared); else the floors
    differ at one level, or the deepest coordinates lie past 2^1100."""
    bits, k, depth = draw(st.sampled_from((128, 256))), draw(st.sampled_from((1, 2, 3, 6))), draw(st.integers(0, 2))
    case = draw(st.sampled_from(("shared", "shared", "huge") + (("floors",) if depth else ())))
    e = draw(st.integers(1100, 1150) if case == "huge" else st.integers(-20, 40))  # 2^e <= |y| < 2^(e+1)
    y = mpf_shift(from_float(draw(st.sampled_from((-1, 1))) * draw(st.floats(1, 2, exclude_max=True))), e)
    ulps = lambda m: from_man_exp(m, e + 1 - bits)
    ya = mpf_add(y, ulps(draw(st.integers(0, 2**60))), bits, _RN)  # every bit of the mantissa in use
    yb = mpf_add(ya, ulps(draw(st.integers(-(2**60), 2**60))), bits, _RN)
    floors = [draw(st.integers(-3, 3)) for _ in range(depth)]
    moved = list(floors)
    if case == "floors":
        moved[draw(st.integers(0, depth - 1))] += draw(st.sampled_from((-1, 1)))
    r, points = draw(st.integers(0, k - 1)), []
    for x, levels in ((ya, floors), (yb, moved)):
        for i in reversed(levels):
            x = _WrapPoint(i, x)
        points.append(_ChartPoint(r, x, k))
    return (*points, bits, case == "shared")


@settings(derandomize=True, deadline=None, max_examples=500)
@given(near_chart_point_pairs())
def test_near_equal_chart_points_are_measured_to_their_distance(pair):
    # a reference at 3 x bits; where floors agree in float range and the
    # result is below 2^(40 - bits), the difference carried up the shared
    # levels also holds it to 2^-40 relative, not to a rounding residue
    a, b, bits, shared = pair
    d = _chart(bits).distance(a, b)
    chart = _chart(3 * bits)
    reference = _raw_distance(chart.out_of_chart(a), chart.out_of_chart(b), 3 * bits)
    with mpmath.mp.workprec(3 * bits):
        error = abs(d - reference)
        assert error <= mpmath.mpf(2) ** (8 - bits), (pair, d, reference)
        if shared and d < mpmath.mpf(2) ** (40 - bits):
            assert error <= reference * mpmath.mpf(2) ** -40, (pair, d, reference)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
@pytest.mark.parametrize("bits", [128, 256])
def test_the_chart_distance_at_its_exact_cases(k, bits):
    distance = _chart(bits).distance
    x, w = from_int(2), _WrapPoint(1, from_float(0.3))
    # 1 + AB = 0 exactly: a half arc apart, with no division by the zero denominator
    half = distance(_ChartPoint(1 % k, x, k), _ChartPoint(1 % k, from_rational(-1, 2, bits, _RN), k))
    assert half == mpmath.mp.make_mpf(from_rational(1, 2 * k, bits, _RN))
    for y in (x, w):  # one point twice: exactly 0
        assert distance(_ChartPoint(0, y, k), _ChartPoint(0, y, k)) == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_chart_point_of_other_arcs_leaves_its_chart_first(k):
    # a CircleExtend over 2k arcs after one over k arcs: the chart point of the
    # k arcs leaves its chart before it enters the other one
    outer, inner = (CircleExtend(HbarWrap(Translate(Surd.sqrt(2))), m) for m in (2 * k, k))
    p = Precision(working_bits=128)
    for t in (0.07, 0.3, 0.55, 0.83):
        fused = eval_circle(Compose((outer, inner)), t, p)
        nested = eval_circle(outer, eval_circle(inner, t, p), p)
        assert fused.t == nested.t

"""Wrap points carry their floors as ints.

A wrap point (i, y) stands for the line point i + h(y); its floor i is a
Python int on every path that makes one: ``split``, an ``HbarWrap``, an
integer ``Translate``, a ``Staircase`` step and the lifter of
``circlegroup``.  Only ``flat`` turns a floor into an mpf, once.  A floor
may pass the float range at high precision, and the chart distance must
still measure such points, reading the floor as +-inf where it estimates in
floats.
"""

from fractions import Fraction
from itertools import product

import mpmath
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_float, from_int, mpf_add

from circleconj.circlegroup import CircleGroupDescriptor, _lift, validate_g
from circleconj.exactnum import Surd
from circleconj.homeo import (
    Compose,
    HbarWrap,
    Precision,
    Translate,
    _ChartPoint,
    _RN,
    _WrapPoint,
    _chart,
    _compile,
    _raw_distance,
    hbar_iter,
    staircase,
)

SURDS = (Surd(-1, 1, 1, 2), Surd(-1, 1, 2, 5), Surd(-9, 1, 1, 94))  # base points in (0, 1)


def floors(x):
    """The floors of a chart point's or a line point's wrap levels, outermost first."""
    x, out = x.x if type(x) is _ChartPoint else x, []
    while type(x) is _WrapPoint:
        out.append(x.i)
        x = x.y
    return out


def assert_int_floors(x, depth):
    found = floors(x)
    assert len(found) <= depth and all(type(i) is int for i in found), (x, found)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_every_wrap_point_carries_an_int_floor(data):
    n, bits = data.draw(st.sampled_from((3, 4))), data.draw(st.sampled_from((128, 256)))
    k, alpha = data.draw(st.integers(1, 4)), data.draw(st.sampled_from(SURDS))
    p, depth = Precision(working_bits=bits), n - 2
    x = mpf_add(from_int(data.draw(st.integers(-50, 50))), from_float(data.draw(st.floats(0.01, 0.99))), bits, _RN)
    parts = _chart(bits).split(x)
    assert type(parts[0]) is int
    step = data.draw(st.sampled_from((-3, -1, 2)))
    for e in (
        hbar_iter(Translate(alpha), depth),  # HbarWrap
        hbar_iter(Compose((Translate(step), HbarWrap(Translate(alpha)))), depth - 1),  # an integer Translate
        hbar_iter(staircase(HbarWrap(Translate(alpha))), depth - 1),  # a Staircase step
    ):
        assert_int_floors(_compile(e, p, True)[0](x), depth)
    gs = [g for g in product(range(-2, 3), repeat=n) if validate_g(g, k)[0]]
    d = CircleGroupDescriptor(alpha, n, k, data.draw(st.sampled_from(gs)))
    t = Fraction(data.draw(st.integers(1, 999)), 1000)
    point, image = _lift(d, p)(t)
    if type(point) is _ChartPoint:
        assert_int_floors(point, depth)
    for _ in range(4):
        j = data.draw(st.integers(0, k - 1))
        h = tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
        assert_int_floors(image(j, h), depth)


def test_a_floor_past_the_float_range_is_measured():
    # at 2048 bits a floor 2^1100 is exact; where the chart distance would
    # estimate in floats it reads it as +-inf and measures the pair as it is
    bits, k = 2048, 3
    p, chart = Precision(working_bits=bits), _chart(bits)
    wrap = _compile(HbarWrap(Translate(Surd.sqrt(2))), p, True)[0]
    big = from_int(2**1100)
    ya, yb = (wrap(mpf_add(big, from_float(v), bits, _RN)) for v in (0.3, 0.7))
    assert ya.i == yb.i == 2**1100
    for x, y in ((ya, yb), (_WrapPoint(1, ya), _WrapPoint(1, _WrapPoint(ya.i + 1, yb.y)))):
        a, b = _ChartPoint(1, x, k), _ChartPoint(1, y, k)
        d = chart.distance(a, b)
        reference = _raw_distance(chart.out_of_chart(a), chart.out_of_chart(b), bits)
        with mpmath.mp.workprec(bits):
            assert abs(d - reference) <= mpmath.mpf(2) ** (8 - bits), (d, reference)

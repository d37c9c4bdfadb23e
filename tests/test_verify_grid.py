"""The grid ``verify`` samples, drawn in lift coordinates.

``conjugacy._grid`` turns each draw u in [0, 1) into a chart point of the arc
j = floor(k u), at a position inside the window that keeps twice the trust
margin delta from the marked points j/k, lifted in math floats into int
floors at the n - 2 wrap levels and a deepest float.  Every grid point must
be a chart point of the arc (j - 1) mod k with int floors, and leaving the
chart at the working precision it must lie at least 2 delta from every marked
point, up to float rounding, for any delta below 1/(4k) and for draws next
to 1 and next to the arc ends.
"""

import math
from fractions import Fraction

import mpmath
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_rational

from circleconj.circlegroup import CircleGroupDescriptor, validate_g
from circleconj.conjugacy import _grid
from circleconj.exactnum import Surd
from circleconj.homeo import _ChartPoint, _RN, _WrapPoint, _chart, _raw_distance

BASES = (Surd(-1, 1, 1, 2), Surd(-1, 1, 2, 5), Surd(-9, 1, 1, 94))


def draws(k: int):
    """u in [0, 1): uniform, next to 1, and next to either side of an arc end j/k."""
    ends = [j / k for j in range(k)] + [1.0]
    near = [math.nextafter(e, side) for e in ends for side in (0.0, 1.0)]
    return st.one_of(
        st.floats(0, 1, exclude_max=True),
        st.sampled_from([u for u in near if 0 <= u < 1] + [0.0, 1 - 2**-53]),
    )


def margins(k: int):
    """delta from 1e-6 up to just below 1/(4k)."""
    top = 1 / (4 * k)
    return st.one_of(
        st.floats(1e-6, top, exclude_max=True),
        st.sampled_from((1e-6, top * (1 - 1e-9), math.nextafter(top, 0))),
    )


@st.composite
def grids(draw):
    n, k = draw(st.sampled_from((2, 3, 4))), draw(st.sampled_from((1, 2, 3, 6)))
    g = draw(st.tuples(*[st.integers(-2, 2)] * n).filter(lambda g: validate_g(g, k)[0]))
    d = CircleGroupDescriptor(draw(st.sampled_from(BASES)), n, k, g)
    us = draw(st.lists(draws(k), min_size=1, max_size=8))
    return d, us, draw(margins(k)), draw(st.sampled_from((64, 128, 256)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(grids())
def test_grid_points_are_chart_points_inside_the_window(case):
    d, us, delta, bits = case
    chart, k = _chart(bits), d.k
    grid = _grid(d, us, delta)
    assert len(grid) == len(us)
    marked = [from_rational(j, k, bits, _RN) for j in range(k)]
    for u, point in zip(us, grid):
        assert type(point) is _ChartPoint and point.k == k
        assert point.r == (math.floor(Fraction(u) * k) - 1) % k, (u, point)
        x, floors = point.x, []
        while type(x) is _WrapPoint:
            floors.append(x.i)
            x = x.y
        assert all(type(i) is int for i in floors) and len(floors) <= d.n - 2
        t = chart.out_of_chart(point)
        with mpmath.mp.workprec(bits):
            nearest = min(_raw_distance(t, m, bits) for m in marked)
            assert nearest >= 2 * delta - 2.0**-45, (u, delta, nearest)

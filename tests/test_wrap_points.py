"""Wrapped line maps composed in wrap coordinates.

Inside a wrap level a compiled line run hands a wrap point (i, y), the floor
i and the coordinate y one level down, from map to map: a wrapped map acts
on y, a staircase reads its step from i, an integer translate adds to i, and
any other map flattens the point to i + h(y) first.  So a chain of line maps
must agree with evaluating its maps one at a time, each of which leaves every
wrap level, up to the round trips that makes; and no wrap point may leave an
entry point.  The trig count of ``verify`` is held in
``test_chart_composition.py``.
"""

from fractions import Fraction

import mpmath
from hypothesis import assume, given, settings, strategies as st

from circleconj.circlegroup import CircleGroupDescriptor, _lift
from circleconj.exactnum import Surd
from circleconj.homeo import (
    CanonicalF,
    CircleExtend,
    CirclePoint,
    Compose,
    EvalError,
    HbarWrap,
    Inverse,
    Power,
    Precision,
    Scale,
    Translate,
    _chart,
    _raw,
    eval_circle,
    eval_line,
    hbar_iter,
    rotation_number,
    staircase,
)

SURDS = (Surd.sqrt(2), Surd(-1, 1, 2, 5), Surd(-9, 1, 1, 94), Surd(3, -1, 1, 2))
UNITS = (Surd(1, 1, 1, 2), Surd(1, 1, 2, 5), Surd.coerce(2), Surd(1, 0, 3, 1))


@st.composite
def line_maps(draw, depth):
    """One map of a chain: an integer or surd translate, a dilation or a
    staircase of a wrapped translate, wrapped at most depth times in all,
    maybe inverted or raised to a small power."""
    kind = draw(st.sampled_from(("integer", "surd", "scale", "staircase")))
    if kind == "staircase":
        inner = hbar_iter(Translate(draw(st.sampled_from(SURDS))), draw(st.integers(0, depth - 1)))
        core, wraps = staircase(HbarWrap(inner)), draw(st.integers(0, depth - 1))
    else:
        if kind == "integer":
            core = Translate(draw(st.sampled_from((-3, -2, -1, 1, 2, 3))))
        else:
            core = Translate(draw(st.sampled_from(SURDS))) if kind == "surd" else Scale(draw(st.sampled_from(UNITS)))
        wraps = draw(st.integers(0, depth))
    e = hbar_iter(core, wraps)
    shape = draw(st.sampled_from(("plain", "inverse", "power")))
    if shape == "inverse":
        return Inverse(e)
    return Power(e, draw(st.integers(-3, 3))) if shape == "power" else e


@st.composite
def chains(draw):
    depth = draw(st.integers(1, 3))
    items = draw(st.lists(line_maps(depth), min_size=2, max_size=6))
    return Compose(tuple(items))


def one_map_at_a_time(chain, x, p):
    for e in reversed(chain.items):
        x = eval_line(e, x, p)
    return x


@settings(derandomize=True, deadline=None, max_examples=300)
@given(chains(), st.integers(-3, 3), st.floats(1e-3, 1 - 1e-3), st.sampled_from((128, 256)))
def test_a_chain_in_wrap_coordinates_matches_one_map_at_a_time(chain, i, frac, bits):
    p = Precision(working_bits=bits)
    x = i + frac
    try:  # a partial image can land inside the headroom, where a map on its own stops
        reference = one_map_at_a_time(chain, x, p)
    except EvalError:
        assume(False)
    fused = eval_line(chain, x, p)
    with mpmath.mp.workprec(2 * bits):
        bound = mpmath.mpf(2) ** (16 - bits) * max(1, abs(reference))
        assert abs(fused - reference) <= bound, (chain, x, fused, reference)


def test_no_wrap_point_leaves_an_entry_point():
    p = Precision(working_bits=128)
    tau = HbarWrap(hbar_iter(Translate(SURDS[0]), 2))
    line = Compose((hbar_iter(Scale(UNITS[0]), 2), staircase(tau), Translate(2), hbar_iter(Translate(SURDS[1]), 3)))
    circle = CircleExtend(line, 3, hbar_iter(Translate(1), 2))
    for x in (0.3, -1.7, 2.55, Fraction(5, 3)):
        assert type(eval_line(line, x, p)._mpf_) is tuple
    for t in (0.1, 0.45, 0.8, Fraction(2, 7)):
        for e in (circle, Compose((CanonicalF(3, line), circle))):
            image = eval_circle(e, t, p).t
            assert isinstance(image, Fraction) or type(image._mpf_) is tuple
    turns = rotation_number(CanonicalF(3, line), 0.2, 5, p)
    assert type(turns._mpf_) is tuple
    d = CircleGroupDescriptor(SURDS[1], 4, 3, (1, 0, 0, 1))
    out_of_chart = _chart(128).out_of_chart
    for t0 in (_raw(0.2, 128), Fraction(3, 10)):
        _, image = _lift(d, p)(t0)  # an image stays in the chart, and leaves it flat
        for j, h in ((0, (1, 2, 0, 0)), (1, (0, 0, 1, -1)), (2, (3, -1, 2, 1))):
            point = out_of_chart(image(j, h))
            assert isinstance(point, Fraction) or type(point) is tuple

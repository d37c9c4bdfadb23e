"""Level steps: the compiler's one step per run of maps inside a wrap level,
and the chart distance of two equal sides.

A compiled composition turns each run of adjacent maps that act inside one
wrap level, wrapped maps and staircases over wrapped maps, into one step when
the run holds a wrapped map: it splits a raw point once or reads a wrap point
once, maps the coordinate one level down by each map in turn, a staircase's
by the floor, and builds one wrap point.  That must give, bit for bit, what
the same maps give compiled and run one at a time, raise the same exception
class where a split guard fires, and leave a raw point that only staircases
meet at floor 0 raw.  ``verify`` compares two sides that are often equal
tuples; the chart distance must give them the exact 0 with no libmp call.
"""

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import fone, from_float, from_int, fzero, mpf_add, mpf_shift, mpf_sub, round_nearest

from circleconj import homeo
from circleconj.exactnum import Surd
from circleconj.homeo import (
    Compose,
    EvalError,
    HbarWrap,
    Power,
    Precision,
    Scale,
    Staircase,
    Translate,
    _ChartPoint,
    _WrapPoint,
    _chart,
    _compile,
)

SURDS = (Surd.sqrt(2), Surd(-1, 1, 2, 5), Surd(-9, 1, 1, 94), Surd(3, -1, 1, 2))
UNITS = (Surd(1, 1, 1, 2), Surd(1, 1, 2, 5), Surd.coerce(2), Surd(1, 0, 3, 1))


@st.composite
def level_maps(draw):
    """One map: a wrapped surd translate or dilation, a staircase over a
    wrapped surd translate, or an integer translate between runs, raised to
    the power 1, -1, 2 or -2."""
    kind = draw(st.sampled_from(("translate", "scale", "staircase", "staircase", "integer")))
    if kind == "integer":
        e = Translate(draw(st.sampled_from((-2, -1, 1, 2))))
    elif kind == "scale":
        e = HbarWrap(Scale(draw(st.sampled_from(UNITS))))
    else:
        e = HbarWrap(Translate(draw(st.sampled_from(SURDS))))
        e = Staircase(e) if kind == "staircase" else e
    power = draw(st.sampled_from((1, 1, -1, 2, -2)))
    return e if power == 1 else Power(e, power)


@st.composite
def line_points(draw, bits):
    """A raw point, an integer, a wrap point, or a raw point closer to an
    integer than the split guard allows."""
    kind = draw(st.sampled_from(("raw", "raw", "integer", "wrap", "near")))
    if kind == "raw":
        return from_float(draw(st.floats(-4, 4)))
    if kind == "integer":
        return from_int(draw(st.integers(-3, 3)))
    if kind == "wrap":
        return _WrapPoint(draw(st.integers(-3, 3)), from_float(draw(st.floats(-1e3, 1e3))))
    tiny = mpf_shift(fone, -(bits // 2) - draw(st.integers(1, 20)))
    side = mpf_add if draw(st.booleans()) else mpf_sub
    return side(from_int(draw(st.integers(-3, 3))), tiny, bits, round_nearest)


def outcome(run, x):
    """("value", repr) of run(x), the repr naming wrap points; ("raises", class) if it raises."""
    try:
        return "value", repr(run(x))
    except EvalError as exc:
        return "raises", type(exc)


def one_at_a_time(items, p):
    steps = [_compile(e, p, True)[0] for e in reversed(items)]

    def run(x):
        for step in steps:
            x = step(x)
        return x

    return run


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.data(), st.sampled_from((128, 256)))
def test_a_run_of_level_maps_gives_what_its_maps_give_one_at_a_time(data, bits):
    p = Precision(working_bits=bits)
    items = data.draw(st.lists(level_maps(), min_size=1, max_size=6))
    cut = data.draw(st.integers(1, len(items)))  # a nested composition is spliced into the chain
    tree = Compose((Compose(tuple(items[:cut])), *items[cut:]))
    x = data.draw(line_points(bits))
    reference = one_at_a_time(items, p)
    assert outcome(_compile(tree, p, True)[0], x) == outcome(reference, x), (items, x)
    assert outcome(_compile(Compose(tuple(items)), p, True)[0], x) == outcome(reference, x), (items, x)


@pytest.mark.parametrize("bits", (128, 256))
def test_staircases_alone_leave_a_raw_point_at_floor_0_raw(bits):
    p = Precision(working_bits=bits)
    run = _compile(Compose((Staircase(HbarWrap(Translate(SURDS[0]))),
                            Power(Staircase(HbarWrap(Translate(SURDS[1]))), -2))), p, True)[0]
    x = from_float(0.375)
    assert run(x) is x
    assert type(run(from_float(1.375))) is _WrapPoint  # off floor 0 they act


def test_a_run_holding_a_wrapped_map_builds_one_wrap_point(monkeypatch):
    built = []

    class Counted(_WrapPoint):
        __slots__ = ()

        def __new__(cls, i, y):
            built.append(i)
            return super().__new__(cls, i, y)

    monkeypatch.setattr(homeo, "_WrapPoint", Counted)
    p = Precision()
    run = _compile(Compose((HbarWrap(Scale(UNITS[0])), Staircase(HbarWrap(Translate(SURDS[0]))),
                            Power(HbarWrap(Translate(SURDS[1])), -1))), p, True)[0]
    for x in (from_float(2.375), Counted(2, from_float(-0.5))):
        built.clear()
        assert type(run(x)) is Counted
        assert built == [2], x


def equal_sides(k):
    """Fresh equal pairs of raw circle values and of chart points of k arcs at
    wrap depth 0, 1 and 2, each pair two objects."""
    x, y = from_float(0.3), from_float(-7.25)
    make = [
        lambda: from_float(0.3),
        lambda: _ChartPoint(k - 1, from_float(-7.25), k),
        lambda: _ChartPoint(0, _WrapPoint(3, from_float(0.3)), k),
        lambda: _ChartPoint(k // 2, _WrapPoint(-2, _WrapPoint(5, y)), k),
        lambda: _ChartPoint(0, _WrapPoint(2**70, x), k),  # floors past the float range
    ]
    return [(m(), m()) for m in make]


@pytest.mark.parametrize("k", (1, 6))
@pytest.mark.parametrize("bits", (128, 256))
def test_equal_sides_are_0_apart_with_no_libmp_call(monkeypatch, k, bits):
    chart, pairs, calls = _chart(bits), equal_sides(k), []

    def counted(name, fn):
        def counting(*args):
            calls.append(name)
            return fn(*args)

        return counting

    for name in [n for n in vars(homeo) if n.startswith(("mpf_", "from_", "to_"))]:
        monkeypatch.setattr(homeo, name, counted(name, getattr(homeo, name)))
    for a, b in pairs:
        assert a is not b
        d = chart.distance(a, b)
        assert isinstance(d, mpmath.mpf) and d._mpf_ == fzero, (a, d)
    assert calls == []

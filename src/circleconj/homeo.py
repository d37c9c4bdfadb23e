"""Expression trees for line and circle homeomorphisms, with evaluation.

Expressions are immutable trees of small node dataclasses.  Evaluation is
pure: each call walks its tree once, compiling it into closures over raw
mpmath.libmp values at ``working_bits``, rounding to nearest, which make the
calls that mpf arithmetic makes under ``workprec``, in the same order, but
for the base map h = 1/2 + arctan/pi: _base_map rounds h once, correctly,
where mpf arithmetic rounds three times.  It follows an error model:

* results are trusted only at distance >= ``singular_margin`` (delta) from the
  breakpoints of the map (the integers for wrapped line maps, the marked
  points j/k for circle maps); the same walk records those breakpoints, and
  the entry points reject inexact inputs inside that margin;
* interior stages of a nested evaluation guard themselves against genuine
  precision exhaustion at the much smaller threshold 2^(-working_bits/2),
  where the tan/arctan round trip really does run out of headroom, on entry
  into each wrap level;
* a power e^m compiles in one pass by the group law where e has a closed
  form, and so does each arc's line map inner . twist^(-r) of a twisted
  CircleExtend; any other power repeats e, at most 64 times;
* circle maps compose in chart coordinates: between circle nodes a point
  travels as a chart point (r, x), r rotations by 1/k past the arc
  (1/k, 2/k) at the line coordinate x of that arc's chart, which every node
  enters at t - r/k and the point leaves once at the end, so a composition
  makes no tan/arctan round trip between its nodes, and two chart points of one arc are compared in the
  chart: by their difference carried up from the deepest level where their
  wrap points share floors, else with one arctan, and an arctan of x below
  2^(-working_bits/2 - 2) is x, to which it rounds, so near-equal sides of a
  comparison cost no arctan;
* wrapped maps compose in wrap coordinates in the same way: a point inside a
  wrap level travels as a wrap point (i, y), its int floor i and the coordinate
  y one level down; it enters a level once per run of maps inside it and leaves
  once, at the first map that needs its flat value, with no round trip between.

Exact inputs (integers, Fractions, and Surds on the line, by _entry's one
rule) bypass the trust margin: integer inputs to wrapped maps and marked
circle points evaluate exactly, which the invariance tests rely on.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from functools import lru_cache, partial
from itertools import groupby
from operator import index
from typing import NamedTuple

import mpmath
from mpmath.libmp import (
    fhalf, finf, fnan, fninf, fone, from_float, from_int, from_man_exp, from_rational, fzero, mpf_abs, mpf_add,
    mpf_atan, mpf_div, mpf_eq, mpf_floor, mpf_ge, mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_mul_int,
    mpf_pi, mpf_shift, mpf_sub, mpf_tan, mpf_pos, round_nearest, to_fixed, to_float, to_int, to_str,
)

from .exactnum import Surd, json_int, json_object, surd_mpf


class EvalError(Exception):
    """Evaluation failed structurally (bad domain, wrong node kind)."""


class PrecisionExhausted(EvalError):
    """The requested point is too close to a breakpoint for the precision."""


class PowerCapExceeded(EvalError):
    """A repeated-composition power exceeded its cap of compositions."""


def _index_at_least(value, low: int, message: str, refused=ValueError) -> int:
    """value taken by operator.index when it is at least low, else ValueError(message);
    a value that index refuses, such as a float, a NaN or a string, raises refused(message)."""
    try:
        if (value := index(value)) >= low:
            return value
    except TypeError:
        raise refused(message) from None
    raise ValueError(message)


@dataclass(frozen=True)
class Precision:
    working_bits: int = 256
    singular_margin: float = 1e-4

    def __post_init__(self) -> None:
        bits = _index_at_least(self.working_bits, 64, "working_bits must be an int of at least 64")
        object.__setattr__(self, "working_bits", bits)
        if not self.singular_margin > 0:  # also rejects nan
            raise ValueError("singular_margin must be positive")


DEFAULT_PRECISION = Precision()


# --------------------------------------------------------------------- nodes


class HomeoExpr:
    """Base class for expression nodes; subclasses are frozen dataclasses."""


@dataclass(frozen=True)
class Identity(HomeoExpr):
    pass


@dataclass(frozen=True)
class Translate(HomeoExpr):
    a: Surd

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Surd.coerce(self.a))


@dataclass(frozen=True)
class Scale(HomeoExpr):
    u: Surd

    def __post_init__(self) -> None:
        u = Surd.coerce(self.u)
        if u.sign() <= 0:
            raise ValueError("scaling factor must be positive")
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class HbarBase(HomeoExpr):
    """The fixed base map x -> 1/2 + arctan(x)/pi from R onto (0, 1)."""


@dataclass(frozen=True)
class HbarWrap(HomeoExpr):
    """Transplant of a line map into every unit interval, fixing integers."""

    inner: HomeoExpr


@dataclass(frozen=True)
class Staircase(HomeoExpr):
    """x in [i, i+1) -> inner^i(x), for inner fixing Z and each [i, i+1]: a
    circle node raises EvalError, and a map that _fixes_integers does not
    accept from the tree's structure raises ValueError."""

    inner: HomeoExpr

    def __post_init__(self) -> None:
        if type(self.inner) in _CIRCLE_NODES:
            raise EvalError(f"{type(self.inner).__name__} is not a line node")
        if not _fixes_integers(self.inner):
            raise ValueError("staircase inner map must fix every integer")


@dataclass(frozen=True)
class Compose(HomeoExpr):
    items: tuple

    def __post_init__(self) -> None:
        items = tuple(self.items)
        if not all(isinstance(e, HomeoExpr) for e in items):
            raise TypeError("Compose expects HomeoExpr items")
        object.__setattr__(self, "items", items)

    @classmethod
    def of(cls, *parts) -> HomeoExpr:
        """The composition of parts, outermost first, without its Identity
        parts: Identity() for none, the part itself for one.  A nested
        Compose is kept as it is."""
        parts = [e for e in parts if not isinstance(e, Identity)]
        if not parts:
            return Identity()
        return parts[0] if len(parts) == 1 else cls(parts)


@dataclass(frozen=True)
class Inverse(HomeoExpr):
    inner: HomeoExpr


@dataclass(frozen=True)
class Power(HomeoExpr):
    inner: HomeoExpr
    e: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", index(self.e))


@dataclass(frozen=True)
class CanonicalF(HomeoExpr):
    """The canonical k-cycle circle map: rigid rotation by 1/k on the arcs
    (j/k, (j+1)/k) for j = 1..k-1, and the chart-conjugated copy of the line
    map ``gtilde`` on the closing arc, so that the k-th power restricted to
    the first arc is exactly the chart copy of ``gtilde``."""

    k: int
    gtilde: HomeoExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _index_at_least(self.k, 1, "k must be a positive integer", TypeError))
        if not isinstance(self.gtilde, HomeoExpr):
            raise TypeError("gtilde must be a line HomeoExpr")


@dataclass(frozen=True)
class CircleExtend(HomeoExpr):
    """Arc-wise extension of a line map to the circle, fixing the marked
    points j/k.  On the arc r rotations by 1/k past (1/k, 2/k) the value is
    rot(r/k) . chart(inner . twist^(-r)) . rot(-r/k); with twist omitted
    every arc carries the chart copy of inner."""

    inner: HomeoExpr
    k: int
    twist: HomeoExpr = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _index_at_least(self.k, 1, "k must be a positive integer", TypeError))
        if self.twist is not None and not isinstance(self.twist, HomeoExpr):
            raise TypeError("twist must be a line HomeoExpr or None")


# ------------------------------------------------------------- circle points


@dataclass(frozen=True)
class CirclePoint:
    """A point of the circle as a lift t in [0, 1); exact, as a Fraction, when
    _entry takes t as exact, approximate, as a binary float, otherwise.  An
    mpf keeps its own bits, and its fractional part is taken exactly."""

    t: object

    def __post_init__(self) -> None:
        t = _entry(self.t)  # an integer is the exact point 0
        t = t % 1 if isinstance(t, Fraction) else mpmath.mp.make_mpf(mpf_sub(t._mpf_, mpf_floor(t._mpf_)))
        object.__setattr__(self, "t", t)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.t, Fraction)

    def approx(self, bits: int = 64):
        """An exact t rounded once to nearest at ``bits`` (_raw); an inexact t as it is."""
        return mpmath.mp.make_mpf(_raw(self.t, bits)) if self.is_exact else self.t

    def _start(self, bits: int):
        """The raw value evaluation at ``bits`` starts from: an exact t, or an inexact t rounded once."""
        return self.t if self.is_exact else _raw(self.t._mpf_, bits)


def _entry(x, line: bool = False):
    """x under the one entry rule for points: every operator.index integer and
    every Fraction is exact, as a Fraction, and so is a Surd on the line; any
    other value goes to mpmath, as an mpf that keeps its own bits, and must be
    finite, or a ValueError names it."""
    v = x
    if not isinstance(x, mpmath.mpf):  # an mpf, the common point, skips the slower checks
        if isinstance(x, Fraction) or line and isinstance(x, Surd):
            return x
        if hasattr(type(x), "__index__"):  # what operator.index takes
            return Fraction(index(x))
        v = mpmath.mpf(x)
    if v._mpf_ in (finf, fninf, fnan):
        raise ValueError(f"a point must be a finite real number, got {x!r}")
    return v


def marked_point(j: int, k: int) -> CirclePoint:
    return CirclePoint(Fraction(j % k, k))


def circle_distance(a, b):
    """Shorter arc length between two circle points, from their exact
    difference: a Fraction between exact points, two integers included;
    else an mpf, exact when the difference is binary (as between binary
    points, integers among them), else rounded once to the global precision.
    A raw input enters by the entry rule (_entry)."""
    ta, tb = (x.t if isinstance(x, CirclePoint) else _entry(x) for x in (a, b))
    if isinstance(ta, Fraction) or isinstance(tb, Fraction):
        d = (_fraction(ta) - _fraction(tb)) % 1
        d = min(d, 1 - d)
        if isinstance(ta, Fraction) and isinstance(tb, Fraction):
            return d
        p, q = d.numerator, d.denominator
        if q & (q - 1) == 0:  # q a power of 2: a binary difference
            return mpmath.mp.make_mpf(from_man_exp(p, 1 - q.bit_length()))
        return mpmath.mp.make_mpf(from_rational(p, q, mpmath.mp.prec, _RN))
    return _raw_distance(ta._mpf_, tb._mpf_, 0)


def _fraction(t) -> Fraction:
    """A Fraction or an mpf exactly as a Fraction."""
    return Fraction(t.man) * Fraction(2) ** t.exp if isinstance(t, mpmath.mpf) else Fraction(t)


# ----------------------------------------------------------------- compiler

_RN = round_nearest
_POWER_CAP = 64


#: the one cache of rounded surd constants, keyed by (a, b, c, d, bits)
_surd_mpf_cached = lru_cache(maxsize=4096)(surd_mpf)


def _raw(x, prec: int):
    """x as an mpf tuple: what ``mpmath.mpf(x)`` gives under workprec(prec)."""
    if type(x) is tuple:
        return mpf_pos(x, prec, _RN)
    if isinstance(x, Surd):
        return _surd_mpf_cached(x.a, x.b, x.c, x.d, prec)
    if isinstance(x, Fraction):
        return from_rational(x.numerator, x.denominator, prec, _RN)
    return mpmath.mpf(x, prec=prec)._mpf_


def _edge(frac, prec: int):
    """min(frac, 1 - frac): how far a fractional part lies from the integers."""
    rest = mpf_sub(fone, frac, prec, _RN)
    return rest if mpf_lt(rest, frac) else frac


def _fail(exc_type, message: str):
    def raising(x):
        raise exc_type(message)

    return raising


_LINE_NODES = {Translate, Scale, HbarBase, HbarWrap, Staircase}
_CIRCLE_NODES = {CanonicalF, CircleExtend}


def _commuting(items) -> bool:
    """Whether items, translates under HbarWrap layers, commute: every non-integer
    one is wrapped deepest, and an integer translate commutes with wrapped maps."""
    layers = []
    for e in items:
        depth = 0
        while type(e) is HbarWrap:
            e, depth = e.inner, depth + 1
        if type(e) is not Translate:
            return False
        layers.append((depth, e.a.b == 0 and e.a.c == 1))
    return all(integer or depth == max(layers)[0] for depth, integer in layers)


class _ChartPoint(NamedTuple):
    """A circle point off the marked points j/k, r rotations by 1/k past the
    arc (1/k, 2/k), at the line coordinate x (an mpf tuple or a wrap point) of
    that arc's chart."""

    r: int
    x: tuple
    k: int


class _WrapPoint(NamedTuple):
    """The line point i + h(y) off the integers: its floor i (an int) and the
    coordinate y one wrap level down (an mpf tuple or a wrap point)."""

    i: int
    y: tuple


_GUARD = 40  # bits past prec at which _base_map works first; each retry doubles them
_STEP = 10  # _base_map's table holds atan(n 2^-_STEP) for 0 < n <= 2^_STEP


@lru_cache(maxsize=16)
def _base_table(W: int):
    """(1/pi, {n: atan(n 2^-_STEP)}) at W bits for _base_map, which fills the table:
    one per precision at W = prec + _GUARD, and one per wider W a retry reaches."""
    return to_fixed(mpf_div(fone, mpf_pi(W + 8, _RN), W + 8, _RN), W), {}


def _base_map(x, prec: int):
    """h(x) = 1/2 + arctan(x)/pi correctly rounded to nearest at prec bits (Ziv):
    evaluated once in integer fixed point at W = prec + g bits and rounded where
    the error bound e leaves no midpoint in reach, else again with twice the
    guard bits g.  This ends: arctan(x)/pi is irrational at binary x other than
    0 and +-1 (Niven), so h(x) is never a midpoint.  The series runs in pairs of
    terms on t = |x|, or t = 1/|x| past 1 (scaled by 2^s where h is tiny), less
    the nearest table entry a: u = (t - a)/(1 + at), |u| <= 2^-(_STEP+1).  In
    units of 2^-(W+s), t errs by < 1, a and 1/pi by 2, u by 2 and the series by
    1.5 a pair plus 3, so v errs by < e = k + 8, where k = 4 pairs + 5."""
    sign, man, exp, bc = x
    if not man:
        return {fzero: fhalf, finf: fone, fninf: fzero}.get(x, fnan)  # 0 and the infinities
    mag, g = exp + bc, _GUARD
    s = mag - _STEP - 3 if sign and mag > _STEP + 3 else 0
    while True:
        W = prec + g
        inv_pi, table = _base_table(W)
        if mag <= 0:
            t = man << (exp + W) if exp + W >= 0 else man >> -(exp + W)
        else:
            t = (1 << (W + s - exp)) // man if W + s >= exp else 0
        shift, a = W - _STEP, 0
        n = (t + (1 << (shift - 1))) >> shift
        if n:
            a = table.get(n)
            if a is None:
                a = table[n] = to_fixed(mpf_atan(from_man_exp(n, -_STEP), W + 8, _RN), W)
            t = ((t - (n << shift)) << W) // ((1 << W) + (n * t >> _STEP))
        u = abs(t)
        u2 = u * u >> (W + 2 * s)
        u4 = u2 * u2 >> W
        s0, s1, v, k = u, u // 3, u * u4 >> W, 5
        while v:
            s0, s1, v, k = s0 + v // k, s1 + v // (k + 2), v * u4 >> W, k + 4
        series = s0 - (s1 * u2 >> W)
        q = (a + (series if t >= 0 else -series)) * inv_pi >> W
        if mag <= 0:
            v, scale = (1 << (W - 1)) + (-q if sign else q), W
        else:
            v, scale = (q, W + s) if sign else ((1 << W) - q, W)
        d, e = v.bit_length() - prec, k + 8  # no midpoint within e of v: v rounds as h does
        if d > 2 and 4 * e < 1 << d and abs((v & ((1 << d) - 1)) - (1 << (d - 1))) > e:
            return from_man_exp(v, -scale, prec, _RN)
        g *= 2


_Chart = namedtuple("_Chart", "split h_inv flat rotate arc approx distance into_chart out_of_chart leave")


@lru_cache(maxsize=16)
def _chart(prec: int) -> _Chart:
    """The guarded arithmetic of the base map and the arc charts at prec bits,
    shared by the compiler, the verification loop and the lifter in
    circlegroup, with its members named as in _Chart.  Lift coordinates
    leave through one exit, leave(r, floors, x, k): a chart point by
    out_of_chart, the state of an orbit draw directly.  A fractional part
    closer than 2^(-prec/2) to an integer raises PrecisionExhausted."""
    pi, headroom = mpf_pi(prec, _RN), mpf_shift(fone, -(prec // 2))
    offset = lru_cache(maxsize=4096)(lambda r, k: mpf_div(from_int(r), from_int(k), prec, _RN))
    pi_k = lru_cache(maxsize=None)(lambda k: mpf_mul_int(pi, k, prec, _RN))  # k takes few values
    linear, cut = mpf_shift(fone, -(prec // 2) - 2), mpf_shift(fone, 40 - prec)

    def guard(frac) -> None:
        eps = _edge(frac, prec)
        if mpf_lt(eps, headroom):
            raise PrecisionExhausted(
                f"breakpoint passage beyond precision headroom (distance {to_str(eps, 5)})"
            )

    def split(x):
        """(floor as an int, fractional part) of x, the part guarded; None for an integer x."""
        i = mpf_floor(x, prec, _RN)
        frac = mpf_sub(x, i, prec, _RN)
        if mpf_eq(frac, fzero):
            return None
        guard(frac)
        return to_int(i), frac

    def h_inv(y):
        if mpf_le(y, fzero) or mpf_ge(y, fone):
            raise EvalError("base map inverse needs an argument strictly inside (0, 1)")
        if mpf_eq(y, fhalf):
            return fzero
        return mpf_tan(mpf_mul(pi, mpf_sub(y, fhalf, prec, _RN), prec, _RN), prec, _RN)

    def flat(x):
        """A wrap point as the raw line point i + h(y), one level at a time
        from the deepest, each int floor converted once; a raw point as it is."""
        if type(x) is not _WrapPoint:
            return x
        return mpf_add(_base_map(flat(x.y), prec), from_int(x.i), prec, _RN)

    def rotate(t, r: int, k: int):
        """t + r/k mod 1, exact on Fractions; r/k is rounded once per (r, k)."""
        if isinstance(t, Fraction):
            return (t + Fraction(r, k)) % 1
        v = mpf_add(t, offset(r, k), prec, _RN)
        return mpf_sub(v, mpf_floor(v, prec, _RN), prec, _RN)

    def arc_floor(t, k: int) -> int:
        """Index j with t in (j/k, (j+1)/k), guarding inexact near-marked points."""
        if isinstance(t, Fraction):
            return int(t * k)  # exact; t is known not to be marked here
        kt = mpf_mul_int(t, k, prec, _RN)
        j = int(to_int(mpf_floor(kt, prec, _RN)))
        guard(mpf_sub(kt, from_int(j), prec, _RN))
        return min(max(j, 0), k - 1)

    def arc(t, k: int):
        """The arc of the circle value t counted from (1/k, 2/k): r with t in
        ((r + 1)/k, (r + 2)/k) mod 1, or None at a marked point j/k."""
        return None if isinstance(t, Fraction) and k % t.denominator == 0 else (arc_floor(t, k) - 1) % k

    def chart_to_line(v, k: int):
        """Lift a point of the first arc (1/k, 2/k) to the line through the chart."""
        y = mpf_sub(mpf_mul_int(_raw(v, prec), k, prec, _RN), fone, prec, _RN)
        if mpf_lt(y, fzero):
            y = mpf_add(y, fone, prec, _RN)  # only for k = 1, where the arc lift lives in (1, 2)
        guard(y)
        return h_inv(y)

    def leave(r: int, floors, x, k: int):
        """The circle value of the chart point at arc r of k whose coordinate is
        x under the int floors, outermost first: x flat, then i + h(y) for each
        floor from the deepest, then (h(y) + 1)/k on the first arc (1/k, 2/k),
        rotated by r/k.  A power-of-two k divides with a shift, which is exact,
        so it gives the bits mpf_div rounds to."""
        x = flat(x)
        for i in reversed(floors):
            x = mpf_add(_base_map(x, prec), from_int(i), prec, _RN)
        v = mpf_add(_base_map(x, prec), fone, prec, _RN)
        v = mpf_shift(v, 1 - k.bit_length()) if k & (k - 1) == 0 else mpf_div(v, from_int(k), prec, _RN)
        v = mpf_sub(v, fone, prec, _RN) if mpf_ge(v, fone) else v  # for k = 1, or k = 2 where h rounds to 1
        return rotate(v, r, k) if r else v

    def into_chart(t, k: int):
        """t as a chart point of the k arcs, or None for a marked point j/k; a
        chart point of these arcs is kept, one of other arcs leaves its chart."""
        if type(t) is _ChartPoint:
            if t.k == k:
                return t
            t = out_of_chart(t)
        if (r := arc(t, k)) is None:
            return None
        return _ChartPoint(r, chart_to_line(rotate(t, -r, k) if r else t, k), k)

    def out_of_chart(t):
        """A chart point as the circle value it stands for, by leave; a circle value as it is."""
        return leave(t.r, (), t.x, t.k) if type(t) is _ChartPoint else t

    def arctan(x):
        """mpf_atan(x, prec), which rounds to x itself where |x| < 2^(-prec/2 - 2):
        there the cubic term of the series lies below a quarter ulp of x."""
        return x if mpf_lt(mpf_abs(x), linear) else mpf_atan(x, prec, _RN)

    def approx(x) -> float:
        """The flat value of a raw point or a wrap point in math floats, inf past their range."""
        if type(x) is not _WrapPoint:
            return to_float(x)
        return to_float(from_int(x.i)) + 0.5 + math.atan(approx(x.y)) / math.pi

    def carried(x, y, k):
        """The distance of two chart points of one arc of k at the wrap points x
        and y, or None.  Their coordinates below the floors they share are
        subtracted once, and the difference D is carried up each shared level
        and out of the chart as D <- atan(D / (1 + z_a z_b)) / pi (pi k at the
        chart), z_a and z_b the flat coordinates of the level left.  The factor
        comes from math floats, to a few 2^-53 relative, so the result is kept
        only below 2^(40 - prec), where 2^-40 relative is below 2^-prec, and only
        where every factor is finite and at least 1, so that none cancels."""
        floors = []  # the shared floors as floats plus 1/2, outermost first
        while type(x) is type(y) is _WrapPoint and x.i == y.i:
            floors.append(to_float(from_int(x.i)) + 0.5)  # inf past the float range
            x, y = x.y, y.y
        if not floors:
            return None
        za, zb, factors = approx(x), approx(y), []  # the factors deepest first, the chart's last
        for i in reversed(floors):
            factors.append(1 + za * zb)
            za, zb = i + math.atan(za) / math.pi, i + math.atan(zb) / math.pi
        factors.append(1 + za * zb)
        if not all(1 <= f < math.inf for f in factors):
            return None
        d = mpf_sub(flat(x), flat(y), prec, _RN)
        for level, f in enumerate(factors):
            scale = pi if level < len(floors) else pi_k(k)
            d = mpf_div(arctan(mpf_div(d, from_float(f), prec, _RN)), scale, prec, _RN)
        d = mpf_abs(d)
        return d if mpf_lt(d, cut) else None

    def distance(a, b):
        """The shorter arc between two circle values as an mpf.  Two chart points
        of one arc whose wrap points share floors are measured by carried; any
        other two, at flat coordinates A and B, lie |atan A - atan B|/(pi k)
        apart: |atan((A - B)/(1 + AB))|, or pi less it past a negative
        denominator, so one atan; at k = 1 the shorter arc is taken.  Any other
        pair leaves the chart first.  Equal values lie 0 apart, with no arithmetic."""
        if a == b:
            return mpmath.mp.make_mpf(fzero)
        if not (type(a) is type(b) is _ChartPoint and a.r == b.r and a.k == b.k):
            return _raw_distance(out_of_chart(a), out_of_chart(b), prec)
        k = a.k
        d = carried(a.x, b.x, k)
        if d is not None:
            return mpmath.mp.make_mpf(d)
        A, B = flat(a.x), flat(b.x)
        den = mpf_add(fone, mpf_mul(A, B), prec, _RN)  # the product exact, rounded once with 1
        if mpf_eq(den, fzero):  # the arc lengths differ by exactly a half arc
            return mpmath.mp.make_mpf(from_rational(1, 2 * k, prec, _RN))
        angle = mpf_abs(arctan(mpf_div(mpf_sub(A, B, prec, _RN), den, prec, _RN)))
        if mpf_lt(den, fzero):
            angle = mpf_sub(pi, angle, prec, _RN)
        d = mpf_div(angle, pi_k(k), prec, _RN)
        return mpmath.mp.make_mpf(_edge(d, prec) if k == 1 else d)

    return _Chart(split, h_inv, flat, rotate, arc, approx, distance, into_chart, out_of_chart, leave)


def _compile(e: HomeoExpr, p: Precision, line: bool):
    """(run, marks): e compiled in one walk into a closure on raw points of the
    line (line=True; mpf tuples) or of the circle, and the k of the breakpoints
    j/k of the compiled domain's nodes: 1 for an HbarWrap or a Staircase on the
    line, k for a CanonicalF or a CircleExtend on the circle, also where a
    shortcut skips compiling the node and inside a zero or over-cap power.  A
    line run takes and returns an mpf tuple or a wrap point (i, y), i an int: a
    level step splits a raw point once into (floor, h^-1(fraction)) or reads
    (i, y), maps y by an HbarWrap's inner map or by a Staircase over an
    HbarWrap's inner^(i m), in turn, and returns one (i, y); chain merges each
    run of level steps that holds an HbarWrap.  Any other Staircase takes its
    step from i, an integer Translate adds to i, and every other node flattens
    the point to i + h(y) first, with _chart's flat.  A circle run takes and
    returns a circle value (a Fraction or an mpf tuple) or a chart point
    (r, x), whose x may be a wrap point: a CircleExtend enters the chart once
    and maps (r, x) to (r, arc(r)(x)); a CanonicalF power e^m maps (r, x) to
    ((r + m) mod k, gtilde^c(x)) with c = (r + m) // k, and enters the chart
    so from a circle value that passes the closing arc.  Callers leave the
    wrap levels with flat, or the chart with out_of_chart, once.  Inside,
    build(e, m, line) compiles e^m.  A staircase, a cycle map or a twisted
    extension compiles the powers of its line map on first use, an untwisted
    extension its line map once.  The chart arithmetic comes from _chart, and
    the Surd constants are bound once per compile.  A node its domain does
    not accept, or a power over the cap, raises when run."""
    prec, marks, domain, chart = p.working_bits, set(), line, _chart(p.working_bits)
    split, h_inv, flat, into_chart = chart.split, chart.h_inv, chart.flat, chart.into_chart

    def level(maps):
        """The level step of maps, each (f, stairs): y -> f(y), or f(i)(y) for a staircase."""

        def leveled(x):
            if type(x) is not _WrapPoint:
                if (parts := split(x)) is None:
                    return x
                x = parts[0], h_inv(parts[1])
            i, y = x
            for f, stairs in maps:
                y = f(i)(y) if stairs else f(y)
            return _WrapPoint(i, y)

        leveled.maps = maps
        return leveled

    def chain(steps):
        """steps in turn, nested chains spliced in, each run of level steps holding an HbarWrap
        as one (staircases alone keep a raw point at floor 0 raw); a single step is itself."""
        out, spliced = [], [s for f in steps for s in getattr(f, "steps", (f,))]
        for _, run in groupby(spliced, lambda s: hasattr(s, "maps")):
            run = list(run)
            maps = tuple(pair for s in run for pair in getattr(s, "maps", ()))
            out += [level(maps)] if len(run) > 1 and not all(stairs for _, stairs in maps) else run
        if len(out) == 1:
            return out[0]

        def chained(x):
            for f in out:
                x = f(x)
            return x

        chained.steps = out
        return chained

    def build(e: HomeoExpr, m: int, line: bool):
        kind = type(e)
        if kind is Identity:
            return lambda x: x
        if kind is Inverse:
            return build(e.inner, -m, line)
        if kind is Power:
            return build(e.inner, m * e.e, line)
        if kind is Compose and (m == 1 or _commuting(e.items)):  # the power distributes
            return chain([build(c, m, line) for c in reversed(e.items)])
        if kind is Compose and m == -1:
            return chain([build(c, -1, line) for c in e.items])
        if m == 0 or abs(m) > 1 and kind in (Compose, Scale, HbarBase, CircleExtend):
            step = build(e, 1 if m > 0 else -1, line)  # repeated |m| times: no closed form, or e^0
            if abs(m) > _POWER_CAP:
                return _fail(PowerCapExceeded, f"power {m} exceeds cap {_POWER_CAP}")
            return chain([step] * abs(m))
        if kind not in (_LINE_NODES if line else _CIRCLE_NODES):
            return _fail(EvalError, f"{kind.__name__} is not a {'line' if line else 'circle'} node")
        if kind is Translate:
            a = _raw(e.a if m == 1 else e.a * m, prec)  # m a exact, rounded once
            if e.a.b == 0 and e.a.c == 1:  # an integer moves a wrap point's floor
                n = e.a.a * m
                return lambda x: (_WrapPoint(x.i + n, x.y) if type(x) is _WrapPoint
                                  else mpf_add(x, a, prec, _RN))
            return lambda x: mpf_add(flat(x), a, prec, _RN)
        if kind is Scale:
            u, op = _raw(e.u, prec), mpf_div if m < 0 else mpf_mul
            return lambda x: op(flat(x), u, prec, _RN)
        if kind is HbarBase:
            base = h_inv if m < 0 else partial(_base_map, prec=prec)
            return lambda x: base(flat(x))
        if line == domain:
            marks.add(1 if line else e.k)
        if kind is HbarWrap:
            return level(((build(e.inner, m, True), False),))
        if kind is Staircase:
            step = lru_cache(maxsize=None)(lambda n: build(e.inner, n * m, True))  # n -> inner^(n m)

            def stairs(x):
                parts = x if type(x) is _WrapPoint else split(x)  # the floor is parts[0] either way
                return x if parts is None else step(parts[0])(x)

            if type(e.inner) is HbarWrap:  # in a level step, y -> inner.inner^(n m)(y) at the floor n
                stairs.maps = ((lru_cache(maxsize=None)(lambda n: build(e.inner.inner, n * m, True)), True),)
            return stairs
        if kind is CanonicalF:
            k, rigid, rotate = e.k, isinstance(e.gtilde, Identity), chart.rotate
            gtilde = lru_cache(maxsize=None)(lambda c: build(e.gtilde, c, True))  # c -> gtilde^c

            def cycle(t):
                if type(t) is not _ChartPoint or t.k != k:
                    t = chart.out_of_chart(t)
                    r = chart.arc(t, k)  # a marked point rotates exactly
                    if r is None or (r + m) // k == 0 or rigid:
                        return rotate(t, m, k)  # t does not pass the closing arc
                    t = into_chart(t, k)
                c, r = divmod(t.r + m, k)  # c signed passes from arc 0 into arc 1
                return _ChartPoint(r, gtilde(c)(t.x), k)

            return cycle
        k = e.k
        if e.twist is None:
            if isinstance(e.inner, Identity):
                return lambda t: t  # the chart copy of the identity on every arc
            inner = build(e.inner, m, True)
            arc = lambda r: inner
        else:  # r -> (inner . twist^(-r))^m, compiled on first use
            arc = lru_cache(maxsize=None)(lambda r: build(Compose.of(e.inner, Power(e.twist, -r)), m, True))

        def extended(t):
            point = into_chart(t, k)
            return t if point is None else _ChartPoint(point.r, arc(point.r)(point.x), k)

        return extended

    return build(e, 1, line), marks


def _check_margin(x, marks, p: Precision, line: bool) -> None:
    """Raise PrecisionExhausted when the inexact raw point x lies closer than
    ``singular_margin`` to a breakpoint j/k for a k in marks, but not on it."""
    prec = p.working_bits
    for k in marks:
        y = mpf_mul_int(x, k, prec, _RN)
        d = _edge(mpf_sub(y, mpf_floor(y, prec, _RN), prec, _RN), prec)
        if mpf_gt(d, fzero) and mpf_lt(d, from_float(k * p.singular_margin)):
            where = "an integer breakpoint" if line else "a marked point"
            raise PrecisionExhausted(f"input closer than the trust margin to {where}")


def _evaluate(e: HomeoExpr, x, exact: bool, p: Precision, line: bool):
    """e at the raw point x of its domain; an inexact x is margin-tested."""
    run, marks = _compile(e, p, line)
    if not exact:
        _check_margin(x, marks, p, line)
    chart = _chart(p.working_bits)
    return chart.flat(run(x)) if line else chart.out_of_chart(run(x))  # out of the wrap levels or the chart


def _raw_distance(a, b, prec: int):
    """The shorter arc between two raw circle values, as an mpf at prec bits (0: exact)."""
    d = mpf_sub(a, b, prec, _RN)
    return mpmath.mp.make_mpf(_edge(mpf_sub(d, mpf_floor(d, prec, _RN), prec, _RN), prec))


def eval_line(e: HomeoExpr, x, p: Precision = DEFAULT_PRECISION):
    """Value of the line homeomorphism at x as an mpmath float.

    Inexact inputs within ``singular_margin`` of a breakpoint (an integer,
    when the tree wraps or staircases anything) raise PrecisionExhausted;
    exact inputs (_entry) take exact fixed-point shortcuts where they apply.
    """
    v = _entry(x, True)  # an inexact x is rounded once, from x itself, to working_bits
    exact = isinstance(v, (Fraction, Surd))
    return mpmath.mp.make_mpf(_evaluate(e, _raw(v if exact else x, p.working_bits), exact, p, True))


def eval_circle(e: HomeoExpr, t, p: Precision = DEFAULT_PRECISION) -> CirclePoint:
    """Image of a circle point; exact Fractions stay exact along rigid paths.

    Marked points j/k (exact Fractions) evaluate exactly through CanonicalF
    and CircleExtend nodes.  An inexact point is rounded to ``working_bits``;
    within ``singular_margin`` of a marked point it raises PrecisionExhausted.
    """
    point = t if isinstance(t, CirclePoint) else CirclePoint(t)
    return _circle_point(_evaluate(e, point._start(p.working_bits), point.is_exact, p, False))


def _circle_point(value) -> CirclePoint:
    """A raw circle value, a Fraction or an mpf tuple, as a CirclePoint."""
    return CirclePoint(value if isinstance(value, Fraction) else mpmath.mp.make_mpf(value))


def _circle_mpf(value, bits: int):
    """A raw circle value in [0, 1], a Fraction or an mpf tuple, as the mpf that
    _circle_point(value).approx(bits) gives, with no CirclePoint: only an mpf
    of exactly 1 needs its fractional part, 0."""
    if isinstance(value, Fraction):
        return mpmath.mp.make_mpf(_raw(value, bits))
    return mpmath.mp.make_mpf(fzero if value == fone else value)


def _largest_gap(points, bits: int):
    """The largest circular gap between neighbours of points, mpfs in [0, 1)
    in their order on the circle, as an mpf: each b - a, and 1 + first - last
    across 0, taken in libmp as workprec(bits) arithmetic on mpfs rounds it."""
    raws = [t._mpf_ for t in points]
    gap = mpf_sub(mpf_add(raws[0], fone, bits, _RN), raws[-1], bits, _RN)
    for a, b in zip(raws, raws[1:]):
        step = mpf_sub(b, a, bits, _RN)
        gap = step if mpf_lt(gap, step) else gap
    return mpmath.mp.make_mpf(gap)


# --------------------------------------------------------------- constructors


def hbar_iter(e: HomeoExpr, m: int) -> HomeoExpr:
    """m-fold wrapping of a line map; m = 0 returns the map unchanged."""
    if m < 0:
        raise ValueError("wrap count must be nonnegative")
    for _ in range(m):
        e = HbarWrap(e)
    return e


def _fixes_integers(e: HomeoExpr) -> bool:
    """Whether e is built to fix every integer and each [i, i+1]: a wrapped
    map, the identity, Translate(0) or Scale(1), or a composition, inverse or
    power of such maps."""
    kind = type(e)
    if kind in (Inverse, Power):
        return _fixes_integers(e.inner)
    if kind is Compose:
        return all(_fixes_integers(c) for c in e.items)
    return kind in (HbarWrap, Identity) or e in (Translate(0), Scale(1))


def staircase(e: HomeoExpr) -> HomeoExpr:
    """Staircase(e), which checks e; anything but an expression raises TypeError."""
    if not isinstance(e, HomeoExpr):
        raise TypeError("staircase expects a HomeoExpr")
    return Staircase(e)


def rotation_number(e: HomeoExpr, t0, iters: int, p: Precision = DEFAULT_PRECISION):
    """Average lift displacement (F^iters(x0) - x0) / iters; error <= 1/iters.

    The lift branch is chosen pointwise in [0, 1); exact orbits yield an
    exact Fraction.  An inexact t0 is rounded once to ``working_bits``, as in
    eval_circle.
    """
    if iters < 1:
        raise ValueError("iters must be positive")
    prec = p.working_bits
    cur = (t0 if isinstance(t0, CirclePoint) else CirclePoint(t0))._start(prec)
    run, out_of_chart = _compile(e, p, False)[0], _chart(prec).out_of_chart
    total = Fraction(0)  # exact while every step is, then a raw sum at prec
    for _ in range(iters):
        nxt = out_of_chart(run(cur))
        if isinstance(nxt, Fraction) and isinstance(cur, Fraction):
            total += (nxt - cur) % 1
        else:
            d = mpf_sub(_raw(nxt, prec), _raw(cur, prec), prec, _RN)
            if isinstance(total, Fraction):  # as mpf arithmetic takes a Fraction operand: rounded down
                total = from_rational(total.numerator, total.denominator, prec)
            total = mpf_add(total, mpf_sub(d, mpf_floor(d, prec, _RN), prec, _RN), prec, _RN)
        cur = nxt
    if isinstance(total, Fraction):
        return total / iters
    return mpmath.mp.make_mpf(mpf_div(total, from_int(iters), prec, _RN))


# -------------------------------------------------------------- serialization


# tag -> node class; at import time the subclasses of HomeoExpr are the nodes
_NODE_TYPES = {cls.__name__: cls for cls in HomeoExpr.__subclasses__()}


def _value_to_json(value):
    if isinstance(value, HomeoExpr):
        return expr_to_json(value)
    if isinstance(value, tuple):
        return [expr_to_json(c) for c in value]
    if isinstance(value, Surd):
        return value.to_json()
    return value


def expr_to_json(e: HomeoExpr):
    """``{"node": tag, field: value, ...}`` in field declaration order; an
    optional field left at None is omitted."""
    if not isinstance(e, HomeoExpr):
        raise TypeError(f"not a HomeoExpr: {e!r}")
    out = {"node": type(e).__name__}
    for f in fields(e):
        value = getattr(e, f.name)
        if value is not None:
            out[f.name] = _value_to_json(value)
    return out


# field annotation -> decoder; `int` fields go through json_int and every
# other field holds one expression
_FIELD_FROM_JSON = {
    "Surd": Surd.from_json,
    "tuple": lambda items: tuple(expr_from_json(c) for c in items),
}


def expr_from_json(obj) -> HomeoExpr:
    tag = json_object(obj, "expression", obj).get("node")  # its fields depend on the tag
    cls = _NODE_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ValueError(f"unknown expression node {tag!r}")
    node_fields = fields(cls)
    json_object(obj, tag, {"node", *(f.name for f in node_fields)})
    args = {}
    for f in node_fields:
        value = obj.get(f.name)
        if value is None:
            if f.default is MISSING:
                raise ValueError(f"{tag} needs the field {f.name!r}")
            continue
        decode = _FIELD_FROM_JSON.get(f.type, expr_from_json)
        args[f.name] = json_int(value, f.name) if f.type == "int" else decode(value)
    return cls(**args)

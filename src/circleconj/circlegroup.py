"""Circle actions built over the line groups.

A circle descriptor extends a line descriptor by a cycle length ``k`` and an
integer vector ``g`` of length ``n``.  The generated group is the bar
extension of the line group (acting on the fundamental arc charts) together
with one cycle map permuting the ``k`` arcs; the k-th power of the cycle map
is the bar extension of ``g``.  Torsion-freeness requires the coordinate
content of ``g`` to be coprime to ``k``, which is exactly what validate_g
checks.

Every group element has the normal form ``(j, h)``: cycle-map power ``j`` in
[0, k) followed by the bar extension of ``h``.  Composition and powers fold
overflowing cycle powers into ``g``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import index

import mpmath
from mpmath.libmp import from_int, mpf_add

from .homeo import (
    CanonicalF,
    CirclePoint,
    CircleExtend,
    Compose,
    DEFAULT_PRECISION,
    EvalError,
    HomeoExpr,
    Identity,
    Power,
    Precision,
    _RN,
    _ChartPoint,
    _WrapPoint,
    _chart,
    _check_margin,
    _circle_mpf,
    _fail,
    _index_at_least,
    _largest_gap,
    marked_point,
)
from .exactnum import json_int, json_ints, json_object, surd_mpf
from .lineargroup import LineGroupDescriptor, _quadratic, alpha_from_json, element_to_expr


def content(g) -> int:
    """gcd of the integer coordinates, which math.gcd takes by operator.index (0 for the zero vector)."""
    return math.gcd(*g)


def validate_g(g, k: int):
    """(ok, reason): whether the vector g gives a torsion-free extension.

    The group is torsion-free exactly when gcd(content(g), k) == 1; in
    particular the zero vector is rejected for every k > 1; a k below 1 raises ValueError.
    """
    c = content(g)
    d = math.gcd(c, _index_at_least(k, 1, "k must be a positive integer", TypeError))
    if d != 1:
        return False, (
            f"coordinate content {c} shares the factor {d} with the cycle length {k}; "
            "the extension would have torsion"
        )
    return True, None


@dataclass(frozen=True)
class CircleGroupDescriptor:
    """Base point, rank, cycle length and twist vector of one circle group."""

    alpha: object
    n: int
    k: int
    g: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", LineGroupDescriptor(self.alpha, self.n).n)  # which checks alpha and n
        object.__setattr__(self, "k", _index_at_least(self.k, 1, "cycle length k must be an integer >= 1"))
        g = tuple(map(index, self.g))
        if len(g) != self.n:
            raise ValueError(f"expected {self.n} twist coordinates, got {len(g)}")
        ok, reason = validate_g(g, self.k)
        if not ok:
            raise ValueError(reason)
        object.__setattr__(self, "g", g)

    def line(self) -> LineGroupDescriptor:
        return LineGroupDescriptor(self.alpha, self.n)

    def to_json(self) -> dict:
        return {"alpha": self.alpha.to_json(), "n": self.n, "k": self.k, "g": list(self.g)}

    @classmethod
    def from_json(cls, obj) -> "CircleGroupDescriptor":
        obj = json_object(obj, "descriptor", ("alpha", "n", "k", "g"))
        return cls(
            alpha_from_json(obj["alpha"]),
            json_int(obj["n"], "n"),
            json_int(obj["k"], "k"),
            json_ints(obj["g"], "g"),
        )


@lru_cache(maxsize=256)
def canonical_f(d: CircleGroupDescriptor) -> CanonicalF:
    """The cycle map: advances each marked point and carries arc 1 around so
    that its k-th power restricts to the chart copy of the g element."""
    return CanonicalF(d.k, element_to_expr(d.line(), d.g))


def bar_extend(d: CircleGroupDescriptor, v) -> HomeoExpr:
    """The circle extension of the line element with coordinates v; fixes
    every marked point and acts within the arcs."""
    inner = element_to_expr(d.line(), v)  # which checks the coordinates
    return Identity() if inner == Identity() else CircleExtend(inner, d.k)


@dataclass(frozen=True)
class CircleElement:
    """Normal form (j, h): cycle-map power j followed by a bar extension."""

    j: int
    h: tuple

    def __post_init__(self) -> None:
        j = _index_at_least(self.j, 0, "cycle power j must be a non-negative integer")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "h", tuple(map(index, self.h)))

    def to_json(self) -> dict:
        return {"j": self.j, "h": list(self.h)}

    @classmethod
    def from_json(cls, obj) -> "CircleElement":
        obj = json_object(obj, "element", ("j", "h"))
        return cls(json_int(obj["j"], "j"), json_ints(obj["h"], "h"))


def _check_element(d: CircleGroupDescriptor, e: CircleElement) -> None:
    if len(e.h) != d.n:
        raise ValueError(f"expected {d.n} coordinates, got {len(e.h)}")
    if e.j >= d.k:
        raise ValueError(f"cycle power {e.j} out of range for cycle length {d.k}")


def identity_element(d: CircleGroupDescriptor) -> CircleElement:
    return CircleElement(0, (0,) * d.n)


def compose_elements(
    d: CircleGroupDescriptor, e1: CircleElement, e2: CircleElement
) -> CircleElement:
    """Normal form of e1 o e2; overflowing cycle powers fold into g."""
    _check_element(d, e1)
    _check_element(d, e2)
    j = e1.j + e2.j
    carry = j // d.k
    h = tuple(a + b + carry * c for a, b, c in zip(e1.h, e2.h, d.g))
    return CircleElement(j % d.k, h)


def power_element(d: CircleGroupDescriptor, e: CircleElement, m: int) -> CircleElement:
    """Normal form of the m-th power (m may be negative)."""
    _check_element(d, e)
    jm = e.j * m
    carry = jm // d.k
    h = tuple(m * a + carry * c for a, c in zip(e.h, d.g))
    return CircleElement(jm % d.k, h)


def element_expr(d: CircleGroupDescriptor, e: CircleElement) -> HomeoExpr:
    """Evaluatable expression for the normal form (j, h)."""
    _check_element(d, e)
    parts = []
    if e.j:
        f = canonical_f(d)
        parts.append(f if e.j == 1 else Power(f, e.j))
    if any(e.h):
        parts.append(bar_extend(d, e.h))
    return Compose.of(*parts)


def finite_orbit(d: CircleGroupDescriptor) -> list:
    """The marked points j/k — the unique finite orbit (a single fixed point
    when k == 1)."""
    return [marked_point(j, d.k) for j in range(d.k)]


# -- orbit sampling -----------------------------------------------------------------

#: scales for the alpha-coefficient of drawn elements; larger rungs refine the
#: fractional spacing of the reachable translation lengths
SCALE_LADDER = (1, 16, 256, 4096)
#: the cumulative weights of the rungs, rung i of weight 2^i
_LADDER_WEIGHTS = tuple(accumulate(2**i for i in range(len(SCALE_LADDER))))


def _draw_coords(d: CircleGroupDescriptor, rng: random.Random, alpha_f: float, u, aim: float):
    """Integer coordinates aimed so image points spread evenly over the arcs.

    The base chart maps uniform arc measure to a Cauchy-like law on the line,
    so uniform coordinate boxes would pile almost every image into the thin
    collars around the marked points.  Instead each translation length is
    aimed at the chart pullback of the variate ``u`` (recentred by ``aim``,
    which compensates the drift the arc-advance steps add): the alpha
    coefficient supplies fine fractional spacing and the integer coefficient
    cancels it back into the target window, while the deeper (cell-shift)
    coordinates use rounded Cauchy draws whose tails match the shrinking
    cell widths.
    """
    target = math.tan(math.pi * (u - 0.5)) - aim
    # fine rungs dominate: a coarse alpha-lattice would displace its aimed
    # target by up to half a cell and punch holes in the coverage; the rung
    # comes from one random() by its cumulative weight, as random.choices draws it
    scale = SCALE_LADDER[bisect(_LADDER_WEIGHTS, rng.random() * _LADDER_WEIGHTS[-1])]
    c1 = rng.randint(-scale, scale)
    if d.n == 2:
        return (int(round(target - c1 * alpha_f)), c1)
    # the outermost coordinate owns the aimed window; the top pair and any
    # middle levels only move within their cells, so fresh draws suffice
    inner = math.tan(math.pi * (rng.random() - 0.5))
    c0 = int(round(inner - c1 * alpha_f))
    middle = tuple(
        int(round(math.tan(math.pi * (rng.random() - 0.5)))) for _ in range(d.n - 3)
    )
    return (c0, c1) + middle + (int(round(target)),)


def _float_lift(s: float, levels: int):
    """(floors, y): the place s in (0, 1) of an arc lifted in math floats, its
    chart coordinate x = tan(pi (s - 1/2)) split at up to ``levels`` wrap
    levels into an int floor and the next x = tan(pi (x - floor - 1/2)), and
    y the last x; an integer x, which deeper levels fix, is not split."""
    x, floors = math.tan(math.pi * (s - 0.5)), []
    while len(floors) < levels and (i := math.floor(x)) != x:
        floors.append(i)
        x = math.tan(math.pi * (x - i - 0.5))
    return floors, x


def _chart_point(r: int, floors, x, k: int) -> _ChartPoint:
    """The chart point of the arc r of k whose coordinate is x under the floors, outermost first."""
    for i in reversed(floors):
        x = _WrapPoint(i, x)
    return _ChartPoint(r, x, k)


def _lift(d: CircleGroupDescriptor, p: Precision, leave: bool = False):
    """The lifter of d at p.  lift(t), for a raw circle value t (a Fraction or
    an mpf tuple) or a chart point, lifts t once under the compiler's guards:
    its arc and chart coordinate x, and at each of the n - 2 wrap levels the
    int floor of x and the next x, read off a wrap point with no tan or split
    off a raw x as h^-1(x - floor), down to the deepest level or to an
    integer x, which every deeper coordinate fixes.  It returns t's chart
    point, each level above another as its wrap point (t itself off the
    charts), and image(j, h): t's image under (j, h) by the group law on the
    lift, compiling nothing.  h moves each floor by its coordinate and adds
    c0 + c1 alpha at the deepest level, or its integer coordinate at an
    integer x, as a compiled Translate does; then f^j takes the arc r to
    (r + j) mod k, and its c = (r + j) // k passes through the closing arc
    move the lift by c g, as a step of its own.  That gives the moved state
    (arc, floors, x) once, which image hands to a chart point, or with leave
    straight to the chart's one exit (_chart's leave), as the circle value
    the chart point stands for, with no chart point built.  A raw t that f^j
    alone rotates rigidly stays raw, and exact on a Fraction.  Guard and
    margin hits raise as in eval_circle(element_expr(d, (j, h)), t, p) for
    the elements reaching the level hit; a chart point is not margin-tested.
    Each c0 + c1 alpha = (c0 c + c1 a + c1 b sqrt(d))/c, alpha = (a + b sqrt(d))/c,
    is rounded once per lifter from those integers by exactnum.surd_mpf, the
    rule of a Translate constant, into the lifter's own memo, so the draws of
    an orbit do not churn the evaluator's cache."""
    prec, k, n, al = p.working_bits, d.k, d.n, d.alpha
    chart = _chart(prec)
    flat, out = chart.flat, (chart.leave if leave else _chart_point)
    shift = lru_cache(None)(lambda c0, c1: surd_mpf(c0 * al.c + c1 * al.a, c1 * al.b, al.c, al.d, prec))

    def lift(t):
        margin = blocked = None  # raisers: for every element but the identity; below the last level
        r = point = None  # t's arc counted from arc 1 (None for a marked point), and its chart point
        floors = []  # the floors read or split off, outermost first
        if type(t) is tuple:  # an inexact circle value
            try:
                _check_margin(t, (k,), p, False)
            except EvalError as exc:
                margin = _fail(type(exc), str(exc))
        try:
            if type(t) is not _ChartPoint:
                r = chart.arc(t, k)
            point = chart.into_chart(t, k)
            if point is not None:
                r, x = point.r, point.x  # each level read off a wrap point, or split off a raw x with a tan
                while len(floors) < n - 2 and (parts := x if type(x) is _WrapPoint else chart.split(x)):
                    x = parts[1] if type(x) is _WrapPoint else chart.h_inv(parts[1])
                    floors.append(parts[0])
        except EvalError as exc:
            blocked = _fail(type(exc), str(exc))
        if floors:
            point = _chart_point(r, floors, x, k)

        def move(floors, x, coords):
            """(floors, x) moved by the line element coords, level i < n - 2 by coords[n - 1 - i]."""
            level = len(floors)  # x's level: n - 2, or above it at an integer x or a blocked split
            if level < n - 2 and blocked and any(coords[:n - 1 - level]):
                blocked(t)
            if level == n - 2 and (coords[0] or coords[1]):
                x = mpf_add(flat(x), shift(coords[0], coords[1]), prec, _RN)
            elif level < n - 2 and coords[n - 1 - level]:  # at an integer x
                x = mpf_add(x, from_int(coords[n - 1 - level]), prec, _RN)
            return [i + v for i, v in zip(floors, reversed(coords))], x

        def image(j: int, coords):
            moved = any(coords)
            if margin and (j or moved):
                margin(t)
            c, arc = (j, 0) if r is None else divmod(r + j, k)  # c passes; with no arc, any j != 0 counts
            if point is None or not (moved or c or type(t) is _ChartPoint):  # off the charts, or f^j rigid
                if blocked and (moved or c):
                    blocked(t)
                return chart.rotate(t, j, k) if j else t
            state = move(floors, x, coords)
            return out(arc, *(move(*state, [c * v for v in d.g]) if c else state), k)

        return (t if point is None else point), image

    return lift


@dataclass(frozen=True)
class OrbitSample:
    points: tuple
    max_gap: object
    skipped: int


def orbit_sample(
    d: CircleGroupDescriptor,
    t0: CirclePoint,
    count: int,
    seed: int = 0,
    p: Precision = DEFAULT_PRECISION,
) -> OrbitSample:
    """Apply ``count`` random small-coordinate elements to t0.

    Returns the sorted image points (t0 included), the largest circular gap
    between consecutive images, and the number of draws skipped because the
    evaluation hit a guard.  The draws are evaluated on one lift of t0, its
    chart coordinates at every wrap level, by one lifter per sample (_lift),
    and each image leaves the chart once, through the chart's one exit with
    no chart point built.  They are aimed from the same lift: t0's arc and
    its outer line coordinate.  The largest gap is taken in libmp
    (homeo._largest_gap).  A declared non-quadratic base point is refused
    with TypeError: its elements have no exact translation lengths.
    """
    alpha_f = float(_quadratic(d))
    t0 = t0 if isinstance(t0, CirclePoint) else CirclePoint(t0)
    prec = p.working_bits
    rng = random.Random(seed)
    drift = d.g[0] + d.g[1] * alpha_f if d.n == 2 else float(d.g[-1])
    chart = _chart(prec)
    point, image = _lift(d, p, leave=True)(t0._start(prec))
    # the aimed windows are centred on t0's outer line coordinate, or on the arc's centre 0
    # where t0 has no chart point (marked, or too close to a marked point) or it has no float
    r0, base = (point.r, chart.approx(point.x)) if type(point) is _ChartPoint else (None, 0.0)
    base = base if math.isfinite(base) else 0.0
    # the aim of f^j: where it passes the closing arc, g acts once, as in the lifter
    aims = [base + (drift if r0 is not None and r0 + j >= d.k else 0.0) for j in range(d.k)]
    values = [t0.approx(prec)]
    skipped = 0
    strata = max(1, -(-count // d.k))  # complete stratified sweep per arc
    for i in range(count):
        j, stratum = i % d.k, i // d.k
        h = _draw_coords(d, rng, alpha_f, (stratum + rng.random()) / strata, aims[j])
        try:
            values.append(_circle_mpf(image(j, h), prec))
        except EvalError:
            skipped += 1
    low = min(v.exp for v in values)
    values.sort(key=lambda v: v.man << (v.exp - low))  # the exact order of points in [0, 1)
    return OrbitSample(tuple(values), _largest_gap(values, prec), skipped)


def orbit_to_csv(sample: OrbitSample) -> str:
    lines = ["index,t"]
    for i, t in enumerate(sample.points):
        lines.append(f"{i},{mpmath.nstr(t, 20)}")
    return "\n".join(lines) + "\n"


def orbit_svg(sample: OrbitSample, k: int) -> str:
    """Standalone SVG: orbit points on the circle, marked points highlighted."""
    size = 420  # the image's width and height
    c = size / 2.0
    r = size * 0.42
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<circle cx="{c}" cy="{c}" r="{r}" fill="none" stroke="#999" stroke-width="1"/>',
    ]
    for t in sample.points:
        ang = 2 * math.pi * float(t)
        x = c + r * math.cos(ang)
        y = c - r * math.sin(ang)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="#1f77b4"/>')
    for j in range(k):
        ang = 2 * math.pi * j / k
        x = c + r * math.cos(ang)
        y = c - r * math.sin(ang)
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5" fill="none" stroke="#d62728" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

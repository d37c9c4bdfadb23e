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
from dataclasses import dataclass

import mpmath

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
    eval_circle,
    marked_point,
)
from .exactnum import Surd, json_int
from .lineargroup import LineGroupDescriptor, alpha_from_json, element_to_expr


def content(g) -> int:
    """gcd of the coordinates (0 for the zero vector)."""
    return math.gcd(*(int(v) for v in g)) if g else 0


def validate_g(g, k: int):
    """(ok, reason): whether the vector g gives a torsion-free extension.

    The group is torsion-free exactly when gcd(content(g), k) == 1; in
    particular the zero vector is rejected for every k > 1.
    """
    c = content(g)
    d = math.gcd(c, int(k))
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
        LineGroupDescriptor(self.alpha, self.n)  # validates alpha and n
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("cycle length k must be an integer >= 1")
        g = tuple(int(v) for v in self.g)
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
    def from_json(cls, obj: dict) -> "CircleGroupDescriptor":
        extra = set(obj) - {"alpha", "n", "k", "g"}
        if extra:
            raise ValueError(f"unknown descriptor fields: {sorted(extra)}")
        return cls(
            alpha_from_json(obj["alpha"]),
            json_int(obj["n"], "n"),
            json_int(obj["k"], "k"),
            tuple(json_int(v, "g entry") for v in obj["g"]),
        )


def canonical_f(d: CircleGroupDescriptor) -> CanonicalF:
    """The cycle map: advances each marked point and carries arc 1 around so
    that its k-th power restricts to the chart copy of the g element."""
    return CanonicalF(d.k, element_to_expr(d.line(), d.g))


def bar_extend(d: CircleGroupDescriptor, v) -> HomeoExpr:
    """The circle extension of the line element with coordinates v; fixes
    every marked point and acts within the arcs."""
    v = tuple(int(x) for x in v)
    if len(v) != d.n:
        raise ValueError(f"expected {d.n} coordinates, got {len(v)}")
    inner = element_to_expr(d.line(), v)
    if inner == Identity():
        return Identity()
    return CircleExtend(inner, d.k, canonical_f(d))


@dataclass(frozen=True)
class CircleElement:
    """Normal form (j, h): cycle-map power j followed by a bar extension."""

    j: int
    h: tuple

    def __post_init__(self) -> None:
        h = tuple(int(x) for x in self.h)
        if not isinstance(self.j, int) or self.j < 0:
            raise ValueError("cycle power j must be a non-negative integer")
        object.__setattr__(self, "h", h)

    def to_json(self) -> dict:
        return {"j": self.j, "h": list(self.h)}

    @classmethod
    def from_json(cls, obj: dict) -> "CircleElement":
        extra = set(obj) - {"j", "h"}
        if extra:
            raise ValueError(f"unknown element fields: {sorted(extra)}")
        return cls(json_int(obj["j"], "j"), tuple(json_int(x, "h entry") for x in obj["h"]))


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
    if not parts:
        return Identity()
    if len(parts) == 1:
        return parts[0]
    return Compose(tuple(parts))


def finite_orbit(d: CircleGroupDescriptor) -> list:
    """The marked points j/k — the unique finite orbit (a single fixed point
    when k == 1)."""
    return [marked_point(j, d.k) for j in range(d.k)]


# -- orbit sampling -----------------------------------------------------------------

#: scales for the alpha-coefficient of drawn elements; larger rungs refine the
#: fractional spacing of the reachable translation lengths
SCALE_LADDER = (1, 16, 256, 4096)


def _draw_coords(
    d: CircleGroupDescriptor, rng: random.Random, ladder, alpha_f: float, u, aim: float
):
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
    # target by up to half a cell and punch holes in the coverage
    scale = rng.choices(ladder, weights=[2**i for i in range(len(ladder))])[0]
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
    ladder=SCALE_LADDER,
) -> OrbitSample:
    """Apply ``count`` random small-coordinate elements to t0.

    Returns the sorted image points (t0 included), the largest circular gap
    between consecutive images, and the number of draws skipped because the
    evaluation hit a guard.
    """
    if not isinstance(t0, CirclePoint):
        t0 = CirclePoint(t0)
    rng = random.Random(seed)
    alpha_f = float(d.alpha.value(53)) if isinstance(d.alpha, Surd) else 0.0
    drift = d.g[0] + d.g[1] * alpha_f if d.n == 2 else float(d.g[-1])
    t0f = float(t0.approx(53)) * d.k
    arc0 = min(int(t0f), d.k - 1)
    # line coordinate of t0 inside its arc; aimed windows are centred on it
    base = math.tan(math.pi * (min(max(t0f - arc0, 1e-9), 1 - 1e-9) - 0.5))
    values = [t0.approx(p.working_bits)]
    skipped = 0
    strata = max(1, -(-count // d.k))  # complete stratified sweep per arc
    for i in range(count):
        j = i % d.k
        # the cycle map is a rigid rotation except when a step leaves the arc
        # below the base marked point, where the torsion element acts once
        crossed = (arc0 == 0 and j >= 1) or (arc0 >= 1 and arc0 + j >= d.k + 1)
        u = (i // d.k + rng.random()) / strata
        h = _draw_coords(d, rng, ladder, alpha_f, u, base + (drift if crossed else 0.0))
        expr = element_expr(d, CircleElement(j, h))
        try:
            image = eval_circle(expr, t0, p)
        except EvalError:
            skipped += 1
            continue
        values.append(image.approx(p.working_bits))
    with mpmath.mp.workprec(p.working_bits):
        values.sort()
        gaps = [b - a for a, b in zip(values, values[1:])]
        gaps.append(values[0] + 1 - values[-1])
        max_gap = max(gaps)
    return OrbitSample(tuple(values), max_gap, skipped)


def orbit_to_csv(sample: OrbitSample) -> str:
    lines = ["index,t"]
    for i, t in enumerate(sample.points):
        lines.append(f"{i},{mpmath.nstr(t, 20)}")
    return "\n".join(lines) + "\n"


def orbit_svg(sample: OrbitSample, k: int, size: int = 420) -> str:
    """Standalone SVG: orbit points on the circle, marked points highlighted."""
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

"""Expression trees for line and circle homeomorphisms, with evaluation.

Expressions are immutable trees of small node dataclasses.  Evaluation is
pure, runs under an mpmath working precision taken from a Precision record,
and follows a documented error model:

* results are trusted only at distance >= ``singular_margin`` (delta) from the
  breakpoints of the map (the integers for wrapped line maps, the marked
  points j/k for circle maps); the top-level entry points reject inexact
  inputs inside that margin;
* interior stages of a nested evaluation guard themselves against genuine
  precision exhaustion at the much smaller threshold 2^(-working_bits/2),
  where the tan/arctan round trip really does run out of headroom;
* powers are evaluated by repeated composition and capped by ``power_cap``.

Exact inputs (ints, Fractions, Surds) bypass the trust margin: integer inputs
to wrapped maps and marked circle points evaluate exactly, which the
invariance tests rely on.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from functools import lru_cache

import mpmath

from .exactnum import Surd, json_int


class EvalError(Exception):
    """Evaluation failed structurally (bad domain, wrong node kind)."""


class PrecisionExhausted(EvalError):
    """The requested point is too close to a breakpoint for the precision."""


class PowerCapExceeded(EvalError):
    """A repeated-composition power exceeded the configured cap."""


@dataclass(frozen=True)
class Precision:
    working_bits: int = 256
    singular_margin: float = 1e-4
    power_cap: int = 64

    def __post_init__(self) -> None:
        if self.working_bits < 64:
            raise ValueError("working_bits must be at least 64")
        if self.singular_margin <= 0:
            raise ValueError("singular_margin must be positive")
        if self.power_cap < 1:
            raise ValueError("power_cap must be positive")


DEFAULT_PRECISION = Precision()


# --------------------------------------------------------------------- nodes


class HomeoExpr:
    """Base class for expression nodes; subclasses are frozen dataclasses."""

    def to_json(self):
        return expr_to_json(self)


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
    """x in [i, i+1) -> inner^i(x), for inner fixing Z and each [i, i+1]."""

    inner: HomeoExpr


@dataclass(frozen=True)
class Compose(HomeoExpr):
    items: tuple

    def __post_init__(self) -> None:
        items = tuple(self.items)
        if not all(isinstance(e, HomeoExpr) for e in items):
            raise TypeError("Compose expects HomeoExpr items")
        object.__setattr__(self, "items", items)


@dataclass(frozen=True)
class Inverse(HomeoExpr):
    inner: HomeoExpr


@dataclass(frozen=True)
class Power(HomeoExpr):
    inner: HomeoExpr
    e: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", int(self.e))


@dataclass(frozen=True)
class CanonicalF(HomeoExpr):
    """The canonical k-cycle circle map: rigid rotation by 1/k on the arcs
    (j/k, (j+1)/k) for j = 1..k-1, and the chart-conjugated copy of the line
    map ``gtilde`` on the closing arc, so that the k-th power restricted to
    the first arc is exactly the chart copy of ``gtilde``."""

    k: int
    gtilde: HomeoExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", int(self.k))
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not isinstance(self.gtilde, HomeoExpr):
            raise TypeError("gtilde must be a line HomeoExpr")


@dataclass(frozen=True)
class CircleExtend(HomeoExpr):
    """Arc-wise extension of a line map to the circle, fixing the marked
    points j/k.  On the arc with index i the value is
    fspec^(i-1) . chart(inner) . fsrc^(-(i-1)); with fsrc omitted this is the
    standard extension with fspec on both sides."""

    inner: HomeoExpr
    k: int
    fspec: CanonicalF
    fsrc: HomeoExpr = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", int(self.k))
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not isinstance(self.fspec, CanonicalF):
            raise TypeError("fspec must be a CanonicalF node")
        if self.fspec.k != self.k:
            raise ValueError("fspec cycle length must match k")
        if self.fsrc is not None and not isinstance(self.fsrc, HomeoExpr):
            raise TypeError("fsrc must be a HomeoExpr or None")


# ------------------------------------------------------------- circle points


@dataclass(frozen=True)
class CirclePoint:
    """A point of the circle as a lift t in [0, 1); exact when t is a
    Fraction, approximate when it is a binary float."""

    t: object

    def __post_init__(self) -> None:
        t = self.t
        if isinstance(t, int):
            t = Fraction(0)
        if isinstance(t, Fraction):
            t = t % 1
        else:
            t = mpmath.mpf(t)
            t = t - mpmath.floor(t)
        object.__setattr__(self, "t", t)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.t, Fraction)

    def approx(self, bits: int = 64):
        if self.is_exact:
            with mpmath.mp.workprec(bits):
                return mpmath.mpf(self.t.numerator) / self.t.denominator
        return self.t


def marked_point(j: int, k: int) -> CirclePoint:
    return CirclePoint(Fraction(j % k, k))


def circle_distance(a, b):
    """Shorter arc length between two circle points (exact on Fractions)."""
    ta = a.t if isinstance(a, CirclePoint) else a
    tb = b.t if isinstance(b, CirclePoint) else b
    if isinstance(ta, Fraction) and isinstance(tb, Fraction):
        d = (ta - tb) % 1
        return min(d, 1 - d)
    ta = ta if isinstance(ta, mpmath.mpf) else mpmath.mpf(float(ta))
    tb = tb if isinstance(tb, mpmath.mpf) else mpmath.mpf(float(tb))
    d = ta - tb
    d = d - mpmath.floor(d)
    return min(d, 1 - d)


# ----------------------------------------------------------------- utilities


@lru_cache(maxsize=4096)
def _surd_mpf_cached(s: Surd, bits: int):
    return s.value(bits)


def _to_mpf(x, p: Precision):
    if isinstance(x, Surd):
        return _surd_mpf_cached(x, p.working_bits)
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _h(x):
    return mpmath.mpf(1) / 2 + mpmath.atan(x) / mpmath.pi


def _h_inv(y):
    if y <= 0 or y >= 1:
        raise EvalError("base map inverse needs an argument strictly inside (0, 1)")
    if y == mpmath.mpf(1) / 2:
        return mpmath.mpf(0)
    return mpmath.tan(mpmath.pi * (y - mpmath.mpf(1) / 2))


def _interior_guard(frac, p: Precision) -> None:
    eps = min(frac, 1 - frac)
    if eps < mpmath.mpf(2) ** -(p.working_bits // 2):
        raise PrecisionExhausted(
            "breakpoint passage beyond precision headroom "
            f"(distance {mpmath.nstr(mpmath.mpf(eps), 5)})"
        )


def _nodes(e: HomeoExpr) -> list:
    """Every node of the tree under e (e included): the children of a node
    are its HomeoExpr field values and the items of a Compose."""
    out = [e]
    for node in out:
        for value in vars(node).values():
            if isinstance(value, HomeoExpr):
                out.append(value)
            elif type(value) is tuple:
                out.extend(value)
    return out


# ------------------------------------------------------------------ evaluator
#
# One core walks the tree for both domains.  Identity, Compose, Inverse and
# Power act the same on the line and on the circle; every other node belongs
# to one domain and is looked up in that domain's table.  Each evaluator takes
# (node, point, precision, inverse?, table) and recurses through ``_eval``
# with the table of the domain its child lives in.


def _eval(e: HomeoExpr, x, p: Precision, inv: bool, table: dict):
    step = table.get(type(e))
    if step is None:
        domain = "line" if table is _LINE else "circle"
        raise EvalError(f"{type(e).__name__} is not a {domain} node")
    return step(e, x, p, inv, table)


def _repeat(inner: HomeoExpr, x, n: int, p: Precision, inv: bool, table: dict, what: str):
    """inner^n at x by repeated composition, capped by ``power_cap``."""
    if abs(n) > p.power_cap:
        raise PowerCapExceeded(f"{what} {n} exceeds cap {p.power_cap}")
    inner_inv = inv if n >= 0 else not inv
    for _ in range(abs(n)):
        x = _eval(inner, x, p, inner_inv, table)
    return x


def _eval_compose(e: Compose, x, p: Precision, inv: bool, table: dict):
    for item in e.items if inv else reversed(e.items):
        x = _eval(item, x, p, inv, table)
    return x


_SHARED = {
    Identity: lambda e, x, p, inv, table: x,
    Compose: _eval_compose,
    Inverse: lambda e, x, p, inv, table: _eval(e.inner, x, p, not inv, table),
    Power: lambda e, x, p, inv, table: _repeat(e.inner, x, e.e, p, inv, table, "power"),
}


# ------------------------------------------------------------ line evaluator


def _eval_hbar_wrap(e: HbarWrap, x, p: Precision, inv: bool, table: dict):
    i = mpmath.floor(x)
    frac = x - i
    if frac == 0:
        return x
    _interior_guard(frac, p)
    w = _eval(e.inner, _h_inv(frac), p, inv, table)
    return _h(w) + i


def _eval_staircase(e: Staircase, x, p: Precision, inv: bool, table: dict):
    ifl = mpmath.floor(x)
    frac = x - ifl
    if frac == 0:
        return x
    _interior_guard(frac, p)
    return _repeat(e.inner, x, int(ifl), p, inv, table, "staircase exponent")


def _eval_translate(e: Translate, x, p: Precision, inv: bool, table: dict):
    a = _surd_mpf_cached(e.a, p.working_bits)
    return x - a if inv else x + a


def _eval_scale(e: Scale, x, p: Precision, inv: bool, table: dict):
    u = _surd_mpf_cached(e.u, p.working_bits)
    return x / u if inv else x * u


_LINE = {
    **_SHARED,
    Translate: _eval_translate,
    Scale: _eval_scale,
    HbarBase: lambda e, x, p, inv, table: _h_inv(x) if inv else _h(x),
    HbarWrap: _eval_hbar_wrap,
    Staircase: _eval_staircase,
}


def eval_line(e: HomeoExpr, x, p: Precision = DEFAULT_PRECISION):
    """Value of the line homeomorphism at x as an mpmath float.

    Inexact inputs within ``singular_margin`` of a breakpoint (an integer,
    when the tree wraps or staircases anything) raise PrecisionExhausted;
    exact inputs take exact fixed-point shortcuts where they apply.
    """
    with mpmath.mp.workprec(p.working_bits):
        xm = _to_mpf(x, p)
        if not isinstance(x, (int, Fraction, Surd)) and any(
            isinstance(node, (HbarWrap, Staircase)) for node in _nodes(e)
        ):
            frac = xm - mpmath.floor(xm)
            if 0 < min(frac, 1 - frac) < p.singular_margin:
                raise PrecisionExhausted(
                    "input closer than the trust margin to an integer breakpoint"
                )
        return _eval(e, xm, p, False, _LINE)


# ---------------------------------------------------------- circle evaluator


def _marked_index(t, k: int):
    if isinstance(t, Fraction) and k % t.denominator == 0:
        return int(t * k)
    return None


def _arc_floor(t, k: int, p: Precision) -> int:
    """Index j with t in (j/k, (j+1)/k), guarding inexact near-marked points."""
    if isinstance(t, Fraction):
        return int(t * k)  # exact; t is known not to be marked here
    kt = k * t
    j = int(mpmath.floor(kt))
    _interior_guard(kt - j, p)
    return min(max(j, 0), k - 1)


def _rot(t, q: Fraction):
    if isinstance(t, Fraction):
        return (t + q) % 1
    v = t + mpmath.mpf(q.numerator) / q.denominator
    return v - mpmath.floor(v)


def _chart_to_line(v, k: int, p: Precision):
    """Lift a point of the first arc (1/k, 2/k) to the line through the chart."""
    vm = _to_mpf(v, p)
    y = k * vm - 1
    if y < 0:
        y += 1  # only for k = 1, where the arc lift lives in (1, 2)
    _interior_guard(y, p)
    return _h_inv(y)


def _chart_from_line(w, k: int):
    v = (1 + _h(w)) / k
    if v >= 1:
        v -= 1  # only for k = 1
    return v


def _f_steps(fnode: HomeoExpr, v, r: int, inverse: bool, p: Precision):
    """Apply r conjugation steps of a cycle map, staying on the rigid path.

    A plain CanonicalF moves points between consecutive arcs rigidly along
    the paths used here (arc 1 up to arc i forward, arc i down to arc 1
    backward), so it reduces to an exact rotation; anything else is iterated
    through the circle evaluator.
    """
    if r == 0:
        return v
    if isinstance(fnode, CanonicalF):
        q = Fraction(-r if inverse else r, fnode.k)
        return _rot(v, q)
    for _ in range(r):
        v = _eval(fnode, v, p, inverse, _CIRCLE)
    return v


def _eval_canonical_f(e: CanonicalF, t, p: Precision, inv: bool, table: dict):
    k = e.k
    jm = _marked_index(t, k)
    if jm is not None:
        return Fraction((jm - 1 if inv else jm + 1) % k, k)
    rigid = isinstance(e.gtilde, Identity)
    j = _arc_floor(t, k, p)
    if not inv:
        if rigid or j >= 1:
            return _rot(t, Fraction(1, k))
        w = _eval(e.gtilde, _chart_to_line(_rot(t, Fraction(1, k)), k, p), p, False, _LINE)
        return _chart_from_line(w, k)
    if rigid or j != 1 % k:
        return _rot(t, Fraction(-1, k))
    w = _eval(e.gtilde, _chart_to_line(t, k, p), p, True, _LINE)
    return _rot(_chart_from_line(w, k), Fraction(-1, k))


def _eval_circle_extend(e: CircleExtend, t, p: Precision, inv: bool, table: dict):
    k = e.k
    if _marked_index(t, k) is not None:
        return t
    if isinstance(e.inner, Identity) and (e.fsrc is None or e.fsrc == e.fspec):
        return t  # conjugated identity on every arc
    fsrc = e.fsrc if e.fsrc is not None else e.fspec
    down, up = (e.fspec, fsrc) if inv else (fsrc, e.fspec)
    j = _arc_floor(t, k, p)
    r = (j - 1) % k  # arc index is k for j = 0, else j; r steps reach arc 1
    v = _f_steps(down, t, r, True, p)
    w = _eval(e.inner, _chart_to_line(v, k, p), p, inv, _LINE)
    return _f_steps(up, _chart_from_line(w, k), r, False, p)


_CIRCLE = {**_SHARED, CanonicalF: _eval_canonical_f, CircleExtend: _eval_circle_extend}


def eval_circle(e: HomeoExpr, t, p: Precision = DEFAULT_PRECISION) -> CirclePoint:
    """Image of a circle point; exact Fractions stay exact along rigid paths.

    Marked points j/k (exact Fractions) evaluate exactly through CanonicalF
    and CircleExtend nodes.  Inexact points within ``singular_margin`` of a
    marked point raise PrecisionExhausted.
    """
    point = t if isinstance(t, CirclePoint) else CirclePoint(t)
    with mpmath.mp.workprec(p.working_bits):
        raw = point.t
        if not point.is_exact:
            ks = {node.k for node in _nodes(e) if isinstance(node, (CanonicalF, CircleExtend))}
            for k in ks:
                kt = k * raw
                frac = kt - mpmath.floor(kt)
                if 0 < min(frac, 1 - frac) < k * p.singular_margin:
                    raise PrecisionExhausted(
                        "input closer than the trust margin to a marked point"
                    )
        return CirclePoint(_eval(e, raw, p, False, _CIRCLE))


# --------------------------------------------------------------- constructors


def hbar_iter(e: HomeoExpr, m: int) -> HomeoExpr:
    """m-fold wrapping of a line map; m = 0 returns the map unchanged."""
    if m < 0:
        raise ValueError("wrap count must be nonnegative")
    for _ in range(m):
        e = HbarWrap(e)
    return e


# staircase() samples its inner map at this precision, to this bound
_STAIR_CHECK = Precision(working_bits=128)
_STAIR_TOL = 1e-15


def staircase(e: HomeoExpr) -> HomeoExpr:
    """Validated Staircase node: e must fix every integer and preserve each
    unit interval [i, i+1] (checked by sampling; wrapped maps pass
    structurally)."""
    if not isinstance(e, HomeoExpr):
        raise TypeError("staircase expects a HomeoExpr")
    if not (isinstance(e, (HbarWrap, Identity))):
        tol = mpmath.mpf(_STAIR_TOL)
        for i in range(-2, 3):
            if abs(eval_line(e, i, _STAIR_CHECK) - i) > tol:
                raise ValueError("staircase inner map must fix every integer")
            prev = mpmath.mpf(i)
            for step in (0.25, 0.5, 0.75):
                v = eval_line(e, i + step, _STAIR_CHECK)
                if not (i <= v <= i + 1):
                    raise ValueError("staircase inner map must preserve unit intervals")
                if v <= prev:
                    raise ValueError("staircase inner map must be increasing")
                prev = v
    return Staircase(e)


def rotation_number(e: HomeoExpr, t0, iters: int, p: Precision = DEFAULT_PRECISION):
    """Average lift displacement (F^iters(x0) - x0) / iters; error <= 1/iters.

    The lift branch is chosen pointwise in [0, 1); exact orbits yield an
    exact Fraction.
    """
    if iters < 1:
        raise ValueError("iters must be positive")
    point = t0 if isinstance(t0, CirclePoint) else CirclePoint(t0)
    with mpmath.mp.workprec(p.working_bits):
        cur = point.t
        total = Fraction(0)
        for _ in range(iters):
            nxt = _eval(e, cur, p, False, _CIRCLE)
            if isinstance(nxt, Fraction) and isinstance(cur, Fraction):
                step = (nxt - cur) % 1
            else:
                d = _to_mpf(nxt, p) - _to_mpf(cur, p)
                step = d - mpmath.floor(d)
            total = total + step
            cur = nxt
        return total / iters


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
    if not isinstance(obj, dict) or "node" not in obj:
        raise ValueError("expression JSON must be an object with a 'node' tag")
    tag = obj["node"]
    cls = _NODE_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ValueError(f"unknown expression node {tag!r}")
    node_fields = fields(cls)
    extra = set(obj) - {f.name for f in node_fields} - {"node"}
    if extra:
        raise ValueError(f"unknown fields for {tag}: {sorted(extra)}")
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

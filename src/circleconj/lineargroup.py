"""Finitely generated translation-by-wrapping groups acting on the line.

A descriptor fixes an irrational base point ``alpha`` in (0, 1) and a rank
``n >= 2``.  The group is generated by the unit translation, the translation
by ``alpha``, and ``n - 2`` successively wrapped copies of the unit
translation; an integer coordinate vector of length ``n`` names an element.

Besides element evaluation, this module computes the points with small
orbits (the non-transitivity locus), the minimal invariant intervals around
them, and — the part the conjugacy engine rests on — explicit homeomorphisms
realizing the structured integer matrices that act on coordinates by
conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import index

import mpmath
from mpmath.libmp import from_int

from .exactnum import (
    NonQuadraticAlpha,
    Surd,
    UnimodularMatrix2,
    denominator_at,
    json_int,
    json_ints,
    json_object,
    mobius_apply,
)
from .homeo import (
    Compose,
    HbarWrap,
    HomeoExpr,
    Scale,
    Translate,
    _WrapPoint,
    _chart,
    _index_at_least,
    hbar_iter,
    staircase,
)
from .intmat import StructuredMatrix, mat_mul

_DECLARED = "a declared non-quadratic base point has no exact translation lengths and no exact dilations"


def alpha_from_json(obj):
    if "nonquadratic_cf" not in json_object(obj, "base point", obj):
        return Surd.from_json(obj)
    prefix = json_object(obj, "base point", ("nonquadratic_cf",))["nonquadratic_cf"]
    return NonQuadraticAlpha(json_ints(prefix, "nonquadratic_cf"))


def _validate_alpha(alpha) -> None:
    if _declared(alpha):
        whole = alpha.prefix[0]
    elif isinstance(alpha, Surd):
        if alpha.is_rational:
            raise ValueError("base point must be irrational")
        whole = math.floor(alpha)  # alpha is irrational, so 0 means 0 < alpha < 1
    else:
        raise TypeError("base point must be a Surd or a NonQuadraticAlpha")
    if whole != 0:
        raise ValueError("base point must lie strictly between 0 and 1")


def _declared(alpha) -> bool:
    """Whether alpha is a declared non-quadratic prefix, not a quadratic Surd."""
    return isinstance(alpha, NonQuadraticAlpha)


def _quadratic(d) -> Surd:
    """d's base point, which must be a quadratic Surd: TypeError(_DECLARED) if it is declared."""
    if _declared(d.alpha):
        raise TypeError(_DECLARED)
    return d.alpha


@dataclass(frozen=True)
class LineGroupDescriptor:
    """Base point plus rank; the full name of one line group."""

    alpha: object
    n: int

    def __post_init__(self) -> None:
        _validate_alpha(self.alpha)
        object.__setattr__(self, "n", _index_at_least(self.n, 2, "rank n must be an integer >= 2"))

    def to_json(self) -> dict:
        return {"alpha": self.alpha.to_json(), "n": self.n}

    @classmethod
    def from_json(cls, obj) -> "LineGroupDescriptor":
        obj = json_object(obj, "descriptor", ("alpha", "n"))
        return cls(alpha_from_json(obj["alpha"]), json_int(obj["n"], "n"))


def element_to_expr(d: LineGroupDescriptor, coords) -> HomeoExpr:
    """The group element with the given integer coordinates, as an expression.

    The first two coordinates translate by ``coords[0] + coords[1]*alpha``;
    coordinate ``i`` (1-based, from 3 on) contributes a unit translation
    wrapped ``n - i`` times.  Zero blocks are dropped, so the zero vector
    yields ``Identity``.
    """
    coords = tuple(map(index, coords))
    if len(coords) != d.n:
        raise ValueError(f"expected {d.n} coordinates, got {len(coords)}")
    parts = []
    top = Surd.coerce(coords[0]) + _quadratic(d) * coords[1]
    if top.sign() != 0:
        parts.append(hbar_iter(Translate(top), d.n - 2))
    for i in range(3, d.n + 1):
        if coords[i - 1]:
            parts.append(hbar_iter(Translate(coords[i - 1]), d.n - i))
    return Compose.of(*parts)


def basis_exprs(d: LineGroupDescriptor) -> list:
    """Expressions for the n standard generators, in coordinate order."""
    out = []
    for i in range(d.n):
        e = [0] * d.n
        e[i] = 1
        out.append(element_to_expr(d, e))
    return out


# -- non-transitivity locus ---------------------------------------------------------


def _wrapped(bottom: int, floors):
    """bottom under the wrap floors i, innermost first, each level i + h(v) with h
    the base map: bottom itself under none, else the chart's flat, an mpf at 128 bits."""
    if not floors:
        return bottom
    x = from_int(bottom)
    for i in floors:
        x = _WrapPoint(i, x)
    return mpmath.mp.make_mpf(_chart(128).flat(x))


def nontransitive_points(d: LineGroupDescriptor, bound: int):
    """Points with non-dense orbit, indexed by their construction tuple.

    For rank 2 the action is minimal and the list is empty.  For rank 3 the
    locus is exactly the integers; deeper ranks push each level-(j) point
    through the base chart and translate by the next index.  Entries are
    ``(value, indices)`` pairs with indices ranging over ``[-bound, bound]``,
    sorted by value; integer levels stay exact, deeper levels are mpmath
    floats.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if d.n == 2:
        return []
    points = []
    for depth in sorted({1, d.n - 2}):  # the integers, and from rank 4 on the deepest level
        for idx in product(range(-bound, bound + 1), repeat=depth):
            points.append((_wrapped(idx[0], idx[1:]), idx))
    points.sort(key=lambda p: mpmath.mpf(p[0]))
    return points


def points_to_csv(points) -> str:
    lines = ["value,indices"]
    for value, idx in points:
        if isinstance(value, int):
            text = str(value)
        else:
            text = mpmath.nstr(value, 30)
        lines.append(f"{text},{';'.join(str(i) for i in idx)}")
    return "\n".join(lines) + "\n"


def minimal_interval(d: LineGroupDescriptor, idx):
    """Smallest invariant interval around the non-transitive point of ``idx``.

    Rank 2 has no such points; the whole line is returned as a float pair.
    Rank 3 gives the exact unit interval ``(i, i + 1)``; deeper ranks map the
    previous interval through the base chart and translate, giving mpmath
    endpoints.
    """
    idx = tuple(map(index, idx))
    if d.n == 2:
        if idx:
            raise ValueError("rank-2 groups act minimally; no construction indices apply")
        return (float("-inf"), float("inf"))
    if len(idx) != d.n - 2:
        raise ValueError(f"expected {d.n - 2} construction indices, got {len(idx)}")
    return (_wrapped(idx[0], idx[1:]), _wrapped(idx[0] + 1, idx[1:]))


# -- normalizer realizations --------------------------------------------------------


def scale_conjugator(d: LineGroupDescriptor, M: UnimodularMatrix2) -> HomeoExpr:
    """The wrapped dilation whose conjugation action realizes ``M``.

    ``M`` must have a positive denominator at the base point; conjugating the
    group over ``mobius_apply(M, alpha)`` by the returned map lands in the
    group over ``alpha``, with coordinates transformed by ``M``.
    """
    u = denominator_at(M, _quadratic(d))
    if u.sign() <= 0:
        raise ValueError("matrix must be sign-normalized at the base point")
    return hbar_iter(Scale(u), d.n - 2)


def normalizer_expr(d: LineGroupDescriptor, M: StructuredMatrix) -> HomeoExpr:
    """An explicit homeomorphism realizing the structured matrix ``M``.

    Writing ``N = [[f_alpha, S], [0, B]]`` and ``A~ = blockdiag(A, I)``, the
    returned map conjugates the rank-n group over ``mobius_apply(A, alpha)``
    onto the one over ``alpha``, acting on coordinates by ``N @ A~`` — the
    assembled matrix of ``M``.  The factors, outermost first: a wrapped
    dilation for ``f_alpha``; one staircase conjugator per column ``j`` of
    ``U = [[I, f_alpha^-1 S], [0, B]]`` in decreasing ``j``; a wrapped
    dilation for ``A`` when the base point moves.
    """
    alpha = _quadratic(d)
    if M.n != d.n:
        raise ValueError(f"matrix rank {M.n} does not match descriptor rank {d.n}")
    f = M.f_alpha
    if mobius_apply(f, alpha) != alpha:
        raise ValueError("f_alpha must fix the base point")
    if denominator_at(f, alpha).sign() <= 0:
        raise ValueError("f_alpha must be sign-normalized at the base point")

    parts = []
    if f != UnimodularMatrix2.identity():
        parts.append(scale_conjugator(d, f))

    m = d.n - 2
    finv_S = mat_mul(f.inverse().rows(), M.S) if m else ((), ())
    for j in range(d.n, 2, -1):
        col = [finv_S[0][j - 3], finv_S[1][j - 3]]
        col += [M.B[i - 3][j - 3] for i in range(3, j)]
        if not any(col):
            continue
        tau = element_to_expr(LineGroupDescriptor(alpha, j - 1), col)
        parts.append(hbar_iter(staircase(HbarWrap(tau)), d.n - j))

    if M.A != UnimodularMatrix2.identity():
        parts.append(scale_conjugator(d, M.A))

    return Compose.of(*parts)

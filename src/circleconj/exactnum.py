"""Exact arithmetic for quadratic irrationals and their integer Mobius classes.

Everything in this module is pure integer / rational arithmetic: surds in
canonical form, continued-fraction expansion by the exact Gauss map,
GL(2,Z)-equivalence of quadratic irrationals, and the fixed-point stabilizer
generator used by the conjugacy decision procedure; and ``surd_mpf``, the
package's one rounding of a surd (a + b*sqrt(d))/c to a binary float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import index

from mpmath import mp
from mpmath.libmp import from_man_exp, from_rational, round_nearest, to_float


class RationalInputError(ValueError):
    """An operation that needs an irrational argument received a rational one."""


class MixedRadicandError(ValueError):
    """Arithmetic attempted between surds over different square roots."""


class CertificateError(RuntimeError):
    """An exact self-check of a computed result failed: a fault in this
    package, not in its input."""


def json_int(value, name: str) -> int:
    """``value`` when it is a JSON integer; a bool or a float is rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def json_object(obj, what: str, fields) -> dict:
    """``obj`` when it is a JSON object with no field outside ``fields``;
    passing ``obj`` itself as ``fields`` checks only that it is an object."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    extra = set(obj) - set(fields)
    if extra:
        raise ValueError(f"unknown {what} fields: {sorted(extra)}")
    return obj


def json_ints(values, name: str) -> tuple:
    """``values`` as a tuple when it is a JSON list of integers."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a JSON list of integers, got {values!r}")
    return tuple(json_int(v, f"{name} entry") for v in values)


@lru_cache(maxsize=1024)  # every Surd result of arithmetic rechecks its radicand, mostly one d
def is_square_free(d: int) -> bool:
    return d > 0 and all(d % (f * f) for f in range(2, isqrt(d) + 1))


def surd_mpf(a: int, b: int, c: int, d: int, bits: int) -> tuple:
    """(a + b*sqrt(d))/c, for c > 0 and d > 1 square-free when b != 0, rounded
    once to nearest at ``bits``, as a raw mpf tuple.  As a^2 - b^2 d is a nonzero
    integer, |a + b sqrt d| > 1/(|a| + |b| sqrt d + 1) however the terms cancel,
    so N = floor(value 2^s), from one isqrt and one floor division, has at least
    bits + 2 bits.  The value lies strictly inside (N, N + 1), never exact and
    never a tie, and that interval holds no rounding boundary: N + 1/2 rounds
    to the same float."""
    if b == 0:
        return from_rational(a, c, bits, round_nearest)
    s = bits + 2 + c.bit_length() + (abs(a) + abs(b) * (isqrt(d) + 1) + 1).bit_length()
    r = isqrt(b * b * d << 2 * s)  # floor(|b| sqrt(d) 2^s), never exact
    return from_man_exp(2 * (((a << s) + (r if b > 0 else -r - 1)) // c) + 1, -s - 1, bits, round_nearest)


@dataclass(frozen=True)
class Surd:
    """The real number (a + b*sqrt(d)) / c, kept in canonical form.

    Canonical form: c > 0, gcd(a, b, c) = 1, d square-free, and d = 1
    exactly when the value is rational (b = 0).  Two Surds are equal as
    numbers iff they are equal as dataclasses, so hashing and dict keys
    behave.
    """

    a: int
    b: int = 0
    c: int = 1
    d: int = 1

    def __post_init__(self) -> None:
        a, b, c, d = index(self.a), index(self.b), index(self.c), index(self.d)
        if c == 0:
            raise ZeroDivisionError("surd denominator is zero")
        if d <= 0:
            raise ValueError("radicand must be positive")
        if b == 0:
            d = 1
        elif d == 1:
            a, b = a + b, 0
        if not is_square_free(d):
            raise ValueError(f"radicand {d} is not square-free")
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def sqrt(cls, d: int) -> "Surd":
        return cls(0, 1, 1, d)

    @staticmethod
    def coerce(x) -> "Surd":
        return x if isinstance(x, Surd) else Surd(*_parts(x))

    # -- predicates ------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise RationalInputError(f"{self} is irrational")
        return Fraction(self.a, self.c)

    # -- arithmetic ------------------------------------------------------------

    def _terms(self, other) -> tuple:
        """``other`` as (a, b, c, d) over the radicand d that it shares with self."""
        a, b, c, d = _parts(other)
        if b == 0:
            return a, b, c, self.d
        if self.b != 0 and self.d != d:
            raise MixedRadicandError(f"cannot mix sqrt({self.d}) with sqrt({d})")
        return a, b, c, d

    def _sum(self, other, s: int, t: int) -> "Surd":
        """s*self + t*other, for s and t in {1, -1}."""
        a, b, c, d = self._terms(other)
        return Surd(s * self.a * c + t * a * self.c, s * self.b * c + t * b * self.c, self.c * c, d)

    def _product(self, a: int, b: int, c: int, d: int) -> "Surd":
        return Surd(self.a * a + self.b * b * d, self.a * b + self.b * a, self.c * c, d)

    def __add__(self, other) -> "Surd":
        return self._sum(other, 1, 1)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other) -> "Surd":
        return self._sum(other, 1, -1)

    def __rsub__(self, other) -> "Surd":
        return self._sum(other, -1, 1)

    def __mul__(self, other) -> "Surd":
        return self._product(*self._terms(other))

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        return Surd(*_inverse(self.a, self.b, self.c, self.d))

    def __truediv__(self, other) -> "Surd":
        return self._product(*_inverse(*self._terms(other)))

    def __rtruediv__(self, other) -> "Surd":
        return self.inverse() * other

    # -- exact order structure ---------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the value, by integer arithmetic only: as x -> x|x| is
        increasing and odd, a + b sqrt(d) has the sign of a|a| + b|b| d."""
        s = self.a * abs(self.a) + self.b * abs(self.b) * self.d
        return (s > 0) - (s < 0)

    def _cmp(self, other) -> int:
        return (self - other).sign()

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __floor__(self) -> int:
        # For b != 0 the canonical form has d square-free and d > 1, so b*b*d
        # is not a square and y = b*sqrt(d) = +-sqrt(b*b*d) is never an integer:
        # floor(y) is isqrt(b*b*d), or -isqrt(b*b*d) - 1 when b < 0 (b = 0
        # gives 0).  With c > 0, floor((a + y) / c) == (a + floor(y)) // c.
        a, b, c = self.a, self.b, self.c
        s = isqrt(b * b * self.d)
        return (a + (s if b >= 0 else -s - 1)) // c

    def floor(self) -> int:
        return self.__floor__()

    # -- numeric conversion -------------------------------------------------------

    def value(self, bits: int = 256):
        """The value as an mpmath float, rounded once to nearest at ``bits``."""
        return mp.make_mpf(surd_mpf(self.a, self.b, self.c, self.d, bits))

    def __float__(self) -> float:
        return to_float(surd_mpf(self.a, self.b, self.c, self.d, 53))

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    @classmethod
    def from_json(cls, obj) -> "Surd":
        obj = json_object(obj, "surd", ("a", "b", "c", "d"))
        d = json_int(obj.get("d", 1), "d")
        if d > 10**12:  # the square-free test is trial division, about 0.2 s at 10**12
            raise ValueError(f"radicand d = {d} exceeds the bound 10**12")
        b, c = json_int(obj.get("b", 0), "b"), json_int(obj.get("c", 1), "c")
        return cls(json_int(obj["a"], "a"), b, c, d)

    def __str__(self) -> str:
        if self.is_rational:
            return str(Fraction(self.a, self.c))
        num = f"{self.a}{self.b:+d}*sqrt({self.d})"
        return num if self.c == 1 else f"({num})/{self.c}"


def _parts(x) -> tuple:
    """An exact real as (a, b, c, d): a Surd's own fields, (p, 0, q, 1) for a
    Fraction p/q, and (m, 0, 1, 1) for every integer m that operator.index
    takes, so that no operand Surd is built."""
    if isinstance(x, Surd):
        return x.a, x.b, x.c, x.d
    try:  # an integer, the common operand, comes before the slower Fraction check
        return index(x), 0, 1, 1
    except TypeError:
        if isinstance(x, Fraction):
            return x.numerator, 0, x.denominator, 1
        raise TypeError(f"cannot interpret {x!r} as an exact real") from None


def _inverse(a: int, b: int, c: int, d: int) -> tuple:
    """1/((a + b*sqrt(d))/c) as (a, b, c, d), not in canonical form."""
    norm = a * a - b * b * d  # 0 only at a = b = 0, as b*b*d is no square
    if norm == 0:
        raise ZeroDivisionError("division by zero surd")
    return c * a, -c * b, norm, d


@dataclass(frozen=True)
class ContinuedFraction:
    """Continued fraction [a0; a1, a2, ...] with an eventually repeating block.

    ``preperiod`` always contains at least the integer part a0; ``period`` may
    be empty only for expansions declared as truncated prefixes of
    non-periodic continued fractions.
    """

    preperiod: tuple
    period: tuple

    def __post_init__(self) -> None:
        pre = tuple(map(index, self.preperiod))
        per = tuple(map(index, self.period))
        if not pre:
            raise ValueError("preperiod must contain the integer part")
        for a in pre[1:] + per:
            if a < 1:
                raise ValueError("partial quotients after the integer part must be >= 1")
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @property
    def is_periodic(self) -> bool:
        return bool(self.period)

    def quotients(self, count: int) -> list:
        """The first ``count`` partial quotients, unrolling the period."""
        out = list(self.preperiod[:count])
        if len(out) < count:
            if not self.period:
                raise ValueError("prefix too short and no period to unroll")
            whole, part = divmod(count - len(out), len(self.period))
            out += self.period * whole + self.period[:part]
        return out

    def convergents(self, count: int) -> list:
        """The first ``count`` convergents as (p, q) pairs."""
        ps, qs = [0, 1], [1, 0]
        out = []
        for a in self.quotients(count):
            ps.append(a * ps[-1] + ps[-2])
            qs.append(a * qs[-1] + qs[-2])
            out.append((ps[-1], qs[-1]))
        return out

    def to_json(self) -> dict:
        return {"preperiod": list(self.preperiod), "period": list(self.period)}

    @classmethod
    def from_json(cls, obj) -> "ContinuedFraction":
        obj = json_object(obj, "continued fraction", ("preperiod", "period"))
        pre, per = obj["preperiod"], obj.get("period", [])
        return cls(json_ints(pre, "preperiod"), json_ints(per, "period"))


@dataclass(frozen=True)
class NonQuadraticAlpha:
    """A user-declared non-quadratic irrational, given as a CF prefix.

    The declaration is taken on trust: the engine never certifies anything
    about such a number beyond what the prefix itself shows, and the
    conjugacy decision reports ``undecided_nonquadratic`` where an exact
    equivalence certificate would be required.
    """

    prefix: tuple

    def __post_init__(self) -> None:
        pre = tuple(map(index, self.prefix))
        if len(pre) < 2:
            raise ValueError("prefix must contain at least two partial quotients")
        for a in pre[1:]:
            if a < 1:
                raise ValueError("partial quotients after the integer part must be >= 1")
        object.__setattr__(self, "prefix", pre)

    def cf(self) -> ContinuedFraction:
        return ContinuedFraction(self.prefix, ())

    def bracket(self) -> tuple:
        """Rational lower/upper bounds from the last two convergents."""
        conv = self.cf().convergents(len(self.prefix))
        (p1, q1), (p2, q2) = conv[-2], conv[-1]
        lo, hi = Fraction(p1, q1), Fraction(p2, q2)
        return (lo, hi) if lo < hi else (hi, lo)

    def to_json(self) -> dict:
        return {"nonquadratic_cf": list(self.prefix)}


@dataclass(frozen=True)
class UnimodularMatrix2:
    """Integer 2x2 matrix ((m2, m1), (n2, n1)) with determinant +-1.

    The Mobius action is x -> (m1 + n1*x) / (m2 + n2*x).  With this layout
    plain matrix multiplication composes actions left factor first:

        mobius_apply(M @ N, x) == mobius_apply(N, mobius_apply(M, x))
    """

    m2: int
    m1: int
    n2: int
    n1: int

    def __post_init__(self) -> None:
        for name in ("m2", "m1", "n2", "n1"):
            object.__setattr__(self, name, index(getattr(self, name)))
        if abs(self.m1 * self.n2 - self.n1 * self.m2) != 1:
            raise ValueError(f"matrix {self.rows()} is not unimodular")

    @classmethod
    def identity(cls) -> "UnimodularMatrix2":
        return cls(1, 0, 0, 1)

    def rows(self) -> tuple:
        return ((self.m2, self.m1), (self.n2, self.n1))

    @property
    def det(self) -> int:
        return self.m2 * self.n1 - self.m1 * self.n2

    def __matmul__(self, other: "UnimodularMatrix2") -> "UnimodularMatrix2":
        """The product, not checked again: det(AB) = det(A) det(B) = +-1 for
        factors checked when built, and the check, big entries times big
        entries, would cost far more than the product on a long period."""
        product = object.__new__(UnimodularMatrix2)
        product.__dict__.update(
            m2=self.m2 * other.m2 + self.m1 * other.n2,
            m1=self.m2 * other.m1 + self.m1 * other.n1,
            n2=self.n2 * other.m2 + self.n1 * other.n2,
            n1=self.n2 * other.m1 + self.n1 * other.n1,
        )
        return product

    def inverse(self) -> "UnimodularMatrix2":
        D = self.det
        return UnimodularMatrix2(D * self.n1, -D * self.m1, -D * self.n2, D * self.m2)

    def __neg__(self) -> "UnimodularMatrix2":
        return UnimodularMatrix2(-self.m2, -self.m1, -self.n2, -self.n1)

    def __pow__(self, e: int) -> "UnimodularMatrix2":
        base, out = (self if e >= 0 else self.inverse()), UnimodularMatrix2.identity()
        for bit in bin(abs(e))[2:]:  # repeated squaring, high bit first
            out = out @ out @ base if bit == "1" else out @ out
        return out

    def mod(self, k: int) -> tuple:
        return (self.m2 % k, self.m1 % k, self.n2 % k, self.n1 % k)

    def apply_vector(self, v: tuple) -> tuple:
        """Coordinate action on a column vector (x, y)."""
        x, y = v
        return (self.m2 * x + self.m1 * y, self.n2 * x + self.n1 * y)

    def to_json(self) -> list:
        return [self.m2, self.m1, self.n2, self.n1]

    @classmethod
    def from_json(cls, obj) -> "UnimodularMatrix2":
        m2, m1, n2, n1 = json_ints(obj, "matrix")
        return cls(m2, m1, n2, n1)


def mobius_apply(M: UnimodularMatrix2, x: Surd) -> Surd:
    """(m1 + n1*x) / (m2 + n2*x), exactly."""
    x = Surd.coerce(x)
    den = x * M.n2 + M.m2
    if den.sign() == 0:
        raise ZeroDivisionError("Mobius denominator vanishes")
    return (x * M.n1 + M.m1) / den


def denominator_at(M: UnimodularMatrix2, x: Surd) -> Surd:
    return Surd.coerce(x) * M.n2 + M.m2


def sign_normalize(M: UnimodularMatrix2, x: Surd) -> UnimodularMatrix2:
    """Flip the global sign so that m2 + n2*x > 0 (same Mobius action)."""
    s = denominator_at(M, x).sign()
    if s == 0:
        raise ValueError("denominator vanishes at the base point")
    return M if s > 0 else -M


_MAX_GAUSS_STEPS = 100_000


@dataclass(frozen=True, eq=False)
class AlphaProfile:
    """Everything the exact Gauss map derives from one quadratic irrational.

    State i is the complete quotient of ``x`` before its i-th partial
    quotient is emitted; state 0 is ``x`` itself.  ``cf.period`` is one full
    period from state ``len(cf.preperiod)``, the first state after state 0
    that lies on the cycle, so the integer part always stays in the
    preperiod.  ``of`` is memoized, so every caller shares one profile per
    surd; ``cf`` is frozen for that reason.
    """

    x: Surd
    cf: ContinuedFraction

    @classmethod
    @lru_cache(maxsize=256)
    def of(cls, x: Surd) -> "AlphaProfile":
        if x.is_rational:
            raise RationalInputError(
                "continued fraction of a rational does not terminate periodically"
            )
        # x = (P + sqrt(D))/Q with Q | D - P^2; each state keeps that form
        D = x.b * x.b * x.c * x.c * x.d
        P, Q = (x.a * x.c, x.c * x.c) if x.b > 0 else (-x.a * x.c, -x.c * x.c)
        s = isqrt(D)  # sqrt(D) is irrational: it lies in (s, s + 1)
        quotients, entry = [], None
        for _ in range(_MAX_GAUSS_STEPS):
            q = (P + s + (Q < 0)) // Q  # floor((P + sqrt(D))/Q), for either sign of Q
            quotients.append(q)
            P = q * Q - P
            Q = (D - P * P) // Q
            if (P, Q) == entry:
                return cls(x, ContinuedFraction(quotients[:start], quotients[start:]))
            if entry is None and 0 < Q and s - Q < P <= s:  # reduced: on the cycle (Galois)
                start, entry = len(quotients), (P, Q)
        raise RuntimeError(f"Gauss map did not cycle within its cap of {_MAX_GAUSS_STEPS} steps")

    def prefix(self, i: int) -> UnimodularMatrix2:
        """Product of the matrices of the first i partial quotients: it
        carries state i back to x."""
        M = UnimodularMatrix2.identity()
        for a in self.cf.quotients(i):
            M = UnimodularMatrix2(0, 1, 1, a) @ M  # one step: x = a + 1/tail
        return M

    def carry(self, i: int, other: "AlphaProfile", j: int) -> UnimodularMatrix2:
        """The matrix sending x to ``other.x`` through state i of x, which must
        equal state j of ``other``; sign-normalized at x."""
        return sign_normalize(self.prefix(i).inverse() @ other.prefix(j), self.x)


def cf_expand(x) -> ContinuedFraction:
    """Exact continued fraction of a quadratic irrational (or a declared prefix)."""
    if isinstance(x, NonQuadraticAlpha):
        return x.cf()
    return AlphaProfile.of(Surd.coerce(x)).cf


def equivalent(x, y):
    """A matrix M with mobius_apply(M, x) == y, or None if no such M exists.

    Two quadratic irrationals are related by an integer Mobius map with
    determinant +-1 exactly when their minimal periods are rotations of each
    other (Serret); the witness is carried through x's cycle entry and the
    state of y where y's period rotates onto x's, and sign-normalized so that
    m2 + n2*x > 0.
    """
    x, y = Surd.coerce(x), Surd.coerce(y)
    if x.is_rational or y.is_rational:
        raise RationalInputError("equivalence is defined for irrational inputs")
    if x == y:
        return UnimodularMatrix2.identity()
    if x.d != y.d:
        return None
    px, py = AlphaProfile.of(x), AlphaProfile.of(y)
    n, twice = len(px.cf.period), py.cf.period * 2
    for r in range(n if len(py.cf.period) == n else 0):
        if twice[r:r + n] == px.cf.period:
            M = px.carry(len(px.cf.preperiod), py, len(py.cf.preperiod) + r)
            if mobius_apply(M, x) != y:
                raise CertificateError(f"equivalence matrix {M.rows()} does not send {x} to {y}")
            return M
    return None


def stabilizer_generator(x):
    """Fundamental nontrivial integer Mobius fixer of a quadratic irrational.

    Built from one full period of the continued fraction and sign-normalized
    (m2 + n2*x > 0); every integer Mobius fixer of x is, up to sign, a power
    of this matrix.  Returns None for inputs declared non-quadratic.
    """
    if isinstance(x, NonQuadraticAlpha):
        return None
    x = Surd.coerce(x)
    if x.is_rational:
        raise RationalInputError("stabilizer is defined for irrational inputs")
    prof = AlphaProfile.of(x)
    # state start + period is state start again
    start = len(prof.cf.preperiod)
    T = prof.carry(start, prof, start + len(prof.cf.period))
    if mobius_apply(T, x) != x or T == UnimodularMatrix2.identity():
        raise CertificateError(f"{T.rows()} is not a nontrivial fixer of {x}")
    return T

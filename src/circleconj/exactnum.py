"""Exact arithmetic for quadratic irrationals and their integer Mobius classes.

Everything in this module is pure integer / rational arithmetic: surds in
canonical form, continued-fraction expansion by the exact Gauss map,
GL(2,Z)-equivalence of quadratic irrationals, and the fixed-point stabilizer
generator used by the conjugacy decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt


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


def is_square_free(d: int) -> bool:
    if d <= 0:
        return False
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


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
        a, b, c, d = int(self.a), int(self.b), int(self.c), int(self.d)
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
    def from_rational(cls, q) -> "Surd":
        q = Fraction(q)
        return cls(q.numerator, 0, q.denominator, 1)

    @classmethod
    def sqrt(cls, d: int) -> "Surd":
        return cls(0, 1, 1, d)

    @staticmethod
    def coerce(x) -> "Surd":
        if isinstance(x, Surd):
            return x
        if isinstance(x, (int, Fraction)):
            return Surd.from_rational(x)
        raise TypeError(f"cannot interpret {x!r} as an exact real")

    # -- predicates ------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise RationalInputError(f"{self} is irrational")
        return Fraction(self.a, self.c)

    # -- arithmetic ------------------------------------------------------------

    def _common_d(self, other: "Surd") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise MixedRadicandError(f"cannot mix sqrt({self.d}) with sqrt({other.d})")
        return self.d

    def __add__(self, other) -> "Surd":
        other = Surd.coerce(other)
        d = self._common_d(other)
        return Surd(
            self.a * other.c + other.a * self.c,
            self.b * other.c + other.b * self.c,
            self.c * other.c,
            d,
        )

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other) -> "Surd":
        return self + (-Surd.coerce(other))

    def __rsub__(self, other) -> "Surd":
        return (-self) + Surd.coerce(other)

    def __mul__(self, other) -> "Surd":
        other = Surd.coerce(other)
        d = self._common_d(other)
        return Surd(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            self.c * other.c,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            if self.a == 0 and self.b == 0:
                raise ZeroDivisionError("division by zero surd")
            raise ValueError("degenerate surd (norm zero)")
        return Surd(self.c * self.a, -self.c * self.b, norm, self.d)

    def __truediv__(self, other) -> "Surd":
        return self * Surd.coerce(other).inverse()

    def __rtruediv__(self, other) -> "Surd":
        return Surd.coerce(other) * self.inverse()

    # -- exact order structure ---------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the value, by integer arithmetic only."""
        A, B, d = self.a, self.b, self.d
        if B == 0:
            return _sign(A)
        if A == 0:
            return _sign(B)
        if A > 0 and B > 0:
            return 1
        if A < 0 and B < 0:
            return -1
        lhs, rhs = A * A, B * B * d
        if A > 0:  # B < 0
            return _sign(lhs - rhs)
        return _sign(rhs - lhs)  # A < 0, B > 0

    def _cmp(self, other) -> int:
        return (self - Surd.coerce(other)).sign()

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
        """The value as an mpmath float computed at the given precision."""
        import mpmath

        with mpmath.mp.workprec(bits):
            root = mpmath.sqrt(self.d) if self.b else mpmath.mpf(0)
            return (self.a + self.b * root) / self.c

    def __float__(self) -> float:
        return float(self.value(64))

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    @classmethod
    def from_json(cls, obj) -> "Surd":
        if not isinstance(obj, dict):
            raise ValueError("surd JSON must be an object")
        extra = set(obj) - {"a", "b", "c", "d"}
        if extra:
            raise ValueError(f"unknown surd fields: {sorted(extra)}")
        return cls(
            json_int(obj["a"], "a"),
            json_int(obj.get("b", 0), "b"),
            json_int(obj.get("c", 1), "c"),
            json_int(obj.get("d", 1), "d"),
        )

    def __str__(self) -> str:
        if self.is_rational:
            return str(Fraction(self.a, self.c))
        num = f"{self.a}{self.b:+d}*sqrt({self.d})"
        return num if self.c == 1 else f"({num})/{self.c}"


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
        pre = tuple(int(a) for a in self.preperiod)
        per = tuple(int(a) for a in self.period)
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
            i = 0
            while len(out) < count:
                out.append(self.period[i % len(self.period)])
                i += 1
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
    def from_json(cls, obj: dict) -> "ContinuedFraction":
        extra = set(obj) - {"preperiod", "period"}
        if extra:
            raise ValueError(f"unknown continued fraction fields: {sorted(extra)}")
        pre, per = obj["preperiod"], obj.get("period", ())
        return cls(*(tuple(json_int(a, "partial quotient") for a in q) for q in (pre, per)))


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
        pre = tuple(int(a) for a in self.prefix)
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
            object.__setattr__(self, name, int(getattr(self, name)))
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
        return UnimodularMatrix2(
            self.m2 * other.m2 + self.m1 * other.n2,
            self.m2 * other.m1 + self.m1 * other.n1,
            self.n2 * other.m2 + self.n1 * other.n2,
            self.n2 * other.m1 + self.n1 * other.n1,
        )

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
        m2, m1, n2, n1 = (json_int(x, "matrix entry") for x in obj)
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


def _quotient_matrix(a: int) -> UnimodularMatrix2:
    """Matrix of one continued-fraction step: x = a + 1/tail."""
    return UnimodularMatrix2(0, 1, 1, a)


_MAX_GAUSS_STEPS = 100_000


@dataclass(frozen=True, eq=False)
class AlphaProfile:
    """Everything the exact Gauss map derives from one quadratic irrational.

    State i is the complete quotient of ``x`` before ``quotients[i]`` is
    emitted; state 0 is ``x`` itself.  The map runs until a tail state
    repeats, so ``quotients[start:]`` is one full period and ``cycle`` maps
    each state on the cycle to its index.  The integer part always stays in
    the preperiod (start >= 1).
    """

    x: Surd
    quotients: tuple
    start: int
    cycle: dict

    @classmethod
    def of(cls, x: Surd) -> "AlphaProfile":
        if x.is_rational:
            raise RationalInputError(
                "continued fraction of a rational does not terminate periodically"
            )
        quotients = []
        seen = {}
        cur = x
        for _ in range(_MAX_GAUSS_STEPS):
            q = cur.floor()
            quotients.append(q)
            a = cur.a - q * cur.c  # cur - q == (a + b*sqrt(d)) / c; invert that
            cur = Surd(cur.c * a, -cur.c * cur.b, a * a - cur.b * cur.b * cur.d, cur.d)
            start = seen.get(cur)
            if start is not None:
                cycle = {state: i for state, i in seen.items() if i >= start}
                return cls(x, tuple(quotients), start, cycle)
            seen[cur] = len(quotients)
        raise RuntimeError("Gauss map failed to cycle (not reachable for quadratic surds)")

    def prefix(self, i: int) -> UnimodularMatrix2:
        """Product of the quotient matrices of ``quotients[:i]``: it carries
        state i back to x."""
        M = UnimodularMatrix2.identity()
        for a in self.quotients[:i]:
            M = _quotient_matrix(a) @ M
        return M

    def carry(self, i: int, other: "AlphaProfile", j: int) -> UnimodularMatrix2:
        """The matrix sending x to ``other.x`` through state i of x, which must
        equal state j of ``other``; sign-normalized at x."""
        return sign_normalize(self.prefix(i).inverse() @ other.prefix(j), self.x)


def cf_expand(x) -> ContinuedFraction:
    """Exact continued fraction of a quadratic irrational (or a declared prefix)."""
    if isinstance(x, NonQuadraticAlpha):
        return x.cf()
    prof = AlphaProfile.of(Surd.coerce(x))
    return ContinuedFraction(prof.quotients[:prof.start], prof.quotients[prof.start:])


def equivalent(x, y):
    """A matrix M with mobius_apply(M, x) == y, or None if no such M exists.

    Two quadratic irrationals are related by an integer Mobius map with
    determinant +-1 exactly when their continued fractions share a tail;
    the witness is carried through the first state on x's cycle that y's
    cycle shares, and sign-normalized so that m2 + n2*x > 0.
    """
    x, y = Surd.coerce(x), Surd.coerce(y)
    if x.is_rational or y.is_rational:
        raise RationalInputError("equivalence is defined for irrational inputs")
    if x == y:
        return UnimodularMatrix2.identity()
    if x.d != y.d:
        return None
    px, py = AlphaProfile.of(x), AlphaProfile.of(y)
    for state, i in px.cycle.items():
        j = py.cycle.get(state)
        if j is not None:
            M = px.carry(i, py, j)
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
    T = prof.carry(prof.start, prof, len(prof.quotients))
    if mobius_apply(T, x) != x or T == UnimodularMatrix2.identity():
        raise CertificateError(f"{T.rows()} is not a nontrivial fixer of {x}")
    return T

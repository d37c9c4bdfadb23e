"""Exact integer-matrix helpers shared by the group and conjugacy modules.

Plain n x n integer matrices are tuples of row tuples.  StructuredMatrix is
the block shape realized by line-group normalizers: an invertible 2x2 top
block acting on the translation coordinates, a free 2 x (n-2) strip, and a
unit upper triangular tail block, together with the base-point equivalence
matrix A.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exactnum import UnimodularMatrix2, json_int


def mat_identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(A: tuple, B: tuple) -> tuple:
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def mat_vec(A: tuple, v) -> tuple:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in A)


def unit_upper_inverse(B: tuple) -> tuple:
    """Exact inverse of a unit upper triangular integer matrix (again one)."""
    m = len(B)
    cols = []
    for j in range(m):
        x = [0] * m
        x[j] = 1
        for i in range(j - 1, -1, -1):
            x[i] = -sum(B[i][t] * x[t] for t in range(i + 1, m))
        cols.append(x)
    return tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))


def solve_congruence(coeffs, target: int, k: int):
    """Integer x with sum(coeffs[i] * x[i]) == target (mod k), or None.

    Solvable iff gcd(coeffs..., k) divides target; the witness is built by
    folding the coefficients through the extended euclidean algorithm.
    """
    coeffs = [int(c) for c in coeffs]
    target = int(target)
    if k == 1:
        return [0] * len(coeffs)
    # fold: keep g = gcd(coeffs seen so far) and a combination realizing it
    g, combo = 0, [0] * len(coeffs)
    for idx, c in enumerate(coeffs):
        g, s, t = _egcd(g, c)
        combo = [s * x for x in combo]
        combo[idx] += t
    gk = gcd(g, k)  # k >= 2, so gk >= 1
    if target % gk != 0:
        return None
    if g == 0:
        return [0] * len(coeffs)  # target is a multiple of k
    # gk = lam*g + mu*k for some mu, so (target//gk)*lam*g hits target mod k
    _, lam, _ = _egcd(g, k)
    factor = (target // gk) * lam
    return [(factor * x) % k for x in combo]


def _egcd(a: int, b: int):
    """g, s, t with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def blockdiag(M: UnimodularMatrix2, n: int) -> tuple:
    """blockdiag(M, identity) as a plain n x n integer matrix."""
    (a, b), (c, d) = M.rows()
    rows = [(a, b) + (0,) * (n - 2), (c, d) + (0,) * (n - 2)]
    for i in range(n - 2):
        rows.append((0, 0) + tuple(1 if j == i else 0 for j in range(n - 2)))
    return tuple(rows)


@dataclass(frozen=True)
class StructuredMatrix:
    """Block data (f_alpha, A, S, B) of a realizable normalizer matrix.

    The top-block action on the first two coordinates is f_alpha composed
    with the base-point change A; S is the free 2 x (n-2) strip and B the
    unit upper triangular (n-2) x (n-2) tail.  The assembled n x n matrix is

        [[f_alpha @ A, S], [0, B]]
    """

    f_alpha: UnimodularMatrix2
    A: UnimodularMatrix2
    S: tuple
    B: tuple

    def __post_init__(self) -> None:
        S = tuple(tuple(int(x) for x in row) for row in self.S)
        B = tuple(tuple(int(x) for x in row) for row in self.B)
        if len(S) != 2:
            raise ValueError("S must have exactly two rows")
        m = len(S[0])
        if len(S[1]) != m:
            raise ValueError("S rows must have equal length")
        if len(B) != m or any(len(row) != m for row in B):
            raise ValueError("B must be square of size n-2")
        for i in range(m):
            if B[i][i] != 1:
                raise ValueError("B must have unit diagonal")
            for j in range(i):
                if B[i][j] != 0:
                    raise ValueError("B must be upper triangular")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "B", B)

    @classmethod
    def identity(cls, n: int) -> "StructuredMatrix":
        m = n - 2
        return cls(
            UnimodularMatrix2.identity(),
            UnimodularMatrix2.identity(),
            ((0,) * m, (0,) * m),
            mat_identity(m),
        )

    @property
    def n(self) -> int:
        return 2 + len(self.S[0])

    def is_identity(self) -> bool:
        return self == StructuredMatrix.identity(self.n)

    def ntilde(self) -> tuple:
        """[[f_alpha, S], [0, B]] as a plain integer matrix."""
        m = self.n - 2
        (a, b), (c, d) = self.f_alpha.rows()
        rows = [(a, b) + self.S[0], (c, d) + self.S[1]]
        for i in range(m):
            rows.append((0, 0) + self.B[i])
        return tuple(rows)

    def atilde(self) -> tuple:
        """blockdiag(A, identity) as a plain integer matrix."""
        return blockdiag(self.A, self.n)

    def assembled(self) -> tuple:
        return mat_mul(self.ntilde(), self.atilde())

    def ntilde_inverse(self) -> tuple:
        """Exact integer inverse of the [[f, S], [0, B]] block."""
        m = self.n - 2
        f_inv = self.f_alpha.inverse()
        (a, b), (c, d) = f_inv.rows()
        B_inv = unit_upper_inverse(self.B)
        SBinv = mat_mul(self.S, B_inv) if m else ((), ())
        top = [
            (a, b) + tuple(-(a * SBinv[0][j] + b * SBinv[1][j]) for j in range(m)),
            (c, d) + tuple(-(c * SBinv[0][j] + d * SBinv[1][j]) for j in range(m)),
        ]
        rows = top + [(0, 0) + B_inv[i] for i in range(m)]
        return tuple(rows)

    def to_json(self) -> dict:
        return {
            "f_alpha": self.f_alpha.to_json(),
            "A": self.A.to_json(),
            "S": [list(row) for row in self.S],
            "B": [list(row) for row in self.B],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StructuredMatrix":
        extra = set(obj) - {"f_alpha", "A", "S", "B"}
        if extra:
            raise ValueError(f"unknown structured-matrix fields: {sorted(extra)}")
        return cls(
            UnimodularMatrix2.from_json(obj["f_alpha"]),
            UnimodularMatrix2.from_json(obj["A"]),
            tuple(tuple(json_int(x, "S entry") for x in row) for row in obj["S"]),
            tuple(tuple(json_int(x, "B entry") for x in row) for row in obj["B"]),
        )

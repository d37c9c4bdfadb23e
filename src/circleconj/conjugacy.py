"""The conjugacy decision procedure and its explicit witnesses.

Two circle descriptors are conjugate exactly when their ranks and cycle
lengths agree, their base points are equivalent under the integer Mobius
action, and a layered system of congruences mod k between the twist vectors
is solvable.  A positive decision comes with a witness — the structured
matrix data (f_alpha, A, S, B) plus integer vectors w and h — satisfying

    blockdiag(A, I) @ v == [[f_alpha, S], [0, B]] @ u + w,   w in k*Z^n,

with u, v the twist vectors of the two descriptors and h the vector with
k*h == [[f_alpha, S], [0, B]]^-1 @ w.  The witness converts into an explicit
circle homeomorphism whose conjugation action can be checked numerically on
the group generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, inf
from operator import index

import mpmath
from mpmath.libmp import from_float

from .circlegroup import CircleElement, CircleGroupDescriptor, _chart_point, _float_lift, _lift
from .exactnum import (
    CertificateError,
    UnimodularMatrix2,
    cf_expand,
    denominator_at,
    equivalent,
    json_ints,
    json_object,
    mobius_apply,
    stabilizer_generator,
)
from .homeo import (
    CircleExtend,
    Compose,
    DEFAULT_PRECISION,
    EvalError,
    HomeoExpr,
    Identity,
    Inverse,
    Precision,
    _chart,
    _compile,
)
from .intmat import (
    StructuredMatrix,
    blockdiag,
    mat_mul,
    mat_vec,
    solve_congruence,
)
from .lineargroup import _declared, element_to_expr, normalizer_expr, scale_conjugator

__all__ = [
    "ConjugacyWitness",
    "Decision",
    "StructuredMatrix",
    "check_witness",
    "corrupt_witness",
    "decide",
    "decide_oracle",
    "verify_conjugation",
    "witness_compose",
    "witness_invert",
    "witness_to_homeo",
]


@dataclass(frozen=True)
class ConjugacyWitness:
    """Structured matrix plus the exact integer slack (w) and twist (h)."""

    M: StructuredMatrix
    w: tuple
    h: tuple

    def __post_init__(self) -> None:
        w = tuple(map(index, self.w))
        h = tuple(map(index, self.h))
        if len(w) != self.M.n or len(h) != self.M.n:
            raise ValueError("w and h must have length n")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "h", h)

    def to_json(self) -> dict:
        out = self.M.to_json()
        out["w"] = list(self.w)
        out["h"] = list(self.h)
        return out

    @classmethod
    def from_json(cls, obj) -> "ConjugacyWitness":
        obj = json_object(obj, "witness", ("f_alpha", "A", "S", "B", "w", "h"))
        M = StructuredMatrix.from_json({k: obj[k] for k in ("f_alpha", "A", "S", "B")})
        return cls(M, json_ints(obj["w"], "w"), json_ints(obj["h"], "h"))


@dataclass(frozen=True)
class Decision:
    verdict: str  # conjugate | not_conjugate | undecided_nonquadratic
    witness: object = None
    certificate: object = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": self.witness.to_json() if self.witness is not None else None,
            "certificate": self.certificate,
        }


def _preamble(d1: CircleGroupDescriptor, d2: CircleGroupDescriptor):
    """(A, None) with the base points' equivalence matrix A, or (None, the Decision that settles the pair)."""
    if d1.n != d2.n:
        return None, Decision(
            "not_conjugate",
            certificate={"reason": "rank_mismatch", "n": [d1.n, d2.n]},
        )
    if d1.k != d2.k:
        return None, Decision(
            "not_conjugate",
            certificate={"reason": "cycle_length_mismatch", "k": [d1.k, d2.k]},
        )
    if _declared(d1.alpha) or _declared(d2.alpha):
        return None, Decision(
            "undecided_nonquadratic",
            certificate={
                "reason": "nonquadratic_base_point",
                "detail": "base-point equivalence needs an eventually periodic "
                "continued fraction; a declared prefix cannot certify one",
            },
        )
    A = equivalent(d1.alpha, d2.alpha)
    if A is None:
        return None, Decision(
            "not_conjugate",
            certificate={
                "reason": "base_point_class",
                "cf": [cf_expand(d1.alpha).to_json(), cf_expand(d2.alpha).to_json()],
            },
        )
    return A, None


def _stabilizer_powers(T: UnimodularMatrix2, k: int):
    """T^0, ..., T^(p-1) modulo k as (m2, m1, n2, n1) tuples; p is the period of T mod k."""
    t2, t1, s2, s1 = T.mod(k)
    F = ident = UnimodularMatrix2.identity().mod(k)
    for _ in range(10**6):  # the period is finite, but bound the work for huge k
        yield F
        m2, m1, n2, n1 = F
        F = ((m2 * t2 + m1 * s2) % k, (m2 * t1 + m1 * s1) % k,
             (n2 * t2 + n1 * s2) % k, (n2 * t1 + n1 * s1) % k)
        if F == ident:
            return
    raise RuntimeError("stabilizer cycle did not close")


def decide(d1: CircleGroupDescriptor, d2: CircleGroupDescriptor) -> Decision:
    """Full decision with witness construction.

    The congruence layer works from the bottom rows up: row i of the twist
    difference must vanish modulo gcd(u_{i+1}, ..., u_n, k), and the top two
    rows must match some stabilizer power f = T^m modulo gcd(u_3, ..., u_n, k).
    Concrete S and B entries then come from extended-gcd congruence solving,
    and w, h follow exactly.  At k = 1 every modulus is 1, so f = I, S = 0,
    B = I and h = w.
    """
    A, settled = _preamble(d1, d2)
    if settled is not None:
        return settled

    n, k = d1.n, d1.k
    u, v = d1.g, d2.g
    y = mat_vec(blockdiag(A, n), v)

    # bottom rows, from the last one up
    for i in range(n, 2, -1):
        g_i = gcd(*u[i:], k)
        if (y[i - 1] - u[i - 1]) % g_i != 0:
            return Decision(
                "not_conjugate",
                certificate={
                    "reason": "congruence",
                    "row": i,
                    "residue": (y[i - 1] - u[i - 1]) % g_i,
                    "modulus": g_i,
                },
            )

    # top rows: some stabilizer power must match both components at once
    g_top = gcd(*u[2:], k)
    T = stabilizer_generator(d1.alpha)
    for m, (f2, f1, e2, e1) in enumerate(_stabilizer_powers(T, k)):
        if (y[0] - f2 * u[0] - f1 * u[1]) % g_top == (y[1] - e2 * u[0] - e1 * u[1]) % g_top == 0:
            break
    else:
        return Decision(
            "not_conjugate",
            certificate={
                "reason": "congruence_top",
                "modulus": g_top,
                "stabilizer_period_mod_k": m + 1,
            },
        )
    f = T**m
    fu = f.apply_vector((u[0], u[1]))

    # back-substitute concrete S and B entries
    S = tuple(_solve(u[2:], y[r] - fu[r], k) for r in range(2))
    B = tuple(
        (0,) * (i - 3) + (1,) + _solve(u[i:], y[i - 1] - u[i - 1], k) for i in range(3, n + 1)
    )
    M = StructuredMatrix(f, A, S, B)
    Nu = mat_vec(M.ntilde(), u)
    w = tuple(yi - nui for yi, nui in zip(y, Nu))
    wit = ConjugacyWitness(M, w, _h_from(k, M, w))
    _checked(d1, d2, wit, CertificateError, "decide built a witness that fails its check")
    return Decision("conjugate", witness=wit)


def _solve(coeffs: tuple, target: int, k: int) -> tuple:
    x = solve_congruence(list(coeffs), target, k)
    if x is None:
        raise CertificateError(f"{coeffs} . x == {target} (mod {k}) passed the gcd test unsolved")
    return tuple(x)


def decide_oracle(d1: CircleGroupDescriptor, d2: CircleGroupDescriptor) -> str:
    """Verdict by brute-force enumeration of all structured matrices mod k.

    Deliberately ignores the layered gcd reasoning of decide(): it enumerates
    every stabilizer power, every S entry and every B entry modulo k and
    tests the congruence directly.  Only sized for n <= 4 and k <= 12.
    """
    if d1.n > 4 or d1.k > 12 or d2.n > 4 or d2.k > 12:
        raise ValueError("oracle enumeration is only sized for n <= 4, k <= 12")
    A, settled = _preamble(d1, d2)
    if settled is not None:
        return settled.verdict
    n, k = d1.n, d1.k
    if k == 1:
        return "conjugate"
    images = _oracle_images(d1)
    y = tuple(x % k for x in mat_vec(blockdiag(A, n), d2.g))
    return "conjugate" if y in images else "not_conjugate"


@lru_cache(maxsize=256)
def _oracle_images(d1: CircleGroupDescriptor) -> frozenset:
    """All values of [[f, S], [0, B]] @ u modulo k, enumerated exhaustively."""
    n, k, u = d1.n, d1.k, d1.g
    T = stabilizer_generator(d1.alpha)
    f_tops = [(a * u[0] + b * u[1], c * u[0] + d * u[1]) for a, b, c, d in _stabilizer_powers(T, k)]
    m2 = n - 2
    tail = u[2:]
    upper_cells = [(i, j) for i in range(m2) for j in range(i + 1, m2)]
    bottoms = set()
    for cells in product(range(k), repeat=len(upper_cells)):
        B = [[1 if a == b else 0 for b in range(m2)] for a in range(m2)]
        for (i, j), val in zip(upper_cells, cells):
            B[i][j] = val
        bottoms.add(tuple(sum(B[r][c] * tail[c] for c in range(m2)) % k for r in range(m2)))
    tops = set()
    for fu in f_tops:
        for s in product(range(k), repeat=2 * m2):
            s0, s1 = s[:m2], s[m2:]
            tops.add(
                (
                    (fu[0] + sum(a * b for a, b in zip(s0, tail))) % k,
                    (fu[1] + sum(a * b for a, b in zip(s1, tail))) % k,
                )
            )
    return frozenset(top + bot for top in tops for bot in bottoms)


def check_witness(d1, d2, wit: ConjugacyWitness):
    """(ok, reason): exact integer/surd verification of every witness claim."""
    if _declared(d1.alpha) or _declared(d2.alpha):
        return False, "witnesses require quadratic base points"
    n, k = d1.n, d1.k
    if d2.n != n or d2.k != k:
        return False, "descriptor ranks or cycle lengths differ"
    if wit.M.n != n:
        return False, "witness rank does not match the descriptors"
    A, f = wit.M.A, wit.M.f_alpha
    if mobius_apply(A, d1.alpha) != d2.alpha:
        return False, "A does not carry the first base point to the second"
    if denominator_at(A, d1.alpha).sign() <= 0:
        return False, "A is not sign-normalized at the first base point"
    if mobius_apply(f, d1.alpha) != d1.alpha:
        return False, "f_alpha does not fix the base point"
    if denominator_at(f, d1.alpha).sign() <= 0:
        return False, "f_alpha is not sign-normalized at the base point"
    if any(x % k for x in wit.w):
        return False, "w is not a multiple of the cycle length"
    y = mat_vec(blockdiag(A, n), d2.g)
    Nu = mat_vec(wit.M.ntilde(), d1.g)
    if y != tuple(a + b for a, b in zip(Nu, wit.w)):
        return False, "the coordinate relation fails"
    hk = mat_vec(wit.M.ntilde_inverse(), wit.w)
    if hk != tuple(k * x for x in wit.h):
        return False, "h does not solve k*h = N^-1 w"
    return True, None


def _checked(d1, d2, wit: ConjugacyWitness, error: type, what: str) -> ConjugacyWitness:
    """wit, once check_witness passes it for (d1, d2); else error(f"{what}: {reason}")."""
    ok, reason = check_witness(d1, d2, wit)
    if not ok:
        raise error(f"{what}: {reason}")
    return wit


# -- witness algebra ----------------------------------------------------------------


def _repacked(d1, d2, A2: UnimodularMatrix2, full: tuple, w: tuple, what: str) -> ConjugacyWitness:
    """The witness for (d1, d2) with the given A and w whose ntilde equals
    ``full``, checked: ValueError(what) if it fails."""
    f = UnimodularMatrix2(full[0][0], full[0][1], full[1][0], full[1][1])
    S = (full[0][2:], full[1][2:])
    B = tuple(row[2:] for row in full[2:])
    M = StructuredMatrix(f, A2, S, B)
    return _checked(d1, d2, ConjugacyWitness(M, w, _h_from(d1.k, M, w)), ValueError, what)


def witness_invert(d1, d2, wit: ConjugacyWitness) -> ConjugacyWitness:
    """The witness for the swapped pair (d2, d1)."""
    n = d1.n
    At = blockdiag(wit.M.A, n)
    At_inv = blockdiag(wit.M.A.inverse(), n)
    N_inv = wit.M.ntilde_inverse()
    full = mat_mul(mat_mul(At_inv, N_inv), At)
    w2 = tuple(-x for x in mat_vec(mat_mul(At_inv, N_inv), wit.w))
    return _repacked(d2, d1, wit.M.A.inverse(), full, w2, "inverted witness failed verification")


def witness_compose(d1, d2, d3, w12: ConjugacyWitness, w23: ConjugacyWitness) -> ConjugacyWitness:
    """The witness for (d1, d3) from witnesses for (d1, d2) and (d2, d3)."""
    n = d1.n
    At12 = blockdiag(w12.M.A, n)
    At12_inv = blockdiag(w12.M.A.inverse(), n)
    conj = mat_mul(mat_mul(At12, w23.M.ntilde()), At12_inv)
    full = mat_mul(conj, w12.M.ntilde())
    A13 = w12.M.A @ w23.M.A
    w13 = tuple(
        a + b for a, b in zip(mat_vec(conj, w12.w), mat_vec(At12, w23.w))
    )
    return _repacked(d1, d3, A13, full, w13, "composed witness failed verification")


def _h_from(k: int, M: StructuredMatrix, w: tuple) -> tuple:
    hk = mat_vec(M.ntilde_inverse(), w)
    if any(x % k for x in hk):
        raise ValueError("witness slack is not divisible by the cycle length")
    return tuple(x // k for x in hk)


def corrupt_witness(d1: CircleGroupDescriptor, wit: ConjugacyWitness) -> ConjugacyWitness:
    """A deliberately broken variant for negative controls.

    For k >= 2 the twist correction h is knocked off by one; for k == 1 the
    h vector is immaterial to the realized map, so the matrix itself is
    perturbed instead.  The result fails check_witness but can still be fed
    to witness_to_homeo with check=False.
    """
    M, w, h = wit.M, wit.w, list(wit.h)
    if d1.k >= 2:
        h[-1] += 1
        return ConjugacyWitness(M, w, tuple(h))
    if d1.n >= 3:
        S = [list(M.S[0]), list(M.S[1])]
        S[0][-1] += 1
        return ConjugacyWitness(StructuredMatrix(M.f_alpha, M.A, tuple(map(tuple, S)), M.B), w, tuple(h))
    T = stabilizer_generator(d1.alpha)
    return ConjugacyWitness(StructuredMatrix(T @ M.f_alpha, M.A, M.S, M.B), w, tuple(h))


# -- realization --------------------------------------------------------------------


def witness_to_homeo(d1, d2, wit: ConjugacyWitness, check: bool = True) -> HomeoExpr:
    """The explicit conjugating circle homeomorphism for a verified witness.

    The inner line map composes the inverse base-change dilation with the
    normalizer realization of [[f_alpha, S], [0, B]]; the circle extension,
    twisted by the line element h, intertwines d1's cycle map followed by
    the bar extension of h with d2's cycle map.
    """
    if check:
        _checked(d1, d2, wit, ValueError, "witness failed verification")
    line1 = d1.line()
    M_norm = StructuredMatrix(wit.M.f_alpha, UnimodularMatrix2.identity(), wit.M.S, wit.M.B)
    phi_norm = normalizer_expr(line1, M_norm)
    if wit.M.A == UnimodularMatrix2.identity():
        phi_line = phi_norm
    else:
        phi_line = Compose.of(Inverse(scale_conjugator(line1, wit.M.A)), phi_norm)
    twist = element_to_expr(line1, wit.h) if any(wit.h) else None
    if phi_line == Identity() and twist is None:
        return Identity()
    return CircleExtend(phi_line, d1.k, twist)


def conjugation_images(d1, d2, wit: ConjugacyWitness) -> list:
    """(generator, expected image) pairs for the realized conjugation.

    With C = blockdiag(A, I)^-1 @ [[f_alpha, S], [0, B]], the cycle map goes
    to (1, -C h) and each bar generator to the matching column of C.
    """
    n, k = d1.n, d1.k
    C = mat_mul(blockdiag(wit.M.A.inverse(), n), wit.M.ntilde())
    pairs = []
    if k >= 2:
        pairs.append(
            (
                CircleElement(1, (0,) * n),
                CircleElement(1, tuple(-x for x in mat_vec(C, wit.h))),
            )
        )
    else:
        pairs.append((CircleElement(0, d1.g), CircleElement(0, mat_vec(C, d1.g))))
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        pairs.append((CircleElement(0, e), CircleElement(0, mat_vec(C, e))))
    return pairs


def _grid(d: CircleGroupDescriptor, draws, delta: float) -> list:
    """One chart point of d's arcs per draw u in [0, 1), 2 delta or more from
    the marked points: the exact arc j = floor(k u), and its place k u - j
    scaled into [2 k delta, 1 - 2 k delta] and lifted by circlegroup._float_lift."""
    low, grid = 2 * d.k * delta, []
    for u in draws:
        num, den = u.as_integer_ratio()
        j, rest = divmod(d.k * num, den)
        floors, y = _float_lift(low + (1 - 2 * low) * (rest / den), d.n - 2)
        grid.append(_chart_point((j - 1) % d.k, floors, from_float(y), d.k))
    return grid


def verify_conjugation(
    psi: HomeoExpr,
    d1: CircleGroupDescriptor,
    d2: CircleGroupDescriptor,
    wit: ConjugacyWitness,
    grid_size: int = 48,
    tol: float = 1e-6,
    p: Precision = DEFAULT_PRECISION,
    seed: int = 0,
) -> dict:
    """Numerical check that psi conjugates d1's generators to their images.

    For each generator pair the identity psi o g == g' o psi is sampled on a
    random grid that keeps twice the trust margin from the marked points j/k,
    where g and g' break and the only breakpoints psi may have (checked once
    per call), and measured by circle distance: the exact 0 with no arithmetic
    between equal sides, else in the chart when both sides end on one arc,
    from their difference carried up the wrap levels they share where it is
    below 2^(40 - working_bits) (homeo._chart); draws that still hit a
    precision guard are skipped and counted.  Each grid point is drawn inside
    that window, from one random number, as a chart point lifted in math
    floats (_grid): it costs no tan, at any margin below 1/(4k).  Only psi is
    compiled, each run of its maps inside one wrap level as one level step:
    every g and g' is evaluated on one lift of each grid point x in d1 and one
    of psi(x) in d2 (circlegroup._lift).  The report is
    JSON-ready.  Other breakpoints raise ValueError, and so do a tol that is
    not finite and positive and a trust margin of 1/(4k) or more, which
    leaves no grid point.
    """
    if not 0 < tol < inf:
        raise ValueError("tol must be finite and positive")
    if 4 * d1.k * p.singular_margin >= 1:
        raise ValueError(f"singular_margin must be below 1/(4k) = {1 / (4 * d1.k):g}")
    rng = random.Random(seed)
    grid = _grid(d1, [rng.random() for _ in range(grid_size)], p.singular_margin)
    report = {
        "grid_size": grid_size,
        "tolerance": float(tol),
        "working_bits": p.working_bits,
        "trust_margin": float(p.singular_margin),
        "generators": [],
        "ok": True,
    }
    # x is drawn as a chart point, and its lift and the lift of psi(x) are
    # shared by every g and g'; two sides on one arc are measured in the chart,
    # with no atan for a residue when they share their wrap floors
    chart, lift1, lift2 = _chart(p.working_bits), _lift(d1, p), _lift(d2, p)
    psi_run, marks = _compile(psi, p, False)
    if not marks | {d2.k} <= {d1.k}:  # psi and g' break only where the grid keeps the trust margin
        breaks = sorted(marks | {d1.k, d2.k})
        raise ValueError(f"the maps break at j/k for k in {breaks}, not only at k = {d1.k}")
    checks = [(gen, image, []) for gen, image in conjugation_images(d1, d2, wit)]  # with deviations
    for x in grid:
        try:
            _, image1 = lift1(x)
            _, image2 = lift2(psi_run(x))
        except EvalError:
            continue  # every generator skips x
        for gen, image, deviations in checks:
            try:
                deviations.append(chart.distance(psi_run(image1(gen.j, gen.h)), image2(image.j, image.h)))
            except EvalError:
                continue
    for gen, image, deviations in checks:
        worst = max(deviations, default=mpmath.mpf(0))
        report["generators"].append({
            "generator": gen.to_json(),
            "image": image.to_json(),
            "max_deviation": float(worst),
            "evaluated": len(deviations),
            "skipped": len(grid) - len(deviations),
        })
        if worst > mpmath.mpf(tol) or len(deviations) / max(1, len(grid)) < 0.9:
            report["ok"] = False
    return report

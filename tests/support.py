"""Independent brute-force oracles shared by the test-suite.

Nothing here reuses the continued-fraction machinery under test: matrices are
found by exhausting two entries and solving the other two exactly over Q.
``time_limit`` bounds the wall time of a call that must not hang.
"""

from __future__ import annotations

import contextlib
import signal
from fractions import Fraction

import mpmath
import pytest

from circleconj.exactnum import Surd, UnimodularMatrix2


@contextlib.contextmanager
def time_limit(seconds: float):
    """Fail the test that runs the body once it runs past seconds, so that a
    call that never returns fails instead of hanging the suite.  pytest.fail
    raises a BaseException, which no `except Exception` in the body catches."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def bounded_mobius_maps(x: Surd, y: Surd, bound: int) -> set:
    """Row tuples of every unimodular matrix with entries in [-bound, bound]
    whose Mobius action sends x to y.

    For fixed (m2, n2) the equation y * (m2 + n2*x) = m1 + n1*x splits into
    components over the rational basis of the radical field, which pins
    (m1, n1) uniquely; the pair is kept when it is integral, within the
    bound, and the determinant is +-1.  When x and y live over different
    squarefree radicands the sqrt(y.d) and sqrt(x.d * y.d) components carry
    no counterpart on the right side and must vanish outright.  Covers
    exactly the same search space as enumerating all four entries, at
    quadratic instead of quartic cost.
    """
    if x.is_rational or y.is_rational:
        raise ValueError("oracle expects irrational endpoints")
    p, q = Fraction(x.a, x.c), Fraction(x.b, x.c)
    r, s = Fraction(y.a, y.c), Fraction(y.b, y.c)
    d = x.d
    found = set()
    for m2 in range(-bound, bound + 1):
        for n2 in range(-bound, bound + 1):
            if m2 == 0 and n2 == 0:
                continue
            if x.d == y.d:
                n1 = (m2 * s + n2 * (r * q + s * p)) / q
                rational_part = m2 * r + n2 * (r * p + s * q * d)
            else:
                if s * (m2 + n2 * p) != 0 or s * n2 * q != 0:
                    continue
                n1 = n2 * r  # only the sqrt(x.d) component survives
                rational_part = r * (m2 + n2 * p)
            if n1.denominator != 1 or abs(n1) > bound:
                continue
            m1 = rational_part - n1 * p
            if m1.denominator != 1 or abs(m1) > bound:
                continue
            m1, n1 = int(m1), int(n1)
            if abs(m1 * n2 - n1 * m2) != 1:
                continue
            found.add(((m2, m1), (n2, n1)))
    return found


def bounded_fixers(x: Surd, bound: int) -> set:
    return bounded_mobius_maps(x, x, bound)


def signed_power_exponent(T: UnimodularMatrix2, M: UnimodularMatrix2, max_exp: int = 64):
    """m with M == +-T**m (|m| <= max_exp), or None if M is no such power."""
    targets = {M.rows(), (-M).rows()}
    for m in range(max_exp + 1):
        if (T ** m).rows() in targets:
            return m
        if m and (T ** -m).rows() in targets:
            return -m
    return None


# --------------------------------------------------------------------------
# Reference evaluation formulas, written directly against mpmath with plain
# Python callables.  These never touch the package's expression evaluator.

def ref_h(x):
    return mpmath.mpf(1) / 2 + mpmath.atan(x) / mpmath.pi


def ref_h_inv(y):
    return mpmath.tan(mpmath.pi * (y - mpmath.mpf(1) / 2))


def ref_hbar(sigma, x):
    """One wrapping level of a callable line map."""
    i = mpmath.floor(x)
    if x == i:
        return x
    return ref_h(sigma(ref_h_inv(x - i))) + i


def ref_hbar_iter(sigma, m):
    f = sigma
    for _ in range(m):
        f = (lambda g: (lambda x: ref_hbar(g, x)))(f)
    return f


def ref_canonical_f(k, gline, t):
    """Reference circle cycle map on an inexact lift t in [0, 1)."""
    kt = k * t
    j = int(mpmath.floor(kt))
    if j >= 1:
        v = t + mpmath.mpf(1) / k
        return v if v < 1 else v - 1
    w = gline(ref_h_inv(kt - mpmath.floor(kt)))
    v = (1 + ref_h(w)) / k
    return v if v < 1 else v - 1

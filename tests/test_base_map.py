"""The base map kernel: h(x) = 1/2 + arctan(x)/pi correctly rounded to nearest.

``homeo._base_map(x, prec)`` is checked against mpmath at prec + 128 bits,
rounded to nearest once, at 64, 128, 192, 256 and 512 bits: on random x of
both signs with magnitudes from 2^-(prec+8) to 2^(prec+8), on 0, +-1, the
powers of two and their neighbours, on x whose h(x) lies near a midpoint of
two prec-bit neighbours, and with the guard bits cut down so that every
value goes through the retry.  The kernel's table stays within its 2^_STEP
entries per precision however many orbit draws use it.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import finf, fnan, fninf, fone, from_man_exp, from_rational, fzero, round_nearest

from circleconj import homeo
from circleconj.circlegroup import CircleGroupDescriptor, orbit_sample
from circleconj.exactnum import Surd
from circleconj.homeo import CirclePoint, Precision

PRECS = (64, 128, 192, 256, 512)


def reference(x, prec: int):
    """h(x) from mpmath at prec + 128 bits, and at the mag(x) bits more that
    1/2 + atan(x)/pi cancels for x << 0, rounded to nearest at prec once.  It
    lies at least 2^-110 ulp away from every midpoint, so mpmath's few-ulp
    error at the wider precision cannot decide the rounding."""
    mag = x[2] + x[3]
    with mpmath.workprec(prec + 128 + max(mag, 0)):
        y = mpmath.mpf(1) / 2 + mpmath.atan(mpmath.mp.make_mpf(x)) / mpmath.pi
    sign, man, exp, bc = y._mpf_
    drop = bc - prec
    if drop > 0:
        assert abs((man & ((1 << drop) - 1)) - (1 << (drop - 1))) > 1 << max(drop - 110, 0), x
    return from_man_exp(man, exp, prec, round_nearest)


def raw(man: int, exp: int):
    return from_man_exp(man, exp)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_random_points_round_correctly(data):
    prec = data.draw(st.sampled_from(PRECS))
    man = data.draw(st.integers(1, 2**prec - 1)) * data.draw(st.sampled_from((1, -1)))
    x = raw(man, data.draw(st.integers(-(prec + 8), prec + 8)) - man.bit_length())
    assert homeo._base_map(x, prec) == reference(x, prec)


@pytest.mark.parametrize("prec", PRECS)
def test_zero_units_powers_of_two_and_their_neighbours(prec):
    assert homeo._base_map(fzero, prec) == from_rational(1, 2, prec)
    assert homeo._base_map(fone, prec) == from_rational(3, 4, prec)
    assert homeo._base_map(raw(-1, 0), prec) == from_rational(1, 4, prec)
    for k in (*range(-20, 21), *(s * m for m in (prec - 1, prec, prec + 1, prec + 8) for s in (1, -1))):
        for sign in (1, -1):
            # 2^k, and its neighbours at prec bits above and below
            for x in (raw(sign, k), raw(sign * ((1 << prec) + 1), k - prec), raw(sign * ((1 << prec) - 1), k - prec)):
                assert homeo._base_map(x, prec) == reference(x, prec), (prec, x)


def test_far_points_keep_their_relative_precision_at_one_width(monkeypatch):
    # past 2^prec, atan(1/|x|) = (1/|x|)(1 - d) with d < 2^(-2 prec), so h(x) rounds as
    # 1/(pi |x|) does for x < 0, and to 1 for x > 0; a tiny h is kept at scale, not
    # with a word as wide as x is large
    widths, table = [], homeo._base_table
    monkeypatch.setattr(homeo, "_base_table", lambda W: widths.append(W) or table(W))
    for prec in PRECS:
        for man, exp in ((3, 10**6), ((1 << prec) + 1, 10**5), (7, 3 * prec)):
            with mpmath.workprec(prec + 128):
                tiny = 1 / (mpmath.pi * mpmath.mp.make_mpf(raw(man, exp)))
            widths.clear()
            assert homeo._base_map(raw(-man, exp), prec) == from_man_exp(tiny.man, tiny.exp, prec, round_nearest)
            assert homeo._base_map(raw(man, exp), prec) == fone
            assert widths == [prec + homeo._GUARD] * 2


def test_non_finite_points_keep_their_results():
    for prec in PRECS:
        assert homeo._base_map(finf, prec) == fone
        assert homeo._base_map(fninf, prec) == fzero
        assert homeo._base_map(fnan, prec) == fnan


def near_midpoints(prec: int, extra: int, count: int):
    """Binary x of prec + extra bits whose h(x) lies about 2^-extra ulp from a
    midpoint (2^prec + 2j + 1) 2^-(prec+b) of two prec-bit values, for h in
    each of the binades [2^-b, 2^(1-b)), b = 1 to 4."""
    out, rng = [], random.Random(prec + extra)
    with mpmath.workprec(prec + extra + 64):
        for i in range(count):
            b, j = 1 + i % 4, rng.getrandbits(prec - 1)
            mid = mpmath.mpf((1 << prec) + 2 * j + 1) / (1 << (prec + b))
            x = mpmath.tan(mpmath.pi * (mid - mpmath.mpf(1) / 2))
            out.append(from_man_exp(x.man, x.exp, prec + extra, round_nearest))
    return out


@pytest.mark.parametrize("prec", PRECS)
def test_points_near_midpoints_round_correctly(prec):
    for extra in (24, 40, 56):
        for x in near_midpoints(prec, extra, 12):
            assert homeo._base_map(x, prec) == reference(x, prec), (prec, extra, x)


def test_a_retry_still_rounds_correctly(monkeypatch):
    widths, table = [], homeo._base_table

    def recorded(W):
        widths.append(W)
        return table(W)

    monkeypatch.setattr(homeo, "_base_table", recorded)
    monkeypatch.setattr(homeo, "_GUARD", 2)  # too few guard bits to decide any rounding
    for prec in PRECS:
        for x in (raw(3, -2), raw(-5, 3), raw(-(3**50), 7), raw(1, -prec), *near_midpoints(prec, 40, 4)):
            widths.clear()
            assert homeo._base_map(x, prec) == reference(x, prec), (prec, x)
            assert widths[:2] == [prec + 2, prec + 4]  # every try doubles the guard bits


def test_the_table_stays_within_its_entries_over_many_draws():
    p = Precision(working_bits=256)
    gs = {2: (1, -1), 3: (1, 0, -2), 4: (-1, 2, 0, 1)}
    for i, (n, k) in enumerate(((2, 1), (3, 2), (4, 4), (3, 1), (4, 1))):
        d = CircleGroupDescriptor(Surd(-9, 1, 1, 94), n, k, gs[n])
        orbit_sample(d, CirclePoint(Fraction(2137, 10**4)), 2000, seed=i, p=p)
    table = homeo._base_table(256 + homeo._GUARD)[1]
    assert 0 < len(table) <= 2**homeo._STEP
    assert set(table) <= set(range(1, 2**homeo._STEP + 1))

"""The twisted circle extension against two other forms of the same map.

``CircleExtend(inner, k, twist)`` takes the arc r rotations by 1/k past
(1/k, 2/k) to itself by rot(r/k) . chart(inner . twist^(-r)) . rot(-r/k).
The conjugators ``witness_to_homeo`` builds are checked against the form that
carries a point down to the first arc with r steps of d1's cycle map followed
by the bar extension of h, applies the chart copy of phi there, and carries
it up with r steps of d2's cycle map.  Random twisted extensions are checked
against the formula itself, written with line evaluations and the chart.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from circleconj.circlegroup import bar_extend, canonical_f
from circleconj.conjugacy import corrupt_witness, witness_to_homeo
from circleconj.exactnum import Surd
from circleconj.homeo import (
    CircleExtend,
    Compose,
    HbarWrap,
    Identity,
    Inverse,
    Power,
    Precision,
    Scale,
    Translate,
    circle_distance,
    eval_circle,
    eval_line,
    hbar_iter,
)
from support import ref_h, ref_h_inv
from test_verify_pin import conjugate_pairs

BITS = (128, 256)
FRACS = (0.11, 0.37, 0.62, 0.89)  # positions inside an arc, in units of 1/k


def assert_close(a, b, working_bits):
    """Circle distance of a and b within 2^-(working_bits - 16), measured exactly."""
    assert circle_distance(a, b) <= mpmath.mpf(2) ** (16 - working_bits), (a, b)


def cycle_form(d1, d2, wit, phi, r):
    """f2^r . CircleExtend(phi, k) . (f1 . bar(h))^(-r): psi on arc r as cycle-map steps."""
    f1_twisted = Compose.of(canonical_f(d1), bar_extend(d1, wit.h))
    return Compose.of(Power(canonical_f(d2), r), CircleExtend(phi, d1.k), Power(f1_twisted, -r))


@pytest.mark.parametrize("working_bits", BITS)
def test_realized_conjugators_match_their_cycle_map_form(working_bits):
    p = Precision(working_bits=working_bits)
    for d1, d2, wit in conjugate_pairs():
        for w in (wit, corrupt_witness(d1, wit)):
            psi, k = witness_to_homeo(d1, d2, w, check=False), d1.k
            phi = psi.inner if isinstance(psi, CircleExtend) else Identity()
            for r in range(k):
                ref = cycle_form(d1, d2, w, phi, r)
                for frac in FRACS:
                    t = ((r + 1) % k + frac) / k
                    assert_close(eval_circle(psi, t, p), eval_circle(ref, t, p), working_bits)


# twists and inner maps: translates wrapped up to twice, by a Fraction or by sqrt(2)
amounts = st.one_of(
    st.fractions(-3, 3, max_denominator=7),
    st.builds(lambda a, b: Surd(a, b, 1, 2), st.integers(-2, 2), st.integers(-2, 2)),
)
wrapped_translates = st.builds(lambda a, depth: hbar_iter(Translate(a), depth), amounts, st.integers(0, 2))
inner_maps = st.one_of(wrapped_translates, st.just(Identity()), st.just(HbarWrap(Scale(2))))


def formula(inner, twist, k, t, inverse, p):
    """The docstring's value of CircleExtend(inner, k, twist), or of its inverse, at t."""
    with mpmath.mp.workprec(2 * p.working_bits):
        t = mpmath.mpf(t)
        r = (int(mpmath.floor(k * t)) - 1) % k
        x = ref_h_inv((k * t - r - 1) % 1)  # rot(-r/k), then the chart of the first arc
        if inverse:
            y = eval_line(Power(twist, r), eval_line(Inverse(inner), x, p), p)
        else:
            y = eval_line(inner, eval_line(Power(twist, -r), x, p), p)
        return ((ref_h(y) + 1 + r) / k) % 1  # back through the chart, then rot(r/k)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 6), inner_maps, wrapped_translates, st.data(), st.sampled_from(BITS))
def test_a_twisted_extension_follows_its_arc_formula(k, inner, twist, data, working_bits):
    p, psi = Precision(working_bits=working_bits), CircleExtend(inner, k, twist)
    arc = data.draw(st.integers(0, k - 1), label="arc")
    t = (arc + data.draw(st.sampled_from(FRACS), label="frac")) / k
    for inverse in (False, True):
        got = eval_circle(Inverse(psi) if inverse else psi, t, p)
        assert_close(got, formula(inner, twist, k, t, inverse, p), working_bits)
    for j in range(k):
        assert eval_circle(psi, Fraction(j, k), p).t == Fraction(j, k)

"""Property-based checks of powers by the group law.

The compiler evaluates a power in one pass wherever the map has a closed
form.  The reference here is repeated composition: a ``Compose`` of |n|
copies of the map, or of its inverse, which the compiler still evaluates
one copy at a time.
"""

from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from circleconj import homeo
from circleconj.circlegroup import CircleGroupDescriptor, validate_g
from circleconj.conjugacy import corrupt_witness, decide, verify_conjugation, witness_to_homeo
from circleconj.exactnum import Surd
from circleconj.homeo import (
    CanonicalF,
    Compose,
    HbarWrap,
    Inverse,
    Power,
    Precision,
    PrecisionExhausted,
    PowerCapExceeded,
    Scale,
    Translate,
    circle_distance,
    eval_circle,
    eval_line,
    hbar_iter,
    staircase,
)
from circleconj.lineargroup import LineGroupDescriptor, element_to_expr

laws = settings(derandomize=True, deadline=None)

# the base points the benchmark draws its groups over
BASES = (Surd(-1, 1, 1, 2), Surd(-1, 1, 2, 5), Surd(-9, 1, 1, 94))
bits = st.sampled_from((128, 192, 256))


@st.composite
def line_elements(draw):
    """(descriptor, coordinates) of a nonzero element at rank 2 to 4."""
    n = draw(st.integers(2, 4))
    d = LineGroupDescriptor(draw(st.sampled_from(BASES)), n)
    return d, tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)))


# fractional parts at least 1e-3 from the breakpoints, outside the trust margin
fracs = st.floats(1e-3, 1 - 1e-3)
line_points = st.builds(lambda i, frac: i + frac, st.integers(-4, 3), fracs)


def repeated(e, n):
    """e^n as a composition of |n| copies of e or of its inverse."""
    return Compose.of(*[e if n > 0 else Inverse(e)] * abs(n))


def reference(evaluate, e, x, p):
    """evaluate(e, x, p) for a repeated composition e, where it is defined.
    One pass of it can land within the precision headroom of a breakpoint,
    for example when h^-1(1/2) = 0 meets an integer translate, although the
    power as one pass is defined there."""
    try:
        return evaluate(e, x, p)
    except PrecisionExhausted:
        assume(False)


def outcome(e, x, p):
    """The raw value of e at x, or the name of the error it raises."""
    try:
        return eval_line(e, x, p)._mpf_
    except homeo.EvalError as exc:
        return type(exc).__name__


def assert_close(a, b, working_bits):
    """|a - b| within 2^-(working_bits - 16), measured exactly."""
    with mpmath.mp.workprec(2 * working_bits):
        gap = circle_distance(a, b) if isinstance(a, homeo.CirclePoint) else abs(a - b)
    assert gap <= mpmath.mpf(2) ** (16 - working_bits), (a, b)


@laws
@given(line_elements(), st.integers(-(10**6), 10**6), line_points, bits)
def test_a_power_of_a_line_element_is_the_element_of_the_multiple(element, n, x, working_bits):
    d, c = element
    p = Precision(working_bits=working_bits)
    want = outcome(element_to_expr(d, [n * v for v in c]), x, p)
    assert outcome(Power(element_to_expr(d, c), n), x, p) == want


@laws
@given(line_elements(), st.integers(-64, 64), line_points, bits)
# the power and the reference both raise PrecisionExhausted here (the exact
# intermediate h^-1(h(2)) is the integer 2), so the example is discarded
@example(element=(LineGroupDescriptor(BASES[0], 4), (0, 1, 1, 0)), n=2, x=0.5, working_bits=128)
def test_powers_match_repeated_composition(element, n, x, working_bits):
    tau, p = element_to_expr(*element), Precision(working_bits=working_bits)
    want = reference(eval_line, repeated(tau, n), x, p)
    assert_close(eval_line(Power(tau, n), x, p), want, working_bits)


@laws
@given(line_elements(), st.integers(-64, 63), fracs, bits)
def test_staircase_steps_match_repeated_composition(element, n, frac, working_bits):
    inner, p = HbarWrap(element_to_expr(*element)), Precision(working_bits=working_bits)
    x = n + frac  # step n applies inner^n
    want = reference(eval_line, repeated(inner, n), x, p)
    assert_close(eval_line(staircase(inner), x, p), want, working_bits)


@laws
@given(st.integers(1, 6), line_elements(), st.data(), bits)
def test_cycle_map_powers_match_repeated_composition(k, element, data, working_bits):
    f, p = CanonicalF(k, element_to_expr(*element)), Precision(working_bits=working_bits)
    m = data.draw(st.integers(-3 * k, 3 * k), label="m")
    t = (data.draw(st.integers(0, k - 1), label="arc") + data.draw(fracs, label="frac")) / k
    want = reference(eval_circle, repeated(f, m), t, p)
    assert_close(eval_circle(Power(f, m), t, p), want, working_bits)
    j = data.draw(st.integers(0, k - 1), label="j")
    assert eval_circle(Power(f, m), Fraction(j, k), p).t == Fraction((j + m) % k, k)


@st.composite
def rank_4_pairs(draw):
    """A conjugate pair of rank-4 circle groups over GL(2,Z) images of one base."""
    k, base = draw(st.integers(1, 3)), draw(st.sampled_from(BASES))
    descriptors = []
    for _ in range(2):
        alpha = base
        for a in draw(st.lists(st.integers(1, 5), max_size=2)):
            alpha = 1 / (a + alpha)
        g = draw(st.tuples(*[st.integers(-2, 2)] * 4).filter(lambda g: validate_g(g, k)[0]))
        descriptors.append(CircleGroupDescriptor(alpha, 4, k, g))
    dec = decide(*descriptors)
    assume(dec.verdict == "conjugate")
    f = dec.witness.M.f_alpha  # a large f_alpha hides the corrupted control (a known defect)
    assume(max(abs(f.m2), abs(f.m1), abs(f.n2), abs(f.n1)) <= 10**5)
    return (*descriptors, dec.witness)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(rank_4_pairs())
def test_rank_4_verification_skips_nothing_and_rejects_its_control(pair):
    d1, d2, wit = pair
    report = verify_conjugation(witness_to_homeo(d1, d2, wit), d1, d2, wit, grid_size=16)
    assert report["ok"] and all(g["skipped"] == 0 for g in report["generators"]), report
    bad = witness_to_homeo(d1, d2, corrupt_witness(d1, wit), check=False)
    assert not verify_conjugation(bad, d1, d2, wit, grid_size=16)["ok"]


def test_a_power_distributes_only_over_commuting_wrapped_translates():
    sqrt2 = Surd.sqrt(2)
    commuting = (hbar_iter(Translate(sqrt2), 2), HbarWrap(Translate(1)), Translate(-2))
    assert homeo._commuting(commuting)
    assert homeo._commuting((HbarWrap(Translate(sqrt2)), HbarWrap(Translate(Fraction(1, 3)))))
    assert not homeo._commuting((HbarWrap(Translate(1)), Translate(sqrt2)))
    assert not homeo._commuting((HbarWrap(Translate(sqrt2)), Scale(2)))
    # a distributed power has no cap; any other composition repeats, up to the cap
    with mock.patch.object(homeo, "_commuting", wraps=homeo._commuting) as check:
        got = eval_line(Power(Compose(commuting), 100), 0.3)
    assert check.call_count == 1
    assert got._mpf_ == eval_line(Compose(tuple(Power(e, 100) for e in commuting)), 0.3)._mpf_
    with pytest.raises(PowerCapExceeded):
        eval_line(Power(Compose((HbarWrap(Translate(sqrt2)), Translate(sqrt2))), 65), 0.5)
